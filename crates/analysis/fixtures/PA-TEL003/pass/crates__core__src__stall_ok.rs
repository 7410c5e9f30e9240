//! Fixture: the crash-matrix counters and the tracker and spine
//! gauges, registered and kind-correct.
pub fn report(r: &Registry) {
    r.counter("prosper.crashmatrix.sites").add(210);
    r.gauge("prosper.tracker.granularity").set(64);
    r.gauge("prosper.spine.batches").set(3);
    r.counter("prosper.crashmatrix.survived").add(210);
    r.counter("prosper.crashmatrix.failures").add(0);
}
