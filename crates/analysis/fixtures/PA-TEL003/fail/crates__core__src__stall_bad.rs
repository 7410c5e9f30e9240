//! Fixture: misuse of the crash-matrix / tracker namespaces — a typo,
//! two kind mismatches, and an unregistered crash-matrix metric.
pub fn report(r: &Registry) {
    r.counter("prosper.crashmatrix.sitess").add(250); // typo: unregistered
    r.gauge("prosper.crashmatrix.sites").set(250); // registered as counter
    r.histogram("prosper.tracker.granularity").record(2048); // registered as gauge
    r.counter("prosper.crashmatrix.crashes").inc(); // unregistered (sites exists)
}
