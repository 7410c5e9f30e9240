//! Fixture: the spine counters and the commit gauge, registered and
//! kind-correct.
pub fn report(r: &Registry) {
    r.counter("prosper.spine.merges").add(210);
    r.gauge("prosper.commit.workers").set(1);
    r.counter("prosper.spine.merged_bytes").add(210);
}
