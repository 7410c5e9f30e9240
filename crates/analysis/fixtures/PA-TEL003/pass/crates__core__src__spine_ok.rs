//! Fixture: the staged-delta-spine names, registered and
//! kind-correct.
pub fn report(r: &Registry) {
    r.gauge("prosper.commit.workers").set(1);
    r.counter("prosper.spine.merges").add(1);
    r.counter("prosper.spine.merged_bytes").add(4096);
    r.histogram("prosper.commit.phase.merge_ns").record(512);
    r.histogram("prosper.ckpt.phase.merge_cycles").record(40);
}
