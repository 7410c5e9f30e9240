//! Fixture: registered, kind-correct telemetry names.
pub fn report(r: &Registry) {
    r.counter("prosper.spine.merges").add(1);
    r.histogram("prosper.ckpt.phase.inspect_cycles").record(10);
    r.gauge("prosper.commit.workers").set(1);
}
