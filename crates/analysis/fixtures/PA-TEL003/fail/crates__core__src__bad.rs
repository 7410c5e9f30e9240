//! Fixture: a typo, a kind mismatch, and an ill-formed name.
pub fn report(r: &Registry) {
    r.counter("prosper.spine.merged_bytez").add(1); // typo: unregistered
    r.counter("prosper.ckpt.phase.stage_cycles").add(1); // registered as histogram
    r.histogram("Prosper.Bad.Name").record(1); // ill-formed
}
