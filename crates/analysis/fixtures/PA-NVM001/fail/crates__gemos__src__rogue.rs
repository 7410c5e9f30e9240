//! Fixture: a rogue caller mutating staging state outside persist.rs.
pub fn sneak_write(stack: &mut PersistentStack) {
    stack.begin_stage(1);
    stack.begin_stage_at(2);
    stack.stage_run(0, 0, 64); // must be flagged
    stack.seal_to_spine(2);
    stack.sealed = true; // and this
}
