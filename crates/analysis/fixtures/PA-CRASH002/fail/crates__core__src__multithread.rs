//! Fixture: the context-switch site is injected by the tracker
//! multiplexer, not the commit pipeline.
pub fn switch_out(inj: &mut FaultInjector) {
    flush_lookup_table();
    crash_window!(inj, CrashSite::MidSwitchSave);
}
