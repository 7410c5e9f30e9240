//! Fixture: the context-switch site's injection point lives in the
//! tracker multiplexer, not the commit pipeline.
pub fn switch_out(inj: &mut FaultInjector) {
    flush_lookup_table();
    crash_window!(inj, CrashSite::MidSwitchSave);
}
