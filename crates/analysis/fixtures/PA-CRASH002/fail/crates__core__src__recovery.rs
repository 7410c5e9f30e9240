//! Fixture: injection points skip `MidApply`, `MidPipelineStage`, and
//! `MidMerge`.
pub fn commit(inj: &mut FaultInjector) {
    crash_window!(inj, CrashSite::PreStage);
    seal();
    crash_window!(inj, CrashSite::PostSeal { tid: 0 });
    crash_window!(inj, CrashSite::BatchSeal { tid: 0 });
    crash_window!(inj, CrashSite::MergeRetire { tid: 0 });
}
