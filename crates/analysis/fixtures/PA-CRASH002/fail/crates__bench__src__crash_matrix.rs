//! Fixture: the matrix also misses `MidApply`, `MidPipelineStage`,
//! and `MidMerge`.
pub fn sites() -> Vec<CrashSite> {
    vec![
        CrashSite::PreStage,
        CrashSite::PostSeal { tid: 0 },
        CrashSite::MidSwitchSave,
        CrashSite::BatchSeal { tid: 1 },
        CrashSite::MergeRetire { tid: 1 },
    ]
}
