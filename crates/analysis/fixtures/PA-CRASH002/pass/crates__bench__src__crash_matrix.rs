//! Fixture: the matrix exercises every variant.
pub fn sites() -> Vec<CrashSite> {
    vec![
        CrashSite::PreStage,
        CrashSite::PostSeal { tid: 0 },
        CrashSite::MidSwitchSave,
        CrashSite::BatchSeal { tid: 1 },
        CrashSite::MidMerge {
            tid: 1,
            batches_folded: 2,
        },
        CrashSite::MergeRetire { tid: 1 },
    ]
}
