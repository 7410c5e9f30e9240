//! Fixture: `MidApply`, `MidPipelineStage`, and `MidMerge` have
//! neither injection nor matrix coverage; the other spine sites and
//! the context-switch site are covered.
pub enum CrashSite {
    PreStage,
    PostSeal { tid: u32 },
    MidApply { tid: u32 },
    MidPipelineStage { tid: u32, runs_staged: u32 },
    MidSwitchSave,
    BatchSeal { tid: u32 },
    MidMerge { tid: u32, batches_folded: u64 },
    MergeRetire { tid: u32 },
}
