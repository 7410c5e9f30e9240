//! Fixture: a fully covered crash-site enum, including the
//! staged-delta-spine and context-switch sites.
pub enum CrashSite {
    /// Before anything was staged.
    PreStage,
    /// After the seal.
    PostSeal { tid: u32 },
    /// Switch-out: lookup table flushed, MSRs not yet saved.
    MidSwitchSave,
    /// After a delta batch was appended to the spine.
    BatchSeal { tid: u32 },
    /// Mid-way through folding spine batches.
    MidMerge { tid: u32, batches_folded: u64 },
    /// After the fold, before the merged batches retire.
    MergeRetire { tid: u32 },
}
