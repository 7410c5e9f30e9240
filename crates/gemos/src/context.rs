//! Context-switch cost.
//!
//! The paper measures ~870 extra cycles per context switch for saving
//! and restoring the Prosper tracker state (Section V, "Context switch
//! overhead of Prosper"). That save/restore protocol lives with the
//! tracker (`prosper_core::multithread::MultiThreadTracker::schedule`);
//! this module holds the OS cost every switch pays with or without it.

use prosper_memsim::Cycles;

/// Baseline OS context-switch cost (register save/restore, runqueue
/// bookkeeping, address-space switch) — charged for every switch, with
/// or without Prosper.
pub const BASELINE_SWITCH_CYCLES: Cycles = 2_000;
