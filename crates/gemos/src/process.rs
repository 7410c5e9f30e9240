//! Per-thread register state.
//!
//! The checkpoint subsystem persists the full execution state of a
//! process: CPU registers per thread plus the mutable memory segments.
//! This module models the register side; the memory-persistence
//! mechanisms plug into [`crate::checkpoint`], and the torn-write-safe
//! register slots live in [`crate::restore`].

use serde::{Deserialize, Serialize};

/// x86-64-style general-purpose register file plus instruction and
/// stack pointers — the non-memory state a checkpoint captures.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RegisterFile {
    /// General-purpose registers.
    pub gpr: [u64; 16],
    /// Instruction pointer.
    pub rip: u64,
    /// Stack pointer.
    pub rsp: u64,
    /// Flags.
    pub rflags: u64,
}

impl RegisterFile {
    /// Serialized size in bytes (what a register checkpoint writes to
    /// NVM).
    pub const CHECKPOINT_BYTES: u64 = 16 * 8 + 3 * 8;
}
