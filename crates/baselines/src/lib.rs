//! # prosper-baselines
//!
//! The memory-persistence mechanisms the paper compares Prosper
//! against, each implemented as a
//! [`prosper_gemos::checkpoint::MemoryPersistence`] plug-in or, for
//! the Figure 3 motivation study, as a trace-replay engine:
//!
//! * [`mechanism`] — the Table I capability matrix;
//! * [`dirtybit`] — LDT-style page-granularity dirty-bit checkpointing;
//! * [`writeprotect`] — SoftDirty-style write-protect fault tracking;
//! * [`romulus`] — Romulus adapted as a HW/SW co-design for the stack:
//!   twin main/backup copies in NVM, a hardware log of stack
//!   modifications, and an uncoalesced software copy at commit;
//! * [`ssp`] — sub-page shadow paging at cache-line granularity with a
//!   background page-consolidation OS thread (10 µs / 100 µs / 1 ms);
//! * [`logging`] — flush (`clwb`-per-store), undo, and redo logging,
//!   each replayable with and without stack-pointer awareness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dirtybit;
pub mod logging;
pub mod mechanism;
pub mod romulus;
pub mod ssp;
pub mod writeprotect;

pub use dirtybit::DirtybitMechanism;
pub use romulus::RomulusMechanism;
pub use ssp::SspMechanism;
pub use writeprotect::WriteProtectMechanism;
