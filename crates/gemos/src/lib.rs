//! # prosper-gemos
//!
//! A GemOS-like operating-system model for the Prosper reproduction.
//!
//! The paper builds its end-to-end checkpoint solution on GemOS, a small
//! teaching OS running on gem5, extended with hybrid-memory (DRAM+NVM)
//! support and a periodic application checkpoint/restore subsystem. This
//! crate models the pieces of that OS the experiments exercise:
//!
//! * [`pte`] / [`pagetable`] — 4 KiB paging with present/writable/
//!   accessed/dirty bits, dirty-bit reset/collect walks (the Dirtybit
//!   baseline) and write-protect fault tracking (the SoftDirty-style
//!   baseline);
//! * [`image`] — sparse byte-addressable memory images used as ground
//!   truth and persistent copies in crash-consistency tests;
//! * [`slots`] — the slot table the images and the dirty bitmap keep
//!   their pages in, found by page number rather than by hash;
//! * [`process`] — per-thread register state;
//! * [`checkpoint`] — the [`checkpoint::MemoryPersistence`] plug-in
//!   trait implemented by Prosper and every baseline, plus the
//!   [`checkpoint::CheckpointManager`] that drives periodic-interval
//!   experiments end to end;
//! * [`crash`] — the named crash sites of the checkpoint pipeline and
//!   the deterministic fault injector that fires at them;
//! * [`restore`] — torn-write-safe register slots (ping-pong, validity
//!   marker written last) and the per-process store of them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod crash;
pub mod image;
pub mod pagetable;
pub mod process;
pub mod pte;
pub mod restore;
pub mod slots;

pub use checkpoint::{CheckpointManager, CheckpointOutcome, MemoryPersistence};
pub use pagetable::PageTable;
