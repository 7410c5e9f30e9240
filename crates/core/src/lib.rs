//! # prosper-core
//!
//! The paper's primary contribution: **Prosper**, a hardware–software
//! (OS) co-designed checkpoint mechanism that tracks program-stack
//! modifications at sub-page byte granularity.
//!
//! ## Architecture (Figures 5–7 of the paper)
//!
//! * [`msr`] — the custom per-core MSRs through which the OS programs
//!   the tracker: stack address range, tracking granularity, bitmap
//!   base address, control/status (including the outstanding-operation
//!   counters used for quiescence and the active-region watermark).
//! * [`lookup`] — the small in-tracker lookup table that coalesces
//!   bitmap stores. Entries are `<bitmap word address, 32-bit bitmap
//!   value>`; flushes trigger on the high-water-mark (HWM), evictions
//!   prefer entries below the low-water-mark (LWM), falling back to a
//!   random victim. Both allocation policies from Section III-B are
//!   implemented: **Accumulate-and-Apply** (the paper's choice) and
//!   **Load-and-Update** (for ablation).
//! * [`bitmap`] — the dirty bitmap in DRAM, plus the OS-side
//!   inspection that coalesces contiguous set bits into copy runs.
//! * [`tracker`] — the per-core dirty tracker: filters stores of
//!   interest against the stack range, updates the lookup table, and
//!   emits the bitmap loads/stores the machine model injects as
//!   background traffic.
//! * [`oscomp`] — the Prosper OS component: implements the
//!   [`prosper_gemos::checkpoint::MemoryPersistence`] plug-in, running
//!   the two-step quiescence handshake, active-region-bounded bitmap
//!   inspection, and the two-step NVM copy at each checkpoint.
//! * [`persist`] — the data plane: a per-thread persistent stack in
//!   NVM with its staging buffer and delta spine, mutated only by
//!   [`recovery`]'s commit engine.
//! * [`multithread`] — per-hardware-thread tracker state with context-
//!   switch save/restore (Section III-C).
//! * [`recovery`] — whole-process two-phase commit (stage / seal /
//!   apply) binding every thread's stack and registers to one
//!   checkpoint sequence.
//! * [`faultinject`] — the exhaustive crash-point sweep: enumerates
//!   every step boundary of the checkpoint pipeline, injects a
//!   simulated power failure at each, and asserts the recovery
//!   invariants.
//! * [`energy`] — CACTI-P-derived energy/area accounting (Section V).
//!
//! # Example
//!
//! ```
//! use prosper_core::tracker::{DirtyTracker, TrackerConfig};
//! use prosper_memsim::addr::{VirtAddr, VirtRange};
//!
//! let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000));
//! let mut t = DirtyTracker::new(TrackerConfig::default());
//! t.configure(range, VirtAddr::new(0x1000_0000));
//! let mut ops = Vec::new();
//! t.observe_store(VirtAddr::new(0x7000_1234), 8, &mut ops);
//! assert!(ops.len() <= 2, "coalesced stores rarely emit traffic");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod bitmap;
pub mod energy;
pub mod faultinject;
pub mod lookup;
pub mod msr;
pub mod multithread;
pub mod oscomp;
pub mod persist;
pub mod recovery;
pub mod tracker;

pub use oscomp::ProsperMechanism;
pub use persist::SpineConfig;
pub use tracker::{DirtyTracker, TrackerConfig};
