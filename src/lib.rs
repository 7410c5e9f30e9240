//! # prosper-repro
//!
//! Umbrella crate of the Prosper reproduction (HPCA 2024: *Prosper:
//! Program Stack Persistence in Hybrid Memory Systems*). It re-exports
//! the workspace crates so examples and downstream users need a single
//! dependency:
//!
//! * [`memsim`] — the hybrid DRAM+NVM memory-hierarchy simulator;
//! * [`trace`] — workload and micro-benchmark trace generators;
//! * [`gemos`] — the OS model (paging, registers, checkpoints, crash
//!   sites);
//! * [`core`] — Prosper itself (tracker, bitmap, OS component,
//!   persistent stack);
//! * [`baselines`] — Dirtybit, write-protect, Romulus, SSP, and
//!   flush/undo/redo logging.
//!
//! See `examples/quickstart.rs` for a three-minute tour and DESIGN.md
//! for the system inventory.

#![forbid(unsafe_code)]
pub use prosper_baselines as baselines;
pub use prosper_core as core;
pub use prosper_gemos as gemos;
pub use prosper_memsim as memsim;
pub use prosper_trace as trace;
