//! # prosper-memsim
//!
//! A deterministic, trace-driven memory-hierarchy simulator substrate for
//! the Prosper reproduction. It models the machine described in Table II
//! of the paper: a blocking 3 GHz core with a three-level
//! set-associative LRU cache hierarchy, a DDR4-2400-like DRAM device,
//! and a PCM-like NVM device with a bounded write buffer.
//!
//! The simulator is *cycle-accounting*, not cycle-accurate: each memory
//! access is charged a latency derived from where it hits in the
//! hierarchy, and device/bandwidth contention is modelled with simple
//! queue-occupancy accounting. This is sufficient to reproduce the
//! *relative* effects the paper reports (DRAM vs NVM latency gap, the
//! cost of tracker-injected bitmap traffic, checkpoint copy costs),
//! which are all memory-system effects.
//!
//! The central type is [`machine::Machine`], which drives a stream of
//! accesses through the hierarchy and exposes a snoop port used by
//! hardware components (such as the Prosper dirty tracker) that observe
//! stores before the L1D. Inside a posting window the machine hands
//! its model state to one worker thread and posts the accesses whose
//! results nobody reads, so a caller's own work overlaps the model's
//! (see [`machine`]).
//!
//! # Example
//!
//! ```
//! use prosper_memsim::config::MachineConfig;
//! use prosper_memsim::machine::Machine;
//! use prosper_memsim::addr::VirtAddr;
//!
//! let mut m = Machine::new(MachineConfig::setup_i());
//! let lat = m.store(VirtAddr::new(0x7fff_f000), 8);
//! assert!(lat > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod addr;
pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod machine;
pub mod memctrl;
pub mod multicore;
pub mod nvm;
pub mod stats;
pub mod tlb;

pub use addr::{PhysAddr, VirtAddr};
pub use config::MachineConfig;
pub use machine::{CkptPhase, Machine, NvmPhaseBytes};

/// A simulated clock-cycle count at the core frequency (3 GHz in both
/// Table II setups).
pub type Cycles = u64;

/// Number of bytes in the simulated cache line (Table II: 64 B in L1,
/// L2, and L3).
pub const CACHE_LINE: u64 = 64;

/// Number of bytes in the simulated OS page (4 KiB, as in the paper's
/// page-granularity dirty-tracking discussion).
pub const PAGE_SIZE: u64 = 4096;

/// The host's available parallelism (1 if it cannot be read), queried
/// once per process. `std::thread::available_parallelism` reads
/// cgroup files on every call, so the checkpoint manager reads this
/// one value when it decides whether a run gets a model worker.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}
