//! SniP-style trace analysis helpers.
//!
//! The paper's motivation section post-processes Pin/SniP stack traces
//! to derive: the stack share of memory operations (Fig. 1), writes
//! beyond the interval-final SP (Fig. 2), and checkpoint copy sizes at
//! different tracking granularities (Fig. 4). This module packages
//! the operation mix and the SP trajectory over any [`TraceSource`];
//! the Fig. 4 copy sizes come from `Interval::checkpoint_bytes`.

use serde::{Deserialize, Serialize};

use crate::record::{AccessKind, Region, TraceEvent};
use crate::source::TraceSource;

/// Aggregate memory-operation mix of a trace window.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct OperationMix {
    /// Loads from the stack.
    pub stack_loads: u64,
    /// Stores to the stack.
    pub stack_stores: u64,
    /// Loads from the heap.
    pub heap_loads: u64,
    /// Stores to the heap.
    pub heap_stores: u64,
    /// Everything else.
    pub other: u64,
}

impl OperationMix {
    /// Total memory operations.
    pub fn total(&self) -> u64 {
        self.stack_loads + self.stack_stores + self.heap_loads + self.heap_stores + self.other
    }

    /// Fraction of operations hitting the stack (Fig. 1's y-axis).
    pub fn stack_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.stack_loads + self.stack_stores) as f64 / t as f64
        }
    }

    /// Fraction of stack operations that are stores.
    pub fn stack_write_share(&self) -> f64 {
        let s = self.stack_loads + self.stack_stores;
        if s == 0 {
            0.0
        } else {
            self.stack_stores as f64 / s as f64
        }
    }
}

/// Computes the operation mix over `ops` memory operations of a
/// source.
pub fn operation_mix<S: TraceSource>(source: &mut S, ops: u64) -> OperationMix {
    let mut mix = OperationMix::default();
    let mut seen = 0;
    while seen < ops {
        if let TraceEvent::Access(a) = source.next_event() {
            seen += 1;
            match (a.region, a.kind) {
                (Region::Stack, AccessKind::Load) => mix.stack_loads += 1,
                (Region::Stack, AccessKind::Store) => mix.stack_stores += 1,
                (Region::Heap, AccessKind::Load) => mix.heap_loads += 1,
                (Region::Heap, AccessKind::Store) => mix.heap_stores += 1,
                (Region::Other, _) => mix.other += 1,
            }
        }
    }
    mix
}

/// SP-trajectory statistics over a trace window: how deep the stack
/// grows and how often it moves (the grow/shrink usage pattern of
/// Section I).
#[derive(Clone, Copy, Default, Debug, Serialize, Deserialize)]
pub struct SpTrajectory {
    /// Deepest stack use observed in bytes (top − min SP).
    pub max_depth_bytes: u64,
    /// Number of SP changes observed between consecutive accesses.
    pub sp_moves: u64,
    /// Accesses sampled.
    pub samples: u64,
}

/// Computes SP-trajectory statistics over `ops` memory operations.
pub fn sp_trajectory<S: TraceSource>(source: &mut S, ops: u64) -> SpTrajectory {
    let top = source.stack().top();
    let mut t = SpTrajectory::default();
    let mut last_sp = None;
    let mut seen = 0;
    while seen < ops {
        if let TraceEvent::Access(a) = source.next_event() {
            seen += 1;
            t.samples += 1;
            t.max_depth_bytes = t.max_depth_bytes.max(top - a.sp);
            if let Some(prev) = last_sp {
                if prev != a.sp {
                    t.sp_moves += 1;
                }
            }
            last_sp = Some(a.sp);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{MicroBench, MicroSpec};
    use crate::workloads::{Workload, WorkloadProfile};

    #[test]
    fn mix_partitions_everything() {
        let mut w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
        let mix = operation_mix(&mut w, 10_000);
        assert_eq!(mix.total(), 10_000);
        assert!(mix.stack_fraction() > 0.5);
        assert!(mix.stack_write_share() > 0.3);
    }

    #[test]
    fn empty_mix_is_zero() {
        let m = OperationMix::default();
        assert_eq!(m.total(), 0);
        assert_eq!(m.stack_fraction(), 0.0);
        assert_eq!(m.stack_write_share(), 0.0);
    }

    #[test]
    fn trajectory_sees_recursion_depth() {
        let mut b = MicroBench::new(MicroSpec::Recursive { depth: 12 }, 2);
        let t = sp_trajectory(&mut b, 5_000);
        assert!(t.max_depth_bytes >= 12 * 96, "depth {}", t.max_depth_bytes);
        assert!(t.sp_moves > 0);
        assert_eq!(t.samples, 5_000);
    }

    #[test]
    fn ycsb_moves_sp_more_than_stream() {
        let mut y = Workload::new(WorkloadProfile::ycsb_mem(), 4);
        let mut s = MicroBench::new(
            MicroSpec::Stream {
                array_bytes: 32 * 1024,
            },
            4,
        );
        let ty = sp_trajectory(&mut y, 20_000);
        let ts = sp_trajectory(&mut s, 20_000);
        assert!(ty.sp_moves > ts.sp_moves);
    }
}
