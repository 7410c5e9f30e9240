//! Concurrent per-core tracking study.
//!
//! Prosper instantiates one dirty tracker per core (Section III-D);
//! with several persistent applications running on different cores,
//! each tracker injects its own bitmap traffic into the shared L3 and
//! memory bus. This study runs one workload per core — with and
//! without tracking — and reports each core's slowdown, verifying that
//! per-core tracking does not compound across cores.

use prosper_core::tracker::{DirtyTracker, TrackerConfig};
use prosper_memsim::addr::VirtAddr;
use prosper_memsim::config::MachineConfig;
use prosper_memsim::multicore::MultiCoreMachine;
use prosper_memsim::Cycles;
use prosper_trace::record::{AccessKind, Region, TraceEvent};
use prosper_trace::source::TraceSource;
use prosper_trace::stack::StackModel;
use prosper_trace::workloads::{Workload, WorkloadProfile};
use serde::Serialize;

use crate::report::Table;
use crate::scale::SEED;

/// One core's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct CoreRow {
    /// Core index.
    pub core: usize,
    /// Workload on the core.
    pub workload: String,
    /// Core cycles without tracking.
    pub base_cycles: Cycles,
    /// Core cycles with its tracker active.
    pub tracked_cycles: Cycles,
}

impl CoreRow {
    /// Tracked/untracked slowdown (≥ 1.0 − ε).
    pub fn slowdown(&self) -> f64 {
        self.tracked_cycles as f64 / self.base_cycles as f64
    }
}

fn run(profiles: &[WorkloadProfile], ops_per_core: u64, tracked: bool) -> Vec<Cycles> {
    let mut machine = MultiCoreMachine::new(MachineConfig::setup_i(), profiles.len());
    let mut workloads: Vec<Workload> = Vec::new();
    let mut trackers: Vec<DirtyTracker> = Vec::new();
    for (i, p) in profiles.iter().enumerate() {
        let top = VirtAddr::new(0x7000_0000_0000 + (i as u64) * 0x1_0000_0000);
        let stack = StackModel::with_layout(i as u32, top, 8 * 1024 * 1024);
        let mut tracker = DirtyTracker::new(TrackerConfig::default());
        tracker.configure(
            stack.reserved_range(),
            VirtAddr::new(0x1000_0000 + (i as u64) * 0x100_0000),
        );
        workloads.push(Workload::with_stack(p.clone(), SEED + i as u64, stack));
        trackers.push(tracker);
    }

    // Interleave the cores round-robin so bus contention overlaps.
    let mut ops = Vec::new();
    for _ in 0..ops_per_core {
        for c in 0..profiles.len() {
            match workloads[c].next_event() {
                TraceEvent::Compute(cy) => machine.advance(c, cy),
                TraceEvent::Access(a) => {
                    match a.kind {
                        AccessKind::Load => machine.load(c, a.vaddr, u64::from(a.size)),
                        AccessKind::Store => machine.store(c, a.vaddr, u64::from(a.size)),
                    };
                    if tracked && a.region == Region::Stack && a.kind == AccessKind::Store {
                        ops.clear();
                        trackers[c].observe_store(a.vaddr, u64::from(a.size), &mut ops);
                        for &op in &ops {
                            match op {
                                prosper_core::lookup::BitmapOp::Load(addr) => {
                                    machine.inject_load(c, VirtAddr::new(addr), 4)
                                }
                                prosper_core::lookup::BitmapOp::Store(addr, _) => {
                                    machine.inject_store(c, VirtAddr::new(addr), 4)
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    (0..profiles.len()).map(|c| machine.now(c)).collect()
}

/// Runs the per-core tracking study on the three application
/// workloads, one per core.
pub fn multicore_study(ops_per_core: u64) -> (Vec<CoreRow>, Table) {
    let profiles = WorkloadProfile::applications();
    let base = run(&profiles, ops_per_core, false);
    let tracked = run(&profiles, ops_per_core, true);
    let rows: Vec<CoreRow> = profiles
        .iter()
        .enumerate()
        .map(|(core, p)| CoreRow {
            core,
            workload: p.name.to_string(),
            base_cycles: base[core],
            tracked_cycles: tracked[core],
        })
        .collect();
    let mut table = Table::new(
        "Concurrent per-core tracking: core slowdown with all trackers active",
        &[
            "core",
            "workload",
            "base cycles",
            "tracked cycles",
            "slowdown",
        ],
    );
    for r in &rows {
        table.push_row(&[
            r.core.to_string(),
            r.workload.clone(),
            r.base_cycles.to_string(),
            r.tracked_cycles.to_string(),
            format!("{:.4}", r.slowdown()),
        ]);
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_core_tracking_overhead_stays_small() {
        let (rows, _) = multicore_study(60_000);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            let s = r.slowdown();
            assert!(
                (0.99..1.10).contains(&s),
                "core {} ({}): slowdown {s}",
                r.core,
                r.workload
            );
        }
    }

    #[test]
    fn cores_progress_independently() {
        let (rows, _) = multicore_study(20_000);
        // Different workloads have different memory intensity, so
        // their core clocks differ.
        assert!(rows[0].base_cycles != rows[2].base_cycles);
    }
}
