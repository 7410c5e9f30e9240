//! Ablation studies of the design choices DESIGN.md calls out:
//!
//! * **Coalescing** — the straw-man tracker of Section III-B (bitmap
//!   store per SOI) vs the lookup table;
//! * **Allocation policy** — Accumulate-and-Apply (the paper's choice)
//!   vs Load-and-Update;
//! * **Adaptive granularity** — the dynamic-granularity policy
//!   (future work in the paper) vs the fixed default.

use prosper_core::lookup::AllocPolicy;
use prosper_core::tracker::TrackerConfig;
use prosper_core::ProsperMechanism;
use prosper_gemos::checkpoint::CheckpointManager;
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_trace::micro::{MicroBench, MicroSpec};
use prosper_trace::workloads::{Workload, WorkloadProfile};
use serde::Serialize;

use crate::report::Table;
use crate::scale::{DEFAULT_INTERVALS, INTERVAL_10MS, SEED};

/// One ablation configuration's measurements.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// Configuration label.
    pub config: String,
    /// Total run cycles.
    pub total_cycles: u64,
    /// Bitmap loads + stores emitted by the tracker.
    pub bitmap_traffic: u64,
    /// Bytes copied at checkpoints.
    pub bytes_copied: u64,
}

fn run_workload_config(profile: &WorkloadProfile, mut mech: ProsperMechanism) -> AblationRow {
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, INTERVAL_10MS);
    let w = Workload::new(profile.clone(), SEED);
    let res = mgr.run_stack_only(w, &mut mech, DEFAULT_INTERVALS);
    let stats = mech.tracker().lookup_stats();
    AblationRow {
        config: String::new(),
        total_cycles: res.total_cycles,
        bitmap_traffic: stats.bitmap_loads + stats.bitmap_stores,
        bytes_copied: res.bytes_copied,
    }
}

fn run_micro_config(spec: MicroSpec, mut mech: ProsperMechanism) -> AblationRow {
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, INTERVAL_10MS);
    let bench = MicroBench::new(spec, SEED);
    let res = mgr.run_stack_only(bench, &mut mech, DEFAULT_INTERVALS);
    let stats = mech.tracker().lookup_stats();
    AblationRow {
        config: String::new(),
        total_cycles: res.total_cycles,
        bitmap_traffic: stats.bitmap_loads + stats.bitmap_stores,
        bytes_copied: res.bytes_copied,
    }
}

/// Coalescing ablation: straw-man (store per SOI) vs the 16-entry
/// lookup table, on a write-heavy workload.
pub fn ablation_coalescing() -> (Vec<AblationRow>, Table) {
    let profile = WorkloadProfile::gapbs_pr();
    let mut rows = Vec::new();
    let mut straw = run_workload_config(&profile, ProsperMechanism::new(TrackerConfig::strawman()));
    straw.config = "straw-man (no coalescing)".into();
    let mut table16 = run_workload_config(&profile, ProsperMechanism::with_defaults());
    table16.config = "16-entry lookup table".into();
    rows.push(straw);
    rows.push(table16);
    let mut table = Table::new(
        "Ablation: bitmap-store coalescing (Gapbs_pr)",
        &["config", "cycles", "bitmap traffic", "bytes copied"],
    );
    for r in &rows {
        table.push_row(&[
            r.config.clone(),
            r.total_cycles.to_string(),
            r.bitmap_traffic.to_string(),
            r.bytes_copied.to_string(),
        ]);
    }
    (rows, table)
}

/// Allocation-policy ablation: Accumulate-and-Apply vs
/// Load-and-Update (Section III-B design choice).
pub fn ablation_alloc_policy() -> (Vec<AblationRow>, Table) {
    let profile = WorkloadProfile::mcf();
    let mut rows = Vec::new();
    for (policy, label) in [
        (AllocPolicy::AccumulateAndApply, "Accumulate-and-Apply"),
        (AllocPolicy::LoadAndUpdate, "Load-and-Update"),
    ] {
        let cfg = TrackerConfig {
            policy,
            ..TrackerConfig::default()
        };
        let mut row = run_workload_config(&profile, ProsperMechanism::new(cfg));
        row.config = label.into();
        rows.push(row);
    }
    let mut table = Table::new(
        "Ablation: lookup-table allocation policy (mcf)",
        &["config", "cycles", "bitmap traffic", "bytes copied"],
    );
    for r in &rows {
        table.push_row(&[
            r.config.clone(),
            r.total_cycles.to_string(),
            r.bitmap_traffic.to_string(),
            r.bytes_copied.to_string(),
        ]);
    }
    (rows, table)
}

/// Lookup-table-size ablation: the paper fixes 16 entries (and sizes
/// the CACTI model for it); this sweep shows the traffic knee.
pub fn ablation_table_size() -> (Vec<AblationRow>, Table) {
    let profile = WorkloadProfile::gapbs_pr();
    let mut rows = Vec::new();
    for entries in [4usize, 8, 16, 32] {
        let cfg = TrackerConfig {
            lookup_entries: entries,
            ..TrackerConfig::default()
        };
        let mut row = run_workload_config(&profile, ProsperMechanism::new(cfg));
        row.config = format!("{entries} entries");
        rows.push(row);
    }
    let mut table = Table::new(
        "Ablation: lookup-table size (Gapbs_pr)",
        &["config", "cycles", "bitmap traffic", "bytes copied"],
    );
    for r in &rows {
        table.push_row(&[
            r.config.clone(),
            r.total_cycles.to_string(),
            r.bitmap_traffic.to_string(),
            r.bytes_copied.to_string(),
        ]);
    }
    (rows, table)
}

/// Adaptive-granularity ablation on the Stream micro-benchmark (the
/// workload the paper says should trigger coarsening).
pub fn ablation_adaptive() -> (Vec<AblationRow>, Table, u64) {
    let spec = MicroSpec::Stream {
        array_bytes: 64 * 1024,
    };
    let mut rows = Vec::new();
    let mut fixed = run_micro_config(spec, ProsperMechanism::with_defaults());
    fixed.config = "fixed 8 B granularity".into();
    rows.push(fixed);

    // Re-run with the adapter, reading the final granularity.
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, INTERVAL_10MS);
    let mut mech = ProsperMechanism::with_defaults().with_adaptive_granularity();
    let bench = MicroBench::new(spec, SEED);
    let res = mgr.run_stack_only(bench, &mut mech, DEFAULT_INTERVALS);
    let stats = mech.tracker().lookup_stats();
    let final_granularity = mech.current_granularity();
    rows.push(AblationRow {
        config: format!("adaptive (ends at {final_granularity} B)"),
        total_cycles: res.total_cycles,
        bitmap_traffic: stats.bitmap_loads + stats.bitmap_stores,
        bytes_copied: res.bytes_copied,
    });

    let mut table = Table::new(
        "Ablation: dynamic granularity on Stream (paper future work)",
        &["config", "cycles", "bitmap traffic", "bytes copied"],
    );
    for r in &rows {
        table.push_row(&[
            r.config.clone(),
            r.total_cycles.to_string(),
            r.bitmap_traffic.to_string(),
            r.bytes_copied.to_string(),
        ]);
    }
    (rows, table, final_granularity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_slashes_bitmap_traffic() {
        let (rows, _) = ablation_coalescing();
        let straw = &rows[0];
        let coalesced = &rows[1];
        assert!(
            straw.bitmap_traffic > coalesced.bitmap_traffic * 3,
            "straw-man traffic {} vs coalesced {}",
            straw.bitmap_traffic,
            coalesced.bitmap_traffic
        );
        // The extra traffic is off the critical path, so total cycles
        // may barely move when the bus has headroom — but it must not
        // make the run *faster*.
        assert!(
            straw.total_cycles as f64 >= coalesced.total_cycles as f64 * 0.99,
            "straw-man {} vs coalesced {}",
            straw.total_cycles,
            coalesced.total_cycles
        );
        // Both track the same dirty state.
        assert_eq!(straw.bytes_copied, coalesced.bytes_copied);
    }

    #[test]
    fn alloc_policies_track_identically() {
        let (rows, _) = ablation_alloc_policy();
        assert_eq!(
            rows[0].bytes_copied, rows[1].bytes_copied,
            "policies differ only in traffic, not in dirty state"
        );
    }

    #[test]
    fn bigger_tables_coalesce_more() {
        let (rows, _) = ablation_table_size();
        let traffic: Vec<u64> = rows.iter().map(|r| r.bitmap_traffic).collect();
        assert!(
            traffic[0] >= traffic[2],
            "4 entries ({}) emit at least as much traffic as 16 ({})",
            traffic[0],
            traffic[2]
        );
        // Dirty state is table-size independent.
        assert!(rows.iter().all(|r| r.bytes_copied == rows[0].bytes_copied));
    }

    #[test]
    fn adaptive_granularity_coarsens_on_stream() {
        let (rows, _, final_granularity) = ablation_adaptive();
        assert!(
            final_granularity > 8,
            "Stream must trigger coarsening, ended at {final_granularity}"
        );
        // Coarser tracking reduces bitmap traffic on a dense workload.
        assert!(rows[1].bitmap_traffic <= rows[0].bitmap_traffic);
    }
}
