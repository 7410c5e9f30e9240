//! The tracking-overhead and sensitivity experiments: Figures 12–13
//! (Setup-II, Linux + kernel thread in the paper).

use prosper_core::lookup::LookupStats;
use prosper_core::tracker::TrackerConfig;
use prosper_core::ProsperMechanism;
use prosper_gemos::checkpoint::{CheckpointManager, NoPersistence};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_trace::interval::IntervalCollector;
use prosper_trace::micro::{MicroBench, MicroSpec};
use prosper_trace::record::TraceEvent;
use prosper_trace::source::TraceSource;
use prosper_trace::workloads::{Workload, WorkloadProfile};
use serde::Serialize;

use crate::report::Table;
use crate::scale::{DEFAULT_INTERVALS, INTERVAL_10MS, SEED};

/// Granularities swept in Figure 12.
pub const FIG12_GRANULARITIES: [u64; 3] = [8, 64, 128];

/// One Figure 12 row.
#[derive(Clone, Debug, Serialize)]
pub struct Fig12Row {
    /// Benchmark name.
    pub benchmark: String,
    /// User-mode speedup (tracked / untracked, >0.9; ~0.99 in the
    /// paper) per granularity in [`FIG12_GRANULARITIES`] order.
    pub speedups: Vec<f64>,
}

/// Factory producing a fresh instance of one Figure 12 trace source.
type SourceFactory = Box<dyn FnMut() -> Box<dyn TraceSource>>;

/// Sources for the Figure 12 set: SPEC + graph workloads + Stream.
fn fig12_sources() -> Vec<(String, SourceFactory)> {
    let mut out: Vec<(String, SourceFactory)> = Vec::new();
    for profile in WorkloadProfile::tracking_overhead_set() {
        let name = profile.name.to_string();
        let p = profile.clone();
        out.push((
            name,
            Box::new(move || Box::new(Workload::new(p.clone(), SEED))),
        ));
    }
    out.push((
        "Stream".to_string(),
        Box::new(|| {
            Box::new(MicroBench::new(
                MicroSpec::Stream {
                    array_bytes: 64 * 1024,
                },
                SEED,
            ))
        }),
    ));
    out
}

/// Runs the workload and returns user-mode cycles (total minus
/// checkpoint time), with or without Prosper tracking.
fn user_cycles(source: Box<dyn TraceSource>, granularity: Option<u64>) -> u64 {
    struct BoxedSource(Box<dyn TraceSource>);
    impl TraceSource for BoxedSource {
        fn next_event(&mut self) -> TraceEvent {
            self.0.next_event()
        }
        fn name(&self) -> &'static str {
            "boxed"
        }
        fn stack(&self) -> &prosper_trace::stack::StackModel {
            self.0.stack()
        }
    }
    let mut machine = Machine::new(MachineConfig::setup_ii());
    let mut mgr = CheckpointManager::new(&mut machine, INTERVAL_10MS);
    let res = match granularity {
        Some(g) => {
            let mut mech = ProsperMechanism::new(TrackerConfig::default().with_granularity(g));
            mgr.run_stack_only(BoxedSource(source), &mut mech, DEFAULT_INTERVALS)
        }
        None => mgr.run_stack_only(BoxedSource(source), &mut NoPersistence, DEFAULT_INTERVALS),
    };
    res.total_cycles - res.checkpoint_cycles
}

/// Figure 12: user-mode performance with Prosper dirty tracking,
/// relative to no tracking, at 8/64/128-byte granularity.
pub fn fig12() -> (Vec<Fig12Row>, Table) {
    let mut rows = Vec::new();
    for (name, mut make) in fig12_sources() {
        let base = user_cycles(make(), None) as f64;
        let speedups = FIG12_GRANULARITIES
            .iter()
            .map(|&g| base / user_cycles(make(), Some(g)) as f64)
            .collect();
        rows.push(Fig12Row {
            benchmark: name,
            speedups,
        });
    }
    let mut table = Table::new(
        "Figure 12: user-mode speedup with Prosper tracking vs no tracking \
         (1.00 = no overhead; paper: <1% average overhead)",
        &["benchmark", "8B", "64B", "128B"],
    );
    for r in &rows {
        table.push_row(&[
            r.benchmark.clone(),
            format!("{:.4}", r.speedups[0]),
            format!("{:.4}", r.speedups[1]),
            format!("{:.4}", r.speedups[2]),
        ]);
    }
    (rows, table)
}

/// HWM values swept in Figure 13 (LWM fixed at 4).
pub const HWM_SWEEP: [u32; 4] = [8, 16, 24, 32];
/// LWM values swept in Figure 13 (HWM fixed at 24).
pub const LWM_SWEEP: [u32; 4] = [2, 4, 8, 16];

/// One Figure 13 data point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig13Point {
    /// The swept parameter's value.
    pub value: u32,
    /// Bitmap loads issued by the tracker.
    pub loads: u64,
    /// Bitmap stores issued by the tracker.
    pub stores: u64,
}

/// Figure 13 results for one workload.
#[derive(Clone, Debug, Serialize)]
pub struct Fig13Row {
    /// Workload name (mcf or SSSP in the paper).
    pub workload: String,
    /// Sweep over HWM with LWM = 4.
    pub hwm_sweep: Vec<Fig13Point>,
    /// Sweep over LWM with HWM = 24.
    pub lwm_sweep: Vec<Fig13Point>,
}

/// Drives only the tracker (no machine model needed) over the
/// workload's stack stores for the configured number of intervals,
/// returning the lookup stats.
fn tracker_stats(profile: &WorkloadProfile, hwm: u32, lwm: u32) -> LookupStats {
    use prosper_core::tracker::DirtyTracker;
    let cfg = TrackerConfig::default().with_watermarks(hwm, lwm);
    let mut tracker = DirtyTracker::new(cfg);
    let w = Workload::new(profile.clone(), SEED);
    let range = w.stack().reserved_range();
    tracker.configure(range, prosper_memsim::addr::VirtAddr::new(0x1000_0000));
    let mut collector = IntervalCollector::new(w, INTERVAL_10MS);
    let mut ops = Vec::new();
    for _ in 0..DEFAULT_INTERVALS {
        let iv = collector.next_interval();
        for ev in &iv.events {
            if let TraceEvent::Access(a) = ev {
                if a.is_stack_store() {
                    tracker.observe_store(a.vaddr, u64::from(a.size), &mut ops);
                }
            }
        }
        ops.clear();
        tracker.flush();
        tracker.reset_watermark();
        // The OS clears the bitmap after inspection.
        let geom = tracker.geometry();
        let active = prosper_memsim::addr::VirtRange::new(range.start(), range.end());
        tracker.bitmap_mut().inspect_and_clear(&geom, active);
    }
    tracker.lookup_stats()
}

/// Figure 13: bitmap loads/stores vs HWM and LWM for mcf and SSSP.
pub fn fig13() -> (Vec<Fig13Row>, Table) {
    let profiles = [WorkloadProfile::mcf(), WorkloadProfile::g500_sssp()];
    let mut rows = Vec::new();
    for profile in &profiles {
        let hwm_sweep = HWM_SWEEP
            .iter()
            .map(|&hwm| {
                let s = tracker_stats(profile, hwm, 4);
                Fig13Point {
                    value: hwm,
                    loads: s.bitmap_loads,
                    stores: s.bitmap_stores,
                }
            })
            .collect();
        let lwm_sweep = LWM_SWEEP
            .iter()
            .map(|&lwm| {
                let s = tracker_stats(profile, 24, lwm);
                Fig13Point {
                    value: lwm,
                    loads: s.bitmap_loads,
                    stores: s.bitmap_stores,
                }
            })
            .collect();
        rows.push(Fig13Row {
            workload: profile.name.to_string(),
            hwm_sweep,
            lwm_sweep,
        });
    }
    let mut table = Table::new(
        "Figure 13: tracker bitmap loads/stores vs HWM (LWM=4) and LWM (HWM=24)",
        &["workload", "sweep", "value", "loads", "stores"],
    );
    for r in &rows {
        for p in &r.hwm_sweep {
            table.push_row(&[
                r.workload.clone(),
                "HWM".into(),
                p.value.to_string(),
                p.loads.to_string(),
                p.stores.to_string(),
            ]);
        }
        for p in &r.lwm_sweep {
            table.push_row(&[
                r.workload.clone(),
                "LWM".into(),
                p.value.to_string(),
                p.loads.to_string(),
                p.stores.to_string(),
            ]);
        }
    }
    (rows, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_overhead_small() {
        let (rows, _) = fig12();
        assert_eq!(rows.len(), 7);
        let mut sum = 0.0;
        let mut n = 0.0;
        for r in &rows {
            for &s in &r.speedups {
                assert!(
                    s > 0.90,
                    "{}: tracking overhead must stay small, speedup {s}",
                    r.benchmark
                );
                assert!(s < 1.10, "{}: speedup {s} suspiciously high", r.benchmark);
                sum += s;
                n += 1.0;
            }
        }
        let mean = sum / n;
        assert!(
            mean > 0.95,
            "mean speedup {mean} (paper: <1% average overhead)"
        );
    }

    #[test]
    fn fig13_sssp_improves_with_hwm() {
        let (rows, _) = fig13();
        let sssp = rows.iter().find(|r| r.workload.contains("sssp")).unwrap();
        let first = &sssp.hwm_sweep[0];
        let last = sssp.hwm_sweep.last().unwrap();
        assert!(
            last.loads + last.stores < first.loads + first.stores,
            "SSSP: ops fall as HWM rises ({} -> {})",
            first.loads + first.stores,
            last.loads + last.stores
        );
    }

    #[test]
    fn fig13_mcf_and_sssp_trends_differ() {
        let (rows, _) = fig13();
        let trend = |sweep: &[Fig13Point]| {
            let first = (sweep[0].loads + sweep[0].stores) as f64;
            let last = {
                let p = sweep.last().unwrap();
                (p.loads + p.stores) as f64
            };
            last / first.max(1.0)
        };
        let mcf = rows.iter().find(|r| r.workload.contains("mcf")).unwrap();
        let sssp = rows.iter().find(|r| r.workload.contains("sssp")).unwrap();
        // The paper's headline: the HWM trend reverses between the
        // spatially-local SSSP and the scattered mcf.
        assert!(
            trend(&mcf.hwm_sweep) > trend(&sssp.hwm_sweep),
            "mcf's HWM trend ({}) sits above SSSP's ({})",
            trend(&mcf.hwm_sweep),
            trend(&sssp.hwm_sweep)
        );
    }

    #[test]
    fn fig13_mcf_improves_with_lwm() {
        // The paper observes that *raising* the LWM from the default
        // helps mcf (more evictions create useful vacancies).
        let (rows, _) = fig13();
        let mcf = rows.iter().find(|r| r.workload.contains("mcf")).unwrap();
        let default_lwm = mcf.lwm_sweep.iter().find(|p| p.value == 4).unwrap();
        let high_lwm = mcf.lwm_sweep.iter().find(|p| p.value == 16).unwrap();
        assert!(
            high_lwm.loads + high_lwm.stores <= default_lwm.loads + default_lwm.stores,
            "mcf: raising LWM from the default must not increase traffic \
             ({} -> {})",
            default_lwm.loads + default_lwm.stores,
            high_lwm.loads + high_lwm.stores
        );
    }
}
