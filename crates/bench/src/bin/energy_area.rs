//! Prints the lookup-table energy/area numbers (Section V, CACTI-P
//! constants) together with a dynamic-energy estimate for a tracked
//! run.

use prosper_core::energy::EnergyModel;
use prosper_core::tracker::{DirtyTracker, TrackerConfig};
use prosper_memsim::addr::VirtAddr;
use prosper_trace::interval::IntervalCollector;
use prosper_trace::record::TraceEvent;
use prosper_trace::source::TraceSource;
use prosper_trace::workloads::{Workload, WorkloadProfile};

fn main() {
    prosper_bench::misc::energy_area().print();

    // Dynamic energy for a tracked Gapbs_pr run.
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    let w = Workload::new(WorkloadProfile::gapbs_pr(), prosper_bench::scale::SEED);
    tracker.configure(w.stack().reserved_range(), VirtAddr::new(0x1000_0000));
    let mut collector = IntervalCollector::new(w, prosper_bench::scale::INTERVAL_10MS);
    let mut ops = Vec::new();
    for _ in 0..prosper_bench::scale::DEFAULT_INTERVALS {
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
    }
    let model = EnergyModel::paper_cacti_7nm();
    let stats = tracker.lookup_stats();
    println!(
        "\nGapbs_pr tracked run: {} searches, {} bitmap loads, {} bitmap stores",
        stats.searches, stats.bitmap_loads, stats.bitmap_stores
    );
    println!(
        "lookup-table dynamic energy: {:.3} nJ",
        model.dynamic_energy_nj(&stats)
    );
}
