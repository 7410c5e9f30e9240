//! Integration tests of the generalisations and extensions the paper
//! describes: tracking arbitrary (heap) ranges, the adaptive
//! granularity policy, and full process restore.

use prosper_repro::core::tracker::{DirtyTracker, TrackerConfig};
use prosper_repro::core::ProsperMechanism;
use prosper_repro::gemos::checkpoint::CheckpointManager;
use prosper_repro::gemos::process::RegisterFile;
use prosper_repro::gemos::restore::ProcessCheckpointStore;
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use prosper_repro::memsim::config::MachineConfig;
use prosper_repro::memsim::machine::Machine;
use prosper_repro::trace::micro::{MicroBench, MicroSpec};
use prosper_repro::trace::record::{Region, TraceEvent};
use prosper_repro::trace::source::TraceSource;
use prosper_repro::trace::workloads::{Workload, WorkloadProfile};

/// Section III: "Even though Prosper is proposed for tracking stack
/// modifications, its generic design can be leveraged to track
/// modifications to any virtual address range. For example... the
/// heap."
#[test]
fn prosper_tracks_a_heap_range() {
    let heap = VirtRange::new(
        VirtAddr::new(0x5555_0000_0000),
        VirtAddr::new(0x5555_0100_0000),
    );
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    tracker.configure(heap, VirtAddr::new(0x2000_0000));

    let mut w = Workload::new(WorkloadProfile::ycsb_mem(), 3);
    let mut heap_stores = 0u64;
    for _ in 0..30_000 {
        if let TraceEvent::Access(a) = w.next_event() {
            if a.region == Region::Heap && a.kind == prosper_repro::trace::AccessKind::Store {
                if heap.overlaps_access(a.vaddr, u64::from(a.size)) {
                    heap_stores += 1;
                }
                tracker.observe_store(a.vaddr, u64::from(a.size));
            }
        }
    }
    assert!(heap_stores > 100, "workload wrote the heap: {heap_stores}");
    assert_eq!(
        tracker.soi_count, heap_stores,
        "all heap stores filtered in"
    );
    tracker.flush();
    assert!(tracker.bitmap().total_set_bits() > 0);
    // Inspection bounded to the watermark works for heap ranges too.
    let lo = tracker.min_soi_watermark().unwrap();
    let geom = tracker.geometry();
    let (runs, _) = tracker
        .bitmap_mut()
        .inspect_and_clear(&geom, VirtRange::new(lo, heap.end()));
    assert!(!runs.is_empty());
    for run in runs {
        assert!(heap.contains(run.start));
    }
}

/// The adaptive-granularity mechanism converges to coarse tracking on
/// a streaming workload and stays fine on a sparse one.
#[test]
fn adaptive_granularity_tracks_workload_character() {
    let run = |spec: MicroSpec| {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 60_000);
        let mut mech = ProsperMechanism::with_defaults().with_adaptive_granularity();
        let bench = MicroBench::new(spec, 5);
        mgr.run_stack_only(bench, &mut mech, 8);
        mech.current_granularity()
    };
    let stream = run(MicroSpec::Stream {
        array_bytes: 64 * 1024,
    });
    let sparse = run(MicroSpec::Sparse { pages: 24 });
    assert!(stream > sparse, "Stream {stream}B vs Sparse {sparse}B");
    assert_eq!(sparse, 8, "sparse stays at the finest granularity");
}

/// Full process state: registers checkpoint/restore with torn-write
/// fallback composed with a checkpointed run.
#[test]
fn register_state_restores_with_memory() {
    // Run real memory checkpoints and interleave register checkpoints
    // under the same sequence discipline.
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, 40_000);
    let mut mech = ProsperMechanism::with_defaults();
    let w = Workload::new(WorkloadProfile::gapbs_pr(), 9);
    let res = mgr.run_stack_only(w, &mut mech, 4);
    assert_eq!(res.intervals, 4);

    let mut store = ProcessCheckpointStore::new(1);
    for seq in 1..=4u64 {
        let regs = RegisterFile {
            rip: 0x400000 + seq,
            gpr: {
                let mut g = [0u64; 16];
                g[0] = seq * 11;
                g
            },
            ..RegisterFile::default()
        };
        store.checkpoint(&[regs]);
    }
    assert_eq!(store.committed_sequence, 4);
    // A torn fifth checkpoint falls back to the fourth.
    let torn = RegisterFile {
        rip: 0xdead,
        ..RegisterFile::default()
    };
    store.thread_store_mut(0).checkpoint_torn(torn);
    let rec = store.recover().unwrap();
    assert_eq!(rec[0].rip, 0x400004);
    assert_eq!(rec[0].gpr[0], 44);
}
