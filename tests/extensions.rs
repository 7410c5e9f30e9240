//! Integration tests of the generalisations and extensions the paper
//! describes: tracking arbitrary (heap) ranges, the adaptive
//! granularity policy, and full process restore.

use std::collections::BTreeMap;

use prosper_repro::core::bitmap::CopyRun;
use prosper_repro::core::recovery::{CommitHooks, PersistentProcess};
use prosper_repro::core::tracker::{DirtyTracker, TrackerConfig};
use prosper_repro::core::ProsperMechanism;
use prosper_repro::gemos::checkpoint::CheckpointManager;
use prosper_repro::gemos::crash::{CrashSite, FaultInjector};
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
    let mut ops = Vec::new();
    for _ in 0..30_000 {
        if let TraceEvent::Access(a) = w.next_event() {
            if a.region == Region::Heap && a.kind == prosper_repro::trace::AccessKind::Store {
                if heap.overlaps_access(a.vaddr, u64::from(a.size)) {
                    heap_stores += 1;
                }
                tracker.observe_store(a.vaddr, u64::from(a.size), &mut ops);
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

/// Full process state: registers and stack bytes commit under one
/// sequence, and a commit that crashes before its seal leaves both on
/// the previous one.
#[test]
fn register_state_restores_with_memory() {
    /// Sets thread 0's registers and stack slot to `seq`'s values.
    fn write_state(p: &mut PersistentProcess, slot: VirtAddr, seq: u64) {
        let regs = p.regs_mut(0);
        regs.rip = 0x400000 + seq;
        regs.gpr[0] = seq * 11;
        p.record_store(0, slot, &seq.to_le_bytes());
    }

    let stack = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000));
    let slot = stack.start() + 0x100u64;
    let mut p = PersistentProcess::new(&[stack]);
    let runs = BTreeMap::from([(
        0,
        vec![CopyRun {
            start: slot,
            len: 8,
        }],
    )]);
    for seq in 1..=4u64 {
        write_state(&mut p, slot, seq);
        p.commit(&runs);
    }
    assert_eq!(p.committed_sequence(), 4);

    // A fifth commit crashes before its record seals.
    write_state(&mut p, slot, 5);
    let mut inj = FaultInjector::at_site(CrashSite::PreSeal);
    let crashed = p.commit_with(
        &runs,
        CommitHooks {
            faults: Some(&mut inj),
            ..CommitHooks::default()
        },
    );
    assert_eq!(crashed.map_err(|c| c.site), Err(CrashSite::PreSeal));
    p.crash();
    let rec = p.recover().expect("sequence 4 sealed");
    assert_eq!(rec.sequence, 4);
    assert_eq!(rec.regs[0].rip, 0x400004);
    assert_eq!(rec.regs[0].gpr[0], 44);
    assert_eq!(p.regs(0).rip, 0x400004);
    assert_eq!(p.stack(0).volatile().read(slot, 8), 4u64.to_le_bytes());
}
