//! The checkpoint manager's posting window changes no simulated
//! number. With the window forced open (one model worker applies the
//! replay's machine operations) every mechanism whose store hook only
//! posts gives the same run result, memory counters, NVM phase tally,
//! NVM wear and lookup-table statistics as the inline replay, on the
//! three benchmark profiles. The inline reference wraps the same
//! mechanism in a probe that says its hook reads the machine. SSP's
//! hook reads the clock, so its run stays inline even when forced.

use prosper_repro::baselines::{
    DirtybitMechanism, RomulusMechanism, SspMechanism, WriteProtectMechanism,
};
use prosper_repro::core::lookup::LookupStats;
use prosper_repro::core::{ProsperMechanism, SpineConfig};
use prosper_repro::gemos::checkpoint::{
    CheckpointManager, CheckpointOutcome, IntervalInfo, MemoryPersistence, RunResult,
};
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use prosper_repro::memsim::config::MachineConfig;
use prosper_repro::memsim::machine::{Machine, NvmPhaseBytes};
use prosper_repro::memsim::nvm::WearStats;
use prosper_repro::memsim::stats::MemStats;
use prosper_repro::trace::record::MemAccess;
use prosper_repro::trace::workloads::{Workload, WorkloadProfile};

const BUDGET: u64 = 40_000;
const INTERVALS: u64 = 4;

fn heap_region() -> VirtRange {
    VirtRange::new(
        VirtAddr::new(0x5555_0000_0000),
        VirtAddr::new(0x5555_2000_0000),
    )
}

/// Forwards every call to `inner` and counts the store hooks that ran
/// inside a posting window. With `inline` set it says its hook reads
/// the machine, so the manager replays inline.
#[derive(Debug)]
struct Probe<M> {
    inner: M,
    inline: bool,
    windowed: u64,
    stores: u64,
}

impl<M: MemoryPersistence> MemoryPersistence for Probe<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn begin_interval(&mut self, m: &mut Machine, region: VirtRange) {
        self.inner.begin_interval(m, region);
    }
    fn on_store(&mut self, m: &mut Machine, access: &MemAccess) {
        self.stores += 1;
        self.windowed += u64::from(m.window_open());
        self.inner.on_store(m, access);
    }
    fn end_interval(&mut self, m: &mut Machine, info: IntervalInfo) -> CheckpointOutcome {
        self.inner.end_interval(m, info)
    }
    fn region_in_dram(&self) -> bool {
        self.inner.region_in_dram()
    }
    fn store_hook_only_posts(&self) -> bool {
        !self.inline && self.inner.store_hook_only_posts()
    }
}

/// Everything a run leaves behind that a figure could read.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: RunResult,
    stats: MemStats,
    nvm: NvmPhaseBytes,
    wear: WearStats,
    lookup: Vec<LookupStats>,
}

/// Runs `profile` with `make()` on the stack (and on the heap when
/// `heap`), with the window forced open unless `inline`; returns the
/// outcome and the (windowed, total) hook counts.
fn run<M: MemoryPersistence>(
    profile: fn() -> WorkloadProfile,
    heap: bool,
    make: &impl Fn() -> M,
    lookup: &impl Fn(&M) -> Option<LookupStats>,
    inline: bool,
) -> (Outcome, u64, u64) {
    let probe = || Probe {
        inner: make(),
        inline,
        windowed: 0,
        stores: 0,
    };
    let mut stack = probe();
    let mut heap_mech = heap.then(probe);
    let mut machine = Machine::new(MachineConfig::setup_i());
    let result = CheckpointManager::new(&mut machine, BUDGET)
        .force_window()
        .run(
            Workload::new(profile(), 7),
            &mut stack,
            heap_mech.as_mut().map(|h| h as &mut dyn MemoryPersistence),
            heap_region(),
            INTERVALS,
        );
    let probes = std::iter::once(&stack).chain(heap_mech.as_ref());
    let outcome = Outcome {
        result,
        stats: machine.stats(),
        nvm: machine.ckpt_nvm_bytes(),
        wear: machine.controller().nvm().wear_stats(),
        lookup: probes.clone().filter_map(|p| lookup(&p.inner)).collect(),
    };
    let windowed = probes.clone().map(|p| p.windowed).sum();
    let stores = probes.map(|p| p.stores).sum();
    (outcome, windowed, stores)
}

/// A profile's name, its constructor, and whether the heap is tracked.
type Profile = (&'static str, fn() -> WorkloadProfile, bool);

/// The benchmark profiles; ycsb tracks the heap too.
const PROFILES: [Profile; 3] = [
    ("gapbs_pr", WorkloadProfile::gapbs_pr, false),
    ("mcf", WorkloadProfile::mcf, false),
    ("ycsb_mem", WorkloadProfile::ycsb_mem, true),
];

/// Forced open and forced closed agree on every profile, and the
/// forced-open run really replayed inside the window.
fn posting_is_transparent<M: MemoryPersistence>(
    make: impl Fn() -> M,
    lookup: impl Fn(&M) -> Option<LookupStats>,
) {
    for (name, profile, heap) in PROFILES {
        let (inline, w0, stores) = run(profile, heap, &make, &lookup, true);
        let (posted, w1, stores1) = run(profile, heap, &make, &lookup, false);
        let mech = make().name();
        assert_eq!(inline, posted, "{mech} on {name}");
        assert!(stores > 0, "{mech} on {name} saw no store");
        assert_eq!((w0, w1, stores1), (0, stores, stores), "{mech} on {name}");
    }
}

fn no_lookup<M>(_: &M) -> Option<LookupStats> {
    None
}

#[test]
fn prosper_eager_is_identical_through_the_window() {
    posting_is_transparent(ProsperMechanism::with_defaults, |m| {
        Some(m.tracker().lookup_stats())
    });
}

#[test]
fn prosper_spine_is_identical_through_the_window() {
    posting_is_transparent(
        || ProsperMechanism::with_defaults().with_spine(SpineConfig::default()),
        |m| Some(m.tracker().lookup_stats()),
    );
}

#[test]
fn dirtybit_is_identical_through_the_window() {
    posting_is_transparent(DirtybitMechanism::new, no_lookup);
}

#[test]
fn writeprotect_is_identical_through_the_window() {
    posting_is_transparent(WriteProtectMechanism::new, no_lookup);
}

#[test]
fn romulus_is_identical_through_the_window() {
    posting_is_transparent(RomulusMechanism::new, no_lookup);
}

#[test]
fn ssp_stays_inline_when_the_window_is_forced() {
    let make = SspMechanism::with_10us;
    let (inline, _, stores) = run(WorkloadProfile::gapbs_pr, false, &make, &no_lookup, true);
    let (forced, windowed, _) = run(WorkloadProfile::gapbs_pr, false, &make, &no_lookup, false);
    assert!(stores > 0);
    assert_eq!(windowed, 0, "no SSP hook ran inside a window");
    assert_eq!(inline, forced);
}
