//! The benchmark's wrappers around the program's paper path.
//!
//! One pass is one `CheckpointManager::run` on a fresh Setup-I machine
//! at the 10 ms interval. Each region's mechanism is wrapped in a
//! [`Tracked`] that forwards every call unchanged and, around those
//! calls, (a) mirrors every tracked store into a `PersistentProcess`
//! data plane and commits the mechanism's copy runs through the
//! production `PersistentProcess::commit`, timing each commit cold and
//! then the benchmark's copy of the same runs (`refsim::CopyRef`) as its
//! host-speed reference, (b) snapshots the machine at
//! interval boundaries so statistics are deltas over the timed
//! intervals, and (c) in a traced pass, records host-time spans around
//! the calls into each layer. The wrappers never touch the machine
//! clock, so the cycle domain is the one `fig_performance` sees.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use prosper_bench::scale::INTERVAL_10MS;
use prosper_core::bitmap::CopyRun;
use prosper_core::lookup::LookupStats;
use prosper_core::oscomp::ProsperIntervalStats;
use prosper_core::recovery::PersistentProcess;
use prosper_core::{ProsperMechanism, SpineConfig};
use prosper_gemos::checkpoint::{
    CheckpointManager, CheckpointOutcome, IntervalInfo, MemoryPersistence, NoPersistence,
};
use prosper_gemos::process::RegisterFile;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::{Machine, NvmPhaseBytes};
use prosper_memsim::stats::MemStats;
use prosper_trace::record::{MemAccess, TraceEvent};
use prosper_trace::source::TraceSource;
use prosper_trace::stack::StackModel;
use prosper_trace::workloads::{Workload, WorkloadProfile};

use crate::check::{self, CheckOut};
use crate::refsim::CopyRef;
use crate::spans::Recorder;

/// One in this many stores (and trace events) is timed in a traced
/// pass; the sampled time is scaled back up by the same factor.
pub const SAMPLE_EVERY: u64 = 16;

/// The heap range `fig_performance` hands to a heap mechanism.
pub fn heap_region() -> VirtRange {
    VirtRange::new(
        VirtAddr::new(0x5555_0000_0000),
        VirtAddr::new(0x5555_2000_0000),
    )
}

/// A benchmark workload: a trace profile and how Prosper persists it.
#[derive(Debug)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Trace profile from `prosper_trace::workloads`.
    pub profile: fn() -> WorkloadProfile,
    /// Prosper also tracks [`heap_region`] (a second data-plane region).
    pub heap: bool,
    /// Spine-mode commits instead of eager apply.
    pub spine: bool,
}

/// Untimed intervals that fill the modelled caches first.
pub const WARMUP: u64 = 30;

/// Timed intervals per second of `--seconds`. Fixed, not measured, so
/// every simulated statistic depends only on seed and length.
pub const INTERVALS_PER_SECOND: u64 = 100;

/// The three benchmark workloads.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "gapbs_stack",
        profile: WorkloadProfile::gapbs_pr,
        heap: false,
        spine: false,
    },
    WorkloadSpec {
        name: "ycsb_everywhere",
        profile: WorkloadProfile::ycsb_mem,
        heap: true,
        spine: false,
    },
    WorkloadSpec {
        name: "mcf_spine",
        profile: WorkloadProfile::mcf,
        heap: false,
        spine: true,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which mechanism a pass runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pass {
    /// `NoPersistence` on every region: the Fig. 8 normaliser.
    Normaliser,
    /// Prosper plus the mirrored data plane.
    Prosper,
}

/// Machine-level state at an interval boundary.
#[derive(Clone, Copy, Debug)]
pub struct Boundary {
    /// Simulated core cycle.
    pub cycles: u64,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Checkpoint NVM bytes per phase.
    pub nvm: NvmPhaseBytes,
    /// Trace events pulled from the source so far.
    pub events: u64,
    /// Trace accesses pulled from the source so far.
    pub accesses: u64,
    /// Stores the wrappers have observed so far.
    pub stores: u64,
}

/// An interval boundary's host-side record. Each boundary runs one
/// reference slice (see `refsim`) right after `at`; the next interval
/// starts at `after`, so slices never count as program time.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    /// Host time before the reference slice.
    pub at: Instant,
    /// Host time after it.
    pub after: Instant,
    /// Host ns of the reference slice.
    pub ref_ns: u64,
    /// Trace accesses pulled from the source so far.
    pub accesses: u64,
    /// Host ns the benchmark's own work inside intervals took so far.
    pub bench_ns: u64,
}

/// One timed interval on the host.
#[derive(Clone, Copy, Debug)]
pub struct IntervalTime {
    /// Host ns from the interval's start to its checkpoint's end.
    pub ns: u64,
    /// Trace accesses replayed.
    pub accesses: u64,
    /// Host ns of the reference slice run just before it.
    pub ref_ns: u64,
}

/// Counters a Prosper mechanism keeps (zero for the normaliser).
#[derive(Clone, Copy, Default, Debug)]
pub struct MechCounters {
    /// Interval statistics summed over all intervals.
    pub totals: ProsperIntervalStats,
    /// Lookup-table counters.
    pub lookup: LookupStats,
}

impl MechCounters {
    fn of(mech: Option<&ProsperMechanism>) -> Self {
        mech.map_or_else(Self::default, |m| Self {
            totals: m.totals,
            lookup: m.tracker().lookup_stats(),
        })
    }
}

/// Counters kept by the source wrapper.
#[derive(Debug, Default)]
pub struct SourceCounts {
    events: Cell<u64>,
    accesses: Cell<u64>,
    traced: bool,
    /// Host ns spent in sampled `next_event` calls, each less the cost
    /// of timing an empty span.
    sampled_ns: Cell<u64>,
    /// That cost.
    span_cost_ns: u64,
    /// Set at each boundary: the next event starts an interval.
    sample_live: Cell<bool>,
    /// Highest live heap seen when an interval started.
    peak_live: Cell<usize>,
}

/// Counts the events the manager pulls and, when traced, times a
/// sample of the generator calls.
#[derive(Debug)]
struct CountingSource {
    inner: Workload,
    counts: Rc<SourceCounts>,
}

impl TraceSource for CountingSource {
    fn next_event(&mut self) -> TraceEvent {
        let c = &self.counts;
        if c.sample_live.replace(false) {
            // The manager dropped the previous interval's events and
            // has not yet buffered any of this one: what is live now
            // is the state the layers retain between intervals.
            c.peak_live
                .set(c.peak_live.get().max(crate::alloc::live_above_baseline()));
        }
        let n = c.events.get();
        c.events.set(n + 1);
        let ev = if c.traced && n.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            let ev = self.inner.next_event();
            let ns = (t.elapsed().as_nanos() as u64).saturating_sub(c.span_cost_ns);
            c.sampled_ns.set(c.sampled_ns.get() + ns);
            ev
        } else {
            self.inner.next_event()
        };
        if ev.as_access().is_some() {
            c.accesses.set(c.accesses.get() + 1);
        }
        ev
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stack(&self) -> &StackModel {
        self.inner.stack()
    }
}

/// The mirrored data plane: a `PersistentProcess` with one region per
/// tracked range, fed the bytes of every tracked store.
#[derive(Debug)]
pub struct DataPlane {
    /// The production whole-process store.
    pub process: PersistentProcess,
    /// Per region, the `[lo, hi)` byte span stores have touched.
    pub touched: Vec<(u64, u64)>,
    /// Host ns of each timed `commit`.
    pub commit_ns: Vec<u64>,
    /// The commit's host-speed reference.
    pub reference: CopyRef,
    /// Host ns of the reference copy run right after each timed commit.
    pub ref_ns: Vec<u64>,
    /// That copy's ns at nominal host speed.
    pub ref_nominal_ns: Vec<f64>,
    /// Commits made, warm-up included.
    pub commits: u64,
    /// Commits after which the committed sequence was wrong.
    pub failed_commits: u64,
}

/// The deterministic bytes the mirror writes for one store: a mix of
/// the address and the interval, so every interval rewrites a byte
/// with a new value.
fn store_bytes(addr: u64, interval: u64) -> [u8; 8] {
    (addr.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ interval.wrapping_mul(0xd6e8_feb8_6659_fd93))
        .to_le_bytes()
}

/// The register state committed with interval `seq` for region `tid`.
pub fn regs_for(seq: u64, tid: u32) -> RegisterFile {
    let mut gpr = [0; 16];
    gpr[0] = u64::from_le_bytes(store_bytes(seq, u64::from(tid)));
    RegisterFile {
        gpr,
        rip: seq,
        rsp: u64::from(tid),
        rflags: 0,
    }
}

/// State the region wrappers and the source share during one pass.
#[derive(Debug)]
struct Shared {
    regions: u32,
    warmup: u64,
    /// Intervals whose every region has run `end_interval`.
    ended: u64,
    /// Cycle at which the current interval's checkpoint began.
    ckpt_start: u64,
    ckpt_cycles_total: u64,
    ckpt_cycles_timed: u64,
    bytes_total: u64,
    bytes_timed: u64,
    /// Stores seen by the wrappers.
    stores: u64,
    start: Option<Boundary>,
    marks: Vec<Mark>,
    /// Host ns the benchmark itself spent inside intervals.
    bench_ns: u64,
    pending: BTreeMap<u32, Vec<CopyRun>>,
    plane: Option<DataPlane>,
    source: Rc<SourceCounts>,
    recorder: Option<Recorder>,
}

impl Shared {
    fn boundary(&self, machine: &Machine) -> Boundary {
        Boundary {
            cycles: machine.now(),
            mem: machine.stats(),
            nvm: machine.ckpt_nvm_bytes(),
            events: self.source.events.get(),
            accesses: self.source.accesses.get(),
            stores: self.stores,
        }
    }

    /// Commits the just-ended interval's runs through the production
    /// commit, with the registers of that interval.
    fn commit_pending(&mut self) {
        let Some(plane) = self.plane.as_mut() else {
            return;
        };
        let seq = self.ended;
        let timed = seq > self.warmup;
        let runs = std::mem::take(&mut self.pending);
        for tid in 0..self.regions {
            *plane.process.regs_mut(tid) = regs_for(seq, tid);
        }
        // `commit` starts with this query, which reads cgroup files:
        // asking first keeps a cold kernel file cache out of the timed
        // commit. The commit's own inputs are left cold.
        std::hint::black_box(std::thread::available_parallelism().ok());
        let probe = self
            .recorder
            .as_ref()
            .filter(|_| timed)
            .map(Recorder::commit_probe);
        let t = Instant::now();
        plane.process.commit(&runs);
        let ns = t.elapsed().as_nanos() as u64;
        plane.commits += 1;
        if plane.process.committed_sequence() != seq {
            plane.failed_commits += 1;
        }
        // The reference copies the same runs right after the commit,
        // outside program time. It runs on warm-up commits too, so its
        // images grow in step with the program's.
        let t1 = Instant::now();
        let (ref_ns, nominal_ns) = plane
            .reference
            .copy(runs.values().flatten().map(|r| (r.start.raw(), r.len)));
        self.bench_ns += t1.elapsed().as_nanos() as u64;
        if timed {
            plane.ref_ns.push(ref_ns);
            plane.ref_nominal_ns.push(nominal_ns);
            plane.commit_ns.push(ns);
            if let (Some(rec), Some(probe)) = (self.recorder.as_mut(), probe) {
                rec.commit(seq - 1, t, ns, probe);
            }
        }
    }
}

/// One region's mechanism behind the benchmark's wrapper.
#[derive(Debug)]
pub struct Tracked {
    tid: u32,
    /// `None` runs `NoPersistence` (the normaliser pass).
    mech: Option<ProsperMechanism>,
    none: NoPersistence,
    shared: Rc<RefCell<Shared>>,
    /// Mechanism counters at the first timed boundary.
    at_start: Option<MechCounters>,
}

impl Tracked {
    fn inner(&mut self) -> &mut dyn MemoryPersistence {
        match self.mech.as_mut() {
            Some(m) => m,
            None => &mut self.none,
        }
    }
}

impl MemoryPersistence for Tracked {
    fn name(&self) -> &'static str {
        self.mech.as_ref().map_or("None", |m| m.name())
    }

    fn begin_interval(&mut self, machine: &mut Machine, region: VirtRange) {
        let shared = Rc::clone(&self.shared);
        let mut s = shared.borrow_mut();
        if self.tid == 0 && s.ended > 0 {
            s.commit_pending();
        }
        self.inner().begin_interval(machine, region);
        if s.ended == s.warmup && self.at_start.is_none() {
            self.at_start = Some(MechCounters::of(self.mech.as_ref()));
        }
        if self.tid + 1 == s.regions {
            // The last region's begin closes the interval boundary.
            if s.ended > 0 {
                let c = machine.now() - s.ckpt_start;
                s.ckpt_cycles_total += c;
                if s.ended > s.warmup {
                    s.ckpt_cycles_timed += c;
                }
            }
            if s.ended == s.warmup {
                s.start = Some(s.boundary(machine));
            }
            let at = Instant::now();
            let ref_ns = crate::refsim::slice();
            let after = Instant::now();
            let accesses = s.source.accesses.get();
            let bench_ns = s.bench_ns;
            s.marks.push(Mark {
                at,
                after,
                ref_ns,
                accesses,
                bench_ns,
            });
            s.source.sample_live.set(true);
            if s.ended >= s.warmup {
                let ended = s.ended;
                let sampled = s.source.sampled_ns.get();
                if let Some(rec) = s.recorder.as_mut() {
                    rec.boundary(ended, at, after, sampled);
                }
            }
        }
    }

    fn on_store(&mut self, machine: &mut Machine, access: &MemAccess) {
        let shared = Rc::clone(&self.shared);
        let mut s = shared.borrow_mut();
        s.stores += 1;
        let sample = s.recorder.is_some() && s.stores.is_multiple_of(SAMPLE_EVERY);
        let t = sample.then(Instant::now);
        self.inner().on_store(machine, access);
        let t = t.map(|t0| {
            let now = Instant::now();
            (now, (now - t0).as_nanos() as u64)
        });
        let interval = s.ended;
        if let Some(plane) = s.plane.as_mut() {
            let addr = access.vaddr.raw();
            let len = access.size.min(8) as usize;
            let span = &mut plane.touched[self.tid as usize];
            span.0 = span.0.min(addr);
            span.1 = span.1.max(addr + len as u64);
            let bytes = store_bytes(addr, interval);
            plane
                .process
                .record_store(self.tid, access.vaddr, &bytes[..len]);
        }
        if let (Some((t1, tracker_ns)), Some(rec)) = (t, s.recorder.as_mut()) {
            rec.sampled_store(tracker_ns, t1.elapsed().as_nanos() as u64);
        }
    }

    fn end_interval(&mut self, machine: &mut Machine, info: IntervalInfo) -> CheckpointOutcome {
        let shared = Rc::clone(&self.shared);
        let mut s = shared.borrow_mut();
        if self.tid == 0 {
            s.ckpt_start = machine.now();
            if let Some(rec) = s.recorder.as_mut() {
                rec.replay_end(Instant::now());
            }
        }
        let timed = s.ended >= s.warmup;
        let t = s.recorder.is_some().then(Instant::now);
        let outcome = self.inner().end_interval(machine, info);
        let ended = s.ended;
        if let (true, Some(t), Some(rec)) = (timed, t, s.recorder.as_mut()) {
            rec.end_interval(ended, t, t.elapsed().as_nanos() as u64);
        }
        if let Some(m) = self.mech.as_ref() {
            s.pending.insert(self.tid, m.last_runs().to_vec());
        }
        s.bytes_total += outcome.bytes_copied;
        if timed {
            s.bytes_timed += outcome.bytes_copied;
        }
        if self.tid + 1 == s.regions {
            s.ended += 1;
        }
        outcome
    }

    fn region_in_dram(&self) -> bool {
        self.mech.as_ref().is_none_or(|m| m.region_in_dram())
    }
}

/// What one pass measured.
#[derive(Debug)]
pub struct PassOut {
    /// Boundary at the start of the first timed interval.
    pub start: Boundary,
    /// Every interval boundary, warm-up included.
    pub marks: Vec<Mark>,
    /// Highest live heap above the baseline when an interval started.
    pub peak_live: usize,
    /// Untimed intervals.
    pub warmup: u64,
    /// Boundary after the last timed interval.
    pub end: Boundary,
    /// Timed intervals.
    pub timed: u64,
    /// Checkpoint cycles (regions + registers + re-arm) over the timed
    /// intervals.
    pub ckpt_cycles: u64,
    /// Bytes the mechanisms copied over the timed intervals.
    pub ckpt_bytes: u64,
    /// Per-region mechanism counters at the start and end of the
    /// timed window.
    pub mech: Vec<(MechCounters, MechCounters)>,
    /// The data plane after the pass (Prosper passes only).
    pub plane: Option<DataPlane>,
    /// The wrapper's accounting agrees with the manager's `RunResult`.
    pub accounting_ok: bool,
    /// Span recorder of a traced pass.
    pub recorder: Option<Recorder>,
}

impl PassOut {
    /// The timed intervals' host times.
    pub fn intervals(&self) -> Vec<IntervalTime> {
        self.marks[self.warmup as usize..]
            .windows(2)
            .map(|w| IntervalTime {
                ns: (w[1].at - w[0].after).as_nanos() as u64 - (w[1].bench_ns - w[0].bench_ns),
                accesses: w[1].accesses - w[0].accesses,
                ref_ns: w[0].ref_ns,
            })
            .collect()
    }

    /// Host ns from `t0` to the first timed interval, reference slices
    /// excluded, and the median reference slice over that span.
    pub fn setup(&self, t0: Instant) -> (u64, f64) {
        let w = self.warmup as usize;
        let slices: u64 = self.marks[..w]
            .iter()
            .map(|m| (m.after - m.at).as_nanos() as u64)
            .sum();
        let ns = (self.marks[w].at - t0).as_nanos() as u64 - slices;
        let refs: Vec<u64> = self.marks[..=w].iter().map(|m| m.ref_ns).collect();
        (ns, crate::refsim::median(&refs))
    }

    /// Highest live heap above the benchmark's footprint at the start
    /// of any interval of the pass, in MiB.
    pub fn peak_live_mib(&self) -> f64 {
        self.peak_live as f64 / (1024.0 * 1024.0)
    }

    /// Simulated cycles of the timed window.
    pub fn cycles(&self) -> u64 {
        self.end.cycles - self.start.cycles
    }

    /// Trace accesses replayed in the timed window.
    pub fn accesses(&self) -> u64 {
        self.end.accesses - self.start.accesses
    }

    /// The output check on the data plane: every region's effective
    /// persistent bytes equal its volatile bytes, and crash + recover
    /// lands on the last sequence with the same bytes and registers.
    pub fn check(&mut self) -> CheckOut {
        match self.plane.as_mut() {
            Some(plane) => check::run(plane, self.timed),
            None => CheckOut::default(),
        }
    }

    /// Every simulated statistic of the timed window, for exact
    /// comparison between passes that must agree bit for bit.
    pub fn cycle_fingerprint(&self) -> Vec<u64> {
        let mut v = vec![
            self.cycles(),
            self.ckpt_cycles,
            self.ckpt_bytes,
            self.end.nvm.total() - self.start.nvm.total(),
            self.accesses(),
            self.end.mem.l1d.misses - self.start.mem.l1d.misses,
            self.end.mem.l3.misses - self.start.mem.l3.misses,
            self.end.mem.nvm_write_stall_cycles - self.start.mem.nvm_write_stall_cycles,
        ];
        for (a, b) in &self.mech {
            v.push(b.totals.runs - a.totals.runs);
            v.push(b.lookup.searches - a.lookup.searches);
        }
        v
    }
}

/// Builds the mechanism for one region of `spec`.
fn prosper_for(spec: &WorkloadSpec) -> ProsperMechanism {
    let m = ProsperMechanism::with_defaults();
    if spec.spine {
        m.with_spine(SpineConfig::default())
    } else {
        m
    }
}

/// Runs one pass of `intervals` intervals (the first `warmup` untimed)
/// of `spec` at `seed`.
pub fn run_pass(
    spec: &WorkloadSpec,
    seed: u64,
    warmup: u64,
    intervals: u64,
    pass: Pass,
    recorder: Option<Recorder>,
) -> PassOut {
    assert!(warmup <= intervals, "warm-up longer than the pass");
    let counts = Rc::new(SourceCounts {
        traced: recorder.is_some(),
        span_cost_ns: recorder.as_ref().map_or(0, |r| r.span_cost_ns),
        ..SourceCounts::default()
    });
    let source = CountingSource {
        inner: Workload::new((spec.profile)(), seed),
        counts: Rc::clone(&counts),
    };
    let stack_range = source.stack().reserved_range();
    let mut ranges = vec![stack_range];
    if spec.heap {
        ranges.push(heap_region());
    }
    let regions = ranges.len() as u32;
    let plane = (pass == Pass::Prosper).then(|| DataPlane {
        process: if spec.spine {
            PersistentProcess::new_with_spine(&ranges, SpineConfig::default())
        } else {
            PersistentProcess::new(&ranges)
        },
        touched: vec![(u64::MAX, 0); ranges.len()],
        commit_ns: Vec::new(),
        reference: CopyRef::default(),
        ref_ns: Vec::new(),
        ref_nominal_ns: Vec::new(),
        commits: 0,
        failed_commits: 0,
    });
    let shared = Rc::new(RefCell::new(Shared {
        regions,
        warmup,
        ended: 0,
        ckpt_start: 0,
        ckpt_cycles_total: 0,
        ckpt_cycles_timed: 0,
        bytes_total: 0,
        bytes_timed: 0,
        stores: 0,
        start: None,
        marks: Vec::new(),
        bench_ns: 0,
        pending: BTreeMap::new(),
        plane,
        source: Rc::clone(&counts),
        recorder,
    }));
    let mut tracked: Vec<Tracked> = (0..regions)
        .map(|tid| Tracked {
            tid,
            mech: (pass == Pass::Prosper).then(|| prosper_for(spec)),
            none: NoPersistence,
            shared: Rc::clone(&shared),
            at_start: None,
        })
        .collect();

    let mut machine = Machine::new(MachineConfig::setup_i());
    let result = {
        let mut mgr = CheckpointManager::new(&mut machine, INTERVAL_10MS);
        let (stack, heap) = tracked.split_at_mut(1);
        let heap = heap.first_mut().map(|h| h as &mut dyn MemoryPersistence);
        mgr.run(source, &mut stack[0], heap, heap_region(), intervals)
    };
    let mut s = shared.borrow_mut();
    let end = s.boundary(&machine);
    let start = s.start.expect("the warm-up boundary is always reached");
    let accounting_ok = s.ended == intervals
        && result.intervals == intervals
        && result.total_cycles == end.cycles
        && result.checkpoint_cycles == s.ckpt_cycles_total
        && result.bytes_copied == s.bytes_total;
    let mech = tracked
        .iter()
        .map(|t| {
            (
                t.at_start.unwrap_or_default(),
                MechCounters::of(t.mech.as_ref()),
            )
        })
        .collect();
    PassOut {
        start,
        marks: std::mem::take(&mut s.marks),
        peak_live: counts.peak_live.get(),
        warmup,
        end,
        timed: intervals - warmup,
        ckpt_cycles: s.ckpt_cycles_timed,
        ckpt_bytes: s.bytes_timed,
        mech,
        plane: s.plane.take(),
        accounting_ok,
        recorder: s.recorder.take(),
    }
}
