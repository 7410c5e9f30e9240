//! Synthetic stand-ins for the paper's application benchmarks.
//!
//! The paper traces real applications (GAPBS PageRank, Graph500 SSSP,
//! Memcached under YCSB, and four SPEC CPU 2017 benchmarks) with
//! Pin/SniP. Those traces are not available, so each benchmark is
//! replaced by a parameterised random walk over call/return, stack
//! write-burst, heap access, and compute actions, executed on a real
//! [`StackModel`]. Profiles are tuned to the stack characteristics the
//! paper reports:
//!
//! * **Fig. 1** — fraction of memory operations hitting the stack:
//!   Gapbs_pr ≈ 70 %, G500_sssp ≈ 45 %, Ycsb_mem ≈ 15 %.
//! * **Fig. 2** — Ycsb_mem performs > 36 % of its stack writes beyond
//!   the interval-final SP (high call/return churn).
//! * **Fig. 13** — SSSP's stack writes are spatially local (bitmap
//!   words fill up), while mcf's are scattered (words accumulate few
//!   bits), reversing the HWM trend.

use prosper_memsim::addr::VirtAddr;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::record::{AccessKind, MemAccess, Region, TraceEvent};
use crate::source::TraceSource;
use crate::stack::StackModel;

/// Heap segment base for workload heap traffic.
const HEAP_BASE: u64 = 0x5555_0000_0000;

/// Tunable profile for a synthetic workload.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Display name (matches the paper's figures).
    pub name: &'static str,
    /// Probability that a memory action targets the stack (Fig. 1).
    pub stack_fraction: f64,
    /// Probability that a stack access is a store (stacks are
    /// write-intensive; activation records are written on call).
    pub stack_write_fraction: f64,
    /// Probability that a heap access is a store.
    pub heap_write_fraction: f64,
    /// Per-step probability of a function call (frame push).
    pub call_rate: f64,
    /// Per-step probability of a return (frame pop), applied when the
    /// call depth exceeds `min_depth`.
    pub return_rate: f64,
    /// Typical frame size in bytes (uniform in `[frame_bytes/2,
    /// frame_bytes*3/2]`).
    pub frame_bytes: u64,
    /// Call depth the workload idles around.
    pub min_depth: usize,
    /// Maximum call depth.
    pub max_depth: usize,
    /// Spatial locality of stack writes in `[0, 1]`: with this
    /// probability a stack write continues sequentially after the
    /// previous one; otherwise it picks a scattered target in the
    /// active region. High values fill dirty-bitmap words densely
    /// (SSSP-like); low values scatter single bits (mcf-like).
    pub stack_locality: f64,
    /// Size in bytes of the hot window just above SP that sequential
    /// writes cycle through (activation-record locality). Real stacks
    /// rewrite a small cluster of near-SP addresses heavily while the
    /// SP excursion touches many pages lightly — this is what gives
    /// page-granularity tracking its large copy-size amplification
    /// (Fig. 4).
    pub seq_span: u64,
    /// Scatter shape for non-sequential stack writes: `0` means
    /// uniform over the whole active region (mcf-like, low bits per
    /// bitmap word); a positive value confines each scattered write to
    /// the first `scatter_span` bytes above a random frame boundary
    /// (callee-save/spill area of a frame in the call chain).
    pub scatter_span: u64,
    /// Number of accesses per burst between compute gaps.
    pub burst_len: u32,
    /// Heap working-set size in bytes.
    pub heap_bytes: u64,
    /// Fraction of heap accesses that hit a small hot set.
    pub heap_hot_fraction: f64,
    /// Compute cycles between bursts (memory intensity knob).
    pub compute_gap: u64,
}

impl WorkloadProfile {
    /// GAPBS PageRank stand-in: ~70 % stack operations, spatially
    /// local stack writes, moderate call churn.
    pub fn gapbs_pr() -> Self {
        Self {
            name: "Gapbs_pr",
            stack_fraction: 0.70,
            stack_write_fraction: 0.55,
            heap_write_fraction: 0.35,
            call_rate: 0.04,
            return_rate: 0.04,
            frame_bytes: 1536,
            min_depth: 4,
            max_depth: 24,
            stack_locality: 0.85,
            seq_span: 192,
            scatter_span: 64,
            burst_len: 48,
            heap_bytes: 64 * 1024 * 1024,
            heap_hot_fraction: 0.6,
            compute_gap: 40,
        }
    }

    /// Graph500 SSSP stand-in: ~45 % stack operations with strong
    /// spatial locality (Fig. 13: loads/stores fall as HWM rises).
    pub fn g500_sssp() -> Self {
        Self {
            name: "G500_sssp",
            stack_fraction: 0.45,
            stack_write_fraction: 0.55,
            heap_write_fraction: 0.40,
            call_rate: 0.05,
            return_rate: 0.05,
            frame_bytes: 1024,
            min_depth: 3,
            max_depth: 20,
            stack_locality: 0.93,
            seq_span: 448,
            scatter_span: 64,
            burst_len: 40,
            heap_bytes: 128 * 1024 * 1024,
            heap_hot_fraction: 0.4,
            compute_gap: 60,
        }
    }

    /// Memcached-under-YCSB stand-in: ~15 % stack operations but very
    /// high call/return churn, so a large share of stack writes land
    /// beyond the interval-final SP (Fig. 2: > 36 %).
    pub fn ycsb_mem() -> Self {
        Self {
            name: "Ycsb_mem",
            stack_fraction: 0.10,
            stack_write_fraction: 0.60,
            heap_write_fraction: 0.45,
            call_rate: 0.02,
            return_rate: 0.12,
            frame_bytes: 768,
            min_depth: 2,
            max_depth: 20,
            stack_locality: 0.75,
            seq_span: 224,
            scatter_span: 64,
            burst_len: 24,
            heap_bytes: 256 * 1024 * 1024,
            heap_hot_fraction: 0.3,
            compute_gap: 90,
        }
    }

    /// SPEC CPU 2017 605.mcf_s stand-in: scattered stack writes over a
    /// wide active region (Fig. 13: loads/stores *rise* with HWM).
    pub fn mcf() -> Self {
        Self {
            name: "605.mcf_s",
            stack_fraction: 0.30,
            stack_write_fraction: 0.50,
            heap_write_fraction: 0.40,
            call_rate: 0.02,
            return_rate: 0.03,
            frame_bytes: 2048,
            min_depth: 3,
            max_depth: 12,
            stack_locality: 0.08,
            seq_span: 256,
            scatter_span: 0,
            burst_len: 32,
            heap_bytes: 512 * 1024 * 1024,
            heap_hot_fraction: 0.2,
            compute_gap: 70,
        }
    }

    /// SPEC CPU 2017 620.omnetpp_s stand-in: event-driven simulator,
    /// moderate stack share and churn.
    pub fn omnetpp() -> Self {
        Self {
            name: "620.omnetpp_s",
            stack_fraction: 0.40,
            stack_write_fraction: 0.55,
            heap_write_fraction: 0.45,
            call_rate: 0.10,
            return_rate: 0.10,
            frame_bytes: 512,
            min_depth: 4,
            max_depth: 26,
            stack_locality: 0.70,
            seq_span: 192,
            scatter_span: 64,
            burst_len: 32,
            heap_bytes: 128 * 1024 * 1024,
            heap_hot_fraction: 0.5,
            compute_gap: 55,
        }
    }

    /// SPEC CPU 2017 600.perlbench_s stand-in: interpreter with heavy
    /// call traffic and medium locality.
    pub fn perlbench() -> Self {
        Self {
            name: "600.perlbench_s",
            stack_fraction: 0.50,
            stack_write_fraction: 0.60,
            heap_write_fraction: 0.40,
            call_rate: 0.15,
            return_rate: 0.15,
            frame_bytes: 448,
            min_depth: 5,
            max_depth: 32,
            stack_locality: 0.75,
            seq_span: 192,
            scatter_span: 64,
            burst_len: 36,
            heap_bytes: 64 * 1024 * 1024,
            heap_hot_fraction: 0.55,
            compute_gap: 45,
        }
    }

    /// SPEC CPU 2017 641.leela_s stand-in: MCTS with deep recursion
    /// and good locality.
    pub fn leela() -> Self {
        Self {
            name: "641.leela_s",
            stack_fraction: 0.55,
            stack_write_fraction: 0.55,
            heap_write_fraction: 0.35,
            call_rate: 0.12,
            return_rate: 0.12,
            frame_bytes: 384,
            min_depth: 6,
            max_depth: 40,
            stack_locality: 0.82,
            seq_span: 160,
            scatter_span: 48,
            burst_len: 40,
            heap_bytes: 32 * 1024 * 1024,
            heap_hot_fraction: 0.65,
            compute_gap: 50,
        }
    }

    /// The three motivation/evaluation application workloads
    /// (Figures 1–4, 8, 9).
    pub fn applications() -> Vec<WorkloadProfile> {
        vec![Self::gapbs_pr(), Self::g500_sssp(), Self::ycsb_mem()]
    }

    /// The Figure 12 benchmark set (SPEC + graph workloads).
    pub fn tracking_overhead_set() -> Vec<WorkloadProfile> {
        vec![
            Self::mcf(),
            Self::omnetpp(),
            Self::perlbench(),
            Self::leela(),
            Self::g500_sssp(),
            Self::gapbs_pr(),
        ]
    }
}

/// A Bernoulli draw as an integer threshold: `ceil(p·2^53)`.
///
/// `gen_bool(p)` takes the top 53 bits `x` of one `next_u64()` and
/// returns `x·2^-53 < p`. Both sides are exact in `f64` (`x` has 53
/// bits, and scaling by a power of two is exact), so for an integer
/// `x` that is `x < ceil(p·2^53)`: [`Chance::draw`] decides exactly
/// what `gen_bool(p)` decides, from the same draw, without the float
/// conversion and the range check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Chance(u64);

impl Chance {
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`, as `gen_bool` does.
    fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        Self((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// One draw: `true` with the chance's probability.
    fn draw(self, rng: &mut impl RngCore) -> bool {
        rng.next_u64() >> 11 < self.0
    }
}

/// What a profile fixes for every refill: its Bernoulli draws as
/// thresholds, and the heap hot-set size.
#[derive(Clone, Copy, Debug)]
struct Draws {
    stack_locality: Chance,
    stack_write: Chance,
    heap_hot: Chance,
    heap_write: Chance,
    call: Chance,
    ret: Chance,
    stack: Chance,
    /// Bytes of the heap's hot set (1% of the heap, at least a page).
    hot_bytes: u64,
}

impl Draws {
    fn new(p: &WorkloadProfile) -> Self {
        Self {
            stack_locality: Chance::new(p.stack_locality),
            stack_write: Chance::new(p.stack_write_fraction),
            heap_hot: Chance::new(p.heap_hot_fraction),
            heap_write: Chance::new(p.heap_write_fraction),
            call: Chance::new(p.call_rate),
            ret: Chance::new(p.return_rate),
            stack: Chance::new(p.stack_fraction),
            hot_bytes: (p.heap_bytes as f64 * 0.01).max(4096.0) as u64,
        }
    }
}

/// A running synthetic workload.
///
/// # Examples
///
/// ```
/// use prosper_trace::workloads::{Workload, WorkloadProfile};
/// use prosper_trace::source::TraceSource;
///
/// let mut w = Workload::new(WorkloadProfile::g500_sssp(), 7);
/// let stack_range = w.stack().reserved_range();
/// for _ in 0..100 {
///     if let Some(a) = w.next_event().as_access() {
///         if a.region == prosper_trace::record::Region::Stack {
///             assert!(stack_range.overlaps_access(a.vaddr, a.size as u64));
///         }
///     }
/// }
/// ```
#[derive(Debug)]
pub struct Workload {
    profile: WorkloadProfile,
    /// The profile's draws, computed once.
    draws: Draws,
    stack: StackModel,
    rng: StdRng,
    /// Events of the current refill; `next` is the next one handed out.
    /// Reused from one refill to the next, so it settles at the size of
    /// the largest refill and allocates no more.
    events: Vec<TraceEvent>,
    next: usize,
    /// Sequential-write cursor within the active stack region.
    stack_cursor: u64,
    /// Sequential scan cursor in the heap.
    heap_cursor: u64,
}

impl Workload {
    /// Instantiates the workload with a deterministic seed.
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        Self::with_stack(profile, seed, StackModel::new(0))
    }

    /// Instantiates the workload over a caller-provided stack model
    /// (distinct threads/processes need distinct stack ranges when
    /// they share one tracker multiplexer).
    pub fn with_stack(profile: WorkloadProfile, seed: u64, mut stack: StackModel) -> Self {
        let mut events = Vec::new();
        // Establish the idle call depth.
        for _ in 0..profile.min_depth.max(1) {
            events.extend(stack.push_frame(profile.frame_bytes, 2));
        }
        let stack_cursor = stack.sp().raw();
        Self {
            draws: Draws::new(&profile),
            profile,
            stack,
            rng: StdRng::seed_from_u64(seed),
            events,
            next: 0,
            stack_cursor,
            heap_cursor: 0,
        }
    }

    /// The profile driving this workload.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn stack_access(&mut self) -> TraceEvent {
        let p = &self.profile;
        let active = self.stack.active_range();
        debug_assert!(!active.is_empty(), "idle depth keeps frames pushed");
        let lo = active.start().raw();
        let hi = active.end().raw() - 8;
        let sequential = self.draws.stack_locality.draw(&mut self.rng);
        let addr = if sequential {
            // Activation-record locality: cycle through a small hot
            // window just above SP.
            let span_hi = (lo + p.seq_span.max(16)).min(hi);
            self.stack_cursor += 8;
            if self.stack_cursor < lo || self.stack_cursor > span_hi {
                self.stack_cursor = lo;
            }
            self.stack_cursor
        } else if p.scatter_span == 0 {
            // Uniform scatter over the whole active region (mcf-like).
            lo + self.rng.gen_range(0..=(hi - lo) / 8) * 8
        } else {
            // Frame-top scatter: a random frame in the call chain gets
            // a write within its callee-save/spill area. The frame
            // grid is anchored at the stack top so the same addresses
            // are revisited whatever the current SP.
            let top = active.end().raw();
            let frames = ((top - lo) / p.frame_bytes).max(1);
            let frame_base = top - self.rng.gen_range(1..=frames) * p.frame_bytes;
            let offset = self.rng.gen_range(0..p.scatter_span.max(8) / 8) * 8;
            (frame_base + offset).clamp(lo, hi)
        };
        let kind = if self.draws.stack_write.draw(&mut self.rng) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        TraceEvent::Access(MemAccess {
            tid: self.stack.tid(),
            kind,
            vaddr: VirtAddr::new(addr),
            size: 8,
            region: Region::Stack,
            sp: self.stack.sp(),
        })
    }

    fn heap_access(&mut self) -> TraceEvent {
        let d = self.draws;
        let addr = if d.heap_hot.draw(&mut self.rng) {
            HEAP_BASE + self.rng.gen_range(0..d.hot_bytes / 8) * 8
        } else {
            self.heap_cursor = (self.heap_cursor + 64) % self.profile.heap_bytes;
            HEAP_BASE + self.heap_cursor
        };
        let kind = if d.heap_write.draw(&mut self.rng) {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        TraceEvent::Access(MemAccess {
            tid: self.stack.tid(),
            kind,
            vaddr: VirtAddr::new(addr),
            size: 8,
            region: Region::Heap,
            sp: self.stack.sp(),
        })
    }

    /// Deterministic per-depth frame geometry: real programs call the
    /// same functions at the same depths, so SP revisits the same
    /// addresses and activation-record writes coalesce across calls —
    /// the effect behind the paper's huge page-vs-byte copy-size gap
    /// (Fig. 4).
    fn frame_geometry(&self, depth: usize) -> (u64, u32) {
        let p = &self.profile;
        let mix = (depth as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
        let bytes = p.frame_bytes / 2 + (mix % (p.frame_bytes + 1));
        let saves = 1 + (mix % 4) as u32;
        (bytes, saves)
    }

    /// Pushes one frame at the current depth with its activation
    /// record and fixed-offset local initialisation.
    fn call(&mut self) {
        let (bytes, saves) = self.frame_geometry(self.stack.depth());
        let ev = self.stack.push_frame(bytes, saves);
        self.events.extend(ev);
        let locals = 2 + (saves as u64 % 4);
        for w in 0..locals {
            self.events.push(self.stack.write_local(16 + w * 8, 8));
        }
    }

    /// Appends one step of the walk to `events`.
    fn refill(&mut self) {
        let d = self.draws;
        let idle_depth = self.profile.min_depth.max(1);
        // Deep excursion: dive through the call graph writing only
        // activation records and a few locals per frame — many pages
        // touched, few bytes per page dirtied — then unwind back to
        // the idle depth. This grow/shrink pattern is the stack-usage
        // character Section I of the paper highlights.
        if d.call.draw(&mut self.rng) {
            let headroom = self
                .profile
                .max_depth
                .saturating_sub(self.stack.depth())
                .max(1);
            for _ in 0..self.rng.gen_range(1..=headroom) {
                self.call();
                self.events.push(TraceEvent::Compute(16));
            }
            while self.stack.depth() > idle_depth {
                let ev = self.stack.pop_frame();
                self.events.extend(ev);
            }
        }
        // Shallow call/return churn (request handling): a quick
        // call-work-return at the idle depth.
        if d.ret.draw(&mut self.rng) {
            self.call();
            for _ in 0..4 {
                let ev = self.stack_access();
                self.events.push(ev);
            }
            let ev = self.stack.pop_frame();
            self.events.extend(ev);
        }
        // Burst of memory accesses at the idle depth.
        for _ in 0..self.profile.burst_len {
            let ev = if d.stack.draw(&mut self.rng) {
                self.stack_access()
            } else {
                self.heap_access()
            };
            self.events.push(ev);
        }
        self.events
            .push(TraceEvent::Compute(self.profile.compute_gap));
    }
}

impl TraceSource for Workload {
    fn next_event(&mut self) -> TraceEvent {
        if self.next == self.events.len() {
            self.events.clear();
            self.next = 0;
            self.refill();
        }
        let ev = self.events[self.next];
        self.next += 1;
        ev
    }

    fn name(&self) -> &'static str {
        self.profile.name
    }

    fn stack(&self) -> &StackModel {
        &self.stack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region_fractions(profile: WorkloadProfile, n: usize) -> (f64, f64) {
        let mut w = Workload::new(profile, 11);
        let mut stack = 0usize;
        let mut total = 0usize;
        for _ in 0..n {
            if let TraceEvent::Access(a) = w.next_event() {
                total += 1;
                if a.region == Region::Stack {
                    stack += 1;
                }
            }
        }
        (stack as f64 / total as f64, total as f64)
    }

    #[test]
    fn gapbs_is_stack_heavy() {
        let (frac, _) = region_fractions(WorkloadProfile::gapbs_pr(), 50_000);
        assert!(frac > 0.6, "Gapbs stack fraction {frac} (paper: ~70%)");
    }

    #[test]
    fn ycsb_is_stack_light() {
        let (frac, _) = region_fractions(WorkloadProfile::ycsb_mem(), 50_000);
        assert!(frac < 0.35, "Ycsb stack fraction {frac} (paper: ~15%)");
    }

    #[test]
    fn fig1_ordering_holds() {
        let (g, _) = region_fractions(WorkloadProfile::gapbs_pr(), 30_000);
        let (s, _) = region_fractions(WorkloadProfile::g500_sssp(), 30_000);
        let (y, _) = region_fractions(WorkloadProfile::ycsb_mem(), 30_000);
        assert!(g > s && s > y, "Fig.1 ordering: {g} > {s} > {y}");
    }

    #[test]
    fn stack_accesses_stay_in_reserved_range() {
        let mut w = Workload::new(WorkloadProfile::mcf(), 3);
        let reserved = w.stack().reserved_range();
        for _ in 0..20_000 {
            if let TraceEvent::Access(a) = w.next_event() {
                if a.region == Region::Stack {
                    assert!(
                        reserved.overlaps_access(a.vaddr, u64::from(a.size)),
                        "stack access {a:?} outside reserved range"
                    );
                }
            }
        }
    }

    #[test]
    fn sp_moves_with_call_churn() {
        let mut w = Workload::new(WorkloadProfile::ycsb_mem(), 5);
        let mut sps = std::collections::HashSet::new();
        for _ in 0..20_000 {
            if let TraceEvent::Access(a) = w.next_event() {
                sps.insert(a.sp.raw());
            }
        }
        assert!(sps.len() >= 10, "Ycsb SP takes many values: {}", sps.len());
    }

    #[test]
    fn mcf_scatters_more_than_sssp() {
        // Distinct 32-granule (256 B) bitmap words touched per stack
        // store: mcf should touch far more words per store than sssp.
        let words_per_store = |profile: WorkloadProfile| {
            let mut w = Workload::new(profile, 7);
            let mut words = std::collections::HashSet::new();
            let mut stores = 0u64;
            for _ in 0..40_000 {
                if let TraceEvent::Access(a) = w.next_event() {
                    if a.is_stack_store() {
                        stores += 1;
                        words.insert(a.vaddr.raw() / 256);
                    }
                }
            }
            words.len() as f64 / stores as f64
        };
        let mcf = words_per_store(WorkloadProfile::mcf());
        let sssp = words_per_store(WorkloadProfile::g500_sssp());
        assert!(mcf > sssp * 2.0, "mcf {mcf} vs sssp {sssp}");
    }

    #[test]
    fn deterministic_with_seed() {
        let mut a = Workload::new(WorkloadProfile::omnetpp(), 9);
        let mut b = Workload::new(WorkloadProfile::omnetpp(), 9);
        for _ in 0..5_000 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn frame_geometry_is_deterministic_per_depth() {
        // Same depth => same frame layout, the property that lets
        // activation-record writes coalesce across calls (Fig. 4).
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
        for depth in 0..32 {
            assert_eq!(w.frame_geometry(depth), w.frame_geometry(depth));
            let (bytes, saves) = w.frame_geometry(depth);
            let p = w.profile();
            assert!(bytes >= p.frame_bytes / 2);
            assert!(bytes <= p.frame_bytes / 2 + p.frame_bytes);
            assert!((1..=4).contains(&saves));
        }
        // And the layouts differ across depths (not one constant).
        let distinct: std::collections::HashSet<u64> =
            (0..32).map(|d| w.frame_geometry(d).0).collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    fn excursions_return_to_idle_depth() {
        let mut w = Workload::new(WorkloadProfile::leela(), 8);
        let idle = w.profile().min_depth;
        // Drain many refills; after consuming the queue entirely the
        // stack must always sit at (or near) the idle depth.
        for _ in 0..50_000 {
            w.next_event();
        }
        assert!(
            w.stack().depth() <= idle + 1,
            "depth {} vs idle {idle}",
            w.stack().depth()
        );
    }

    #[test]
    fn threshold_draws_decide_exactly_what_gen_bool_decides() {
        let all = [
            WorkloadProfile::gapbs_pr(),
            WorkloadProfile::g500_sssp(),
            WorkloadProfile::ycsb_mem(),
            WorkloadProfile::mcf(),
            WorkloadProfile::omnetpp(),
            WorkloadProfile::perlbench(),
            WorkloadProfile::leela(),
        ];
        let mut probs: Vec<f64> = all
            .iter()
            .flat_map(|p| {
                [
                    p.stack_locality,
                    p.stack_write_fraction,
                    p.heap_hot_fraction,
                    p.heap_write_fraction,
                    p.call_rate,
                    p.return_rate,
                    p.stack_fraction,
                ]
            })
            .collect();
        probs.sort_by(f64::total_cmp);
        probs.dedup();
        for prob in probs {
            let chance = Chance::new(prob);
            let mut a = StdRng::seed_from_u64(prob.to_bits());
            let mut b = a.clone();
            for i in 0..1_000_000 {
                assert_eq!(
                    chance.draw(&mut a),
                    b.gen_bool(prob),
                    "p = {prob}, draw {i}"
                );
            }
        }
        // The edges: never, always, and a threshold that is an integer.
        assert_eq!(Chance::new(0.0), Chance(0));
        assert_eq!(Chance::new(1.0), Chance(1 << 53));
        assert_eq!(Chance::new(0.5), Chance(1 << 52));
    }

    #[test]
    fn application_and_spec_sets() {
        assert_eq!(WorkloadProfile::applications().len(), 3);
        let set = WorkloadProfile::tracking_overhead_set();
        assert_eq!(set.len(), 6);
        assert!(set.iter().any(|p| p.name.contains("mcf")));
    }
}
