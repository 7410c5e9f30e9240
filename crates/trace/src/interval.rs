//! Consistency-interval splitting and per-interval stack analysis.
//!
//! Checkpoint experiments operate on fixed-duration intervals (10 ms in
//! the paper, i.e. 30 M cycles at 3 GHz; our harnesses scale this down
//! — see EXPERIMENTS.md). An [`IntervalCollector`] pulls events from a
//! [`TraceSource`] until the interval's cycle budget is exhausted.
//! [`IntervalCollector::stream_interval`] hands each event to the
//! caller as the source yields it and buffers nothing, which is how the
//! checkpoint manager replays a run; [`IntervalCollector::next_interval`]
//! buffers the same events into an [`Interval`] for the analyses that
//! walk an interval more than once. Both return the SP endpoints needed
//! by the motivation analyses (Figure 2: writes beyond the final SP)
//! and by SP-aware replay (Figure 3).

use prosper_memsim::addr::VirtAddr;
use prosper_memsim::Cycles;
use serde::{Deserialize, Serialize};

use crate::record::{AccessKind, Region, TraceEvent};
use crate::source::TraceSource;

/// One collected consistency interval.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Events in issue order.
    pub events: Vec<TraceEvent>,
    /// The interval's SP endpoints.
    pub bounds: IntervalBounds,
}

/// The SP endpoints of one interval.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntervalBounds {
    /// SP at the start of the interval.
    pub start_sp: VirtAddr,
    /// SP at the end of the interval (the "final SP" of Fig. 2).
    pub final_sp: VirtAddr,
    /// Lowest SP observed during the interval (deepest stack use —
    /// the maximum active region the tracker reports to the OS).
    pub min_sp: VirtAddr,
    /// Top-of-stack address.
    pub stack_top: VirtAddr,
}

/// Summary statistics of stack activity within an interval (Fig. 2).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StackIntervalStats {
    /// Stores to the stack region.
    pub stack_writes: u64,
    /// Stack stores at addresses below the interval-final SP — work a
    /// non-SP-aware mechanism performs for state that is dead at the
    /// commit point.
    pub writes_beyond_final_sp: u64,
    /// Loads from the stack region.
    pub stack_reads: u64,
    /// All non-stack accesses.
    pub other_accesses: u64,
}

impl StackIntervalStats {
    /// Fraction of stack writes beyond the final SP.
    pub fn beyond_fraction(&self) -> f64 {
        if self.stack_writes == 0 {
            0.0
        } else {
            self.writes_beyond_final_sp as f64 / self.stack_writes as f64
        }
    }
}

impl Interval {
    /// Computes Fig.-2-style statistics for the interval.
    pub fn stack_stats(&self) -> StackIntervalStats {
        let mut s = StackIntervalStats::default();
        for ev in &self.events {
            let Some(a) = ev.as_access() else { continue };
            match (a.region, a.kind) {
                (Region::Stack, AccessKind::Store) => {
                    s.stack_writes += 1;
                    if a.vaddr < self.bounds.final_sp {
                        s.writes_beyond_final_sp += 1;
                    }
                }
                (Region::Stack, AccessKind::Load) => s.stack_reads += 1,
                _ => s.other_accesses += 1,
            }
        }
        s
    }

    /// Set of distinct dirty granules (of `granularity` bytes) written
    /// in the stack region during the interval — the ideal checkpoint
    /// content at that tracking granularity.
    pub fn dirty_stack_granules(&self, granularity: u64) -> std::collections::BTreeSet<u64> {
        assert!(granularity > 0, "granularity must be positive");
        let mut set = std::collections::BTreeSet::new();
        for ev in &self.events {
            let Some(a) = ev.as_access() else { continue };
            if !a.is_stack_store() {
                continue;
            }
            let first = a.vaddr.raw() / granularity;
            let last = (a.vaddr.raw() + u64::from(a.size) - 1) / granularity;
            for g in first..=last {
                set.insert(g);
            }
        }
        set
    }

    /// Bytes copied by a checkpoint tracking at `granularity` bytes.
    pub fn checkpoint_bytes(&self, granularity: u64) -> u64 {
        self.dirty_stack_granules(granularity).len() as u64 * granularity
    }
}

/// Pulls fixed-budget intervals from a trace source.
#[derive(Debug)]
pub struct IntervalCollector<S> {
    source: S,
    budget: Cycles,
}

impl<S: TraceSource> IntervalCollector<S> {
    /// Creates a collector with the given per-interval cycle budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(source: S, budget: Cycles) -> Self {
        assert!(budget > 0, "interval budget must be positive");
        Self { source, budget }
    }

    /// Pulls the next interval from the source, handing each event to
    /// `sink` as soon as the source yields it, and returns the
    /// interval's SP endpoints. Nothing is buffered.
    pub fn stream_interval(&mut self, mut sink: impl FnMut(TraceEvent)) -> IntervalBounds {
        let start_sp = self.source.stack().sp();
        let stack_top = self.source.stack().top();
        let mut min_sp = start_sp;
        let mut spent: Cycles = 0;
        while spent < self.budget {
            let ev = self.source.next_event();
            spent += ev.budget_cycles();
            if let Some(a) = ev.as_access() {
                min_sp = min_sp.min(a.sp);
            }
            sink(ev);
        }
        IntervalBounds {
            start_sp,
            final_sp: self.source.stack().sp(),
            min_sp,
            stack_top,
        }
    }

    /// Collects the next interval: [`Self::stream_interval`] with the
    /// events buffered in issue order.
    pub fn next_interval(&mut self) -> Interval {
        let mut events = Vec::new();
        let bounds = self.stream_interval(|ev| events.push(ev));
        Interval { events, bounds }
    }

    /// Collects `n` consecutive intervals.
    pub fn take_intervals(&mut self, n: usize) -> Vec<Interval> {
        (0..n).map(|_| self.next_interval()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{MicroBench, MicroSpec};
    use crate::workloads::{Workload, WorkloadProfile};

    #[test]
    fn intervals_have_requested_budget() {
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 1);
        let mut c = IntervalCollector::new(w, 10_000);
        let iv = c.next_interval();
        let spent: u64 = iv.events.iter().map(|e| e.budget_cycles()).sum();
        assert!(spent >= 10_000);
        assert!(spent < 12_000, "budget overshoot bounded by one event");
    }

    /// The budget loop written out on its own: the events and bounds
    /// both collectors must reproduce.
    fn reference_interval(source: &mut Workload, budget: Cycles) -> Interval {
        let start_sp = source.stack().sp();
        let mut min_sp = start_sp;
        let mut spent = 0;
        let mut events = Vec::new();
        while spent < budget {
            let ev = source.next_event();
            spent += ev.budget_cycles();
            if let TraceEvent::Access(a) = ev {
                min_sp = min_sp.min(a.sp);
            }
            events.push(ev);
        }
        let bounds = IntervalBounds {
            start_sp,
            final_sp: source.stack().sp(),
            min_sp,
            stack_top: source.stack().top(),
        };
        Interval { events, bounds }
    }

    #[test]
    fn streamed_interval_matches_buffered_interval() {
        for profile in [WorkloadProfile::gapbs_pr(), WorkloadProfile::ycsb_mem()] {
            let mut reference = Workload::new(profile.clone(), 7);
            let mut buffered = IntervalCollector::new(Workload::new(profile.clone(), 7), 30_000);
            let mut streamed = IntervalCollector::new(Workload::new(profile, 7), 30_000);
            for _ in 0..6 {
                let want = reference_interval(&mut reference, 30_000);
                let iv = buffered.next_interval();
                let mut events = Vec::new();
                let bounds = streamed.stream_interval(|ev| events.push(ev));
                assert_eq!(events, want.events);
                assert_eq!(bounds, want.bounds);
                assert_eq!(iv.events, want.events);
                assert_eq!(iv.bounds, want.bounds);
            }
        }
    }

    #[test]
    fn min_sp_below_or_equal_endpoints() {
        let w = Workload::new(WorkloadProfile::ycsb_mem(), 2);
        let mut c = IntervalCollector::new(w, 50_000);
        for _ in 0..5 {
            let iv = c.next_interval();
            let b = iv.bounds;
            assert!(b.min_sp <= b.start_sp);
            assert!(b.min_sp <= b.final_sp);
            assert!(b.final_sp <= b.stack_top);
        }
    }

    #[test]
    fn ycsb_writes_beyond_final_sp_are_substantial() {
        let w = Workload::new(WorkloadProfile::ycsb_mem(), 3);
        let mut c = IntervalCollector::new(w, 100_000);
        let ivs = c.take_intervals(20);
        let total: u64 = ivs.iter().map(|i| i.stack_stats().stack_writes).sum();
        let beyond: u64 = ivs
            .iter()
            .map(|i| i.stack_stats().writes_beyond_final_sp)
            .sum();
        let frac = beyond as f64 / total as f64;
        assert!(
            frac > 0.15,
            "Ycsb beyond-final-SP fraction {frac} (paper: >36%)"
        );
    }

    #[test]
    fn dirty_granules_monotone_in_granularity() {
        let b = MicroBench::new(
            MicroSpec::Random {
                array_bytes: 32 * 1024,
            },
            4,
        );
        let mut c = IntervalCollector::new(b, 20_000);
        let iv = c.next_interval();
        let g8 = iv.checkpoint_bytes(8);
        let g64 = iv.checkpoint_bytes(64);
        let g4096 = iv.checkpoint_bytes(4096);
        assert!(g8 <= g64 && g64 <= g4096, "{g8} <= {g64} <= {g4096}");
        assert!(g8 > 0);
    }

    #[test]
    fn sparse_page_vs_byte_granularity_gap_is_huge() {
        let b = MicroBench::new(MicroSpec::Sparse { pages: 16 }, 5);
        let mut c = IntervalCollector::new(b, 30_000);
        let iv = c.next_interval();
        let fine = iv.checkpoint_bytes(8);
        let page = iv.checkpoint_bytes(4096);
        assert!(
            page as f64 / fine as f64 > 20.0,
            "sparse: page {page} vs fine {fine}"
        );
    }

    #[test]
    fn stats_partition_all_accesses() {
        let w = Workload::new(WorkloadProfile::g500_sssp(), 6);
        let mut c = IntervalCollector::new(w, 20_000);
        let iv = c.next_interval();
        let s = iv.stack_stats();
        let accesses = iv.events.iter().filter(|e| e.as_access().is_some()).count() as u64;
        assert_eq!(s.stack_writes + s.stack_reads + s.other_accesses, accesses);
        assert!(s.writes_beyond_final_sp <= s.stack_writes);
    }

    #[test]
    fn beyond_fraction_handles_zero() {
        assert_eq!(StackIntervalStats::default().beyond_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_panics() {
        let b = MicroBench::new(MicroSpec::Recursive { depth: 2 }, 1);
        let mut c = IntervalCollector::new(b, 1000);
        c.next_interval().dirty_stack_granules(0);
    }
}
