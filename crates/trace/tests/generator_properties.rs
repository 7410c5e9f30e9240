//! Property-based tests of the trace generators' invariants.

use proptest::prelude::*;
use prosper_trace::interval::IntervalCollector;
use prosper_trace::micro::{MicroBench, MicroSpec};
use prosper_trace::record::{Region, TraceEvent};
use prosper_trace::source::TraceSource;
use prosper_trace::stack::StackModel;
use prosper_trace::workloads::{Workload, WorkloadProfile};

fn arb_profile() -> impl Strategy<Value = WorkloadProfile> {
    prop_oneof![
        Just(WorkloadProfile::gapbs_pr()),
        Just(WorkloadProfile::g500_sssp()),
        Just(WorkloadProfile::ycsb_mem()),
        Just(WorkloadProfile::mcf()),
        Just(WorkloadProfile::omnetpp()),
        Just(WorkloadProfile::perlbench()),
        Just(WorkloadProfile::leela()),
    ]
}

fn arb_micro() -> impl Strategy<Value = MicroSpec> {
    prop_oneof![
        Just(MicroSpec::Random { array_bytes: 8192 }),
        Just(MicroSpec::Stream { array_bytes: 8192 }),
        Just(MicroSpec::Sparse { pages: 8 }),
        Just(MicroSpec::Quicksort { elements: 128 }),
        Just(MicroSpec::Recursive { depth: 6 }),
        Just(MicroSpec::Normal { array_bytes: 8192 }),
        Just(MicroSpec::Poisson { array_bytes: 8192 }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every stack access of every workload stays inside the reserved
    /// stack range, and its recorded SP matches the active region.
    #[test]
    fn workload_stack_accesses_in_range(profile in arb_profile(), seed in 0u64..1000) {
        let mut w = Workload::new(profile, seed);
        let reserved = w.stack().reserved_range();
        for _ in 0..3_000 {
            if let TraceEvent::Access(a) = w.next_event() {
                if a.region == Region::Stack {
                    prop_assert!(reserved.overlaps_access(a.vaddr, u64::from(a.size)));
                    prop_assert!(a.sp <= w.stack().top());
                }
            }
        }
    }

    /// Micro-benchmarks never violate the stack model: SP within the
    /// reserved range, all stack accesses at or above SP-of-emission's
    /// frame floor, and strictly below the stack top.
    #[test]
    fn micro_accesses_well_formed(spec in arb_micro(), seed in 0u64..1000) {
        let mut b = MicroBench::new(spec, seed);
        let top = b.stack().top();
        let reserved = b.stack().reserved_range();
        for _ in 0..3_000 {
            if let TraceEvent::Access(a) = b.next_event() {
                if a.region == Region::Stack {
                    prop_assert!(a.vaddr < top);
                    prop_assert!(reserved.contains(a.vaddr));
                }
                prop_assert!(a.size > 0 && a.size <= 64);
            }
        }
    }

    /// Interval collection: budgets are respected within one event,
    /// final SP equals the source's SP afterwards, and the dirty-set
    /// size shrinks monotonically as granularity coarsens in *granule
    /// count* (and grows in bytes).
    #[test]
    fn interval_invariants(spec in arb_micro(), seed in 0u64..100, budget in 5_000u64..40_000) {
        let b = MicroBench::new(spec, seed);
        let mut c = IntervalCollector::new(b, budget);
        let iv = c.next_interval();
        let spent: u64 = iv.events.iter().map(|e| e.budget_cycles()).sum();
        prop_assert!(spent >= budget);
        let b = iv.bounds;
        prop_assert!(b.min_sp <= b.start_sp && b.min_sp <= b.final_sp);

        let g8 = iv.dirty_stack_granules(8).len() as u64;
        let g64 = iv.dirty_stack_granules(64).len() as u64;
        prop_assert!(g64 <= g8, "coarser granularity has fewer granules");
        prop_assert!(iv.checkpoint_bytes(64) >= iv.checkpoint_bytes(8));
    }

    /// The stack model conserves SP across arbitrary push/pop
    /// sequences.
    #[test]
    fn stack_model_push_pop_conservation(sizes in prop::collection::vec(16u64..512, 1..40)) {
        let mut s = StackModel::new(0);
        let top = s.sp();
        let mut expected_depth = 0usize;
        for chunk in sizes.chunks(2) {
            for &size in chunk {
                s.push_frame(size, 1);
                expected_depth += 1;
            }
            s.pop_frame();
            expected_depth -= 1;
        }
        prop_assert_eq!(s.depth(), expected_depth);
        while s.depth() > 0 {
            s.pop_frame();
        }
        prop_assert_eq!(s.sp(), top, "fully unwound stack restores SP");
        prop_assert!(s.min_sp_watermark() <= top);
    }

    /// Same seed, same stream — for every generator.
    #[test]
    fn generators_deterministic(spec in arb_micro(), seed in 0u64..50) {
        let mut a = MicroBench::new(spec, seed);
        let mut b = MicroBench::new(spec, seed);
        for _ in 0..500 {
            prop_assert_eq!(a.next_event(), b.next_event());
        }
    }
}
