//! Differential property tests: the staged-delta-spine commit path
//! against the eager-apply reference.
//!
//! Two [`PersistentProcess`] instances — one spine-configured, one
//! eager — are driven through identical random store/commit
//! sequences. After every clean commit the spine's *effective*
//! durable bytes (persistent image with the unmerged spine folded
//! over it, newest-wins) must be byte-identical to the eager
//! reference's persistent image. A final fault-injected commit then
//! crashes the spine process at an arbitrary crash window — including
//! batch-seal, mid-merge, and merge-retire sites — and recovery must
//! land on exactly the state eager apply reaches for the same durable
//! prefix of commits: same sequence, same bytes, spine fully folded.

use proptest::prelude::*;
use prosper_core::bitmap::CopyRun;
use prosper_core::recovery::{CommitHooks, PersistentProcess};
use prosper_core::SpineConfig;
use prosper_gemos::crash::{CrashInjected, CrashSite, FaultInjector};
use prosper_memsim::addr::{VirtAddr, VirtRange};
use std::collections::BTreeMap;

const STACK_BYTES: u64 = 0x1000;

fn stack_range(tid: u32) -> VirtRange {
    let start = 0x7000_0000 + u64::from(tid) * 0x10_0000;
    VirtRange::new(VirtAddr::new(start), VirtAddr::new(start + STACK_BYTES))
}

fn ranges(threads: u32) -> Vec<VirtRange> {
    (0..threads).map(stack_range).collect()
}

fn full_runs(threads: u32) -> BTreeMap<u32, Vec<CopyRun>> {
    (0..threads)
        .map(|tid| {
            let r = stack_range(tid);
            (
                tid,
                vec![CopyRun {
                    start: r.start(),
                    len: r.len(),
                }],
            )
        })
        .collect()
}

#[derive(Clone, Debug)]
enum Op {
    /// A store of `len` patterned bytes at `offset` into `tid`'s stack.
    Store {
        tid: u32,
        offset: u64,
        len: usize,
        seed: u8,
    },
    /// A whole-process commit of every thread's dirty bounding box.
    Commit,
}

fn arb_op(threads: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            0..threads,
            0..STACK_BYTES - 16,
            1usize..16,
            any::<u8>(),
        )
            .prop_map(|(tid, offset, len, seed)| Op::Store { tid, offset, len, seed }),
        1 => Just(Op::Commit),
    ]
}

fn arb_spine_cfg() -> impl Strategy<Value = SpineConfig> {
    prop_oneof![
        Just(SpineConfig::merge_always()),
        Just(SpineConfig::default()),
        Just(SpineConfig::lazy(3)),
        Just(SpineConfig::lazy(64)),
    ]
}

/// One commit through the commit engine with no hooks attached.
fn commit_clean(p: &mut PersistentProcess, runs: &BTreeMap<u32, Vec<CopyRun>>) {
    p.commit_with(std::slice::from_ref(runs), 1, CommitHooks::default())
        .expect("no injector is attached");
}

/// Drives the spine process and the eager reference in lock-step.
struct Differential {
    spine: PersistentProcess,
    eager: PersistentProcess,
    threads: u32,
    /// Per-thread dirty bounding box `(lo, hi)` since the last commit.
    dirty: BTreeMap<u32, (u64, u64)>,
}

impl Differential {
    fn new(threads: u32, cfg: SpineConfig) -> Self {
        let mut d = Differential {
            spine: PersistentProcess::new_with_spine(&ranges(threads), cfg),
            eager: PersistentProcess::new(&ranges(threads)),
            threads,
            dirty: BTreeMap::new(),
        };
        // A first full checkpoint so recovery always has a valid
        // sealed state to land on.
        let runs = full_runs(threads);
        commit_clean(&mut d.spine, &runs);
        commit_clean(&mut d.eager, &runs);
        d
    }

    fn store(&mut self, tid: u32, offset: u64, len: usize, seed: u8) {
        let addr = VirtAddr::new(stack_range(tid).start().raw() + offset);
        let bytes: Vec<u8> = (0..len as u64)
            .map(|i| seed.wrapping_add(i as u8))
            .collect();
        self.spine.record_store(tid, addr, &bytes);
        self.eager.record_store(tid, addr, &bytes);
        let lo = addr.raw();
        let hi = lo + len as u64;
        self.dirty
            .entry(tid)
            .and_modify(|(dlo, dhi)| {
                *dlo = (*dlo).min(lo);
                *dhi = (*dhi).max(hi);
            })
            .or_insert((lo, hi));
    }

    /// Copy runs covering every dirty bounding box, with an (empty)
    /// entry for every registered thread, clearing the dirty state.
    fn take_runs(&mut self) -> BTreeMap<u32, Vec<CopyRun>> {
        let dirty = std::mem::take(&mut self.dirty);
        (0..self.threads)
            .map(|tid| {
                let runs = dirty
                    .get(&tid)
                    .map(|&(lo, hi)| {
                        vec![CopyRun {
                            start: VirtAddr::new(lo),
                            len: hi - lo,
                        }]
                    })
                    .unwrap_or_default();
                (tid, runs)
            })
            .collect()
    }

    fn commit(&mut self) {
        let runs = self.take_runs();
        commit_clean(&mut self.spine, &runs);
        commit_clean(&mut self.eager, &runs);
    }

    /// Asserts the spine's effective durable bytes equal the eager
    /// reference's persistent image, thread by thread.
    fn assert_durably_identical(&self) {
        assert_eq!(
            self.spine.committed_sequence(),
            self.eager.committed_sequence(),
            "committed sequences diverged"
        );
        for tid in 0..self.threads {
            let r = stack_range(tid);
            let effective = self
                .spine
                .stack(tid)
                .read_effective(r.start(), r.len() as usize);
            let reference = self
                .eager
                .stack(tid)
                .persistent()
                .read(r.start(), r.len() as usize);
            assert_eq!(
                effective,
                reference,
                "tid {} durable bytes diverged at sequence {}",
                tid,
                self.spine.committed_sequence()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Without crashes: after every commit, the spine's effective
    /// durable state is byte-identical to eager apply, whatever the
    /// merge policy did (or deferred) in between.
    #[test]
    fn spine_fold_matches_eager_apply_at_every_commit(
        threads in 1u32..=3,
        cfg in arb_spine_cfg(),
        ops in prop::collection::vec(arb_op(3), 1..40),
    ) {
        let mut d = Differential::new(threads, cfg);
        d.assert_durably_identical();
        for op in &ops {
            match *op {
                Op::Store { tid, offset, len, seed } => {
                    d.store(tid % threads, offset, len, seed);
                }
                Op::Commit => {
                    d.commit();
                    d.assert_durably_identical();
                }
            }
        }
        d.commit();
        d.assert_durably_identical();
        // Folding whatever is left on the spine is a no-op on the
        // effective bytes.
        d.spine.merge_all_spines();
        prop_assert_eq!(d.spine.spine_batches(), 0);
        d.assert_durably_identical();
    }

    /// With a crash: the final commit is fault-injected at an
    /// arbitrary crash window (batch-seal, mid-merge, and merge-retire
    /// windows included). Spine recovery must land byte-identical to
    /// the eager reference applied over the same durable prefix:
    /// if the seal made it, both recover the new sequence; if not,
    /// both stand on the previous checkpoint.
    #[test]
    fn spine_recovery_matches_eager_apply_across_crash_points(
        threads in 1u32..=3,
        cfg in arb_spine_cfg(),
        ops in prop::collection::vec(arb_op(3), 1..30),
        crash_index in 0u64..64,
    ) {
        let mut d = Differential::new(threads, cfg);
        for op in &ops {
            match *op {
                Op::Store { tid, offset, len, seed } => {
                    d.store(tid % threads, offset, len, seed);
                }
                Op::Commit => d.commit(),
            }
        }
        // One more dirtying store so the faulted commit stages work.
        d.store(0, 8, 8, 0xA5);
        let before = d.spine.committed_sequence();
        let runs = d.take_runs();
        let mut inj = FaultInjector::at_index(crash_index);
        let hooks = CommitHooks {
            faults: Some(&mut inj),
            ..CommitHooks::default()
        };
        let crashed = d.spine.commit_with(std::slice::from_ref(&runs), 1, hooks).is_err();
        d.spine.crash();
        let recovered = d
            .spine
            .recover()
            .expect("initial checkpoint guarantees a recovery point");
        prop_assert!(
            recovered.sequence == before || recovered.sequence == before + 1,
            "recovered sequence {} outside [{}, {}]",
            recovered.sequence, before, before + 1
        );
        prop_assert!(
            crashed || recovered.sequence == before + 1,
            "a completed commit must be durable"
        );
        // Mirror the durable prefix on the eager reference.
        if recovered.sequence == before + 1 {
            commit_clean(&mut d.eager, &runs);
        }
        d.eager.crash();
        let ref_recovered = d.eager.recover().expect("reference recovers");
        prop_assert_eq!(recovered.sequence, ref_recovered.sequence);
        // Recovery folded the whole spine; both sides verify coherent
        // and agree byte-for-byte.
        prop_assert_eq!(d.spine.spine_batches(), 0);
        prop_assert!(d.spine.verify_coherent().is_ok());
        prop_assert!(d.eager.verify_coherent().is_ok());
        d.assert_durably_identical();
        for tid in 0..threads {
            let r = stack_range(tid);
            prop_assert!(
                d.spine
                    .stack(tid)
                    .volatile()
                    .matches(d.spine.stack(tid).persistent(), r),
                "tid {tid}: recovery must rebuild volatile from persistent"
            );
        }
    }
}

/// Deterministic exhaustive sweep: every crash index of a fixed
/// overlap-heavy scenario under the merge-always policy, checked
/// against the eager reference. Unlike the random property above this
/// guarantees the batch-seal, mid-merge, and merge-retire windows are
/// each actually hit.
#[test]
fn exhaustive_crash_sweep_covers_spine_sites() {
    let threads = 2u32;
    let mut hit_batch_seal = false;
    let mut hit_mid_merge = false;
    let mut hit_merge_retire = false;
    for index in 0u64.. {
        let mut d = Differential::new(threads, SpineConfig::merge_always());
        // Two overlapping commits so the spine holds real batches at
        // the faulted commit, then a third that triggers the merge.
        for round in 0..2u8 {
            d.store(0, 0x10, 64, round);
            d.store(1, 0x40, 32, round.wrapping_add(7));
            d.commit();
        }
        d.store(0, 0x20, 48, 0xC3);
        d.store(1, 0x48, 16, 0x5A);
        let before = d.spine.committed_sequence();
        let runs = d.take_runs();
        let mut inj = FaultInjector::at_index(index);
        let hooks = CommitHooks {
            faults: Some(&mut inj),
            ..CommitHooks::default()
        };
        let outcome = d.spine.commit_with(std::slice::from_ref(&runs), 1, hooks);
        match outcome {
            Err(CrashInjected { site }) => match site {
                CrashSite::BatchSeal { .. } => hit_batch_seal = true,
                CrashSite::MidMerge { .. } => hit_mid_merge = true,
                CrashSite::MergeRetire { .. } => hit_merge_retire = true,
                _ => {}
            },
            // The index walked off the end of the schedule: the
            // commit completed untouched and the sweep is done.
            Ok(()) => break,
        }
        d.spine.crash();
        let recovered = d.spine.recover().expect("sweep scenario recovers");
        if recovered.sequence == before + 1 {
            commit_clean(&mut d.eager, &runs);
        }
        d.eager.crash();
        let reference = d.eager.recover().expect("reference recovers");
        assert_eq!(
            recovered.sequence, reference.sequence,
            "index {index}: recovery sequence diverged"
        );
        assert_eq!(
            d.spine.spine_batches(),
            0,
            "index {index}: spine not folded"
        );
        d.spine.verify_coherent().expect("spine coherent");
        for tid in 0..threads {
            let r = stack_range(tid);
            assert_eq!(
                d.spine
                    .stack(tid)
                    .persistent()
                    .read(r.start(), r.len() as usize),
                d.eager
                    .stack(tid)
                    .persistent()
                    .read(r.start(), r.len() as usize),
                "index {index}, tid {tid}: recovered bytes diverged"
            );
        }
    }
    assert!(hit_batch_seal, "sweep never crashed at a batch-seal site");
    assert!(hit_mid_merge, "sweep never crashed mid-merge");
    assert!(hit_merge_retire, "sweep never crashed at merge-retire");
}
