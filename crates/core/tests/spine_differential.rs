//! Differential property tests: the staged-delta-spine commit path
//! against the eager-apply reference and a byte-map model.
//!
//! Two [`PersistentProcess`] instances — one spine-configured, one
//! eager — are driven through identical random store/commit
//! sequences, beside a `BTreeMap<u64, u8>` model that copies every
//! committed run's live bytes, newest wins. Each commit gives every
//! thread a random run list: runs overlap, abut, come out of order,
//! have zero length or straddle the 4 KiB chunk boundary inside each
//! stack. After every clean commit the spine's *effective* durable
//! bytes (persistent image with the unmerged spine folded over it,
//! newest-wins), the eager reference's persistent image and the model
//! must agree byte for byte, and every batch still on a spine must
//! hold as many runs as its commit's bytes form maximal spans, and
//! exactly its distinct bytes. A final fault-injected commit then
//! crashes the spine process at an arbitrary crash window — including
//! batch-seal, mid-merge, and merge-retire sites — and recovery must
//! land on exactly the state eager apply and the model reach for the
//! same durable prefix of commits: same sequence, same bytes, spine
//! fully folded.

use proptest::prelude::*;
use prosper_core::bitmap::CopyRun;
use prosper_core::recovery::{CommitHooks, PersistentProcess};
use prosper_core::SpineConfig;
use prosper_gemos::crash::{CrashInjected, CrashSite, FaultInjector};
use prosper_memsim::addr::{VirtAddr, VirtRange};
use std::collections::{BTreeMap, BTreeSet};

/// Two 4 KiB chunks per stack, so runs can straddle the boundary.
const STACK_BYTES: u64 = 0x2000;
/// Offset of the chunk boundary inside every stack.
const CHUNK_EDGE: u64 = 0x1000;
/// Random stores and runs start within this many bytes of the chunk
/// boundary, so most runs copy stored bytes.
const SPREAD: u64 = 128;

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

/// One generated run, `(kind, offset, len)`, placed by [`place`].
type RunSpec = (u8, u64, u64);

/// Places a generated run list in `tid`'s stack. Kind 0 puts a run at
/// `offset`, 1 abuts the previous run, 2 overlaps it, 3 straddles the
/// chunk boundary and 4 is empty; runs are clipped to the stack.
fn place(tid: u32, specs: &[RunSpec]) -> Vec<CopyRun> {
    let base = stack_range(tid).start().raw();
    let mut prev = (0u64, 0u64);
    specs
        .iter()
        .map(|&(kind, offset, len)| {
            let start = match kind {
                1 => prev.0 + prev.1,
                2 => prev.0 + offset % (prev.1 + 1),
                3 => CHUNK_EDGE - 1 - offset % 32,
                _ => offset,
            }
            .min(STACK_BYTES);
            let len = match kind {
                3 => len + 33,
                4 => 0,
                _ => len,
            }
            .min(STACK_BYTES - start);
            prev = (start, len);
            CopyRun {
                start: VirtAddr::new(base + start),
                len,
            }
        })
        .collect()
}

/// Runs of `len` bytes at `offset` into `tid`'s stack.
fn runs_at(spans: &[(u32, u64, u64)]) -> BTreeMap<u32, Vec<CopyRun>> {
    let mut runs: BTreeMap<u32, Vec<CopyRun>> = BTreeMap::new();
    for &(tid, offset, len) in spans {
        runs.entry(tid).or_default().push(CopyRun {
            start: VirtAddr::new(stack_range(tid).start().raw() + offset),
            len,
        });
    }
    runs
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
    /// A whole-process commit of one generated run list per thread.
    Commit { runs: Vec<Vec<RunSpec>> },
}

fn arb_run_list() -> impl Strategy<Value = Vec<RunSpec>> {
    prop::collection::vec(
        (0u8..5, CHUNK_EDGE - SPREAD..CHUNK_EDGE + SPREAD, 0u64..48),
        0..8,
    )
}

/// One run list for each of up to three threads.
fn arb_commit_runs() -> impl Strategy<Value = Vec<Vec<RunSpec>>> {
    (arb_run_list(), arb_run_list(), arb_run_list()).prop_map(|(a, b, c)| vec![a, b, c])
}

fn arb_op(threads: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            0..threads,
            CHUNK_EDGE - SPREAD..CHUNK_EDGE + SPREAD,
            1usize..16,
            any::<u8>(),
        )
            .prop_map(|(tid, offset, len, seed)| Op::Store { tid, offset, len, seed }),
        1 => arb_commit_runs().prop_map(|runs| Op::Commit { runs }),
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
    p.commit_with(runs, CommitHooks::default())
        .expect("no injector is attached");
}

/// The newest-wins byte model of the durable state.
#[derive(Default)]
struct Model {
    /// Live bytes by address (unwritten bytes read zero).
    live: BTreeMap<u64, u8>,
    /// Durable bytes by address: each commit copies its runs' live
    /// bytes over the older ones.
    durable: BTreeMap<u64, u8>,
    /// `(distinct bytes, maximal spans)` of each thread's runs, by
    /// `(tid, sequence)`: what that commit's spine batch must hold.
    batches: BTreeMap<(u32, u64), (u64, usize)>,
}

impl Model {
    fn commit(&mut self, sequence: u64, runs: &BTreeMap<u32, Vec<CopyRun>>) {
        for (&tid, list) in runs {
            let mut covered = BTreeSet::new();
            for run in list {
                for at in run.start.raw()..run.start.raw() + run.len {
                    let byte = self.live.get(&at).copied().unwrap_or(0);
                    self.durable.insert(at, byte);
                    covered.insert(at);
                }
            }
            let spans = covered
                .iter()
                .filter(|&&at| !covered.contains(&(at - 1)))
                .count();
            self.batches
                .insert((tid, sequence), (covered.len() as u64, spans));
        }
    }

    fn durable(&self, r: VirtRange) -> Vec<u8> {
        (r.start().raw()..r.end().raw())
            .map(|at| self.durable.get(&at).copied().unwrap_or(0))
            .collect()
    }
}

/// Drives the spine process, the eager reference and the model in
/// lock-step.
struct Differential {
    spine: PersistentProcess,
    eager: PersistentProcess,
    model: Model,
    threads: u32,
}

impl Differential {
    fn new(threads: u32, cfg: SpineConfig) -> Self {
        let mut d = Differential {
            spine: PersistentProcess::new_with_spine(&ranges(threads), cfg),
            eager: PersistentProcess::new(&ranges(threads)),
            model: Model::default(),
            threads,
        };
        // A first full checkpoint so recovery always has a valid
        // sealed state to land on.
        d.commit(&full_runs(threads));
        d
    }

    fn store(&mut self, tid: u32, offset: u64, len: usize, seed: u8) {
        let addr = VirtAddr::new(stack_range(tid).start().raw() + offset);
        let bytes: Vec<u8> = (0..len as u64)
            .map(|i| seed.wrapping_add(i as u8))
            .collect();
        self.spine.record_store(tid, addr, &bytes);
        self.eager.record_store(tid, addr, &bytes);
        for (at, &b) in (addr.raw()..).zip(&bytes) {
            self.model.live.insert(at, b);
        }
    }

    /// Places one generated run list per registered thread.
    fn place_all(&self, lists: &[Vec<RunSpec>]) -> BTreeMap<u32, Vec<CopyRun>> {
        (0..self.threads)
            .map(|tid| (tid, place(tid, &lists[tid as usize])))
            .collect()
    }

    /// Commits `runs` on the eager reference and the model.
    fn commit_reference(&mut self, runs: &BTreeMap<u32, Vec<CopyRun>>) {
        commit_clean(&mut self.eager, runs);
        self.model.commit(self.eager.committed_sequence(), runs);
    }

    fn commit(&mut self, runs: &BTreeMap<u32, Vec<CopyRun>>) {
        commit_clean(&mut self.spine, runs);
        self.commit_reference(runs);
    }

    /// Asserts the spine's effective durable bytes equal the eager
    /// reference's persistent image and the model, thread by thread,
    /// and that every resident batch holds its commit's maximal spans
    /// and distinct bytes.
    fn assert_durably_identical(&self) {
        let sequence = self.spine.committed_sequence();
        assert_eq!(
            sequence,
            self.eager.committed_sequence(),
            "committed sequences diverged"
        );
        for tid in 0..self.threads {
            let r = stack_range(tid);
            let stack = self.spine.stack(tid);
            let effective = stack.read_effective(r.start(), r.len() as usize);
            let reference = self
                .eager
                .stack(tid)
                .persistent()
                .read(r.start(), r.len() as usize);
            assert_eq!(
                effective, reference,
                "tid {tid} durable bytes diverged at sequence {sequence}"
            );
            assert_eq!(
                reference,
                self.model.durable(r),
                "tid {tid} diverged from the model at sequence {sequence}"
            );
            for batch in stack.spine() {
                let (bytes, spans) = self.model.batches[&(tid, batch.sequence())];
                assert!(bytes > 0, "tid {tid}: a batch for a commit with no bytes");
                assert_eq!(
                    (batch.runs(), batch.bytes()),
                    (spans, bytes),
                    "tid {tid} batch {} is not its commit's maximal spans",
                    batch.sequence()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Without crashes: after every commit, the spine's effective
    /// durable state is byte-identical to eager apply and the model,
    /// whatever the merge policy did (or deferred) in between.
    #[test]
    fn spine_fold_matches_eager_apply_at_every_commit(
        threads in 1u32..=3,
        cfg in arb_spine_cfg(),
        ops in prop::collection::vec(arb_op(3), 1..40),
        last in arb_commit_runs(),
    ) {
        let mut d = Differential::new(threads, cfg);
        d.assert_durably_identical();
        for op in &ops {
            match op {
                &Op::Store { tid, offset, len, seed } => {
                    d.store(tid % threads, offset, len, seed);
                }
                Op::Commit { runs } => {
                    let runs = d.place_all(runs);
                    d.commit(&runs);
                    d.assert_durably_identical();
                }
            }
        }
        let runs = d.place_all(&last);
        d.commit(&runs);
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
    /// the eager reference and the model over the same durable prefix:
    /// if the seal made it, all recover the new sequence; if not, all
    /// stand on the previous checkpoint.
    #[test]
    fn spine_recovery_matches_eager_apply_across_crash_points(
        threads in 1u32..=3,
        cfg in arb_spine_cfg(),
        ops in prop::collection::vec(arb_op(3), 1..30),
        last in arb_commit_runs(),
        crash_index in 0u64..64,
    ) {
        let mut d = Differential::new(threads, cfg);
        for op in &ops {
            match op {
                &Op::Store { tid, offset, len, seed } => {
                    d.store(tid % threads, offset, len, seed);
                }
                Op::Commit { runs } => {
                    let runs = d.place_all(runs);
                    d.commit(&runs);
                }
            }
        }
        // One more dirtying store, and a run over it, so the faulted
        // commit stages work.
        d.store(0, 8, 8, 0xA5);
        let mut runs = d.place_all(&last);
        runs.entry(0).or_default().push(CopyRun {
            start: VirtAddr::new(stack_range(0).start().raw() + 8),
            len: 8,
        });
        let before = d.spine.committed_sequence();
        let mut inj = FaultInjector::at_index(crash_index);
        let hooks = CommitHooks {
            faults: Some(&mut inj),
            ..CommitHooks::default()
        };
        let crashed = d.spine.commit_with(&runs, hooks).is_err();
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
        // Mirror the durable prefix on the eager reference and the model.
        if recovered.sequence == before + 1 {
            d.commit_reference(&runs);
        }
        d.eager.crash();
        let ref_recovered = d.eager.recover().expect("reference recovers");
        prop_assert_eq!(recovered.sequence, ref_recovered.sequence);
        // Recovery folded the whole spine; both sides verify coherent
        // and agree byte-for-byte with each other and the model.
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
            d.commit(&runs_at(&[(0, 0x10, 64), (1, 0x40, 32)]));
        }
        d.store(0, 0x20, 48, 0xC3);
        d.store(1, 0x48, 16, 0x5A);
        let before = d.spine.committed_sequence();
        let runs = runs_at(&[(0, 0x20, 48), (1, 0x48, 16)]);
        let mut inj = FaultInjector::at_index(index);
        let hooks = CommitHooks {
            faults: Some(&mut inj),
            ..CommitHooks::default()
        };
        let outcome = d.spine.commit_with(&runs, hooks);
        match outcome {
            Err(CrashInjected { site, .. }) => match site {
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
            d.commit_reference(&runs);
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
        d.assert_durably_identical();
    }
    assert!(hit_batch_seal, "sweep never crashed at a batch-seal site");
    assert!(hit_mid_merge, "sweep never crashed mid-merge");
    assert!(hit_merge_retire, "sweep never crashed at merge-retire");
}
