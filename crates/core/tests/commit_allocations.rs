//! Pins the commit's data-plane layout: staging and applying a run
//! costs no heap allocation, so a commit makes the same number of
//! allocations whatever its run count.
//!
//! A counting global allocator delegates to [`System`] and counts the
//! allocations made on the thread that enabled counting, so the test
//! harness's other threads do not disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use prosper_core::bitmap::CopyRun;
use prosper_core::recovery::{CommitHooks, PersistentProcess};
use prosper_memsim::addr::{VirtAddr, VirtRange};

thread_local! {
    /// Allocations counted on this thread, `None` while not counting.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

struct CountingAlloc;

fn count_one() {
    // `try_with` so an allocation during thread teardown is not counted
    // rather than a panic.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local and never the returned pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS.with(|c| c.replace(None)).unwrap_or(0)
}

const STACK: u64 = 0x7000_0000;
const RUN_BYTES: u64 = 8;
/// Runs sit 16 B apart, so no two abut.
const RUN_STRIDE: u64 = 16;
const MAX_RUNS: u64 = 4_000;

/// `n` disjoint 8 B runs for thread 0.
fn runs(n: u64) -> BTreeMap<u32, Vec<CopyRun>> {
    let runs = (0..n)
        .map(|i| CopyRun {
            start: VirtAddr::new(STACK + i * RUN_STRIDE),
            len: RUN_BYTES,
        })
        .collect();
    BTreeMap::from([(0, runs)])
}

/// Dirties every run's bytes with `seed`, then commits `runs` and
/// counts the commit's allocations (not the stores').
fn commit_counted(p: &mut PersistentProcess, runs: &BTreeMap<u32, Vec<CopyRun>>, seed: u8) -> u64 {
    for run in &runs[&0] {
        p.record_store(0, run.start, &[seed; RUN_BYTES as usize]);
    }
    allocations(|| {
        p.commit_with(runs, CommitHooks::default())
            .expect("no injector is attached");
    })
}

#[test]
fn commit_allocations_do_not_grow_with_run_count() {
    let range = VirtRange::new(
        VirtAddr::new(STACK),
        VirtAddr::new(STACK + MAX_RUNS * RUN_STRIDE),
    );
    let mut p = PersistentProcess::new(&[range]);
    let (few, many) = (runs(1_000), runs(MAX_RUNS));
    // Warm-up: materialise every chunk and grow the staging buffer to
    // its largest commit.
    commit_counted(&mut p, &many, 1);
    let at_few = commit_counted(&mut p, &few, 2);
    let at_many = commit_counted(&mut p, &many, 3);
    assert_eq!(
        at_few, at_many,
        "a commit's allocations grew with its run count ({at_few} at 1,000 runs, {at_many} at 4,000)"
    );
    assert!(at_many <= 16, "{at_many} allocations in one commit");
    assert_eq!(p.committed_sequence(), 3);
    let last = STACK + (MAX_RUNS - 1) * RUN_STRIDE;
    assert_eq!(
        p.stack(0).persistent().read(VirtAddr::new(last), 8),
        [3; 8],
        "the counted commit applied its runs"
    );
}
