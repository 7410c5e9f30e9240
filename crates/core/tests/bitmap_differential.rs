//! Differential property tests: the hierarchical paged [`DirtyBitmap`]
//! against the pre-hierarchical [`SparseDirtyBitmap`] reference.
//!
//! Both implementations are driven through identical random
//! write/merge/inspect/clear sequences and must agree at every step on
//! the produced copy runs, the `words_read`/`words_cleared`/
//! `pages_probed` accounting, the running popcount, and the non-zero
//! word count. Windows are drawn to hit the awkward cases: empty,
//! word-interior, straddling 64-bit group seams and page seams, and
//! far past the dirtied span. A second suite writes the highest page
//! first and walks down, so the paged bitmap's slot table grows at its
//! front, then drains pages empty (freeing their slots) and fills them
//! again.

use proptest::prelude::*;
use prosper_core::bitmap::reference::SparseDirtyBitmap;
use prosper_core::bitmap::{BitmapGeometry, DirtyBitmap, PAGE_SPAN_BYTES};
use prosper_memsim::addr::{VirtAddr, VirtRange};

const RANGE_START: u64 = 0x7000_0000;
const BITMAP_BASE: u64 = 0x1000_0000;
/// Words the random ops may touch: a bit over two bitmap pages, so
/// sequences regularly cross page seams.
const WORD_SPAN: u64 = 2 * PAGE_SPAN_BYTES / 4 + 96;
/// Words per bitmap page.
const PAGE_WORDS: u64 = PAGE_SPAN_BYTES / 4;
/// Pages the front-growth suite spreads its first writes over.
const WIDE_PAGES: u64 = 6;

fn geom(granularity: u64) -> BitmapGeometry {
    BitmapGeometry {
        range_start: VirtAddr::new(RANGE_START),
        bitmap_base: VirtAddr::new(BITMAP_BASE),
        granularity,
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// `write_word` at word index with the given value (0 clears).
    Write(u64, u32),
    /// `merge_word` at word index.
    Merge(u64, u32),
    /// `inspect_and_clear` over a window of tracked addresses,
    /// expressed as (start granule, granule count).
    Inspect(u64, u64),
}

fn arb_value() -> impl Strategy<Value = u32> {
    prop_oneof![
        3 => any::<u32>(),
        1 => Just(0u32),
        1 => Just(u32::MAX),
        1 => Just(1u32),
        1 => Just(1u32 << 31),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_over(WORD_SPAN)
}

/// Ops over the first `words` bitmap words.
fn arb_op_over(words: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => ((0..words), arb_value()).prop_map(|(w, v)| Op::Write(w, v)),
        4 => ((0..words), arb_value()).prop_map(|(w, v)| Op::Merge(w, v)),
        2 => ((0..words * 32), (0u64..words * 48))
            .prop_map(|(s, n)| Op::Inspect(s, n)),
    ]
}

/// Applies `op` to both bitmaps and checks they still agree: on the
/// runs and accounting of an inspection, and on the running counts.
fn step(hier: &mut DirtyBitmap, sparse: &mut SparseDirtyBitmap, granularity: u64, op: &Op) {
    match op {
        Op::Write(word, value) => {
            let addr = BITMAP_BASE + word * 4;
            hier.write_word(addr, *value);
            sparse.write_word(addr, *value);
        }
        Op::Merge(word, value) => {
            let addr = BITMAP_BASE + word * 4;
            hier.merge_word(addr, *value);
            sparse.merge_word(addr, *value);
        }
        Op::Inspect(start_granule, granules) => {
            let g = geom(granularity);
            let lo = RANGE_START + start_granule * granularity;
            let hi = lo + granules * granularity;
            let win = VirtRange::new(VirtAddr::new(lo), VirtAddr::new(hi));
            let (hr, hs) = hier.inspect_and_clear(&g, win);
            let (sr, ss) = sparse.inspect_and_clear(&g, win);
            assert_eq!(&hr, &sr, "runs diverged over {win:?}");
            assert_eq!(hs, ss, "stats diverged over {win:?}");
            assert_eq!(hs.words_read, hs.words_cleared);
        }
    }
    assert_eq!(hier.total_set_bits(), sparse.total_set_bits());
    assert_eq!(hier.nonzero_words(), sparse.nonzero_words());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary op sequences leave both bitmaps in identical states
    /// and produce identical inspection results throughout.
    #[test]
    fn hierarchical_matches_sparse_reference(
        ops in prop::collection::vec(arb_op(), 1..120),
        granularity in prop_oneof![Just(8u64), Just(16), Just(64), Just(128)],
    ) {
        let g = geom(granularity);
        let mut hier = DirtyBitmap::new();
        let mut sparse = SparseDirtyBitmap::new();
        for op in &ops {
            step(&mut hier, &mut sparse, granularity, op);
        }
        // Drain everything left and compare the final sweep too.
        let all = VirtRange::new(
            VirtAddr::new(RANGE_START),
            VirtAddr::new(RANGE_START + WORD_SPAN * 32 * granularity),
        );
        let (hr, hs) = hier.inspect_and_clear(&g, all);
        let (sr, ss) = sparse.inspect_and_clear(&g, all);
        prop_assert_eq!(hr, sr);
        prop_assert_eq!(hs, ss);
        prop_assert_eq!(hier.total_set_bits(), 0);
        prop_assert_eq!(sparse.total_set_bits(), 0);
        prop_assert_eq!(hier.nonzero_words(), 0);
    }

    /// First writes land on the highest page and walk down, so the
    /// paged bitmap's slot table grows at its front. Then every page is
    /// drained empty, one window per page from the top, which frees its
    /// slot; the same words fill the pages again from the bottom, random
    /// ops run over the whole span, and a final sweep drains it. The
    /// two bitmaps agree at every step, and on every word read back.
    #[test]
    fn front_growth_and_refilled_pages_match_reference(
        seeds in prop::collection::vec(((0..WIDE_PAGES * PAGE_WORDS), arb_value()), 1..60),
        ops in prop::collection::vec(arb_op_over(WIDE_PAGES * PAGE_WORDS), 0..60),
        granularity in prop_oneof![Just(8u64), Just(16), Just(64), Just(128)],
    ) {
        let mut hier = DirtyBitmap::new();
        let mut sparse = SparseDirtyBitmap::new();
        let mut seeds = seeds;
        seeds.sort_by_key(|&(word, _)| std::cmp::Reverse(word));
        for &(word, value) in &seeds {
            step(&mut hier, &mut sparse, granularity, &Op::Merge(word, value));
        }
        let page_granules = PAGE_WORDS * 32;
        for page in (0..WIDE_PAGES).rev() {
            step(&mut hier, &mut sparse, granularity, &Op::Inspect(page * page_granules, page_granules));
        }
        prop_assert_eq!(hier.nonzero_words(), 0);
        for &(word, value) in seeds.iter().rev() {
            step(&mut hier, &mut sparse, granularity, &Op::Write(word, value));
        }
        for op in &ops {
            step(&mut hier, &mut sparse, granularity, op);
        }
        for word in 0..WIDE_PAGES * PAGE_WORDS + 8 {
            let addr = BITMAP_BASE + word * 4;
            prop_assert_eq!(hier.read_word(addr), sparse.read_word(addr));
        }
        step(&mut hier, &mut sparse, granularity, &Op::Inspect(0, WIDE_PAGES * page_granules));
        prop_assert_eq!(hier.total_set_bits(), 0);
    }

    /// Reads after random updates agree word-for-word (the tracker's
    /// flush path reads words back through the bitmap).
    #[test]
    fn word_reads_match(
        writes in prop::collection::vec(((0..WORD_SPAN), any::<u32>()), 1..80),
    ) {
        let mut hier = DirtyBitmap::new();
        let mut sparse = SparseDirtyBitmap::new();
        for (word, value) in &writes {
            let addr = BITMAP_BASE + word * 4;
            if value % 3 == 0 {
                hier.write_word(addr, *value);
                sparse.write_word(addr, *value);
            } else {
                hier.merge_word(addr, *value);
                sparse.merge_word(addr, *value);
            }
        }
        for word in 0..WORD_SPAN {
            let addr = BITMAP_BASE + word * 4;
            prop_assert_eq!(hier.read_word(addr), sparse.read_word(addr));
        }
    }
}
