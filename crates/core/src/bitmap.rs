//! The dirty bitmap in DRAM and the OS-side inspection that turns set
//! bits into coalesced copy runs.
//!
//! Each bit covers `granularity` bytes of the tracked range; a 32-bit
//! bitmap word therefore covers `32 * granularity` bytes. The OS
//! inspects the bitmap **only over the active stack region** reported
//! by the tracker, coalescing contiguous set bits (the paper inspects
//! eight bitmap bytes at a time) into `(start, len)` copy runs, and
//! clears the touched words before the next interval.
//!
//! # Storage layout
//!
//! The functional bitmap is stored hierarchically for inspection
//! throughput:
//!
//! * **Pages** of [`WORDS_PER_PAGE`] dense 32-bit words, held in a
//!   [`SlotTable`] indexed by page number (the bitmap address divided
//!   by [`PAGE_SPAN_BYTES`]), so a page is found with a subtraction and
//!   one indexed load, as the paper's tracker finds a word at the
//!   programmed base plus an offset. Stacks dirty a tiny, highly
//!   clustered fraction of their reserved range, so most pages never
//!   exist, a probe of an absent page skips [`PAGE_SPAN_BYTES`] of
//!   bitmap at once, and a page that empties frees its slot.
//! * A **summary index** per page — one summary bit per bitmap word,
//!   packed into `u64`s and scanned with `trailing_zeros` — so the walk
//!   inside a page jumps straight from dirty word to dirty word instead
//!   of testing each of the 512 slots.
//! * **Running popcounts** (per page and global), maintained on every
//!   word update, so [`DirtyBitmap::total_set_bits`] and
//!   [`DirtyBitmap::nonzero_words`] are O(1).
//!
//! Inspection therefore costs O(pages probed + dirty words) rather than
//! O(window words), and extracts runs from whole 64-bit word groups at
//! a time. The pre-hierarchical `BTreeMap` bitmap survives as
//! [`reference::SparseDirtyBitmap`], the differential-testing oracle
//! and the baseline the perf suite measures speedups against.

use prosper_gemos::slots::SlotTable;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use serde::{Deserialize, Serialize};

/// Geometry tying a bitmap to the range it tracks.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BitmapGeometry {
    /// First byte of the tracked range.
    pub range_start: VirtAddr,
    /// Virtual base address of the bitmap area itself (in DRAM).
    pub bitmap_base: VirtAddr,
    /// Bytes covered by one bit (multiple of 8).
    pub granularity: u64,
}

impl BitmapGeometry {
    /// Bytes covered by one 32-bit bitmap word.
    pub fn bytes_per_word(&self) -> u64 {
        32 * self.granularity
    }

    /// Maps a tracked address to `(bitmap word address, bit index)` —
    /// the computation the tracker hardware performs per SOI (Fig. 7).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `addr` precedes the tracked range.
    pub fn locate(&self, addr: VirtAddr) -> (u64, u32) {
        debug_assert!(addr >= self.range_start, "address below tracked range");
        let granule = (addr - self.range_start) / self.granularity;
        let word = granule / 32;
        let bit = (granule % 32) as u32;
        (self.bitmap_base.raw() + word * 4, bit)
    }

    /// Inverse of [`Self::locate`]: the first tracked address covered
    /// by bit `bit` of the word at `word_addr`.
    pub fn granule_start(&self, word_addr: u64, bit: u32) -> VirtAddr {
        let word = (word_addr - self.bitmap_base.raw()) / 4;
        self.range_start + (word * 32 + u64::from(bit)) * self.granularity
    }

    /// Number of bitmap words needed to cover `range_bytes` of tracked
    /// memory.
    pub fn words_for(&self, range_bytes: u64) -> u64 {
        range_bytes.div_ceil(self.bytes_per_word())
    }
}

/// One coalesced copy run produced by bitmap inspection.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CopyRun {
    /// First dirty byte.
    pub start: VirtAddr,
    /// Length in bytes (a multiple of the granularity).
    pub len: u64,
}

/// 32-bit words stored per bitmap page.
pub const WORDS_PER_PAGE: usize = 512;

/// Bytes of bitmap address space covered by one page.
pub const PAGE_SPAN_BYTES: u64 = WORDS_PER_PAGE as u64 * 4;

/// `u64` summary words per page (one summary bit per bitmap word).
const SUMMARY_WORDS: usize = WORDS_PER_PAGE / 64;

/// Accounting produced by one inspection pass.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct InspectStats {
    /// Non-zero bitmap words loaded. The summary index steers the walk
    /// straight to dirty words, so clean words are never read; callers
    /// charge one bitmap load per pair of words read.
    pub words_read: u64,
    /// Bitmap words written back as zero (equals `words_read`: every
    /// word the walk loads is dirty and gets cleared).
    pub words_cleared: u64,
    /// Bitmap pages probed to cover the window, present or not; models
    /// the summary-index traffic (one line touch per page).
    pub pages_probed: u64,
}

/// One dense bitmap page plus its summary index and popcounts, boxed
/// whole in its slot.
#[derive(Clone, Debug)]
struct BitmapPage {
    /// Dense word storage.
    words: [u32; WORDS_PER_PAGE],
    /// One bit per word: set iff the word is non-zero.
    summary: [u64; SUMMARY_WORDS],
    /// Non-zero words in this page.
    nonzero: u32,
    /// Set bits in this page.
    set_bits: u64,
}

impl Default for BitmapPage {
    fn default() -> Self {
        Self {
            words: [0; WORDS_PER_PAGE],
            summary: [0; SUMMARY_WORDS],
            nonzero: 0,
            set_bits: 0,
        }
    }
}

impl BitmapPage {
    /// Zeroes slot `idx` (which must be non-zero), maintaining the
    /// summary bit and the page popcounts. Returns the old value.
    fn clear_slot(&mut self, idx: usize) -> u32 {
        let old = self.words[idx];
        debug_assert_ne!(old, 0, "clearing an already-clean slot");
        self.words[idx] = 0;
        self.summary[idx / 64] &= !(1u64 << (idx % 64));
        self.nonzero -= 1;
        self.set_bits -= u64::from(old.count_ones());
        old
    }
}

/// The functional dirty bitmap: actual word storage (the machine model
/// charges the memory traffic; this holds the values). See the module
/// docs for the paged two-level layout.
#[derive(Clone, Debug, Default)]
pub struct DirtyBitmap {
    /// Dense pages by page number (bitmap address / [`PAGE_SPAN_BYTES`]).
    pages: SlotTable<BitmapPage>,
    /// Running popcount across all pages.
    total_bits: u64,
    /// Running non-zero word count across all pages.
    nonzero: u64,
}

impl DirtyBitmap {
    /// Creates an all-zero bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits a word address into `(page number, word index)`.
    fn split(word_addr: u64) -> (u64, usize) {
        debug_assert_eq!(word_addr % 4, 0, "bitmap word addresses are 4-byte aligned");
        (
            word_addr / PAGE_SPAN_BYTES,
            ((word_addr % PAGE_SPAN_BYTES) / 4) as usize,
        )
    }

    /// Mask of summary bits `lo..=hi`.
    fn bit_range_mask(lo: usize, hi: usize) -> u64 {
        debug_assert!(lo <= hi && hi < 64);
        let upper = if hi == 63 {
            u64::MAX
        } else {
            (1u64 << (hi + 1)) - 1
        };
        upper & (u64::MAX << lo)
    }

    /// Reads a word (unset words are zero).
    pub fn read_word(&self, word_addr: u64) -> u32 {
        let (page, idx) = Self::split(word_addr);
        self.pages.get(page).map_or(0, |p| p.words[idx])
    }

    /// Writes a word (dropping emptied pages to stay sparse).
    pub fn write_word(&mut self, word_addr: u64, value: u32) {
        let (page_no, idx) = Self::split(word_addr);
        if value == 0 {
            let Some(page) = self.pages.get_mut(page_no) else {
                return;
            };
            if page.words[idx] == 0 {
                return;
            }
            let old = page.clear_slot(idx);
            self.total_bits -= u64::from(old.count_ones());
            self.nonzero -= 1;
            if page.nonzero == 0 {
                self.pages.remove(page_no);
            }
        } else {
            let page = self.pages.get_or_insert_with(page_no, Box::default);
            let old = page.words[idx];
            if old == value {
                return;
            }
            if old == 0 {
                page.nonzero += 1;
                self.nonzero += 1;
                page.summary[idx / 64] |= 1u64 << (idx % 64);
            }
            page.words[idx] = value;
            page.set_bits += u64::from(value.count_ones());
            page.set_bits -= u64::from(old.count_ones());
            self.total_bits += u64::from(value.count_ones());
            self.total_bits -= u64::from(old.count_ones());
        }
    }

    /// ORs `value` into a word — a single slot update (the tracker
    /// flush path calls this per drained lookup-table entry).
    pub fn merge_word(&mut self, word_addr: u64, value: u32) {
        if value == 0 {
            return;
        }
        let (page_no, idx) = Self::split(word_addr);
        let page = self.pages.get_or_insert_with(page_no, Box::default);
        let old = page.words[idx];
        let new = old | value;
        if new == old {
            return;
        }
        if old == 0 {
            page.nonzero += 1;
            self.nonzero += 1;
            page.summary[idx / 64] |= 1u64 << (idx % 64);
        }
        let added = u64::from((new & !old).count_ones());
        page.words[idx] = new;
        page.set_bits += added;
        self.total_bits += added;
    }

    /// Number of set bits across the whole bitmap. O(1): maintained as
    /// a running popcount on every word update.
    pub fn total_set_bits(&self) -> u64 {
        self.total_bits
    }

    /// Number of non-zero words. O(1).
    pub fn nonzero_words(&self) -> usize {
        self.nonzero as usize
    }

    /// OS inspection over the active region: walks the bitmap words
    /// covering `active`, coalesces contiguous set bits into copy
    /// runs, and clears the words.
    ///
    /// The summary index makes the walk O(pages probed + dirty words):
    /// absent pages are skipped whole, and inside a present page the
    /// scan jumps from set summary bit to set summary bit with
    /// `trailing_zeros`, extracting runs from 64-bit word groups (a
    /// pair of bitmap words) at a time.
    ///
    /// Returns the runs plus an [`InspectStats`] accounting; the caller
    /// charges bitmap loads for the words read (eight bytes at a time)
    /// and page probes, and bitmap stores for the cleared words.
    ///
    /// # Examples
    ///
    /// ```
    /// use prosper_core::bitmap::{BitmapGeometry, DirtyBitmap};
    /// use prosper_memsim::addr::{VirtAddr, VirtRange};
    ///
    /// let geom = BitmapGeometry {
    ///     range_start: VirtAddr::new(0x7000_0000),
    ///     bitmap_base: VirtAddr::new(0x1000_0000),
    ///     granularity: 8,
    /// };
    /// let mut bm = DirtyBitmap::new();
    /// // Bits 0..3 of the first word: granules 0..3 are dirty.
    /// bm.merge_word(0x1000_0000, 0b1111);
    /// let active = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_0100));
    /// let (runs, stats) = bm.inspect_and_clear(&geom, active);
    /// assert_eq!(runs.len(), 1);
    /// assert_eq!(runs[0].len, 32); // four 8-byte granules coalesced
    /// assert_eq!(stats.words_read, 1);
    /// ```
    pub fn inspect_and_clear(
        &mut self,
        geom: &BitmapGeometry,
        active: VirtRange,
    ) -> (Vec<CopyRun>, InspectStats) {
        let mut runs = Vec::new();
        let stats = self.inspect_and_clear_into(geom, active, &mut runs);
        (runs, stats)
    }

    /// [`Self::inspect_and_clear`] into a caller-owned run buffer, so
    /// per-interval callers reuse one allocation. Clears `runs` first.
    pub fn inspect_and_clear_into(
        &mut self,
        geom: &BitmapGeometry,
        active: VirtRange,
        runs: &mut Vec<CopyRun>,
    ) -> InspectStats {
        runs.clear();
        let mut stats = InspectStats::default();
        if active.is_empty() {
            return stats;
        }
        let first_word = geom.locate(active.start().max(geom.range_start)).0;
        let last_word = geom.locate(active.end() - 1u64).0;
        let gran = geom.granularity;
        let mut current: Option<(u64, u64)> = None; // (start_raw, len)

        for page_no in first_word / PAGE_SPAN_BYTES..=last_word / PAGE_SPAN_BYTES {
            stats.pages_probed += 1;
            let page_base = page_no * PAGE_SPAN_BYTES;
            let mut page_emptied = false;
            if let Some(page) = self.pages.get_mut(page_no) {
                // Word-slot range of this page clipped to the window.
                let lo_idx = ((first_word.max(page_base) - page_base) / 4) as usize;
                let top_addr = page_base + PAGE_SPAN_BYTES - 4;
                let hi_idx = ((last_word.min(top_addr) - page_base) / 4) as usize;
                for s in (lo_idx / 64)..=(hi_idx / 64) {
                    let lo_bit = lo_idx.max(s * 64) - s * 64;
                    let hi_bit = hi_idx.min(s * 64 + 63) - s * 64;
                    let mut mask = page.summary[s] & Self::bit_range_mask(lo_bit, hi_bit);
                    while mask != 0 {
                        // Jump to the next dirty word and take its whole
                        // 64-bit group (an even/odd word pair) at once.
                        let w = mask.trailing_zeros() as usize;
                        let pair = (s * 64 + w) & !1;
                        mask &= !(0b11u64 << (pair - s * 64));
                        let lo_in = pair >= lo_idx && pair <= hi_idx;
                        let hi_in = pair + 1 >= lo_idx && pair < hi_idx;
                        let lo_val = if lo_in { page.words[pair] } else { 0 };
                        let hi_val = if hi_in { page.words[pair + 1] } else { 0 };
                        let group = u64::from(lo_val) | (u64::from(hi_val) << 32);
                        debug_assert_ne!(group, 0, "summary bit set on a clean word");
                        let g0 = geom.granule_start(page_base + pair as u64 * 4, 0).raw();
                        let mut v = group;
                        while v != 0 {
                            let tz = u64::from(v.trailing_zeros());
                            let ones = u64::from((v >> tz).trailing_ones());
                            let start = g0 + tz * gran;
                            let len = ones * gran;
                            match current {
                                Some((s0, l0)) if s0 + l0 == start => {
                                    current = Some((s0, l0 + len));
                                }
                                Some((s0, l0)) => {
                                    runs.push(CopyRun {
                                        start: VirtAddr::new(s0),
                                        len: l0,
                                    });
                                    current = Some((start, len));
                                }
                                None => current = Some((start, len)),
                            }
                            if tz + ones >= 64 {
                                v = 0;
                            } else {
                                v &= !(((1u64 << ones) - 1) << tz);
                            }
                        }
                        if lo_val != 0 {
                            page.clear_slot(pair);
                            stats.words_read += 1;
                            stats.words_cleared += 1;
                            self.nonzero -= 1;
                        }
                        if hi_val != 0 {
                            page.clear_slot(pair + 1);
                            stats.words_read += 1;
                            stats.words_cleared += 1;
                            self.nonzero -= 1;
                        }
                        self.total_bits -= u64::from(group.count_ones());
                    }
                }
                page_emptied = page.nonzero == 0;
            }
            if page_emptied {
                self.pages.remove(page_no);
            }
        }
        if let Some((s0, l0)) = current {
            runs.push(CopyRun {
                start: VirtAddr::new(s0),
                len: l0,
            });
        }
        stats
    }
}

/// Reference implementations kept for differential testing and as the
/// baseline the perf suite measures the paged bitmap against.
pub mod reference {
    use super::*;
    use std::collections::BTreeMap;

    /// The pre-hierarchical sparse bitmap: one `BTreeMap` entry per
    /// non-zero word, with an O(window) inspection that pays a log-time
    /// map lookup per bitmap word — clean or dirty. Functionally
    /// equivalent to [`DirtyBitmap`] (the proptest differential suite
    /// drives both through identical op sequences), just slow.
    #[derive(Clone, Debug, Default)]
    pub struct SparseDirtyBitmap {
        words: BTreeMap<u64, u32>,
    }

    impl SparseDirtyBitmap {
        /// Creates an all-zero bitmap.
        pub fn new() -> Self {
            Self::default()
        }

        /// Reads a word (unset words are zero).
        pub fn read_word(&self, word_addr: u64) -> u32 {
            self.words.get(&word_addr).copied().unwrap_or(0)
        }

        /// Writes a word (removing zero words to stay sparse).
        pub fn write_word(&mut self, word_addr: u64, value: u32) {
            if value == 0 {
                self.words.remove(&word_addr);
            } else {
                self.words.insert(word_addr, value);
            }
        }

        /// ORs `value` into a word (the original read-then-write pair
        /// of map operations).
        pub fn merge_word(&mut self, word_addr: u64, value: u32) {
            let v = self.read_word(word_addr) | value;
            self.write_word(word_addr, v);
        }

        /// Number of set bits across the whole bitmap. O(words).
        pub fn total_set_bits(&self) -> u64 {
            self.words.values().map(|v| u64::from(v.count_ones())).sum()
        }

        /// Number of non-zero words.
        pub fn nonzero_words(&self) -> usize {
            self.words.len()
        }

        /// The original word-at-a-time inspection walk, reporting the
        /// same [`InspectStats`] accounting as the paged bitmap so the
        /// differential suite can compare them field for field.
        pub fn inspect_and_clear(
            &mut self,
            geom: &BitmapGeometry,
            active: VirtRange,
        ) -> (Vec<CopyRun>, InspectStats) {
            let mut stats = InspectStats::default();
            if active.is_empty() {
                return (Vec::new(), stats);
            }
            let first_word = geom.locate(active.start().max(geom.range_start)).0;
            let last_word = geom.locate(active.end() - 1u64).0;
            let first_page = first_word & !(PAGE_SPAN_BYTES - 1);
            let last_page = last_word & !(PAGE_SPAN_BYTES - 1);
            stats.pages_probed = (last_page - first_page) / PAGE_SPAN_BYTES + 1;
            let mut runs: Vec<CopyRun> = Vec::new();
            let mut current: Option<(u64, u64)> = None; // (start_raw, len)

            let mut word_addr = first_word;
            while word_addr <= last_word {
                let value = self.read_word(word_addr);
                if value != 0 {
                    stats.words_read += 1;
                    for bit in 0..32 {
                        if value & (1 << bit) == 0 {
                            if let Some((s, l)) = current.take() {
                                runs.push(CopyRun {
                                    start: VirtAddr::new(s),
                                    len: l,
                                });
                            }
                            continue;
                        }
                        let g_start = geom.granule_start(word_addr, bit).raw();
                        match current {
                            Some((s, l)) if s + l == g_start => {
                                current = Some((s, l + geom.granularity));
                            }
                            Some((s, l)) => {
                                runs.push(CopyRun {
                                    start: VirtAddr::new(s),
                                    len: l,
                                });
                                current = Some((g_start, geom.granularity));
                            }
                            None => current = Some((g_start, geom.granularity)),
                        }
                    }
                    self.write_word(word_addr, 0);
                    stats.words_cleared += 1;
                } else if let Some((s, l)) = current.take() {
                    runs.push(CopyRun {
                        start: VirtAddr::new(s),
                        len: l,
                    });
                }
                word_addr += 4;
            }
            if let Some((s, l)) = current {
                runs.push(CopyRun {
                    start: VirtAddr::new(s),
                    len: l,
                });
            }
            (runs, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::SparseDirtyBitmap;
    use super::*;

    fn geom(granularity: u64) -> BitmapGeometry {
        BitmapGeometry {
            range_start: VirtAddr::new(0x7000_0000),
            bitmap_base: VirtAddr::new(0x1000_0000),
            granularity,
        }
    }

    #[test]
    fn locate_roundtrips() {
        let g = geom(8);
        for off in [0u64, 7, 8, 255, 256, 4096, 123456] {
            let addr = VirtAddr::new(0x7000_0000 + off);
            let (word, bit) = g.locate(addr);
            let back = g.granule_start(word, bit);
            assert!(back <= addr && addr - back < 8, "granule contains addr");
        }
    }

    #[test]
    fn word_covers_32_granules() {
        let g = geom(8);
        assert_eq!(g.bytes_per_word(), 256);
        let (w0, b0) = g.locate(VirtAddr::new(0x7000_0000));
        let (w1, b1) = g.locate(VirtAddr::new(0x7000_0000 + 255));
        assert_eq!(w0, w1);
        assert_eq!(b0, 0);
        assert_eq!(b1, 31);
        let (w2, _) = g.locate(VirtAddr::new(0x7000_0000 + 256));
        assert_eq!(w2, w0 + 4);
        assert_eq!(g.words_for(257), 2);
    }

    #[test]
    fn merge_and_count() {
        let mut b = DirtyBitmap::new();
        b.merge_word(0x100, 0b101);
        b.merge_word(0x100, 0b110);
        assert_eq!(b.read_word(0x100), 0b111);
        assert_eq!(b.total_set_bits(), 3);
        assert_eq!(b.nonzero_words(), 1);
        b.write_word(0x100, 0);
        assert_eq!(b.nonzero_words(), 0);
        assert_eq!(b.total_set_bits(), 0);
    }

    #[test]
    fn overwrite_keeps_popcounts_consistent() {
        let mut b = DirtyBitmap::new();
        b.write_word(0x100, 0xffff_ffff);
        assert_eq!(b.total_set_bits(), 32);
        b.write_word(0x100, 0b1);
        assert_eq!(b.total_set_bits(), 1);
        assert_eq!(b.nonzero_words(), 1);
        b.merge_word(0x100, 0b1); // already set: no change
        assert_eq!(b.total_set_bits(), 1);
        b.merge_word(0x104, 0);
        assert_eq!(b.nonzero_words(), 1, "merging zero is a no-op");
        b.write_word(0x100, 0);
        assert_eq!((b.total_set_bits(), b.nonzero_words()), (0, 0));
    }

    #[test]
    fn inspection_coalesces_contiguous_bits() {
        let g = geom(8);
        let mut b = DirtyBitmap::new();
        let (word, _) = g.locate(VirtAddr::new(0x7000_0000));
        // Bits 0..4 contiguous, bit 8 isolated.
        b.write_word(word, 0b1_0000_1111);
        let active = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_0100));
        let (runs, stats) = b.inspect_and_clear(&g, active);
        assert_eq!(
            runs,
            vec![
                CopyRun {
                    start: VirtAddr::new(0x7000_0000),
                    len: 32
                },
                CopyRun {
                    start: VirtAddr::new(0x7000_0040),
                    len: 8
                },
            ]
        );
        assert_eq!(stats.words_read, 1);
        assert_eq!(stats.words_cleared, 1);
        assert_eq!(b.total_set_bits(), 0, "inspection clears");
    }

    #[test]
    fn runs_span_word_boundaries() {
        let g = geom(8);
        let mut b = DirtyBitmap::new();
        let base = VirtAddr::new(0x7000_0000);
        let (w0, _) = g.locate(base);
        // Last bit of word 0 and first bit of word 1: one contiguous run.
        b.write_word(w0, 1 << 31);
        b.write_word(w0 + 4, 1);
        let active = VirtRange::new(base, base + 512);
        let (runs, stats) = b.inspect_and_clear(&g, active);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].start, base + 31 * 8);
        assert_eq!(runs[0].len, 16);
        assert_eq!(stats.words_read, 2);
    }

    #[test]
    fn runs_span_group_and_page_boundaries() {
        let g = geom(8);
        let mut b = DirtyBitmap::new();
        let base = VirtAddr::new(0x7000_0000);
        let (w0, _) = g.locate(base);
        // Last bit of word 1 (group 0) and first bit of word 2
        // (group 1): the run must survive the 64-bit group seam.
        b.write_word(w0 + 4, 1 << 31);
        b.write_word(w0 + 8, 1);
        // Last bit of the last word of page 0 and first bit of the
        // first word of page 1: the run must survive the page seam.
        let page_last = w0 + PAGE_SPAN_BYTES - 4;
        b.write_word(page_last, 1 << 31);
        b.write_word(page_last + 4, 1);
        let window_end = base + 2 * PAGE_SPAN_BYTES / 4 * g.bytes_per_word();
        let (runs, stats) = b.inspect_and_clear(&g, VirtRange::new(base, window_end));
        assert_eq!(runs.len(), 2, "two seam-crossing runs: {runs:?}");
        assert_eq!(runs[0].start, base + (2 * 32 - 1) * 8);
        assert_eq!(runs[0].len, 16);
        assert_eq!(runs[1].start, base + (512 * 32 - 1) * 8);
        assert_eq!(runs[1].len, 16);
        assert_eq!(stats.words_read, 4);
        assert_eq!(b.total_set_bits(), 0);
        assert_eq!(b.nonzero_words(), 0);
    }

    #[test]
    fn summary_index_skips_clean_spans() {
        let g = geom(8);
        let mut b = DirtyBitmap::new();
        let base = VirtAddr::new(0x7000_0000);
        let (w0, _) = g.locate(base);
        // Three dirty words scattered across a 1 MiB window (4096
        // words = 8 pages): the walk reads exactly three words.
        for off in [40 * 4, 1000 * 4, 3700 * 4] {
            b.write_word(w0 + off, 0b1);
        }
        let (runs, stats) = b.inspect_and_clear(&g, VirtRange::new(base, base + (1 << 20)));
        assert_eq!(runs.len(), 3);
        assert_eq!(stats.words_read, 3, "only dirty words are loaded");
        assert_eq!(stats.words_cleared, 3);
        assert_eq!(stats.pages_probed, 8, "1 MiB of stack = 8 bitmap pages");
        // A fully clean window costs only the page probes.
        let (runs, stats) = b.inspect_and_clear(&g, VirtRange::new(base, base + (1 << 20)));
        assert!(runs.is_empty());
        assert_eq!(stats.words_read, 0);
        assert_eq!(stats.pages_probed, 8);
    }

    #[test]
    fn inspection_bounded_by_active_region() {
        let g = geom(8);
        let mut b = DirtyBitmap::new();
        let base = VirtAddr::new(0x7000_0000);
        // Dirty data both inside and outside the active window.
        let (w_far, _) = g.locate(base + 64 * 1024);
        b.write_word(w_far, 0xffff_ffff);
        let (w_near, _) = g.locate(base);
        b.write_word(w_near, 1);
        let active = VirtRange::new(base, base + 256);
        let (runs, stats) = b.inspect_and_clear(&g, active);
        assert_eq!(runs.len(), 1);
        assert_eq!(stats.words_read, 1, "only the active window is walked");
        // The far word survives untouched (its interval will handle it).
        assert_eq!(b.read_word(w_far), 0xffff_ffff);
        assert_eq!(b.total_set_bits(), 32);
    }

    #[test]
    fn empty_active_region_is_free() {
        let g = geom(8);
        let mut b = DirtyBitmap::new();
        let active = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_0000));
        let (runs, stats) = b.inspect_and_clear(&g, active);
        assert!(runs.is_empty());
        assert_eq!(stats, InspectStats::default());
    }

    #[test]
    fn coarse_granularity_shrinks_bitmap() {
        let g8 = geom(8);
        let g128 = geom(128);
        assert!(g128.words_for(1 << 20) < g8.words_for(1 << 20));
        let (_, bit8) = g8.locate(VirtAddr::new(0x7000_0000 + 128));
        let (_, bit128) = g128.locate(VirtAddr::new(0x7000_0000 + 128));
        assert_eq!(bit8, 16);
        assert_eq!(bit128, 1);
    }

    #[test]
    fn run_lengths_are_granularity_multiples() {
        let g = geom(16);
        let mut b = DirtyBitmap::new();
        let base = VirtAddr::new(0x7000_0000);
        let (w, _) = g.locate(base);
        b.write_word(w, 0b11);
        let (runs, _) = b.inspect_and_clear(&g, VirtRange::new(base, base + 1024));
        assert_eq!(runs[0].len, 32);
        assert_eq!(runs[0].len % 16, 0);
    }

    #[test]
    fn matches_reference_on_dense_and_clipped_windows() {
        let g = geom(8);
        let base = VirtAddr::new(0x7000_0000);
        let mut hier = DirtyBitmap::new();
        let mut sparse = SparseDirtyBitmap::new();
        let (w0, _) = g.locate(base);
        // A dense stripe, an isolated word, and a page-seam pattern.
        for i in 0..96u64 {
            let v = if i % 3 == 0 { 0xffff_ffff } else { 0x8000_0101 };
            hier.write_word(w0 + i * 4, v);
            sparse.write_word(w0 + i * 4, v);
        }
        hier.merge_word(w0 + PAGE_SPAN_BYTES, 0xf0f0);
        sparse.merge_word(w0 + PAGE_SPAN_BYTES, 0xf0f0);
        assert_eq!(hier.total_set_bits(), sparse.total_set_bits());
        assert_eq!(hier.nonzero_words(), sparse.nonzero_words());
        // Window starts mid-stripe and ends mid-page: exercises the
        // summary-word clipping on both edges.
        let win = VirtRange::new(
            base + 17 * g.bytes_per_word(),
            base + 600 * g.bytes_per_word(),
        );
        let (hr, hs) = hier.inspect_and_clear(&g, win);
        let (sr, ss) = sparse.inspect_and_clear(&g, win);
        assert_eq!(hr, sr);
        assert_eq!(hs, ss);
        assert_eq!(hier.total_set_bits(), sparse.total_set_bits());
        assert_eq!(hier.nonzero_words(), sparse.nonzero_words());
    }
}
