//! The per-core dirty tracker (Figures 6–7).
//!
//! The tracker sits next to the L1D, compares every demand store
//! against the stack range programmed in the MSRs (the *stores of
//! interest*, SOI), and records modifications in the dirty bitmap
//! through the coalescing lookup table — all off the critical path of
//! the store itself. It maintains outstanding-operation counters so
//! the OS can ensure quiescence before consuming the bitmap, and it
//! tracks the lowest SOI address seen in the interval (the maximum
//! active stack region).

use prosper_memsim::addr::{VirtAddr, VirtRange};
use serde::{Deserialize, Serialize};

use crate::bitmap::{BitmapGeometry, DirtyBitmap};
use crate::lookup::{AllocPolicy, BitmapOp, FlushReason, LookupStats, LookupTable};
use crate::msr::{MsrBank, MsrId, CTRL_ENABLE};

/// Tracker configuration (paper defaults: 16 entries, HWM 24, LWM 8,
/// 8-byte granularity).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TrackerConfig {
    /// Lookup-table entries.
    pub lookup_entries: usize,
    /// High-water-mark: set-bit count that triggers a flush.
    pub hwm: u32,
    /// Low-water-mark: eviction prefers entries below this count.
    pub lwm: u32,
    /// Tracking granularity in bytes (multiple of 8).
    pub granularity: u64,
    /// Allocation policy (Accumulate-and-Apply in the paper).
    pub policy: AllocPolicy,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        Self {
            lookup_entries: 16,
            hwm: 24,
            lwm: 8,
            granularity: 8,
            policy: AllocPolicy::AccumulateAndApply,
        }
    }
}

impl TrackerConfig {
    /// Returns a copy with a different granularity (the Figure 10/12
    /// sweep knob).
    pub fn with_granularity(mut self, granularity: u64) -> Self {
        self.granularity = granularity;
        self
    }

    /// Returns a copy with different watermarks (the Figure 13 knobs).
    pub fn with_watermarks(mut self, hwm: u32, lwm: u32) -> Self {
        self.hwm = hwm;
        self.lwm = lwm;
        self
    }

    /// The straw-man design of Section III-B: no coalescing — every
    /// stack modification immediately turns into bitmap traffic. Built
    /// as a single-entry table with HWM 1, so each recorded bit
    /// flushes at once. Used only for the coalescing ablation.
    pub fn strawman() -> Self {
        Self {
            lookup_entries: 1,
            hwm: 1,
            lwm: 1,
            granularity: 8,
            policy: AllocPolicy::AccumulateAndApply,
        }
    }
}

/// The per-core dirty tracker.
#[derive(Debug)]
pub struct DirtyTracker {
    cfg: TrackerConfig,
    msrs: MsrBank,
    table: LookupTable,
    bitmap: DirtyBitmap,
    /// Lowest SOI address observed since the last watermark reset.
    min_soi_addr: Option<u64>,
    /// One past the highest SOI byte observed since the last reset.
    max_soi_end: Option<u64>,
    /// SOIs filtered so far (for diagnostics and energy accounting).
    pub soi_count: u64,
}

impl DirtyTracker {
    /// Builds a tracker; call [`Self::configure`] before tracking.
    pub fn new(cfg: TrackerConfig) -> Self {
        Self {
            table: LookupTable::new(cfg.lookup_entries, cfg.hwm, cfg.lwm, cfg.policy),
            msrs: MsrBank::default(),
            bitmap: DirtyBitmap::new(),
            min_soi_addr: None,
            max_soi_end: None,
            soi_count: 0,
            cfg,
        }
    }

    /// Programs the tracked range and bitmap base (the OS writing the
    /// configuration MSRs) and enables tracking.
    pub fn configure(&mut self, range: VirtRange, bitmap_base: VirtAddr) {
        self.msrs.write(MsrId::StackRangeLo, range.start().raw());
        self.msrs.write(MsrId::StackRangeHi, range.end().raw());
        self.msrs.write(MsrId::Granularity, self.cfg.granularity);
        self.msrs.write(MsrId::BitmapBase, bitmap_base.raw());
        self.msrs.write(MsrId::Control, CTRL_ENABLE);
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.cfg
    }

    /// The MSR bank (OS-visible state).
    pub fn msrs(&self) -> &MsrBank {
        &self.msrs
    }

    /// The bitmap geometry implied by the current MSR programming.
    pub fn geometry(&self) -> BitmapGeometry {
        BitmapGeometry {
            range_start: VirtAddr::new(self.msrs.stack_lo),
            bitmap_base: VirtAddr::new(self.msrs.bitmap_base),
            granularity: self.msrs.granularity,
        }
    }

    /// Lookup-table counters (Figure 13's bitmap loads/stores).
    pub fn lookup_stats(&self) -> LookupStats {
        self.table.stats()
    }

    /// Reprograms the tracking granularity between intervals (the
    /// dynamic-granularity extension). Only legal while the table is
    /// flushed and the bitmap has been cleared by inspection, since
    /// bit positions are granularity-relative.
    ///
    /// # Panics
    ///
    /// Panics if lookup-table entries are still resident, or if the
    /// granularity is invalid (see [`crate::msr::MsrBank::write`]).
    pub fn set_granularity(&mut self, granularity: u64) {
        assert_eq!(
            self.table.valid_entries(),
            0,
            "granularity may only change on a flushed table"
        );
        self.cfg.granularity = granularity;
        self.msrs.write(MsrId::Granularity, granularity);
    }

    /// The functional dirty bitmap (the OS component inspects it).
    pub fn bitmap_mut(&mut self) -> &mut DirtyBitmap {
        &mut self.bitmap
    }

    /// Read-only bitmap view.
    pub fn bitmap(&self) -> &DirtyBitmap {
        &self.bitmap
    }

    /// Lowest SOI address since the last reset — the maximum active
    /// stack region boundary shared with the OS at interval end.
    pub fn min_soi_watermark(&self) -> Option<VirtAddr> {
        self.min_soi_addr.map(VirtAddr::new)
    }

    /// The exact dirty window of the interval: `[lowest SOI byte, one
    /// past the highest SOI byte)`. Every set bitmap bit falls inside
    /// it, so the OS never needs to walk beyond — essential when the
    /// tracked range is a large heap region.
    pub fn dirty_window(&self) -> Option<VirtRange> {
        match (self.min_soi_addr, self.max_soi_end) {
            (Some(lo), Some(hi)) => Some(VirtRange::new(VirtAddr::new(lo), VirtAddr::new(hi))),
            _ => None,
        }
    }

    /// Resets the active-region watermarks (interval start).
    pub fn reset_watermark(&mut self) {
        self.min_soi_addr = None;
        self.max_soi_end = None;
    }

    /// Applies bitmap operations emitted by the lookup table to the
    /// functional bitmap and updates the outstanding counters. The
    /// returned slice is what the caller injects into the machine as
    /// background memory traffic.
    fn apply_ops(&mut self, ops: &[BitmapOp]) {
        for op in ops {
            match op {
                BitmapOp::Load(_) => {
                    // Loads complete immediately in the functional
                    // model; counters pulse to exercise the handshake.
                    self.msrs.outstanding_loads += 1;
                    self.msrs.outstanding_loads -= 1;
                }
                BitmapOp::Store(addr, value) => {
                    self.msrs.outstanding_stores += 1;
                    self.bitmap.merge_word(*addr, *value);
                    self.msrs.outstanding_stores -= 1;
                }
            }
        }
    }

    /// Observes a demand store of `size` bytes at `vaddr` (called for
    /// every store issued by the core; the tracker filters SOIs
    /// itself). Appends the bitmap memory operations to inject as
    /// background traffic to `ops`, the caller's buffer, and leaves
    /// what it already holds untouched.
    pub fn observe_store(&mut self, vaddr: VirtAddr, size: u64, ops: &mut Vec<BitmapOp>) {
        if !self.msrs.tracking_enabled() {
            return;
        }
        let range = self.msrs.tracked_range();
        if !range.overlaps_access(vaddr, size.max(1)) {
            return;
        }
        self.soi_count += 1;
        let geom = self.geometry();
        let start = vaddr.max(range.start());
        let end = (vaddr + size.max(1)).min(range.end());
        self.min_soi_addr = Some(match self.min_soi_addr {
            Some(m) => m.min(start.raw()),
            None => start.raw(),
        });
        self.max_soi_end = Some(match self.max_soi_end {
            Some(m) => m.max(end.raw()),
            None => end.raw(),
        });
        let first = (start - geom.range_start) / geom.granularity;
        let last = (end - 1u64 - geom.range_start.raw()).raw() / geom.granularity;

        let bitmap = &mut self.bitmap;
        for granule in first..=last {
            let word_addr = geom.bitmap_base.raw() + (granule / 32) * 4;
            let bit = (granule % 32) as u32;
            let emitted = ops.len();
            self.table
                .record(word_addr, bit, &mut |addr| bitmap.read_word(addr), ops);
            // The next granule's lookup reads the bitmap these stores
            // leave behind.
            for op in &ops[emitted..] {
                if let BitmapOp::Store(addr, value) = op {
                    bitmap.merge_word(*addr, *value);
                }
            }
        }
    }

    /// OS-requested end-of-interval flush of the lookup table: drains
    /// every entry into the bitmap. Returns the bitmap traffic to
    /// inject.
    pub fn flush(&mut self) -> Vec<BitmapOp> {
        self.flush_with_reason(FlushReason::Interval)
    }

    /// Like [`Self::flush`], but attributes the drain to `reason` in
    /// the lookup-table flush counters (interval vs context switch).
    pub fn flush_with_reason(&mut self, reason: FlushReason) -> Vec<BitmapOp> {
        let bitmap = &mut self.bitmap;
        let ops = self
            .table
            .flush_all_with_reason(reason, &mut |addr| bitmap.read_word(addr));
        self.apply_ops(&ops);
        ops
    }

    /// `true` once all tracker-issued operations have completed — the
    /// condition the OS polls after requesting a flush.
    pub fn quiescent(&self) -> bool {
        self.msrs.quiescent()
    }

    /// Number of valid lookup-table entries (context-switch cost is
    /// proportional to this).
    pub fn resident_entries(&self) -> usize {
        self.table.valid_entries()
    }

    /// Saves the tracker's architectural state on a context switch-out
    /// (after a flush). The bitmap itself stays in memory; only the
    /// MSR programming travels with the context.
    pub fn save_state(&self) -> MsrBank {
        self.msrs
    }

    /// Restores saved state on switch-in.
    pub fn restore_state(&mut self, saved: MsrBank) {
        self.msrs = saved;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracked() -> (DirtyTracker, VirtRange) {
        let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7010_0000));
        let mut t = DirtyTracker::new(TrackerConfig::default());
        t.configure(range, VirtAddr::new(0x1000_0000));
        (t, range)
    }

    #[test]
    fn filters_stores_outside_range() {
        let (mut t, _) = tracked();
        let mut ops = Vec::new();
        t.observe_store(VirtAddr::new(0x100), 8, &mut ops);
        assert!(ops.is_empty());
        assert_eq!(t.soi_count, 0);
        t.observe_store(VirtAddr::new(0x7000_0008), 8, &mut ops);
        assert_eq!(t.soi_count, 1);
    }

    #[test]
    fn disabled_tracker_ignores_everything() {
        let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7010_0000));
        let mut t = DirtyTracker::new(TrackerConfig::default());
        // Not configured: control is 0.
        let mut ops = Vec::new();
        t.observe_store(range.start(), 8, &mut ops);
        assert!(ops.is_empty());
        assert_eq!(t.soi_count, 0);
        t.configure(range, VirtAddr::new(0x1000_0000));
        t.observe_store(range.start(), 8, &mut ops);
        assert_eq!(t.soi_count, 1);
    }

    #[test]
    fn flush_materialises_bits_in_bitmap() {
        let mut ops = Vec::new();
        let (mut t, range) = tracked();
        for i in 0..10u64 {
            t.observe_store(range.start() + i * 8, 8, &mut ops);
        }
        assert_eq!(t.bitmap().total_set_bits(), 0, "bits coalesce in table");
        t.flush();
        assert_eq!(t.bitmap().total_set_bits(), 10);
        assert!(t.quiescent());
        assert_eq!(t.resident_entries(), 0);
    }

    #[test]
    fn watermark_tracks_lowest_store() {
        let mut ops = Vec::new();
        let (mut t, range) = tracked();
        assert_eq!(t.min_soi_watermark(), None);
        t.observe_store(range.start() + 0x5000, 8, &mut ops);
        t.observe_store(range.start() + 0x100, 8, &mut ops);
        t.observe_store(range.start() + 0x9000, 8, &mut ops);
        assert_eq!(t.min_soi_watermark(), Some(range.start() + 0x100));
        t.reset_watermark();
        assert_eq!(t.min_soi_watermark(), None);
    }

    #[test]
    fn wide_store_sets_multiple_granules() {
        let mut ops = Vec::new();
        let (mut t, range) = tracked();
        // A 64-byte store at 8-byte granularity dirties 8 granules.
        t.observe_store(range.start(), 64, &mut ops);
        t.flush();
        assert_eq!(t.bitmap().total_set_bits(), 8);
    }

    #[test]
    fn store_straddling_range_end_is_clipped() {
        let mut ops = Vec::new();
        let (mut t, range) = tracked();
        t.observe_store(range.end() - 8u64, 64, &mut ops);
        t.flush();
        assert_eq!(t.bitmap().total_set_bits(), 1, "only the in-range granule");
    }

    #[test]
    fn granularity_changes_bit_density() {
        let mut ops = Vec::new();
        let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7010_0000));
        let mut fine = DirtyTracker::new(TrackerConfig::default().with_granularity(8));
        let mut coarse = DirtyTracker::new(TrackerConfig::default().with_granularity(128));
        fine.configure(range, VirtAddr::new(0x1000_0000));
        coarse.configure(range, VirtAddr::new(0x1000_0000));
        for i in 0..16u64 {
            fine.observe_store(range.start() + i * 8, 8, &mut ops);
            coarse.observe_store(range.start() + i * 8, 8, &mut ops);
        }
        fine.flush();
        coarse.flush();
        assert_eq!(fine.bitmap().total_set_bits(), 16);
        assert_eq!(coarse.bitmap().total_set_bits(), 1, "128 B covers all 16");
    }

    #[test]
    fn save_restore_roundtrips_msrs() {
        let (t, range) = tracked();
        let saved = t.save_state();
        let mut t2 = DirtyTracker::new(TrackerConfig::default());
        t2.restore_state(saved);
        assert_eq!(t2.msrs().tracked_range(), range);
        assert!(t2.msrs().tracking_enabled());
    }

    #[test]
    fn repeated_stores_to_same_granule_emit_no_extra_traffic() {
        let (mut t, range) = tracked();
        let mut ops = Vec::new();
        for _ in 0..1000 {
            t.observe_store(range.start() + 16, 8, &mut ops);
        }
        assert!(ops.is_empty(), "fully coalesced in the lookup table");
        assert_eq!(t.lookup_stats().hits, 999);
    }
}
