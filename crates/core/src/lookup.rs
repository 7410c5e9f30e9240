//! The tracker's lookup table (Section III-B, Figure 7).
//!
//! The table is a small fully-associative cache whose entries coalesce
//! bitmap store requests: `<bitmap word address (64 bits), bitmap value
//! (32 bits)>`. Bitmap traffic is generated on three events:
//!
//! 1. an entry's set-bit count reaches the **high-water-mark** (HWM);
//! 2. an entry is **evicted** to make room — victims are entries with
//!    fewer set bits than the **low-water-mark** (LWM), prioritising
//!    momentarily-touched call/return areas, with a random fallback;
//! 3. the OS requests a **flush** at the end of a checkpoint interval
//!    or a context switch.
//!
//! Two allocation policies exist for a miss (Section III-B):
//!
//! * **Accumulate-and-Apply** (Prosper's choice): allocate an empty
//!   entry instantly; the old bitmap word is loaded only when the
//!   entry is flushed, merged, and stored back *if changed*.
//! * **Load-and-Update**: load the old word at allocation time; the
//!   entry then always holds the latest value and a flush needs no
//!   load, but allocation must wait for the load.

use serde::{Deserialize, Serialize};

/// Allocation policy for new lookup-table entries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Allocate empty; load-merge-store at flush time (the paper's
    /// choice — instant allocation, no "not ready" entries).
    #[default]
    AccumulateAndApply,
    /// Load the old word at allocation; flush stores without loading.
    LoadAndUpdate,
}

/// One lookup-table entry.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Entry {
    /// Bitmap word address (the key; 64 bits in hardware).
    word_addr: u64,
    /// Accumulated bitmap value (32 bits in hardware).
    value: u32,
    /// Old word loaded at allocation (Load-and-Update only).
    loaded_old: Option<u32>,
    valid: bool,
}

impl Entry {
    const INVALID: Entry = Entry {
        word_addr: 0,
        value: 0,
        loaded_old: None,
        valid: false,
    };
}

/// Why a lookup-table entry's contents were pushed out to the bitmap.
/// Used as the label set for flush telemetry (Figure 13 analyses).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FlushReason {
    /// The entry's set-bit count reached the high-water-mark.
    Hwm,
    /// Evicted under the LWM policy to make room.
    LwmEviction,
    /// Evicted by the random fallback (no LWM victim existed).
    RandomEviction,
    /// OS-requested end-of-interval flush.
    Interval,
    /// OS-requested flush on a context switch.
    ContextSwitch,
}

impl FlushReason {
    /// Stable label for metrics and trace events.
    pub fn label(self) -> &'static str {
        match self {
            FlushReason::Hwm => "hwm",
            FlushReason::LwmEviction => "lwm_eviction",
            FlushReason::RandomEviction => "random_eviction",
            FlushReason::Interval => "interval",
            FlushReason::ContextSwitch => "context_switch",
        }
    }
}

/// A memory operation the table asks the tracker to issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum BitmapOp {
    /// Load the 32-bit bitmap word at this address.
    Load(u64),
    /// Store the given value to the bitmap word at this address.
    Store(u64, u32),
}

impl BitmapOp {
    /// The word address the operation targets.
    pub fn addr(&self) -> u64 {
        match self {
            BitmapOp::Load(a) | BitmapOp::Store(a, _) => *a,
        }
    }
}

/// Partitions drained bitmap ops into load and store address batches
/// for [`Machine::inject_load_batch`]-style issue. The caller supplies
/// the scratch buffers (cleared here) so the per-interval flush path
/// reuses its allocations.
///
/// [`Machine::inject_load_batch`]: prosper_memsim::machine::Machine::inject_load_batch
pub fn partition_ops(ops: &[BitmapOp], loads: &mut Vec<u64>, stores: &mut Vec<u64>) {
    loads.clear();
    stores.clear();
    for op in ops {
        match op {
            BitmapOp::Load(addr) => loads.push(*addr),
            BitmapOp::Store(addr, _) => stores.push(*addr),
        }
    }
}

/// Counters for Figure 13 (bitmap loads/stores vs HWM/LWM).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct LookupStats {
    /// Table searches (every SOI).
    pub searches: u64,
    /// Search hits.
    pub hits: u64,
    /// Entry allocations.
    pub allocations: u64,
    /// HWM-triggered flushes.
    pub hwm_flushes: u64,
    /// LWM-policy evictions.
    pub lwm_evictions: u64,
    /// Random-fallback evictions.
    pub random_evictions: u64,
    /// Entries drained by OS end-of-interval flushes.
    pub interval_flushes: u64,
    /// Entries drained by context-switch flushes.
    pub ctx_switch_flushes: u64,
    /// Bitmap word loads issued.
    pub bitmap_loads: u64,
    /// Bitmap word stores issued.
    pub bitmap_stores: u64,
}

/// The lookup table plus the functional bitmap-word backing needed to
/// resolve loads (the real memory is modelled by the machine; here we
/// only need old values to decide whether a store-back is required).
#[derive(Clone, Debug)]
pub struct LookupTable {
    entries: Vec<Entry>,
    policy: AllocPolicy,
    hwm: u32,
    lwm: u32,
    stats: LookupStats,
    /// xorshift64 state for the random-eviction fallback
    /// (deterministic; no external RNG in the "hardware").
    rng_state: u64,
}

impl LookupTable {
    /// Builds an empty table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, `hwm` is zero or above 32, or
    /// `lwm > hwm`.
    pub fn new(entries: usize, hwm: u32, lwm: u32, policy: AllocPolicy) -> Self {
        assert!(entries > 0, "table needs at least one entry");
        assert!((1..=32).contains(&hwm), "HWM must be in 1..=32");
        assert!(lwm <= hwm, "LWM must not exceed HWM");
        Self {
            entries: vec![Entry::INVALID; entries],
            policy,
            hwm,
            lwm,
            stats: LookupStats::default(),
            rng_state: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Accumulated counters.
    pub fn stats(&self) -> LookupStats {
        self.stats
    }

    /// Number of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    fn next_random(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Emits the flush traffic for entry `idx` against the functional
    /// bitmap `read_word`, appending ops, and invalidates the entry.
    ///
    /// `read_word` returns the current in-memory value of a bitmap
    /// word; the caller (tracker) owns the functional bitmap.
    fn flush_entry(
        &mut self,
        idx: usize,
        read_word: &mut dyn FnMut(u64) -> u32,
        ops: &mut Vec<BitmapOp>,
    ) {
        let e = self.entries[idx];
        debug_assert!(e.valid);
        match self.policy {
            AllocPolicy::AccumulateAndApply => {
                // Convert the store request into a load of the old
                // value, merge, and store back only if changed.
                let old = read_word(e.word_addr);
                self.stats.bitmap_loads += 1;
                ops.push(BitmapOp::Load(e.word_addr));
                let merged = old | e.value;
                if merged != old {
                    self.stats.bitmap_stores += 1;
                    ops.push(BitmapOp::Store(e.word_addr, merged));
                }
            }
            AllocPolicy::LoadAndUpdate => {
                // The entry already holds the merged value; store if it
                // differs from what was loaded at allocation.
                let old = e
                    .loaded_old
                    .expect("LoadAndUpdate entries carry the old value");
                if e.value != old {
                    self.stats.bitmap_stores += 1;
                    ops.push(BitmapOp::Store(e.word_addr, e.value));
                }
            }
        }
        self.entries[idx] = Entry::INVALID;
    }

    /// Records that bit `bit` of bitmap word `word_addr` must be set,
    /// appending to `ops` the bitmap operations the tracker must issue
    /// now (HWM flushes, eviction traffic, allocation loads). `ops` is
    /// the caller's buffer: nothing already in it is touched.
    ///
    /// # Examples
    ///
    /// ```
    /// use prosper_core::lookup::{AllocPolicy, LookupTable};
    ///
    /// let mut table = LookupTable::new(16, 24, 8, AllocPolicy::AccumulateAndApply);
    /// let mut read_word = |_addr: u64| 0u32;
    /// let mut ops = Vec::new();
    /// // Repeated bits to one word coalesce silently below the HWM.
    /// for bit in 0..8 {
    ///     table.record(0x100, bit, &mut read_word, &mut ops);
    /// }
    /// assert!(ops.is_empty());
    /// assert_eq!(table.stats().hits, 7);
    /// ```
    pub fn record(
        &mut self,
        word_addr: u64,
        bit: u32,
        read_word: &mut dyn FnMut(u64) -> u32,
        ops: &mut Vec<BitmapOp>,
    ) {
        debug_assert!(bit < 32);
        self.stats.searches += 1;

        // Parallel search (associative match in hardware).
        if let Some(idx) = self
            .entries
            .iter()
            .position(|e| e.valid && e.word_addr == word_addr)
        {
            self.stats.hits += 1;
            self.entries[idx].value |= 1 << bit;
            if self.entries[idx].value.count_ones() >= self.hwm {
                self.stats.hwm_flushes += 1;
                self.flush_entry(idx, read_word, ops);
            }
            return;
        }

        // Miss: find a free slot, else evict.
        let slot = match self.entries.iter().position(|e| !e.valid) {
            Some(free) => free,
            None => {
                // LWM policy: evict an entry with fewer set bits than
                // LWM (call/return areas touched momentarily)...
                let victim = self
                    .entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.value.count_ones() < self.lwm)
                    .min_by_key(|(_, e)| e.value.count_ones())
                    .map(|(i, _)| i);
                let idx = match victim {
                    Some(i) => {
                        self.stats.lwm_evictions += 1;
                        i
                    }
                    None => {
                        // ...falling back to a random victim.
                        self.stats.random_evictions += 1;
                        (self.next_random() % self.entries.len() as u64) as usize
                    }
                };
                self.flush_entry(idx, read_word, ops);
                idx
            }
        };

        self.stats.allocations += 1;
        let loaded_old = match self.policy {
            AllocPolicy::AccumulateAndApply => None,
            AllocPolicy::LoadAndUpdate => {
                let old = read_word(word_addr);
                self.stats.bitmap_loads += 1;
                ops.push(BitmapOp::Load(word_addr));
                Some(old)
            }
        };
        let base = loaded_old.unwrap_or(0);
        self.entries[slot] = Entry {
            word_addr,
            value: base | (1 << bit),
            loaded_old,
            valid: true,
        };
        // A freshly-allocated entry can already sit at the HWM when the
        // loaded old value was dense.
        if self.entries[slot].value.count_ones() >= self.hwm {
            self.stats.hwm_flushes += 1;
            self.flush_entry(slot, read_word, ops);
        }
    }

    /// Flushes every valid entry for an end-of-interval commit.
    pub fn flush_all(&mut self, read_word: &mut dyn FnMut(u64) -> u32) -> Vec<BitmapOp> {
        self.flush_all_with_reason(FlushReason::Interval, read_word)
    }

    /// Flushes every valid entry, attributing the drain to `reason`
    /// ([`FlushReason::Interval`] or [`FlushReason::ContextSwitch`]).
    pub fn flush_all_with_reason(
        &mut self,
        reason: FlushReason,
        read_word: &mut dyn FnMut(u64) -> u32,
    ) -> Vec<BitmapOp> {
        debug_assert!(
            matches!(reason, FlushReason::Interval | FlushReason::ContextSwitch),
            "per-entry reasons are counted at their trigger sites"
        );
        let mut ops = Vec::new();
        for idx in 0..self.entries.len() {
            if self.entries[idx].valid {
                match reason {
                    FlushReason::ContextSwitch => self.stats.ctx_switch_flushes += 1,
                    _ => self.stats.interval_flushes += 1,
                }
                self.flush_entry(idx, read_word, &mut ops);
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A functional bitmap memory for the tests.
    #[derive(Default)]
    struct Mem(HashMap<u64, u32>);

    impl Mem {
        fn reader(&mut self) -> impl FnMut(u64) -> u32 + '_ {
            |addr| *self.0.entry(addr).or_insert(0)
        }

        fn apply(&mut self, ops: &[BitmapOp]) {
            for op in ops {
                if let BitmapOp::Store(a, v) = op {
                    self.0.insert(*a, *v);
                }
            }
        }
    }

    #[test]
    fn hit_coalesces_without_traffic() {
        let mut t = LookupTable::new(4, 24, 8, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        let mut ops = Vec::new();
        for bit in 0..8 {
            t.record(0x100, bit, &mut mem.reader(), &mut ops);
        }
        assert!(ops.is_empty(), "below HWM, no traffic");
        assert_eq!(t.stats().hits, 7);
        assert_eq!(t.stats().allocations, 1);
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn hwm_triggers_flush() {
        let mut t = LookupTable::new(4, 4, 2, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        let mut all_ops = Vec::new();
        for bit in 0..4 {
            t.record(0x100, bit, &mut mem.reader(), &mut all_ops);
        }
        // Fourth bit reaches HWM=4: load + store.
        assert_eq!(t.stats().hwm_flushes, 1);
        assert_eq!(t.stats().bitmap_loads, 1);
        assert_eq!(t.stats().bitmap_stores, 1);
        assert_eq!(t.valid_entries(), 0, "flushed entry is freed");
        mem.apply(&all_ops);
        assert_eq!(mem.0[&0x100], 0b1111);
    }

    #[test]
    fn accumulate_and_apply_skips_redundant_store() {
        let mut t = LookupTable::new(4, 4, 2, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        mem.0.insert(0x200, 0b1111); // bits already set in memory
        let mut ops = Vec::new();
        for bit in 0..4 {
            t.record(0x200, bit, &mut mem.reader(), &mut ops);
        }
        // Flush loads the old value, merge equals old => no store.
        assert_eq!(t.stats().bitmap_loads, 1);
        assert_eq!(t.stats().bitmap_stores, 0);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o, BitmapOp::Store(..)))
                .count(),
            0
        );
    }

    #[test]
    fn eviction_prefers_lwm_victims() {
        let mut t = LookupTable::new(2, 24, 8, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        let mut ops = Vec::new();
        // Entry A: dense (10 bits). Entry B: sparse (1 bit).
        for bit in 0..10 {
            t.record(0xa00, bit, &mut mem.reader(), &mut ops);
        }
        t.record(0xb00, 0, &mut mem.reader(), &mut ops);
        // New word C forces an eviction; B (1 bit < LWM=8) is chosen.
        t.record(0xc00, 0, &mut mem.reader(), &mut ops);
        assert_eq!(t.stats().lwm_evictions, 1);
        assert_eq!(t.stats().random_evictions, 0);
        // A must still be resident: another hit on it, no allocation.
        let before = t.stats().allocations;
        t.record(0xa00, 10, &mut mem.reader(), &mut ops);
        assert_eq!(t.stats().allocations, before);
    }

    #[test]
    fn random_eviction_when_no_lwm_victim() {
        let mut t = LookupTable::new(2, 24, 2, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        let mut ops = Vec::new();
        // Both entries dense (>= LWM bits).
        for bit in 0..6 {
            t.record(0xa00, bit, &mut mem.reader(), &mut ops);
            t.record(0xb00, bit, &mut mem.reader(), &mut ops);
        }
        t.record(0xc00, 0, &mut mem.reader(), &mut ops);
        assert_eq!(t.stats().random_evictions, 1);
    }

    #[test]
    fn load_and_update_loads_at_allocation() {
        let mut t = LookupTable::new(4, 24, 8, AllocPolicy::LoadAndUpdate);
        let mut mem = Mem::default();
        mem.0.insert(0x300, 0b1);
        let mut ops = vec![BitmapOp::Load(0xdead)];
        t.record(0x300, 5, &mut mem.reader(), &mut ops);
        assert_eq!(
            ops,
            vec![BitmapOp::Load(0xdead), BitmapOp::Load(0x300)],
            "appends after what the caller's buffer holds"
        );
        assert_eq!(t.stats().bitmap_loads, 1);
        // Flush: value (old | new bit) differs from loaded old => store,
        // but no second load.
        let ops = t.flush_all(&mut mem.reader());
        assert_eq!(ops, vec![BitmapOp::Store(0x300, 0b10_0001)]);
        assert_eq!(t.stats().bitmap_loads, 1);
    }

    #[test]
    fn flush_all_empties_table_and_merges() {
        let mut t = LookupTable::new(8, 24, 8, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        let mut ops = Vec::new();
        for w in 0..5u64 {
            for bit in 0..3 {
                t.record(0x1000 + w * 4, bit, &mut mem.reader(), &mut ops);
            }
        }
        assert_eq!(t.valid_entries(), 5);
        let ops = t.flush_all(&mut mem.reader());
        mem.apply(&ops);
        assert_eq!(t.valid_entries(), 0);
        for w in 0..5u64 {
            assert_eq!(mem.0[&(0x1000 + w * 4)], 0b111);
        }
    }

    #[test]
    fn flush_reasons_attributed_per_drained_entry() {
        let mut t = LookupTable::new(8, 24, 8, AllocPolicy::AccumulateAndApply);
        let mut mem = Mem::default();
        let mut ops = Vec::new();
        for w in 0..3u64 {
            t.record(0x1000 + w * 4, 0, &mut mem.reader(), &mut ops);
        }
        t.flush_all(&mut mem.reader());
        assert_eq!(t.stats().interval_flushes, 3);
        assert_eq!(t.stats().ctx_switch_flushes, 0);
        for w in 0..2u64 {
            t.record(0x2000 + w * 4, 0, &mut mem.reader(), &mut ops);
        }
        t.flush_all_with_reason(FlushReason::ContextSwitch, &mut mem.reader());
        assert_eq!(t.stats().interval_flushes, 3, "unchanged");
        assert_eq!(t.stats().ctx_switch_flushes, 2);
        // An empty table drains nothing and counts nothing.
        t.flush_all(&mut mem.reader());
        assert_eq!(t.stats().interval_flushes, 3);
    }

    #[test]
    fn flush_reason_labels_are_stable() {
        assert_eq!(FlushReason::Hwm.label(), "hwm");
        assert_eq!(FlushReason::LwmEviction.label(), "lwm_eviction");
        assert_eq!(FlushReason::RandomEviction.label(), "random_eviction");
        assert_eq!(FlushReason::Interval.label(), "interval");
        assert_eq!(FlushReason::ContextSwitch.label(), "context_switch");
    }

    #[test]
    fn deterministic_random_fallback() {
        let run = || {
            let mut t = LookupTable::new(2, 24, 1, AllocPolicy::AccumulateAndApply);
            let mut mem = Mem::default();
            let mut ops = Vec::new();
            for i in 0..50u64 {
                t.record(i * 4, (i % 32) as u32, &mut mem.reader(), &mut ops);
            }
            t.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "LWM must not exceed HWM")]
    fn invalid_watermarks_rejected() {
        LookupTable::new(4, 8, 9, AllocPolicy::AccumulateAndApply);
    }

    #[test]
    #[should_panic(expected = "HWM must be in 1..=32")]
    fn hwm_bounds_checked() {
        LookupTable::new(4, 33, 8, AllocPolicy::AccumulateAndApply);
    }
}
