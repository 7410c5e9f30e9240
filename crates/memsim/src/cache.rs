//! A set-associative, write-back/write-allocate cache with exact LRU
//! replacement.
//!
//! The cache is *functional for tags only*: it tracks which lines are
//! present and dirty so that hit/miss/writeback behaviour (and thus
//! latency and downstream traffic) is faithful, but it does not store
//! data — data movement in the simulator is carried by the workload and
//! OS models. The core in front of it is blocking, so no miss overlaps
//! another and the cache keeps no miss-status state.
//!
//! The way count is the type parameter `WAYS`, so every set is one
//! `[u64; WAYS]` and the probe's scan, its recency shift and the victim
//! slot all have a length fixed at compile time; Table II's counts are
//! [`L1D_WAYS`](crate::config::L1D_WAYS),
//! [`L2_WAYS`](crate::config::L2_WAYS) and
//! [`L3_WAYS`](crate::config::L3_WAYS).
//!
//! Each way is one `u64`: the line number shifted left by one with the
//! dirty bit below it, or `EMPTY`. Every set is kept in recency
//! order, most recently used first: a hit moves its way to the front
//! and a miss drops the last way, which is an empty one while the set
//! has any (empty ways only ever sit at the back). That is exact LRU
//! with empty ways filled first.

use serde::{Deserialize, Serialize};

use crate::addr::PhysAddr;
use crate::config::CacheConfig;
use crate::stats::LevelStats;

/// Outcome of a cache lookup-and-fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct CacheAccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Physical line address of a dirty victim that must be written
    /// back to the next level, if the fill evicted one.
    pub writeback: Option<PhysAddr>,
}

/// Kind of access presented to a cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum AccessKind {
    /// Demand or injected load.
    Read,
    /// Demand or injected store (marks the line dirty).
    Write,
}

/// The dirty bit of a way.
const DIRTY: u64 = 1;

/// An empty way: clean, and no line number shifted left by one (at
/// most 2^59 for 64 B lines) reaches it, so it never matches a lookup.
const EMPTY: u64 = u64::MAX - DIRTY;

/// A single cache level of `WAYS` ways per set.
#[derive(Clone, Debug)]
pub struct Cache<const WAYS: usize> {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// Set count minus one.
    set_mask: u64,
    /// Every set's ways, most recently used first.
    sets: Vec<[u64; WAYS]>,
    stats: LevelStats,
}

impl<const WAYS: usize> Cache<WAYS> {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid for `WAYS` ways (see
    /// [`CacheConfig::sets`]) or the line size is not a power of two.
    /// `WAYS == 0` does not compile.
    pub fn new(cfg: CacheConfig) -> Self {
        const { assert!(WAYS > 0, "a cache set needs at least one way") };
        let sets = cfg.sets(WAYS);
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "cache line size must be a power of two"
        );
        Self {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            sets: vec![[EMPTY; WAYS]; sets as usize],
            stats: LevelStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }

    /// The line number of `addr` and the index of its set.
    fn locate(&self, addr: PhysAddr) -> (u64, usize) {
        let line = addr.cache_line().raw() >> self.line_shift;
        (line, (line & self.set_mask) as usize)
    }

    /// Position of `line` in `set`: one comparison per way, with the
    /// dirty bit folded into the key. The scan stops at the match,
    /// and most hits are on the most recently used way, the first.
    fn find(set: &[u64; WAYS], line: u64) -> Option<usize> {
        let key = (line << 1) | DIRTY;
        set.iter().position(|&way| way | DIRTY == key)
    }

    /// Looks up `addr` (any byte address), filling the line on a miss.
    ///
    /// Returns whether the access hit and any dirty victim evicted by
    /// the fill. The line is marked dirty on `Write`.
    #[inline]
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> CacheAccessResult {
        let (line, index) = self.locate(addr);
        let dirty = u64::from(kind == AccessKind::Write);
        let set = &mut self.sets[index];
        if let Some(pos) = Self::find(set, line) {
            let way = set[pos] | dirty;
            set.copy_within(..pos, 1);
            set[0] = way;
            self.stats.hits += 1;
            return CacheAccessResult {
                hit: true,
                writeback: None,
            };
        }

        // Miss: the last way is empty or least recently used.
        let victim = set[WAYS - 1];
        set.copy_within(..WAYS - 1, 1);
        set[0] = (line << 1) | dirty;
        self.stats.misses += 1;
        let writeback = (victim & DIRTY != 0).then(|| {
            self.stats.writebacks += 1;
            PhysAddr::new((victim >> 1) << self.line_shift)
        });
        CacheAccessResult {
            hit: false,
            writeback,
        }
    }

    /// Returns `true` if the line containing `addr` is present.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (line, index) = self.locate(addr);
        Self::find(&self.sets[index], line).is_some()
    }

    /// Invalidates the line containing `addr`, returning `true` if the
    /// line was present and dirty (i.e. a `clwb`/`clflush`-style
    /// operation would generate a write-back).
    pub fn flush_line(&mut self, addr: PhysAddr) -> bool {
        let (line, index) = self.locate(addr);
        let set = &mut self.sets[index];
        let Some(pos) = Self::find(set, line) else {
            return false;
        };
        // clwb semantics: the line stays resident, in place, but
        // becomes clean.
        let was_dirty = set[pos] & DIRTY != 0;
        set[pos] &= !DIRTY;
        if was_dirty {
            self.stats.writebacks += 1;
        }
        was_dirty
    }

    /// Invalidates every line, returning the number of dirty lines that
    /// would have been written back.
    pub fn flush_all(&mut self) -> u64 {
        let dirty = self
            .sets
            .as_flattened()
            .iter()
            .filter(|&&way| way & DIRTY != 0)
            .count() as u64;
        self.sets.fill([EMPTY; WAYS]);
        self.stats.writebacks += dirty;
        dirty
    }

    /// Number of currently valid lines (for tests and diagnostics).
    pub fn valid_lines(&self) -> usize {
        self.sets
            .as_flattened()
            .iter()
            .filter(|&&way| way != EMPTY)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache<2> {
        // 4 sets x 2 ways x 64B = 512B cache.
        Cache::new(CacheConfig {
            size_bytes: 512,
            latency: 1,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let a = PhysAddr::new(0x1000);
        assert!(!c.access(a, AccessKind::Read).hit);
        assert!(c.access(a, AccessKind::Read).hit);
        assert!(c.access(a + 63, AccessKind::Read).hit, "same line hits");
        assert!(!c.access(a + 64, AccessKind::Read).hit, "next line misses");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 64B = 256B).
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(256);
        let d = PhysAddr::new(512);
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        c.access(a, AccessKind::Read); // a is now MRU
        c.access(d, AccessKind::Read); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_victim_writeback_address() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        let b = PhysAddr::new(256);
        let d = PhysAddr::new(512);
        c.access(a, AccessKind::Write);
        c.access(b, AccessKind::Read);
        let res = c.access(d, AccessKind::Read); // evicts a (LRU), which is dirty
        assert_eq!(res.writeback, Some(a));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_victim_no_writeback() {
        let mut c = tiny();
        c.access(PhysAddr::new(0), AccessKind::Read);
        c.access(PhysAddr::new(256), AccessKind::Read);
        let res = c.access(PhysAddr::new(512), AccessKind::Read);
        assert_eq!(res.writeback, None);
    }

    #[test]
    fn flush_line_clwb_semantics() {
        let mut c = tiny();
        let a = PhysAddr::new(0x40);
        c.access(a, AccessKind::Write);
        assert!(c.flush_line(a), "dirty line reports writeback");
        assert!(c.contains(a), "clwb keeps the line resident");
        assert!(!c.flush_line(a), "second flush finds a clean line");
        assert!(!c.flush_line(PhysAddr::new(0x4000)), "absent line");
    }

    #[test]
    fn flush_all_counts_dirty() {
        let mut c = tiny();
        c.access(PhysAddr::new(0), AccessKind::Write);
        c.access(PhysAddr::new(64), AccessKind::Write);
        c.access(PhysAddr::new(128), AccessKind::Read);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    fn write_marks_dirty_on_hit_too() {
        let mut c = tiny();
        let a = PhysAddr::new(0);
        c.access(a, AccessKind::Read);
        c.access(a, AccessKind::Write);
        assert!(c.flush_line(a));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4 {
            c.access(PhysAddr::new(i * 64), AccessKind::Read);
        }
        for i in 0..4 {
            assert!(c.contains(PhysAddr::new(i * 64)));
        }
        assert_eq!(c.valid_lines(), 4);
    }
}
