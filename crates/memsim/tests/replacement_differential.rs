//! Differential tests of the recency-ordered cache and TLB sets, of
//! the composed L1D/L2/L3 hierarchy and of the cursor-derived bulk
//! wear, each against the straightforward model it replaced: a cache
//! of `Line { tag, valid, dirty, lru }` ways with a per-level LRU clock
//! and a `min_by_key` victim search, three such caches cascading their
//! dirty victims level by level, a TLB of `(page, lru)` pairs with
//! `swap_remove` eviction, and a wear map with one entry per
//! bulk-written line. Every observable result is compared after every
//! step of seeded random sequences.

use std::collections::BTreeMap;

use prosper_memsim::addr::{PhysAddr, VirtAddr};
use prosper_memsim::cache::{AccessKind, Cache, CacheAccessResult};
use prosper_memsim::config::{CacheConfig, MachineConfig, NvmConfig};
use prosper_memsim::hierarchy::{Hierarchy, ServedBy};
use prosper_memsim::nvm::{Nvm, WearStats};
use prosper_memsim::stats::LevelStats;
use prosper_memsim::tlb::Tlb;
use prosper_memsim::Cycles;

/// SplitMix64: a small seeded generator for the op sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Higher = more recently used.
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The reference cache: every way carries its own valid bit, dirty bit
/// and LRU stamp; a miss fills the first invalid way, else the way with
/// the oldest stamp.
struct RefCache {
    cfg: CacheConfig,
    ways: usize,
    sets: u64,
    lines: Vec<Line>,
    lru_clock: u64,
    stats: LevelStats,
}

impl RefCache {
    fn new(cfg: CacheConfig, ways: usize) -> Self {
        let sets = cfg.sets(ways);
        Self {
            cfg,
            ways,
            sets,
            lines: vec![INVALID; sets as usize * ways],
            lru_clock: 0,
            stats: LevelStats::default(),
        }
    }

    fn index_of(&self, addr: PhysAddr) -> (u64, u64) {
        let line_addr = addr.cache_line().raw();
        let set = (line_addr / self.cfg.line_bytes) & (self.sets - 1);
        (set, line_addr / self.cfg.line_bytes / self.sets)
    }

    fn set_slice(&mut self, set: u64) -> &mut [Line] {
        let start = set as usize * self.ways;
        &mut self.lines[start..start + self.ways]
    }

    fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> CacheAccessResult {
        let (set, tag) = self.index_of(addr);
        self.lru_clock += 1;
        let clock = self.lru_clock;
        let (sets, line_bytes) = (self.sets, self.cfg.line_bytes);
        let ways = self.set_slice(set);
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = clock;
            line.dirty |= kind == AccessKind::Write;
            self.stats.hits += 1;
            return CacheAccessResult {
                hit: true,
                writeback: None,
            };
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("cache set has at least one way");
        let writeback = (victim.valid && victim.dirty)
            .then(|| PhysAddr::new((victim.tag * sets + set) * line_bytes));
        *victim = Line {
            tag,
            valid: true,
            dirty: kind == AccessKind::Write,
            lru: clock,
        };
        self.stats.misses += 1;
        if writeback.is_some() {
            self.stats.writebacks += 1;
        }
        CacheAccessResult {
            hit: false,
            writeback,
        }
    }

    fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index_of(addr);
        let start = set as usize * self.ways;
        self.lines[start..start + self.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn flush_line(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index_of(addr);
        let ways = self.set_slice(set);
        let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) else {
            return false;
        };
        let was_dirty = line.dirty;
        line.dirty = false;
        if was_dirty {
            self.stats.writebacks += 1;
        }
        was_dirty
    }

    fn flush_all(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count() as u64;
        self.lines.fill(INVALID);
        self.stats.writebacks += dirty;
        dirty
    }

    fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

fn geometry(size_bytes: u64) -> CacheConfig {
    CacheConfig {
        size_bytes,
        latency: 1,
        line_bytes: 64,
    }
}

/// Runs `steps` random operations on a `WAYS`-way cache and its
/// reference, comparing every result. Addresses crowd `hot_sets` sets
/// with up to three times as many lines as a set holds, so eviction
/// order is exercised hard; one access in eight goes anywhere in a
/// wider range.
fn check_cache<const WAYS: usize>(cfg: CacheConfig, seed: u64, steps: usize, hot_sets: u64) {
    let mut rng = Rng(seed);
    let mut new = Cache::<WAYS>::new(cfg);
    let mut old = RefCache::new(cfg, WAYS);
    let sets = cfg.sets(WAYS);
    let tags = WAYS as u64 * 3;
    let addr = |rng: &mut Rng| {
        let line = if rng.below(8) == 0 {
            rng.below(sets * tags * 4)
        } else {
            rng.below(hot_sets.min(sets)) + rng.below(tags) * sets
        };
        PhysAddr::new(line * cfg.line_bytes + rng.below(cfg.line_bytes))
    };
    for step in 0..steps {
        let a = addr(&mut rng);
        let op = rng.below(100);
        let ctx = format!("seed {seed}, step {step}, op {op}, addr {a}");
        match op {
            0..=69 => {
                let kind = if rng.below(3) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                assert_eq!(new.access(a, kind), old.access(a, kind), "{ctx}");
            }
            70..=89 => assert_eq!(new.flush_line(a), old.flush_line(a), "{ctx}"),
            90..=98 => assert_eq!(new.contains(a), old.contains(a), "{ctx}"),
            _ => {
                if rng.below(20) == 0 {
                    assert_eq!(new.flush_all(), old.flush_all(), "{ctx}");
                }
            }
        }
        let probe = addr(&mut rng);
        assert_eq!(new.contains(a), old.contains(a), "{ctx}");
        assert_eq!(new.contains(probe), old.contains(probe), "{ctx}");
        assert_eq!(new.valid_lines(), old.valid_lines(), "{ctx}");
        assert_eq!(new.stats(), old.stats, "{ctx}");
    }
}

#[test]
fn cache_matches_reference_on_tiny_geometries() {
    for seed in 0..24 {
        // 1 set x 1 way, 4 sets x 2 ways, 4 sets x 4 ways, 2 sets x 8
        // ways, 2 sets x 16 ways.
        check_cache::<1>(geometry(64), seed, 400, 1);
        check_cache::<2>(geometry(512), seed, 2_000, 4);
        check_cache::<4>(geometry(1024), seed, 2_000, 2);
        check_cache::<8>(geometry(1024), seed, 2_000, 2);
        check_cache::<16>(geometry(2048), seed, 2_000, 2);
    }
}

#[test]
fn cache_matches_reference_on_setup_i_geometries() {
    // Fewer steps on the larger levels: every step also counts their
    // valid lines, which walks the whole cache. Table II: 8, 16 and 16
    // ways.
    let cfg = MachineConfig::setup_i();
    for seed in 0..2 {
        check_cache::<8>(cfg.l1d, seed, 10_000, 6);
        check_cache::<16>(cfg.l2, seed, 2_000, 6);
        check_cache::<16>(cfg.l3, seed, 600, 4);
    }
}

/// The reference hierarchy: three reference caches with Table II's
/// 8, 16 and 16 ways. An access walks down the levels until one hits,
/// charging each level's latency and reading the line from every level
/// below the first; a dirty victim of any level is written into the
/// next level down, recursively, and what leaves the last level goes
/// to memory.
struct RefHierarchy {
    levels: [RefCache; 3],
}

impl RefHierarchy {
    fn new(cfg: &MachineConfig) -> Self {
        Self {
            levels: [
                RefCache::new(cfg.l1d, 8),
                RefCache::new(cfg.l2, 16),
                RefCache::new(cfg.l3, 16),
            ],
        }
    }

    /// Writes `victim` into `level` and on down; returns the line that
    /// leaves the last level, if any.
    fn write_back(&mut self, level: usize, victim: PhysAddr) -> Option<PhysAddr> {
        let Some(cache) = self.levels.get_mut(level) else {
            return Some(victim);
        };
        let next = cache.access(victim, AccessKind::Write).writeback;
        next.and_then(|v| self.write_back(level + 1, v))
    }

    fn access(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
    ) -> (ServedBy, Cycles, [Option<PhysAddr>; 3]) {
        let served = [ServedBy::L1d, ServedBy::L2, ServedBy::L3];
        let mut memory_writebacks = [None; 3];
        let mut latency = 0;
        for level in 0..3 {
            latency += self.levels[level].cfg.latency;
            let kind = if level == 0 { kind } else { AccessKind::Read };
            let r = self.levels[level].access(addr, kind);
            if let Some(v) = r.writeback {
                memory_writebacks[level] = self.write_back(level + 1, v);
            }
            if r.hit {
                return (served[level], latency, memory_writebacks);
            }
        }
        (ServedBy::Memory, latency, memory_writebacks)
    }

    fn clwb(&mut self, addr: PhysAddr) -> bool {
        // Every level is cleaned: no short circuit.
        self.levels
            .iter_mut()
            .map(|c| c.flush_line(addr))
            .fold(false, |any, dirty| any | dirty)
    }

    fn contains(&self, addr: PhysAddr) -> bool {
        self.levels.iter().any(|c| c.contains(addr))
    }

    fn level_stats(&self) -> (LevelStats, LevelStats, LevelStats) {
        let [l1, l2, l3] = &self.levels;
        (l1.stats, l2.stats, l3.stats)
    }
}

#[test]
fn hierarchy_matches_reference_on_setup_i() {
    let cfg = MachineConfig::setup_i();
    // Setup-I set counts: a line's L1D set is its number mod 64, its
    // L2 set mod 512 and its L3 set mod 2048.
    let (l1_sets, l3_sets) = (64u64, 2048u64);
    for seed in 0..4 {
        let mut rng = Rng(seed);
        let mut new = Hierarchy::new(&cfg);
        let mut old = RefHierarchy::new(&cfg);
        // Lines crowding three L3 sets (and so the L2 and L1D sets they
        // fall in) with three times the L3's ways, lines crowding four
        // L1D sets but spread over the L2 and L3, and lines anywhere in
        // the 5 GiB hybrid address space.
        let addr = |rng: &mut Rng| {
            let line = match rng.below(8) {
                0 => rng.below(5 << 24),
                1 | 2 => rng.below(4) + rng.below(l3_sets) * l1_sets,
                _ => rng.below(3) * 7 + rng.below(48) * l3_sets,
            };
            PhysAddr::new(line * 64 + rng.below(64))
        };
        // Accesses served by each level and memory write-backs in each
        // slot, so the streams are seen to reach every path.
        let (mut served, mut written_back) = ([0u64; 4], [0u64; 3]);
        for step in 0..50_000 {
            let a = addr(&mut rng);
            let op = rng.below(100);
            let ctx = format!("seed {seed}, step {step}, op {op}, addr {a}");
            match op {
                0..=79 => {
                    let kind = if rng.below(3) == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let r = new.access(a, kind);
                    let want = old.access(a, kind);
                    assert_eq!(
                        (r.served_by, r.cache_latency, r.memory_writebacks),
                        want,
                        "{ctx}"
                    );
                    served[r.served_by as usize] += 1;
                    for (n, wb) in written_back.iter_mut().zip(r.memory_writebacks) {
                        *n += u64::from(wb.is_some());
                    }
                }
                80..=94 => assert_eq!(new.clwb(a), old.clwb(a), "{ctx}"),
                _ => {}
            }
            let probe = addr(&mut rng);
            assert_eq!(new.contains(a), old.contains(a), "{ctx}");
            assert_eq!(new.contains(probe), old.contains(probe), "{ctx}");
            assert_eq!(new.level_stats(), old.level_stats(), "{ctx}");
        }
        assert!(served.iter().all(|&n| n > 0), "seed {seed}: {served:?}");
        assert!(
            written_back.iter().all(|&n| n > 0),
            "seed {seed}: {written_back:?}"
        );
    }
}

/// The reference TLB: `(page, lru)` pairs, a miss on a full TLB
/// `swap_remove`s the entry with the oldest stamp.
struct RefTlb {
    entries: Vec<(u64, u64)>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl RefTlb {
    fn access(&mut self, vaddr: VirtAddr) -> u64 {
        let vpn = vaddr.page_number();
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|(v, _)| *v == vpn) {
            e.1 = self.clock;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = (0..self.entries.len())
                .min_by_key(|&i| self.entries[i].1)
                .expect("capacity > 0");
            self.entries.swap_remove(lru);
        }
        self.entries.push((vpn, self.clock));
        prosper_memsim::tlb::PAGE_WALK_CYCLES
    }
}

#[test]
fn tlb_matches_reference() {
    for capacity in [1usize, 2, 4, 16, 64] {
        for seed in 0..16 {
            let mut rng = Rng(seed ^ ((capacity as u64) << 32));
            let mut new = Tlb::new(capacity);
            let mut old = RefTlb {
                entries: Vec::new(),
                capacity,
                clock: 0,
                hits: 0,
                misses: 0,
            };
            let pages = capacity as u64 * 2 + 1;
            for step in 0..3_000 {
                if rng.below(500) == 0 {
                    new.flush();
                    old.entries.clear();
                }
                // Mostly a recent neighbourhood, sometimes any page.
                let page = if rng.below(4) == 0 {
                    rng.below(pages * 4)
                } else {
                    rng.below(pages)
                };
                let v = VirtAddr::new(page * 4096 + rng.below(4096));
                let ctx = format!("capacity {capacity}, seed {seed}, step {step}");
                assert_eq!(new.access(v), old.access(v), "{ctx}");
                assert_eq!((new.hits, new.misses), (old.hits, old.misses), "{ctx}");
                assert_eq!(new.resident(), old.entries.len(), "{ctx}");
            }
        }
    }
}

/// Line writes the reference wear map applies to a bulk copy: one map
/// entry per line, rotating over the 1 MiB window under keys no device
/// line address reaches.
fn ref_bulk_write(wear: &mut BTreeMap<u64, u64>, cursor: &mut u64, bytes: u64) {
    for _ in 0..bytes.div_ceil(64) {
        let line = *cursor % ((1u64 << 20) / 64);
        *cursor += 1;
        *wear.entry(u64::MAX - line).or_insert(0) += 1;
    }
}

fn ref_wear_stats(wear: &BTreeMap<u64, u64>) -> WearStats {
    WearStats {
        total_line_writes: wear.values().sum(),
        max_line_writes: wear.values().copied().max().unwrap_or(0),
        distinct_lines: wear.len() as u64,
    }
}

#[test]
fn wear_stats_match_per_line_map() {
    let window = 1u64 << 20;
    for seed in 0..4 {
        let mut rng = Rng(seed);
        let mut nvm = Nvm::new(NvmConfig::pcm());
        let mut wear = BTreeMap::new();
        let mut cursor = 0;
        let mut writes = 0;
        for step in 0..40 {
            if rng.below(3) == 0 {
                // Device line writes land in the per-line map as before.
                let addr = PhysAddr::new(rng.below(64) * 64 + rng.below(64));
                nvm.write(step, addr);
                *wear.entry(addr.cache_line().raw()).or_insert(0) += 1;
                writes += 1;
            } else {
                // Bulk sizes from one byte to past a whole window, so
                // the cursor crosses the window edge many times, and
                // sometimes exactly the bytes that end on the edge.
                let bytes = match rng.below(5) {
                    0 => rng.below(256) + 1,
                    1 => rng.below(64 * 1024) + 1,
                    2 => rng.below(window) + 1,
                    3 => window + rng.below(window),
                    _ => window - cursor * 64 % window,
                };
                nvm.record_bulk_write(bytes);
                ref_bulk_write(&mut wear, &mut cursor, bytes);
                writes += bytes.div_ceil(64);
            }
            let ctx = format!("seed {seed}, step {step}, cursor {cursor}");
            assert_eq!(nvm.wear_stats(), ref_wear_stats(&wear), "{ctx}");
            assert_eq!(nvm.writes, writes, "{ctx}");
        }
    }
}

#[test]
fn wear_stats_match_at_window_edges() {
    let window_lines = (1u64 << 20) / 64;
    for lines in [
        1,
        window_lines - 1,
        window_lines,
        window_lines + 1,
        2 * window_lines - 1,
        2 * window_lines,
        2 * window_lines + 1,
    ] {
        let mut nvm = Nvm::new(NvmConfig::pcm());
        let mut wear = BTreeMap::new();
        nvm.record_bulk_write(lines * 64);
        ref_bulk_write(&mut wear, &mut 0, lines * 64);
        assert_eq!(nvm.wear_stats(), ref_wear_stats(&wear), "{lines} lines");
    }
}
