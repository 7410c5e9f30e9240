//! Property-based tests of the cache and hierarchy invariants.

use proptest::prelude::*;
use prosper_memsim::addr::{PhysAddr, VirtAddr};
use prosper_memsim::cache::{AccessKind, Cache};
use prosper_memsim::config::{CacheConfig, MachineConfig};
use prosper_memsim::hierarchy::Hierarchy;
use prosper_memsim::machine::Machine;
use std::collections::HashSet;

fn tiny_cache() -> Cache<2> {
    Cache::new(CacheConfig {
        size_bytes: 1024,
        latency: 1,
        line_bytes: 64,
    })
}

proptest! {
    /// Whatever the access sequence, an access immediately repeated
    /// always hits, and the valid-line count never exceeds capacity.
    #[test]
    fn repeat_access_hits_and_capacity_bounded(
        addrs in prop::collection::vec(0u64..1 << 16, 1..200),
        writes in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut c = tiny_cache();
        for (a, w) in addrs.iter().zip(writes.iter().cycle()) {
            let kind = if *w { AccessKind::Write } else { AccessKind::Read };
            c.access(PhysAddr::new(*a), kind);
            let again = c.access(PhysAddr::new(*a), AccessKind::Read);
            prop_assert!(again.hit, "immediate re-access must hit");
            prop_assert!(c.valid_lines() <= 16, "1KiB/64B = 16 lines max");
        }
    }

    /// A dirty line evicted from the cache is reported exactly once as
    /// a write-back, with its original line address.
    #[test]
    fn dirty_writebacks_conserve_lines(
        addrs in prop::collection::vec(0u64..1 << 14, 1..300),
    ) {
        let mut c = tiny_cache();
        let mut dirty_somewhere: HashSet<u64> = HashSet::new();
        for a in &addrs {
            let line = PhysAddr::new(*a).cache_line().raw();
            let res = c.access(PhysAddr::new(*a), AccessKind::Write);
            dirty_somewhere.insert(line);
            if let Some(wb) = res.writeback {
                // A write-back must be a line we dirtied earlier...
                prop_assert!(dirty_somewhere.contains(&wb.raw()));
                // ...and is aligned.
                prop_assert!(wb.raw() % 64 == 0);
            }
        }
        // Flushing everything accounts for all remaining dirty lines.
        let flushed = c.flush_all();
        prop_assert!(flushed as usize <= dirty_somewhere.len());
    }

    /// The hierarchy serves from exactly one level and its latency is
    /// the sum of the levels on the path.
    #[test]
    fn hierarchy_latency_is_path_sum(addrs in prop::collection::vec(0u64..1 << 20, 1..200)) {
        let cfg = MachineConfig::setup_i();
        let mut h = Hierarchy::new(&cfg);
        for a in &addrs {
            let r = h.access(PhysAddr::new(*a), AccessKind::Read);
            use prosper_memsim::hierarchy::ServedBy;
            let expected = match r.served_by {
                ServedBy::L1d => 3,
                ServedBy::L2 => 3 + 12,
                ServedBy::L3 => 3 + 12 + 20,
                ServedBy::Memory => 3 + 12 + 20,
            };
            prop_assert_eq!(r.cache_latency, expected);
        }
    }

    /// Machine clock is monotone and only demand traffic advances it.
    #[test]
    fn clock_monotone_and_injection_free(
        ops in prop::collection::vec((0u64..1 << 22, any::<bool>(), any::<bool>()), 1..150),
    ) {
        let mut m = Machine::new(MachineConfig::setup_i());
        let mut last = 0;
        for (addr, write, inject) in ops {
            let before = m.now();
            if inject {
                if write {
                    m.inject_store(VirtAddr::new(addr), 8);
                } else {
                    m.inject_load(VirtAddr::new(addr), 8);
                }
                prop_assert_eq!(m.now(), before, "injection is off the critical path");
            } else if write {
                m.store(VirtAddr::new(addr), 8);
            } else {
                m.load(VirtAddr::new(addr), 8);
            }
            prop_assert!(m.now() >= last);
            last = m.now();
        }
        let s = m.stats();
        prop_assert_eq!(s.cycles, m.now());
    }

    /// Cache-line and page alignment helpers agree with modular
    /// arithmetic for any address.
    #[test]
    fn alignment_helpers_consistent(addr in any::<u64>()) {
        let a = VirtAddr::new(addr & !(0xfu64 << 60)); // avoid overflow in align_up
        prop_assert_eq!(a.cache_line().raw(), a.raw() - a.raw() % 64);
        prop_assert_eq!(a.page().raw(), a.raw() - a.raw() % 4096);
        prop_assert_eq!(a.page_number(), a.raw() / 4096);
        prop_assert_eq!(a.page_offset(), a.raw() % 4096);
    }
}
