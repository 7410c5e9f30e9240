//! A data-TLB model.
//!
//! Both page-granularity dirty-tracking baselines lean on the address
//! translation machinery (the page-table walker sets the A/D bits),
//! and gem5 models TLBs; this TLB lets the OS layer charge realistic
//! translation costs: hits are free (folded into the L1 latency),
//! misses pay a multi-level page-table walk.

use crate::addr::VirtAddr;
use crate::Cycles;

/// Cycles for a four-level page-table walk on a TLB miss (walker
/// cache hits keep this well below four full memory accesses).
pub const PAGE_WALK_CYCLES: Cycles = 30;

/// A fully-associative data TLB with LRU replacement.
///
/// The resident page numbers are kept in recency order, most recently
/// used first: a hit moves its page to the front and a miss on a full
/// TLB drops the last one, the least recently used.
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Resident virtual page numbers, most recently used first.
    pages: Vec<u64>,
    capacity: usize,
    /// Translation hits.
    pub hits: u64,
    /// Translation misses (page walks performed).
    pub misses: u64,
}

impl Tlb {
    /// Builds an empty TLB with `capacity` entries (64 is typical for
    /// an L1 dTLB).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Self {
            pages: Vec::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Translates `vaddr`: returns the cycle cost of the translation
    /// (0 on a hit, [`PAGE_WALK_CYCLES`] on a miss) and installs the
    /// mapping.
    pub fn access(&mut self, vaddr: VirtAddr) -> Cycles {
        let vpn = vaddr.page_number();
        if let Some(pos) = self.pages.iter().position(|&p| p == vpn) {
            self.pages.copy_within(..pos, 1);
            self.pages[0] = vpn;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.pages.len() == self.capacity {
            self.pages.pop();
        }
        self.pages.insert(0, vpn);
        PAGE_WALK_CYCLES
    }

    /// Flushes all entries (address-space switch without ASIDs).
    pub fn flush(&mut self) {
        self.pages.clear();
    }

    /// Currently resident translations.
    pub fn resident(&self) -> usize {
        self.pages.len()
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut t = Tlb::new(4);
        assert_eq!(t.access(VirtAddr::new(0x1000)), PAGE_WALK_CYCLES);
        assert_eq!(t.access(VirtAddr::new(0x1fff)), 0, "same page hits");
        assert_eq!(t.hits, 1);
        assert_eq!(t.misses, 1);
        assert!((t.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(VirtAddr::new(0x1000)); // page 1
        t.access(VirtAddr::new(0x2000)); // page 2
        t.access(VirtAddr::new(0x1000)); // page 1 -> MRU
        t.access(VirtAddr::new(0x3000)); // evicts page 2
        assert_eq!(t.access(VirtAddr::new(0x1000)), 0);
        assert_eq!(t.access(VirtAddr::new(0x2000)), PAGE_WALK_CYCLES);
    }

    #[test]
    fn flush_forces_walks() {
        let mut t = Tlb::new(8);
        t.access(VirtAddr::new(0x5000));
        assert_eq!(t.resident(), 1);
        t.flush();
        assert_eq!(t.resident(), 0);
        assert_eq!(t.access(VirtAddr::new(0x5000)), PAGE_WALK_CYCLES);
    }

    #[test]
    fn capacity_bounded() {
        let mut t = Tlb::new(4);
        for i in 0..100u64 {
            t.access(VirtAddr::new(i * 4096));
        }
        assert_eq!(t.resident(), 4);
        assert_eq!(t.misses, 100);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }

    #[test]
    fn empty_tlb_ratio_zero() {
        assert_eq!(Tlb::new(4).miss_ratio(), 0.0);
    }
}
