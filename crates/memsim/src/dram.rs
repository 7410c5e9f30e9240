//! DDR4-like DRAM device model.
//!
//! Models per-bank open rows (row-buffer hits vs misses) and sustained
//! bandwidth for bulk transfers. Latencies come from
//! [`config::DramConfig`](crate::config::DramConfig). Row size and bank
//! count are powers of two, so an address's row is a shift and its
//! bank a mask of the row.

use crate::addr::PhysAddr;
use crate::config::DramConfig;
use crate::Cycles;

/// A DRAM device with per-bank open-row tracking.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// log2 of the row size.
    row_shift: u32,
    /// Bank count minus one.
    bank_mask: u64,
    /// Open row per bank, `None` if the bank is precharged.
    open_rows: Vec<Option<u64>>,
    /// Line reads served.
    pub reads: u64,
    /// Line writes absorbed.
    pub writes: u64,
    /// Row-buffer hits observed.
    pub row_hits: u64,
}

impl Dram {
    /// Builds a device with all banks precharged.
    ///
    /// # Panics
    ///
    /// Panics if the row size or the bank count is not a power of two.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.row_bytes.is_power_of_two(),
            "DRAM row size must be a power of two"
        );
        assert!(
            cfg.banks.is_power_of_two(),
            "DRAM bank count must be a power of two"
        );
        Self {
            row_shift: cfg.row_bytes.trailing_zeros(),
            bank_mask: u64::from(cfg.banks) - 1,
            open_rows: vec![None; cfg.banks as usize],
            cfg,
            reads: 0,
            writes: 0,
            row_hits: 0,
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn bank_and_row(&self, addr: PhysAddr) -> (usize, u64) {
        let row = addr.raw() >> self.row_shift;
        ((row & self.bank_mask) as usize, row)
    }

    /// Services a single line-sized access and returns its latency.
    pub fn access(&mut self, addr: PhysAddr, is_write: bool) -> Cycles {
        let (bank, row) = self.bank_and_row(addr);
        let hit = self.open_rows[bank] == Some(row);
        self.open_rows[bank] = Some(row);
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        if hit {
            self.row_hits += 1;
            self.cfg.row_hit
        } else {
            self.cfg.row_miss
        }
    }

    /// Cycles needed to stream `bytes` at the sustained bandwidth,
    /// ignoring first-access latency (used for bulk copies where the
    /// access stream is fully pipelined).
    pub fn stream_cycles(&self, bytes: u64) -> Cycles {
        (bytes as f64 / self.cfg.bytes_per_cycle).ceil() as Cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramConfig;

    #[test]
    fn row_hit_cheaper_than_miss() {
        let mut d = Dram::new(DramConfig::ddr4_2400());
        let a = PhysAddr::new(0);
        let first = d.access(a, false);
        let second = d.access(a + 64, false);
        assert!(first > second, "first access opens the row");
        assert_eq!(d.row_hits, 1);
        assert_eq!(d.reads, 2);
    }

    #[test]
    fn different_rows_same_bank_conflict() {
        let cfg = DramConfig::ddr4_2400();
        let mut d = Dram::new(cfg);
        let a = PhysAddr::new(0);
        // Same bank is revisited every banks*row_bytes bytes.
        let stride = u64::from(cfg.banks) * cfg.row_bytes;
        let b = PhysAddr::new(stride);
        d.access(a, false);
        let lat = d.access(b, false);
        assert_eq!(lat, cfg.row_miss);
    }

    #[test]
    fn writes_counted_separately() {
        let mut d = Dram::new(DramConfig::ddr4_2400());
        d.access(PhysAddr::new(0), true);
        assert_eq!(d.writes, 1);
        assert_eq!(d.reads, 0);
    }

    /// A reference device that maps by arithmetic: the row by division,
    /// the bank by remainder.
    struct DividingDram {
        cfg: DramConfig,
        open_rows: Vec<Option<u64>>,
        row_hits: u64,
    }

    impl DividingDram {
        fn access(&mut self, addr: u64) -> Cycles {
            let row = addr / self.cfg.row_bytes;
            let bank = (row % u64::from(self.cfg.banks)) as usize;
            let hit = self.open_rows[bank] == Some(row);
            self.open_rows[bank] = Some(row);
            self.row_hits += u64::from(hit);
            if hit {
                self.cfg.row_hit
            } else {
                self.cfg.row_miss
            }
        }
    }

    #[test]
    fn shift_and_mask_map_like_division() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cfg = DramConfig::ddr4_2400();
        let mut d = Dram::new(cfg);
        let mut reference = DividingDram {
            cfg,
            open_rows: vec![None; cfg.banks as usize],
            row_hits: 0,
        };
        let below = 5u64 << 30;
        let mut rng = StdRng::seed_from_u64(7);
        // Random addresses, half of them within a row of the last one
        // so that rows hit too, then both sides of every row edge (a
        // bank edge is a row edge) below 5 GiB.
        let mut last = 0u64;
        let random = (0..100_000).map(|_| {
            last = if rng.gen_bool(0.5) {
                (last + rng.gen_range(0..2 * cfg.row_bytes))
                    .saturating_sub(cfg.row_bytes)
                    .min(below - 1)
            } else {
                rng.gen_range(0..below)
            };
            last
        });
        let edges =
            (1..below / cfg.row_bytes).flat_map(|r| [r * cfg.row_bytes - 1, r * cfg.row_bytes]);
        for addr in random.chain(edges) {
            assert_eq!(
                d.access(PhysAddr::new(addr), false),
                reference.access(addr),
                "address {addr:#x}"
            );
            assert_eq!(d.row_hits, reference.row_hits, "address {addr:#x}");
        }
        assert!(d.row_hits > 100_000, "rows hit: {}", d.row_hits);
    }

    #[test]
    #[should_panic(expected = "bank count must be a power of two")]
    fn non_power_of_two_banks_rejected() {
        Dram::new(DramConfig {
            banks: 12,
            ..DramConfig::ddr4_2400()
        });
    }

    #[test]
    #[should_panic(expected = "row size must be a power of two")]
    fn non_power_of_two_row_rejected() {
        Dram::new(DramConfig {
            row_bytes: 6000,
            ..DramConfig::ddr4_2400()
        });
    }

    #[test]
    fn stream_bandwidth() {
        let d = Dram::new(DramConfig::ddr4_2400());
        assert_eq!(d.stream_cycles(64), 10); // 64 / 6.4
        assert_eq!(d.stream_cycles(0), 0);
    }
}
