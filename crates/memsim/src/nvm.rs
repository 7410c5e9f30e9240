//! PCM-like NVM device model with a bounded write buffer.
//!
//! The paper's Table II configures gem5's NVM interface with PCM timing
//! parameters, a 48-entry write buffer, and a 64-entry read buffer
//! (not modelled: the blocking core has one read outstanding at most).
//! The write buffer lets short write bursts complete at buffer-insert
//! speed, but a sustained write stream (for example, a checkpoint copy
//! or a per-store `clwb` policy like the flush baseline in Figure 3)
//! drains at the slow PCM array write latency and backs up, stalling
//! the core.
//! That asymmetry is the key driver of the paper's "keep the stack in
//! DRAM, checkpoint into NVM" argument, so we model it explicitly with
//! a drain-rate occupancy model.

use std::collections::BTreeMap;

use crate::addr::PhysAddr;
use crate::config::NvmConfig;
use crate::Cycles;

/// Lines in the 1 MiB window that bulk checkpoint copies rotate over
/// (checkpoint areas recycle).
const BULK_WINDOW_LINES: u64 = (1 << 20) / 64;

/// Per-line wear statistics — PCM cells endure a bounded number of
/// writes, which is the endurance concern the paper raises against
/// keeping the write-intensive stack in NVM (Section II).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct WearStats {
    /// Total line writes absorbed by the device.
    pub total_line_writes: u64,
    /// Writes to the most-written line.
    pub max_line_writes: u64,
    /// Distinct lines ever written.
    pub distinct_lines: u64,
}

/// An NVM device.
#[derive(Clone, Debug)]
pub struct Nvm {
    cfg: NvmConfig,
    /// Occupancy of the write buffer in entries (line-sized writes),
    /// valid as of `last_now`.
    write_occupancy: f64,
    last_now: Cycles,
    /// Line reads served.
    pub reads: u64,
    /// Line writes absorbed.
    pub writes: u64,
    /// Cycles callers were stalled on a full write buffer.
    pub write_stall_cycles: Cycles,
    /// Per-line write counts of [`Self::write`] (sparse).
    wear: BTreeMap<u64, u64>,
    /// Lines written by bulk copies so far. Bulk checkpoint areas are
    /// written sequentially in practice, so line `i` of the stream
    /// lands on window line `i % BULK_WINDOW_LINES` and the window's
    /// wear follows from this count alone.
    bulk_cursor: u64,
}

impl Nvm {
    /// Builds an idle device.
    pub fn new(cfg: NvmConfig) -> Self {
        Self {
            cfg,
            write_occupancy: 0.0,
            last_now: 0,
            reads: 0,
            writes: 0,
            write_stall_cycles: 0,
            wear: BTreeMap::new(),
            bulk_cursor: 0,
        }
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &NvmConfig {
        &self.cfg
    }

    /// Advances internal occupancy bookkeeping to `now`.
    fn drain_to(&mut self, now: Cycles) {
        if now <= self.last_now {
            return;
        }
        let elapsed = (now - self.last_now) as f64;
        // One buffered line write retires every `write_latency` cycles.
        let drained = elapsed / self.cfg.write_latency as f64;
        self.write_occupancy = (self.write_occupancy - drained).max(0.0);
        self.last_now = now;
    }

    /// Services a line read issued at absolute cycle `now`; returns its
    /// latency.
    pub fn read(&mut self, now: Cycles, _addr: PhysAddr) -> Cycles {
        self.drain_to(now);
        self.reads += 1;
        self.cfg.read_latency
    }

    /// Accepts a line write issued at absolute cycle `now`; returns the
    /// latency visible to the issuer.
    ///
    /// If the write buffer has room, the visible latency is a cheap
    /// buffer insert; if it is full, the issuer stalls until an entry
    /// drains at the array write latency.
    pub fn write(&mut self, now: Cycles, addr: PhysAddr) -> Cycles {
        self.drain_to(now);
        self.writes += 1;
        *self.wear.entry(addr.cache_line().raw()).or_insert(0) += 1;
        const BUFFER_INSERT: Cycles = 30;
        if (self.write_occupancy as u32) < self.cfg.write_buffer {
            self.write_occupancy += 1.0;
            BUFFER_INSERT
        } else {
            // Must wait for one entry to drain.
            let stall = self.cfg.write_latency;
            self.write_stall_cycles += stall;
            // Occupancy stays pinned at the buffer limit.
            stall + BUFFER_INSERT
        }
    }

    /// Cycles to persist `bytes` as a sustained (pipelined) write
    /// stream, e.g. a checkpoint copy. Bounded by write bandwidth.
    pub fn stream_write_cycles(&self, bytes: u64) -> Cycles {
        (bytes as f64 / self.cfg.write_bytes_per_cycle).ceil() as Cycles
    }

    /// Cycles to fetch `bytes` as a sustained read stream.
    pub fn stream_read_cycles(&self, bytes: u64) -> Cycles {
        (bytes as f64 / self.cfg.read_bytes_per_cycle).ceil() as Cycles
    }

    /// Current (approximate) write-buffer occupancy in entries.
    pub fn write_buffer_occupancy(&self) -> u32 {
        self.write_occupancy as u32
    }

    /// Records the wear of a sequential bulk write of `bytes`
    /// (checkpoint copies stream into staging/persistent areas) and
    /// counts the line writes on the device.
    pub fn record_bulk_write(&mut self, bytes: u64) {
        let lines = bytes.div_ceil(64);
        self.writes += lines;
        self.bulk_cursor += lines;
    }

    /// Wear statistics accumulated so far.
    ///
    /// The bulk window is disjoint from the lines [`Self::write`]
    /// reaches. After `c` bulk line writes every window line holds
    /// `c / BULK_WINDOW_LINES` writes and the first `c %
    /// BULK_WINDOW_LINES` one more, so the window adds `c` writes,
    /// a hottest line of `⌈c / BULK_WINDOW_LINES⌉` and
    /// `min(c, BULK_WINDOW_LINES)` distinct lines.
    pub fn wear_stats(&self) -> WearStats {
        let c = self.bulk_cursor;
        WearStats {
            total_line_writes: self.wear.values().sum::<u64>() + c,
            max_line_writes: self
                .wear
                .values()
                .copied()
                .max()
                .unwrap_or(0)
                .max(c.div_ceil(BULK_WINDOW_LINES)),
            distinct_lines: self.wear.len() as u64 + c.min(BULK_WINDOW_LINES),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_writes_absorb_in_buffer() {
        let mut n = Nvm::new(NvmConfig::pcm());
        let mut total = 0;
        for i in 0..48 {
            total += n.write(i, PhysAddr::new(i * 64));
        }
        // All absorbed at insert cost, no stalls.
        assert_eq!(n.write_stall_cycles, 0);
        assert!(total < 48 * 100);
    }

    #[test]
    fn sustained_writes_stall_on_full_buffer() {
        let mut n = Nvm::new(NvmConfig::pcm());
        // Issue writes back-to-back (no time passes => no draining).
        for _ in 0..48 {
            n.write(0, PhysAddr::new(0));
        }
        let lat = n.write(0, PhysAddr::new(0));
        assert!(lat >= NvmConfig::pcm().write_latency);
        assert!(n.write_stall_cycles > 0);
    }

    #[test]
    fn buffer_drains_over_time() {
        let mut n = Nvm::new(NvmConfig::pcm());
        for _ in 0..48 {
            n.write(0, PhysAddr::new(0));
        }
        assert_eq!(n.write_buffer_occupancy(), 48);
        // After 10 write latencies, ~10 entries drained.
        let later = 10 * NvmConfig::pcm().write_latency;
        n.read(later, PhysAddr::new(0));
        assert!(n.write_buffer_occupancy() <= 38);
    }

    #[test]
    fn read_latency_fixed() {
        let mut n = Nvm::new(NvmConfig::pcm());
        assert_eq!(n.read(0, PhysAddr::new(0)), NvmConfig::pcm().read_latency);
        assert_eq!(n.reads, 1);
    }

    #[test]
    fn wear_tracks_per_line_writes() {
        let mut n = Nvm::new(NvmConfig::pcm());
        for _ in 0..5 {
            n.write(0, PhysAddr::new(0x100));
        }
        n.write(0, PhysAddr::new(0x1000));
        let w = n.wear_stats();
        assert_eq!(w.total_line_writes, 6);
        assert_eq!(w.max_line_writes, 5);
        assert_eq!(w.distinct_lines, 2);
    }

    #[test]
    fn bulk_wear_rotates_over_window() {
        let mut n = Nvm::new(NvmConfig::pcm());
        n.record_bulk_write(64 * 100);
        let w = n.wear_stats();
        assert_eq!(w.total_line_writes, 100);
        assert_eq!(w.max_line_writes, 1, "sequential area spreads wear");
        assert_eq!(w.distinct_lines, 100);
        assert_eq!(n.writes, 100);
    }

    #[test]
    fn bulk_wear_wraps_after_window() {
        let mut n = Nvm::new(NvmConfig::pcm());
        n.record_bulk_write(64 * (BULK_WINDOW_LINES + 10));
        let w = n.wear_stats();
        assert_eq!(w.max_line_writes, 2, "wrapped lines written twice");
        assert_eq!(w.distinct_lines, BULK_WINDOW_LINES);
    }

    #[test]
    fn empty_device_has_no_wear() {
        let n = Nvm::new(NvmConfig::pcm());
        assert_eq!(n.wear_stats(), WearStats::default());
    }

    #[test]
    fn stream_cycles_scale_with_bytes() {
        let n = Nvm::new(NvmConfig::pcm());
        assert!(n.stream_write_cycles(4096) > n.stream_write_cycles(64));
        assert!(n.stream_write_cycles(4096) > n.stream_read_cycles(4096));
        assert_eq!(n.stream_write_cycles(0), 0);
    }
}
