//! SSP: sub-page shadow paging at cache-line granularity, as the
//! paper implements it for comparison (Section IV-A).
//!
//! SSP maintains **two physical pages per virtual page** in NVM and
//! redirects modifications between them at cache-line granularity
//! using hardware-assisted line remapping; a per-page line bitmap in
//! an extended TLB records which lines moved. A background **OS
//! consolidation thread** periodically merges the two physical pages
//! of inactive virtual pages (the invocation interval — 10 µs, 100 µs,
//! or 1 ms — is swept in Figures 8 and 9 because the original paper
//! does not specify it). At the end of each consistency interval SSP
//! writes back modified lines with `clwb`, sends the updated TLB
//! bitmap to the SSP cache, and applies it to the commit bitmap in
//! NVM.

use std::collections::BTreeMap;

use prosper_gemos::checkpoint::{CheckpointOutcome, IntervalInfo, MemoryPersistence};
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::machine::Machine;
use prosper_memsim::{Cycles, CACHE_LINE, PAGE_SIZE};
use prosper_trace::record::MemAccess;

/// Cycles the consolidation thread spends per page merge besides the
/// data movement itself (page-table fix-up, bookkeeping).
const PER_PAGE_MERGE_CYCLES: Cycles = 400;

/// Cycles to update the commit bitmap in NVM per page at interval end.
const PER_PAGE_COMMIT_CYCLES: Cycles = 80;

/// Per-page SSP state.
#[derive(Clone, Copy, Default, Debug)]
struct PageState {
    /// Lines modified since the page's last consolidation (bit per
    /// line).
    dirty_lines: u64,
    /// Interval sequence of the last write (recency for the
    /// inactive-page test).
    last_write_tick: u64,
}

/// The SSP mechanism.
#[derive(Debug)]
pub struct SspMechanism {
    /// Consolidation-thread invocation interval in cycles.
    consolidation_cycles: Cycles,
    /// Next consolidation deadline (absolute machine cycles).
    next_consolidation: Cycles,
    pages: BTreeMap<u64, PageState>,
    /// Pages with a non-empty line bitmap (keeps consolidation and
    /// commit O(dirty) instead of O(mapped)).
    dirty_pages: std::collections::BTreeSet<u64>,
    tick: u64,
    /// Pages merged by the consolidation thread across the run.
    pub pages_consolidated: u64,
    /// Lines written back at commits across the run.
    pub lines_committed: u64,
}

impl SspMechanism {
    /// Creates SSP with the given consolidation-thread interval in
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `consolidation_cycles` is zero.
    pub fn new(consolidation_cycles: Cycles) -> Self {
        assert!(
            consolidation_cycles > 0,
            "consolidation interval must be positive"
        );
        Self {
            consolidation_cycles,
            next_consolidation: consolidation_cycles,
            pages: BTreeMap::new(),
            dirty_pages: std::collections::BTreeSet::new(),
            tick: 0,
            pages_consolidated: 0,
            lines_committed: 0,
        }
    }

    /// SSP with a 10 µs consolidation interval (30 k cycles at 3 GHz).
    pub fn with_10us() -> Self {
        Self::new(30_000)
    }

    /// SSP with a 100 µs consolidation interval.
    pub fn with_100us() -> Self {
        Self::new(300_000)
    }

    /// SSP with a 1 ms consolidation interval.
    pub fn with_1ms() -> Self {
        Self::new(3_000_000)
    }

    /// Display name including the interval, as in Figure 8.
    pub fn variant_name(&self) -> &'static str {
        match self.consolidation_cycles {
            30_000 => "SSP-10us",
            300_000 => "SSP-100us",
            3_000_000 => "SSP-1ms",
            _ => "SSP",
        }
    }

    /// Runs the consolidation thread if its deadline passed. Inactive
    /// pages (not written in the current tick) have their two physical
    /// pages merged: the dirty lines are copied within NVM and the
    /// page's bitmap resets.
    ///
    /// Catch-up is bounded: an OS thread that overruns its period does
    /// not queue invocations, it just runs late. Without the bound the
    /// wakeup cost (≥ the scaled 10 µs period) would make the deadline
    /// unreachable and the loop would never exit.
    fn maybe_consolidate(&mut self, machine: &mut Machine) {
        let mut passes = 0;
        while machine.now() >= self.next_consolidation && passes < 2 {
            passes += 1;
            self.next_consolidation += self.consolidation_cycles;
            let current_tick = self.tick;
            let mut merged_lines = 0u64;
            let mut merged_pages = 0u64;
            self.dirty_pages.retain(|page| {
                let state = self
                    .pages
                    .get_mut(page)
                    .expect("dirty set only holds mapped pages");
                if state.dirty_lines != 0 && state.last_write_tick < current_tick {
                    merged_lines += u64::from(state.dirty_lines.count_ones());
                    state.dirty_lines = 0;
                    merged_pages += 1;
                    false
                } else {
                    true
                }
            });
            if merged_pages > 0 {
                self.pages_consolidated += merged_pages;
                // The merge itself moves lines inside NVM and, being an
                // OS thread sharing the core complex, interferes with
                // the application: the page-table fix-up is charged to
                // the core while the data movement occupies the bus.
                machine.advance(merged_pages * PER_PAGE_MERGE_CYCLES);
                for i in 0..merged_lines {
                    machine.persist_write(machine.nvm_base() + (i % 1024) * CACHE_LINE, CACHE_LINE);
                }
            }
            // Even an idle invocation costs the wakeup + scan.
            machine.advance(60 + self.dirty_pages.len() as u64 / 16);
            self.tick += 1;
        }
        // Missed invocations are skipped, not queued.
        if machine.now() >= self.next_consolidation {
            self.next_consolidation = machine.now() + self.consolidation_cycles;
        }
    }
}

impl MemoryPersistence for SspMechanism {
    fn name(&self) -> &'static str {
        self.variant_name()
    }

    fn begin_interval(&mut self, _machine: &mut Machine, _region: VirtRange) {}

    fn on_store(&mut self, machine: &mut Machine, access: &MemAccess) {
        // Catch up the consolidation thread first so a deadline that
        // elapsed before this store does not see the store itself.
        self.maybe_consolidate(machine);
        let page = access.vaddr.page_number();
        let line = (access.vaddr.page_offset()) / CACHE_LINE;
        let tick = self.tick;
        let state = self.pages.entry(page).or_default();
        state.dirty_lines |= 1 << line;
        state.last_write_tick = tick;
        self.dirty_pages.insert(page);
    }

    fn end_interval(&mut self, machine: &mut Machine, _info: IntervalInfo) -> CheckpointOutcome {
        let start = machine.now();
        // Commit: clwb every modified line, push the TLB bitmaps to the
        // SSP cache, and apply them to the commit bitmap in NVM.
        let mut lines = 0u64;
        let mut touched_pages = 0u64;
        let meta_start = machine.now();
        for page in std::mem::take(&mut self.dirty_pages) {
            let state = self
                .pages
                .get_mut(&page)
                .expect("dirty set only holds mapped pages");
            if state.dirty_lines == 0 {
                continue;
            }
            touched_pages += 1;
            let base = VirtAddr::new(page * PAGE_SIZE);
            let mut bits = state.dirty_lines;
            while bits != 0 {
                let line = bits.trailing_zeros() as u64;
                bits &= bits - 1;
                machine.clwb(base + line * CACHE_LINE);
                // The written-back line lands in the NVM shadow page.
                let shadow =
                    machine.nvm_base() + (page * PAGE_SIZE + line * CACHE_LINE) % (1 << 24);
                machine.persist_write(shadow, CACHE_LINE);
                lines += 1;
            }
            state.dirty_lines = 0;
        }
        machine.advance(touched_pages * PER_PAGE_COMMIT_CYCLES);
        let metadata_cycles = machine.now() - meta_start;
        self.lines_committed += lines;

        let bytes = lines * CACHE_LINE;
        if bytes > 0 {
            // Applying the commit bitmap persists the lines in NVM.
            machine.bulk_copy_nvm_to_nvm(touched_pages * 8);
        }

        CheckpointOutcome {
            bytes_copied: bytes,
            cycles: machine.now() - start,
            metadata_cycles,
        }
    }

    /// SSP's shadow pages live in NVM (Table I).
    fn region_in_dram(&self) -> bool {
        false
    }

    /// The store hook reads the clock to run the consolidation thread
    /// on schedule, so SSP replays inline.
    fn store_hook_only_posts(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_gemos::checkpoint::CheckpointManager;
    use prosper_memsim::config::MachineConfig;
    use prosper_trace::micro::{MicroBench, MicroSpec};
    use prosper_trace::workloads::{Workload, WorkloadProfile};

    fn run(mut mech: SspMechanism, intervals: u64) -> (SspMechanism, u64) {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 60_000);
        let w = Workload::new(WorkloadProfile::gapbs_pr(), 7);
        let res = mgr.run_stack_only(w, &mut mech, intervals);
        (mech, res.total_cycles)
    }

    #[test]
    fn commits_at_line_granularity() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mgr = CheckpointManager::new(&mut machine, 30_000);
        let mut mech = SspMechanism::with_1ms();
        let bench = MicroBench::new(MicroSpec::Sparse { pages: 8 }, 7);
        let res = mgr.run_stack_only(bench, &mut mech, 2);
        assert!(res.bytes_copied > 0);
        assert_eq!(res.bytes_copied % CACHE_LINE, 0);
        // Line granularity beats page granularity for sparse writes...
        assert!(res.bytes_copied < 2 * 8 * PAGE_SIZE);
    }

    #[test]
    fn faster_consolidation_costs_more() {
        let (m10, c10) = run(SspMechanism::with_10us(), 5);
        let (m1ms, c1ms) = run(SspMechanism::with_1ms(), 5);
        assert!(
            c10 > c1ms,
            "SSP-10us {c10} must exceed SSP-1ms {c1ms} (Fig. 8 trend)"
        );
        assert!(m10.pages_consolidated >= m1ms.pages_consolidated);
    }

    #[test]
    fn variant_names_match_figures() {
        assert_eq!(SspMechanism::with_10us().variant_name(), "SSP-10us");
        assert_eq!(SspMechanism::with_100us().variant_name(), "SSP-100us");
        assert_eq!(SspMechanism::with_1ms().variant_name(), "SSP-1ms");
        assert_eq!(SspMechanism::new(123).variant_name(), "SSP");
    }

    #[test]
    fn consolidation_skips_active_pages() {
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut mech = SspMechanism::new(1_000);
        let region = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000));
        mech.begin_interval(&mut machine, region);
        let store = |mech: &mut SspMechanism, machine: &mut Machine, addr: u64| {
            let a = MemAccess {
                tid: 0,
                kind: prosper_trace::record::AccessKind::Store,
                vaddr: VirtAddr::new(addr),
                size: 8,
                region: prosper_trace::record::Region::Stack,
                sp: VirtAddr::new(addr),
            };
            mech.on_store(machine, &a);
        };
        // Write page A, advance past a consolidation deadline, write
        // page B: A is inactive and consolidates, B is current-tick.
        store(&mut mech, &mut machine, 0x7000_0000);
        machine.advance(2_000);
        store(&mut mech, &mut machine, 0x7000_1000);
        assert_eq!(mech.pages_consolidated, 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        SspMechanism::new(0);
    }
}
