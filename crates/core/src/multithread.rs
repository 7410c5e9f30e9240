//! Multi-threading support (Section III-C).
//!
//! Each software thread owns a stack, tracked by the dirty tracker of
//! whichever logical CPU the thread is scheduled on. On a context
//! switch the OS (1) instructs the tracker to flush the lookup table
//! into the outgoing context's bitmap, (2) overlaps other switch work,
//! (3) polls the quiescence counters, and (4) loads the incoming
//! context's MSR parameters. The paper measures this save/restore at
//! ~870 cycles on average.
//!
//! Inter-thread stack writes (thread A storing into thread B's stack)
//! are rare; Prosper handles them by keeping cross-stack mappings
//! read-only so such writes fault into the OS, which sets the victim
//! thread's bitmap bits before allowing the write (the
//! privilege-separation design of Wang et al. cited by the paper).

use std::collections::HashMap;
use std::sync::Arc;

use prosper_gemos::crash::{CrashInjected, CrashSite, FaultInjector};
use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::machine::Machine;
use prosper_memsim::Cycles;
use prosper_telemetry::{Stall, StallAccountant, StallCause};

use crate::msr::{MsrBank, MSR_READ_CYCLES, MSR_WRITE_CYCLES};
use crate::tracker::{DirtyTracker, TrackerConfig};

/// Cycles to drain one lookup-table entry at switch-out (issue the
/// load/store pair and account it in the outstanding counters).
const PER_ENTRY_FLUSH_CYCLES: Cycles = 24;

/// Cost of a cross-stack write fault: trap, bitmap update, permission
/// grant, return (thousands of cycles on real hardware).
pub const CROSS_STACK_FAULT_CYCLES: Cycles = 3_000;

/// Per-thread Prosper context as saved/restored by the OS.
#[derive(Clone, Copy, Debug)]
pub struct ThreadTrackerState {
    /// Saved MSR programming.
    pub msrs: MsrBank,
    /// Bitmap base assigned to this thread.
    pub bitmap_base: VirtAddr,
}

/// Manages per-thread tracker state on one logical CPU.
#[derive(Debug)]
pub struct MultiThreadTracker {
    /// The physical tracker of this logical CPU.
    tracker: DirtyTracker,
    /// Saved state per software thread.
    saved: HashMap<u32, ThreadTrackerState>,
    /// Stack range per thread (for cross-stack classification).
    stack_ranges: HashMap<u32, VirtRange>,
    /// Currently-running thread.
    current: Option<u32>,
    /// Cross-stack write faults taken.
    pub cross_stack_faults: u64,
    /// Scratch: bitmap ops the tracker emits for one store.
    store_ops: Vec<crate::lookup::BitmapOp>,
    /// Scratch: load addresses of the current injected-op batch.
    op_loads: Vec<u64>,
    /// Scratch: store addresses of the current injected-op batch.
    op_stores: Vec<u64>,
    /// Stall attribution sink for the quiescence handshake, if wired.
    attribution: Option<Arc<StallAccountant>>,
}

impl MultiThreadTracker {
    /// Builds a multiplexer over one hardware tracker.
    pub fn new(cfg: TrackerConfig) -> Self {
        Self {
            tracker: DirtyTracker::new(cfg),
            saved: HashMap::new(),
            stack_ranges: HashMap::new(),
            current: None,
            cross_stack_faults: 0,
            store_ops: Vec::new(),
            op_loads: Vec::new(),
            op_stores: Vec::new(),
            attribution: None,
        }
    }

    /// Wires a stall accountant into the quiescence handshake: every
    /// switch-out flush is charged to the *outgoing* thread as a
    /// `Quiesce`-cause segment (with a matching window), advancing the
    /// accountant's virtual clock by the simulated cycle cost
    /// (1 cycle = 1 virtual ns).
    pub fn set_attribution(&mut self, acct: Arc<StallAccountant>) {
        self.attribution = Some(acct);
    }

    /// Charges one quiescence handshake of `cycles` simulated cycles
    /// to thread `tid`.
    fn attribute_quiesce(&self, tid: u32, cycles: Cycles) {
        let tids = [tid];
        let mut stall = Stall::open(self.attribution.as_deref(), &tids, 0, StallCause::Quiesce);
        stall.end(|_| cycles, None);
        stall.close();
    }

    /// Injects drained bitmap ops as batched background traffic.
    fn inject_ops(&mut self, machine: &mut Machine, ops: &[crate::lookup::BitmapOp]) {
        if ops.is_empty() {
            return;
        }
        crate::lookup::partition_ops(ops, &mut self.op_loads, &mut self.op_stores);
        machine.inject_load_batch(&self.op_loads, 4);
        machine.inject_store_batch(&self.op_stores, 4);
    }

    /// Registers thread `tid` with its stack range and per-thread
    /// bitmap area.
    pub fn register_thread(&mut self, tid: u32, stack: VirtRange, bitmap_base: VirtAddr) {
        self.stack_ranges.insert(tid, stack);
        let mut msrs = MsrBank::default();
        msrs.write(crate::msr::MsrId::StackRangeLo, stack.start().raw());
        msrs.write(crate::msr::MsrId::StackRangeHi, stack.end().raw());
        msrs.write(
            crate::msr::MsrId::Granularity,
            self.tracker.config().granularity,
        );
        msrs.write(crate::msr::MsrId::BitmapBase, bitmap_base.raw());
        msrs.write(crate::msr::MsrId::Control, crate::msr::CTRL_ENABLE);
        self.saved
            .insert(tid, ThreadTrackerState { msrs, bitmap_base });
    }

    /// Currently-scheduled thread, if any.
    pub fn current_thread(&self) -> Option<u32> {
        self.current
    }

    /// The underlying tracker.
    pub fn tracker(&self) -> &DirtyTracker {
        &self.tracker
    }

    /// Mutable tracker access (for checkpoint-time inspection).
    pub fn tracker_mut(&mut self) -> &mut DirtyTracker {
        &mut self.tracker
    }

    /// Schedules thread `tid` onto this CPU, performing the full
    /// save/restore protocol. Returns the Prosper-added cycles.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not registered.
    pub fn schedule(&mut self, machine: &mut Machine, tid: u32) -> Cycles {
        self.schedule_with_faults(machine, tid, &mut FaultInjector::disabled())
            .expect("a disabled injector never fires")
    }

    /// [`Self::schedule`] with crash windows inside the save/restore
    /// protocol: after the lookup-table flush but before the outgoing
    /// MSR state is saved ([`CrashSite::MidSwitchSave`]), and after
    /// the incoming MSRs are restored but before the switch completes
    /// ([`CrashSite::MidSwitchRestore`]). A crash there loses only
    /// volatile tracker state — the fault-injection harness asserts
    /// that a restarted tracker plus process recovery still yield a
    /// coherent checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`CrashInjected`] if the injector fired.
    ///
    /// # Panics
    ///
    /// Panics if `tid` was not registered.
    pub fn schedule_with_faults(
        &mut self,
        machine: &mut Machine,
        tid: u32,
        inj: &mut FaultInjector,
    ) -> Result<Cycles, CrashInjected> {
        assert!(self.saved.contains_key(&tid), "thread {tid} not registered");
        let mut cost: Cycles = 0;
        // Switch-out: flush + quiesce + save.
        if let Some(out_tid) = self.current.take() {
            let quiesce = self.flush_and_quiesce(machine);
            self.attribute_quiesce(out_tid, quiesce);
            cost += quiesce;
            inj.cross(CrashSite::MidSwitchSave)?;
            let state = self
                .saved
                .get_mut(&out_tid)
                .expect("current thread is registered");
            state.msrs = self.tracker.save_state();
        }
        // Switch-in: restore the four config MSRs + control.
        let state = self.saved[&tid];
        self.tracker.restore_state(state.msrs);
        self.tracker.reset_watermark();
        let restore = 5 * MSR_WRITE_CYCLES;
        machine.advance(restore);
        cost += restore;
        inj.cross(CrashSite::MidSwitchRestore)?;
        self.current = Some(tid);
        Ok(cost)
    }

    fn flush_and_quiesce(&mut self, machine: &mut Machine) -> Cycles {
        let start_entries = self.tracker.resident_entries() as u64;
        // Flush request (control MSR write).
        let mut cost = MSR_WRITE_CYCLES;
        let ops = self
            .tracker
            .flush_with_reason(crate::lookup::FlushReason::ContextSwitch);
        self.inject_ops(machine, &ops);
        cost += start_entries * PER_ENTRY_FLUSH_CYCLES;
        // Poll the status MSR for quiescence.
        cost += MSR_READ_CYCLES;
        machine.advance(cost - MSR_WRITE_CYCLES); // MSR write charged below
        machine.advance(MSR_WRITE_CYCLES);
        cost
    }

    /// Observes a store by the current thread, routing it to the
    /// tracker or, if it targets another thread's stack, taking the
    /// cross-stack fault path.
    pub fn observe_store(&mut self, machine: &mut Machine, vaddr: VirtAddr, size: u64) {
        let Some(current) = self.current else { return };
        let own_range = self.stack_ranges[&current];
        if own_range.overlaps_access(vaddr, size) {
            let mut ops = std::mem::take(&mut self.store_ops);
            ops.clear();
            self.tracker.observe_store(vaddr, size, &mut ops);
            self.inject_ops(machine, &ops);
            self.store_ops = ops;
            return;
        }
        // Another thread's stack? Fault into the OS, which sets the
        // victim's bitmap bits directly and grants the write.
        let victim = self
            .stack_ranges
            .iter()
            .find(|(tid, r)| **tid != current && r.overlaps_access(vaddr, size));
        if victim.is_some() {
            self.cross_stack_faults += 1;
            machine.advance(CROSS_STACK_FAULT_CYCLES);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prosper_memsim::config::MachineConfig;

    fn setup() -> (MultiThreadTracker, Machine, VirtRange, VirtRange) {
        let mut mt = MultiThreadTracker::new(TrackerConfig::default());
        let s0 = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7080_0000));
        let s1 = VirtRange::new(VirtAddr::new(0x7100_0000), VirtAddr::new(0x7180_0000));
        mt.register_thread(0, s0, VirtAddr::new(0x1000_0000));
        mt.register_thread(1, s1, VirtAddr::new(0x1100_0000));
        (mt, Machine::new(MachineConfig::setup_i()), s0, s1)
    }

    #[test]
    fn schedule_switches_tracked_range() {
        let (mut mt, mut machine, s0, s1) = setup();
        mt.schedule(&mut machine, 0);
        assert_eq!(mt.tracker().msrs().tracked_range(), s0);
        mt.schedule(&mut machine, 1);
        assert_eq!(mt.tracker().msrs().tracked_range(), s1);
        assert_eq!(mt.current_thread(), Some(1));
    }

    #[test]
    fn switch_cost_grows_with_resident_entries() {
        let (mut mt, mut machine, s0, _) = setup();
        mt.schedule(&mut machine, 0);
        let empty_cost = mt.schedule(&mut machine, 1);
        mt.schedule(&mut machine, 0);
        // Dirty many distinct bitmap words so the table fills.
        for i in 0..16u64 {
            mt.observe_store(&mut machine, s0.start() + i * 256, 8);
        }
        let full_cost = mt.schedule(&mut machine, 1);
        assert!(
            full_cost > empty_cost,
            "flush of a full table costs more: {full_cost} vs {empty_cost}"
        );
    }

    #[test]
    fn switch_cost_in_paper_ballpark() {
        // The paper reports ~870 cycles average save/restore overhead.
        let (mut mt, mut machine, s0, s1) = setup();
        mt.schedule(&mut machine, 0);
        let mut total = 0;
        let mut switches = 0;
        for round in 0..20u64 {
            let (range, tid) = if round % 2 == 0 { (s0, 0) } else { (s1, 1) };
            let _ = tid;
            for i in 0..24u64 {
                mt.observe_store(&mut machine, range.start() + (i * 64) % 4096, 8);
            }
            let next = 1 - mt.current_thread().unwrap();
            total += mt.schedule(&mut machine, next);
            switches += 1;
        }
        let mean = total as f64 / switches as f64;
        assert!(
            (400.0..1600.0).contains(&mean),
            "mean switch overhead {mean} cycles (paper: ~870)"
        );
    }

    #[test]
    fn per_thread_bitmaps_stay_separate() {
        let (mut mt, mut machine, s0, s1) = setup();
        mt.schedule(&mut machine, 0);
        mt.observe_store(&mut machine, s0.start() + 8, 8);
        mt.schedule(&mut machine, 1);
        mt.observe_store(&mut machine, s1.start() + 8, 8);
        mt.schedule(&mut machine, 0);
        // Both threads' bits live in the shared functional bitmap but
        // at their own bitmap bases.
        mt.tracker_mut().flush();
        let bits = mt.tracker().bitmap().total_set_bits();
        assert_eq!(bits, 2);
    }

    #[test]
    fn cross_stack_write_faults() {
        let (mut mt, mut machine, _s0, s1) = setup();
        mt.schedule(&mut machine, 0);
        let before = machine.now();
        mt.observe_store(&mut machine, s1.start() + 16, 8);
        assert_eq!(mt.cross_stack_faults, 1);
        assert!(machine.now() - before >= CROSS_STACK_FAULT_CYCLES);
    }

    #[test]
    fn store_to_unmapped_region_ignored() {
        let (mut mt, mut machine, _, _) = setup();
        mt.schedule(&mut machine, 0);
        mt.observe_store(&mut machine, VirtAddr::new(0x100), 8);
        assert_eq!(mt.cross_stack_faults, 0);
        assert_eq!(mt.tracker().soi_count, 0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn scheduling_unknown_thread_panics() {
        let (mut mt, mut machine, _, _) = setup();
        mt.schedule(&mut machine, 9);
    }

    #[test]
    fn crash_mid_switch_save_leaves_no_current_thread() {
        use prosper_gemos::crash::{CrashSite, FaultInjector};
        let (mut mt, mut machine, s0, _) = setup();
        mt.schedule(&mut machine, 0);
        mt.observe_store(&mut machine, s0.start() + 8, 8);
        let err = mt
            .schedule_with_faults(
                &mut machine,
                1,
                &mut FaultInjector::at_site(CrashSite::MidSwitchSave),
            )
            .unwrap_err();
        assert_eq!(err.site, CrashSite::MidSwitchSave);
        // The flush completed but the switch never did: the crashed
        // CPU has no scheduled thread, and a fresh schedule works.
        assert_eq!(mt.current_thread(), None);
        mt.schedule(&mut machine, 1);
        assert_eq!(mt.current_thread(), Some(1));
    }
}
