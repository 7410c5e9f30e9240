//! The simulated machine: a blocking core in front of the cache
//! hierarchy and the hybrid memory controller.
//!
//! Two access classes exist:
//!
//! * **Demand** accesses ([`Machine::load`] / [`Machine::store`])
//!   advance the core clock by their visible latency.
//! * **Injected** accesses ([`Machine::inject_load`] /
//!   [`Machine::inject_store`]) model traffic generated by hardware
//!   off the critical path — the Prosper tracker's bitmap loads and
//!   stores, Romulus's log writes, SSP's consolidation thread. They do
//!   not advance the core clock directly, but they occupy memory-bus
//!   transfer slots and pollute the caches, so demand misses queue
//!   behind them. This is exactly the interference channel the paper
//!   measures in Figure 12.
//!
//! # The posting window
//!
//! A [`Machine`] is a front end (configuration and address
//! translation) over the *model state* that every access reads or
//! writes: the hierarchy, the memory controller, the clock, the bus,
//! the counters and the NVM phase tally. Inside
//! [`Machine::with_worker`] one scoped worker thread can hold the model
//! state. Between [`Machine::open_window`] and
//! [`Machine::close_window`], each call whose result nobody reads —
//! [`Machine::advance`], [`Machine::post_load`],
//! [`Machine::post_store`], the `inject_*` calls and
//! [`Machine::persist_write`] — is encoded as one 16-byte operation per
//! access and appended to a batch of 256. Full batches go to
//! the worker through a queue of two, and the worker applies them in
//! order. Closing the window hands over the partial batch and waits
//! until the model state is back. The operations reach the same state
//! in the same order as they would on the calling thread, so every
//! simulated number is identical by construction. Every call that
//! reads model state (`now`, `stats`, `ckpt_nvm_bytes`, a latency, a
//! bulk copy, `clwb`) panics while the window is open.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};

use crate::addr::{PhysAddr, VirtAddr};
use crate::cache::AccessKind;
use crate::config::MachineConfig;
use crate::hierarchy::{Hierarchy, ServedBy};
use crate::memctrl::{Device, MemoryController};
use crate::stats::MemStats;
use crate::{Cycles, CACHE_LINE};

/// Identity-style translator: virtual addresses map into DRAM modulo
/// the DRAM size. Adequate for experiments that never alias.
#[derive(Clone, Copy, Debug)]
pub struct DirectMap {
    dram_bytes: u64,
}

impl DirectMap {
    /// Builds a direct mapping over `dram_bytes` of DRAM.
    pub fn new(dram_bytes: u64) -> Self {
        assert!(dram_bytes > 0, "direct map requires non-empty DRAM");
        Self { dram_bytes }
    }

    /// Maps a virtual address to the physical address backing it.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        PhysAddr::new(vaddr.raw() % self.dram_bytes)
    }
}

/// Bus cycles one line transfer occupies, per device and direction,
/// fixed by the configured bandwidths.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineTransfer {
    dram: Cycles,
    nvm_read: Cycles,
    nvm_write: Cycles,
}

impl LineTransfer {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let cycles = |bytes_per_cycle: f64| (CACHE_LINE as f64 / bytes_per_cycle).ceil() as Cycles;
        Self {
            dram: cycles(cfg.dram.bytes_per_cycle),
            nvm_read: cycles(cfg.nvm.read_bytes_per_cycle),
            nvm_write: cycles(cfg.nvm.write_bytes_per_cycle),
        }
    }

    /// The transfer cycles of one line to or from `device`.
    pub(crate) fn cycles(&self, device: Device, is_write: bool) -> Cycles {
        match device {
            Device::Dram => self.dram,
            Device::Nvm if is_write => self.nvm_write,
            Device::Nvm => self.nvm_read,
        }
    }
}

/// Checkpoint phase a bulk NVM write is charged to, for the
/// write-amplification accounting ([`Machine::ckpt_nvm_bytes`]).
///
/// Write amplification — NVM bytes written divided by dirty bytes — is
/// only meaningful when the writes are split by *why* they happened:
/// the stage copy is proportional to dirty bytes, the seal is a fixed
/// record, the apply rewrites staged bytes a second time in eager
/// mode, and the deferred spine merge rewrites the deduplicated
/// coverage. Tagging each bulk copy with its phase makes the ratio a
/// first-class measured quantity instead of a post-hoc estimate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CkptPhase {
    /// DRAM → NVM staging-buffer copy of dirty runs.
    Stage,
    /// Durability-point record (sequence/commit-record write).
    Seal,
    /// Staging buffer → persistent image copy (eager mode) or
    /// delta-batch append (spine mode).
    Apply,
    /// Deferred spine compaction folding sealed batches.
    Merge,
}

/// NVM bytes written per checkpoint phase (cumulative tally).
///
/// Consumers wanting per-interval figures snapshot the tally at
/// interval boundaries and difference, the same pattern
/// `ProsperMechanism` uses for lookup-table counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct NvmPhaseBytes {
    /// Bytes written by stage copies.
    pub stage: u64,
    /// Bytes written by seal records.
    pub seal: u64,
    /// Bytes written by apply copies / batch appends.
    pub apply: u64,
    /// Bytes written by spine merges.
    pub merge: u64,
}

impl NvmPhaseBytes {
    /// Total NVM bytes across all phases.
    pub fn total(&self) -> u64 {
        self.stage + self.seal + self.apply + self.merge
    }

    /// Per-phase difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &NvmPhaseBytes) -> NvmPhaseBytes {
        NvmPhaseBytes {
            stage: self.stage.saturating_sub(earlier.stage),
            seal: self.seal.saturating_sub(earlier.seal),
            apply: self.apply.saturating_sub(earlier.apply),
            merge: self.merge.saturating_sub(earlier.merge),
        }
    }
}

/// Operations per batch handed to the model worker.
const BATCH_OPS: usize = 256;

/// Full batches the queue to the worker holds before posting blocks.
const QUEUE_BATCHES: usize = 2;

const _: () = assert!(std::mem::size_of::<Op>() == 16);
// At most 16 KiB of operations exist at once: the queued batches, the
// one the worker applies and the one being filled.
const _: () = assert!((QUEUE_BATCHES + 2) * BATCH_OPS * std::mem::size_of::<Op>() <= 16 * 1024);

/// Tries a thread waiting on the queue inside a window makes, with a
/// spin-loop hint between tries, before it blocks. A blocked side costs
/// the other a wake-up (an interrupt to an idle virtual CPU), longer
/// than most waits inside a window; the tries bound the spin.
const SPIN_TRIES: u32 = 1 << 10;

/// Receives, polling [`SPIN_TRIES`] times before blocking; `None` once
/// the sender is gone.
fn recv_spinning<T>(rx: &Receiver<T>) -> Option<T> {
    for _ in 0..SPIN_TRIES {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Empty) => std::hint::spin_loop(),
            Err(TryRecvError::Disconnected) => return None,
        }
    }
    rx.recv().ok()
}

/// Sends, retrying a full queue [`SPIN_TRIES`] times before blocking;
/// `None` once the receiver is gone.
fn send_spinning<T>(tx: &SyncSender<T>, mut msg: T) -> Option<()> {
    for _ in 0..SPIN_TRIES {
        match tx.try_send(msg) {
            Ok(()) => return Some(()),
            Err(TrySendError::Full(m)) => {
                msg = m;
                std::hint::spin_loop();
            }
            Err(TrySendError::Disconnected(_)) => return None,
        }
    }
    tx.send(msg).ok()
}

/// Why reading model state inside a window is rejected.
const WINDOW_OPEN: &str = "memsim: machine state read while a posting window is open; \
     the model worker holds the state until close_window(), so inside the window only \
     advance, post_load, post_store, the inject_* calls and persist_write may run";

/// Why the machine has no model state after its worker died.
const MODEL_LOST: &str = "memsim: the model state was lost when the model worker panicked";

#[cold]
fn missing_model(attached: bool) -> ! {
    panic!("{}", if attached { WINDOW_OPEN } else { MODEL_LOST })
}

/// The size of a posted access, which an operation keeps in 32 bits.
fn posted_size(size: u64) -> u32 {
    u32::try_from(size).expect("memsim: a posted access spans at most u32::MAX bytes")
}

/// One machine call posted inside a window: 16 bytes.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// [`Machine::advance`].
    Advance(Cycles),
    /// [`Machine::post_load`].
    Load(VirtAddr, u32),
    /// [`Machine::post_store`].
    Store(VirtAddr, u32),
    /// One address of [`Machine::inject_load_batch`].
    InjectLoad(VirtAddr, u32),
    /// One address of [`Machine::inject_store_batch`].
    InjectStore(VirtAddr, u32),
    /// [`Machine::persist_write`].
    PersistWrite(PhysAddr, u32),
}

/// The model state: everything a memory operation reads or writes.
#[derive(Debug)]
struct Model {
    hierarchy: Hierarchy,
    ctrl: MemoryController,
    translator: DirectMap,
    transfer: LineTransfer,
    now: Cycles,
    /// Cycle at which the memory bus can accept the next line transfer.
    bus_free: Cycles,
    stats: MemStats,
    /// NVM bytes written per checkpoint phase (cumulative).
    ckpt_nvm: NvmPhaseBytes,
}

impl Model {
    fn new(cfg: &MachineConfig) -> Self {
        Self {
            hierarchy: Hierarchy::new(cfg),
            ctrl: MemoryController::new(cfg.layout, cfg.dram, cfg.nvm),
            translator: DirectMap::new(cfg.layout.dram_bytes),
            transfer: LineTransfer::new(cfg),
            now: 0,
            bus_free: 0,
            stats: MemStats::default(),
            ckpt_nvm: NvmPhaseBytes::default(),
        }
    }

    /// Applies one posted operation.
    fn apply(&mut self, op: Op) {
        match op {
            Op::Advance(cycles) => self.now += cycles,
            Op::Load(vaddr, size) => {
                self.load(vaddr, u64::from(size));
            }
            Op::Store(vaddr, size) => {
                self.store(vaddr, u64::from(size));
            }
            Op::InjectLoad(vaddr, size) => self.inject::<false>(&[vaddr.raw()], u64::from(size)),
            Op::InjectStore(vaddr, size) => self.inject::<true>(&[vaddr.raw()], u64::from(size)),
            Op::PersistWrite(paddr, size) => self.persist_write(paddr, u64::from(size)),
        }
    }

    fn stats(&self) -> MemStats {
        let mut s = self.stats;
        let (l1, l2, l3) = self.hierarchy.level_stats();
        s.l1d = l1;
        s.l2 = l2;
        s.l3 = l3;
        s.dram_reads = self.ctrl.dram().reads;
        s.dram_writes = self.ctrl.dram().writes;
        s.dram_row_hits = self.ctrl.dram().row_hits;
        s.nvm_reads = self.ctrl.nvm().reads;
        s.nvm_writes = self.ctrl.nvm().writes;
        s.nvm_write_stall_cycles = self.ctrl.nvm().write_stall_cycles;
        s.cycles = self.now;
        s
    }

    /// Core latency of one line access that missed to memory, including
    /// bus queueing.
    fn memory_access(&mut self, addr: PhysAddr, is_write: bool, demand: bool) -> Cycles {
        let issue = self.now;
        let start = issue.max(self.bus_free);
        let queue_delay = start - issue;
        let device_latency = self.ctrl.access(start, addr, is_write);
        // The bus is occupied for the data-transfer slot only; the
        // device latency itself is pipelined across banks/buffers.
        self.bus_free = start + self.transfer.cycles(self.ctrl.device_of(addr), is_write);
        if demand {
            queue_delay + device_latency
        } else {
            // Injected traffic is off the critical path; only its bus
            // occupancy (already recorded) interferes with the core.
            0
        }
    }

    /// Runs one line-granular access through hierarchy + memory.
    fn line_access(&mut self, paddr: PhysAddr, kind: AccessKind, demand: bool) -> Cycles {
        let res = self.hierarchy.access(paddr, kind);
        let mut latency = res.cache_latency;
        if res.served_by == ServedBy::Memory {
            latency += self.memory_access(paddr, false, demand);
        }
        // Dirty L3 victims drain to memory in the background: they take
        // bus slots but do not stall the core.
        for wb in res.memory_writebacks.into_iter().flatten() {
            self.memory_access(wb, true, false);
        }
        latency
    }

    fn load(&mut self, vaddr: VirtAddr, size: u64) -> Cycles {
        self.stats.loads += 1;
        let mut total = 0;
        for line in lines_of(vaddr.raw(), size) {
            let paddr = self.translator.translate(VirtAddr::new(line));
            total += self.line_access(paddr, AccessKind::Read, true);
        }
        self.now += total;
        total
    }

    fn store(&mut self, vaddr: VirtAddr, size: u64) -> Cycles {
        self.stats.stores += 1;
        let mut total = 0;
        for line in lines_of(vaddr.raw(), size) {
            let paddr = self.translator.translate(VirtAddr::new(line));
            total += self.line_access(paddr, AccessKind::Write, true);
        }
        self.now += total;
        total
    }

    /// Injects one `size`-byte access per address, stores if `WRITE`
    /// and loads otherwise, with one counter update for all of them.
    fn inject<const WRITE: bool>(&mut self, addrs: &[u64], size: u64) {
        if addrs.is_empty() {
            return;
        }
        let n = addrs.len() as u64;
        let kind = if WRITE {
            self.stats.injected_stores += n;
            AccessKind::Write
        } else {
            self.stats.injected_loads += n;
            AccessKind::Read
        };
        for &addr in addrs {
            for line in lines_of(addr, size) {
                let paddr = self.translator.translate(VirtAddr::new(line));
                self.line_access(paddr, kind, false);
            }
        }
    }

    fn persist_write(&mut self, paddr: PhysAddr, size: u64) {
        self.stats.injected_stores += 1;
        for line in lines_of(paddr.raw(), size) {
            self.memory_access(PhysAddr::new(line), true, false);
        }
    }

    fn clwb(&mut self, vaddr: VirtAddr) -> Cycles {
        let paddr = self.translator.translate(vaddr);
        // clwb itself retires quickly; the write-back is posted.
        let mut latency = 5;
        if self.hierarchy.clwb(paddr) {
            self.memory_access(paddr, true, false);
            // An sfence-ordered clwb to NVM stalls until the device
            // accepts the line; approximate with the bus queue state.
            if self.ctrl.device_of(paddr) == Device::Nvm {
                latency += self.bus_free.saturating_sub(self.now).min(200);
            }
        }
        self.now += latency;
        latency
    }

    /// Charges a bulk copy of `bytes` that the controller prices at
    /// `cycles`: the core clock advances and the bus waits for it.
    fn bulk_copy(&mut self, bytes: u64, cycles: Cycles) -> Cycles {
        self.ctrl.nvm_mut().record_bulk_write(bytes);
        self.now += cycles;
        self.bus_free = self.bus_free.max(self.now);
        cycles
    }

    fn bulk_copy_dram_to_nvm(&mut self, bytes: u64) -> Cycles {
        // Account device traffic at line granularity.
        let lines = bytes.div_ceil(CACHE_LINE);
        self.stats.injected_loads += lines;
        self.stats.injected_stores += lines;
        let cycles = self.ctrl.dram_to_nvm_copy_cycles(bytes);
        self.bulk_copy(bytes, cycles)
    }

    fn bulk_copy_nvm_to_nvm(&mut self, bytes: u64) -> Cycles {
        let cycles = self.ctrl.nvm_to_nvm_copy_cycles(bytes);
        self.bulk_copy(bytes, cycles)
    }

    /// Tallies `bytes` of NVM writes against `phase` in the
    /// write-amplification accounting ([`Machine::ckpt_nvm_bytes`]).
    fn charge_ckpt_nvm(&mut self, phase: CkptPhase, bytes: u64) {
        match phase {
            CkptPhase::Stage => self.ckpt_nvm.stage += bytes,
            CkptPhase::Seal => self.ckpt_nvm.seal += bytes,
            CkptPhase::Apply => self.ckpt_nvm.apply += bytes,
            CkptPhase::Merge => self.ckpt_nvm.merge += bytes,
        }
    }
}

/// The line addresses a `size`-byte access at `addr` touches (one line
/// for a zero-size access).
pub(crate) fn lines_of(addr: u64, size: u64) -> impl Iterator<Item = u64> {
    let first = addr & !(CACHE_LINE - 1);
    let last = if size == 0 {
        first
    } else {
        (addr + size - 1) & !(CACHE_LINE - 1)
    };
    (first..=last).step_by(CACHE_LINE as usize)
}

/// A message to the model worker. A window is one `Open`, its batches
/// and one `Close`.
#[derive(Debug)]
enum ToWorker {
    /// The model state, handed over as the window opens.
    Open(Box<Model>),
    /// Operations to apply in order.
    Batch(Vec<Op>),
    /// Send the model state back.
    Close,
}

/// The model worker: applies each window's batches to the model state
/// it was handed and sends the state back at the close. Returns when
/// the front end drops its end of the queue.
fn serve(work: Receiver<ToWorker>, models: SyncSender<Box<Model>>) {
    let mut model: Option<Box<Model>> = None;
    loop {
        // Inside a window the next batch is usually moments away;
        // between windows (the caller's commit) the worker blocks at once.
        let msg = if model.is_some() {
            recv_spinning(&work)
        } else {
            work.recv().ok()
        };
        let Some(msg) = msg else {
            return;
        };
        match msg {
            ToWorker::Open(m) => model = Some(m),
            ToWorker::Batch(ops) => {
                let m = model
                    .as_deref_mut()
                    .expect("memsim: operations posted outside a window");
                for op in ops {
                    m.apply(op);
                }
            }
            ToWorker::Close => {
                let m = model
                    .take()
                    .expect("memsim: a window closed that was never opened");
                if models.send(m).is_err() {
                    return;
                }
            }
        }
    }
}

/// The front end's end of the queue to an attached model worker.
#[derive(Debug)]
struct Link {
    to_worker: SyncSender<ToWorker>,
    /// The model state, sent back at each close.
    models: Receiver<Box<Model>>,
    /// Operations posted since the last hand-off.
    batch: Vec<Op>,
}

impl Link {
    #[inline]
    fn post(&mut self, op: Op) {
        self.batch.push(op);
        if self.batch.len() == BATCH_OPS {
            self.hand_off();
        }
    }

    /// Sends the full batch and starts an empty one. The new batch is
    /// allocated only once the full one is queued, and the worker drops
    /// each batch it has applied, so at most the queued batches, the one
    /// being applied and the one being filled exist.
    #[cold]
    #[inline(never)]
    fn hand_off(&mut self) {
        let full = std::mem::take(&mut self.batch);
        if send_spinning(&self.to_worker, ToWorker::Batch(full)).is_none() {
            missing_model(false);
        }
        self.batch = Vec::with_capacity(BATCH_OPS);
    }

    /// Hands over the partial batch and the close, then waits for the
    /// model state; `None` if the worker died.
    fn take_back(&mut self) -> Option<Box<Model>> {
        let last = std::mem::take(&mut self.batch);
        if !last.is_empty() {
            send_spinning(&self.to_worker, ToWorker::Batch(last))?;
        }
        send_spinning(&self.to_worker, ToWorker::Close)?;
        recv_spinning(&self.models)
    }
}

/// Detaches the worker when [`Machine::with_worker`]'s closure returns
/// or unwinds.
struct Attached<'a>(&'a mut Machine);

impl Drop for Attached<'_> {
    fn drop(&mut self) {
        // Take the model state back if a window is still open (a
        // panic can leave one open), then drop the queue: the worker's
        // receive fails and it returns, so the scope's join cannot hang.
        self.0.try_close_window();
        self.0.link = None;
    }
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use prosper_memsim::config::MachineConfig;
/// use prosper_memsim::machine::Machine;
/// use prosper_memsim::addr::VirtAddr;
///
/// let mut machine = Machine::new(MachineConfig::setup_i());
/// let cold = machine.load(VirtAddr::new(0x1000), 8); // misses to DRAM
/// let warm = machine.load(VirtAddr::new(0x1000), 8); // L1 hit
/// assert!(cold > warm);
/// assert_eq!(machine.now(), cold + warm);
/// ```
///
/// The same accesses posted through a window reach the same state:
///
/// ```
/// use prosper_memsim::config::MachineConfig;
/// use prosper_memsim::machine::Machine;
/// use prosper_memsim::addr::VirtAddr;
///
/// let mut machine = Machine::new(MachineConfig::setup_i());
/// machine.with_worker(|m| {
///     m.open_window();
///     m.post_load(VirtAddr::new(0x1000), 8);
///     m.post_load(VirtAddr::new(0x1000), 8);
///     m.close_window();
/// });
/// assert_eq!(machine.stats().l1d.hits, 1);
/// ```
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    translator: DirectMap,
    /// The model state; `None` while a window has handed it to the
    /// worker. Kept unboxed so the one-thread path reaches it without
    /// a pointer hop; it is boxed only to travel.
    model: Option<Model>,
    /// The queue to the model worker while [`Machine::with_worker`]
    /// runs.
    link: Option<Link>,
}

impl Machine {
    /// Builds an idle machine whose virtual addresses map directly
    /// into DRAM (see [`DirectMap`]).
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            translator: DirectMap::new(cfg.layout.dram_bytes),
            model: Some(Model::new(&cfg)),
            link: None,
            cfg,
        }
    }

    #[inline]
    fn model(&self) -> &Model {
        match &self.model {
            Some(m) => m,
            None => missing_model(self.link.is_some()),
        }
    }

    #[inline]
    fn model_mut(&mut self) -> &mut Model {
        match &mut self.model {
            Some(m) => m,
            None => missing_model(self.link.is_some()),
        }
    }

    /// The queue a window posts to (only called with the model away).
    fn link_mut(&mut self) -> &mut Link {
        self.link.as_mut().unwrap_or_else(|| missing_model(false))
    }

    /// Posts `op` to the worker (the model is away). Kept out of line
    /// so the inline path of each caller stays as short as it was.
    #[inline(never)]
    fn post(&mut self, op: Op) {
        self.link_mut().post(op);
    }

    /// Runs `f` with a model worker attached: one scoped thread that
    /// holds the model state while a window is open (see the module
    /// docs). The worker is joined before this returns, also when `f`
    /// panics; a window `f` leaves open is closed first.
    ///
    /// # Panics
    ///
    /// Panics if a worker is already attached, or if `f` or the
    /// worker panics.
    pub fn with_worker<R>(&mut self, f: impl FnOnce(&mut Machine) -> R) -> R {
        assert!(
            self.link.is_none(),
            "memsim: a model worker is already attached"
        );
        let (to_worker, work) = sync_channel(QUEUE_BATCHES);
        let (model_tx, models) = sync_channel(1);
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("memsim-model".into())
                .spawn_scoped(scope, move || serve(work, model_tx))
                .expect("memsim: spawn the model worker");
            self.link = Some(Link {
                to_worker,
                models,
                batch: Vec::new(),
            });
            let attached = Attached(self);
            f(&mut *attached.0)
        })
    }

    /// Opens a posting window: the model state goes to the attached
    /// worker, which applies every posted operation in order until
    /// [`Self::close_window`].
    ///
    /// # Panics
    ///
    /// Panics outside [`Self::with_worker`] or if a window is already
    /// open.
    pub fn open_window(&mut self) {
        assert!(
            !self.window_open(),
            "memsim: a posting window is already open"
        );
        let Some(link) = self.link.as_mut() else {
            if self.model.is_none() {
                missing_model(false);
            }
            panic!("memsim: open_window needs a model worker; call it inside Machine::with_worker");
        };
        let model = self.model.take().unwrap_or_else(|| missing_model(false));
        link.batch = Vec::with_capacity(BATCH_OPS);
        if let Err(e) = link.to_worker.send(ToWorker::Open(Box::new(model))) {
            if let ToWorker::Open(model) = e.0 {
                self.model = Some(*model);
            }
            panic!("memsim: the model worker has exited");
        }
    }

    /// Closes the posting window: hands over the last operations and
    /// waits until the worker has applied them and sent the model state
    /// back. Does nothing if no window is open.
    ///
    /// # Panics
    ///
    /// Panics if the worker panicked; the scope of
    /// [`Self::with_worker`] then re-raises the worker's panic.
    pub fn close_window(&mut self) {
        if !self.try_close_window() {
            missing_model(false);
        }
    }

    /// [`Self::close_window`] that reports a lost model instead of
    /// panicking; `true` once the model state is here.
    fn try_close_window(&mut self) -> bool {
        if self.model.is_some() {
            return true;
        }
        match self.link.as_mut().and_then(Link::take_back) {
            Some(model) => {
                self.model = Some(*model);
                true
            }
            None => {
                self.link = None;
                false
            }
        }
    }

    /// `true` while a posting window is open.
    pub fn window_open(&self) -> bool {
        self.model.is_none() && self.link.is_some()
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current core cycle.
    #[inline]
    pub fn now(&self) -> Cycles {
        self.model().now
    }

    /// Snapshot of all counters (cache levels and devices included).
    pub fn stats(&self) -> MemStats {
        self.model().stats()
    }

    /// Advances the core clock by `cycles` of pure compute (no memory
    /// traffic). Posted inside a window.
    #[inline]
    pub fn advance(&mut self, cycles: Cycles) {
        match &mut self.model {
            Some(m) => m.now += cycles,
            None => self.post(Op::Advance(cycles)),
        }
    }

    /// Translates a virtual address to the physical address backing it.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        self.translator.translate(vaddr)
    }

    /// Base physical address of the NVM region.
    pub fn nvm_base(&self) -> PhysAddr {
        self.cfg.layout.nvm_base()
    }

    /// Issues a demand load of `size` bytes at `vaddr`; returns the
    /// visible latency and advances the core clock by it.
    #[inline]
    pub fn load(&mut self, vaddr: VirtAddr, size: u64) -> Cycles {
        self.model_mut().load(vaddr, size)
    }

    /// Issues a demand store of `size` bytes at `vaddr`; returns the
    /// visible latency and advances the core clock by it.
    #[inline]
    pub fn store(&mut self, vaddr: VirtAddr, size: u64) -> Cycles {
        self.model_mut().store(vaddr, size)
    }

    /// [`Self::load`] for a caller that does not read the latency:
    /// posted inside a window.
    #[inline]
    pub fn post_load(&mut self, vaddr: VirtAddr, size: u64) {
        match &mut self.model {
            Some(m) => {
                m.load(vaddr, size);
            }
            None => self.post(Op::Load(vaddr, posted_size(size))),
        }
    }

    /// [`Self::store`] for a caller that does not read the latency:
    /// posted inside a window.
    #[inline]
    pub fn post_store(&mut self, vaddr: VirtAddr, size: u64) {
        match &mut self.model {
            Some(m) => {
                m.store(vaddr, size);
            }
            None => self.post(Op::Store(vaddr, posted_size(size))),
        }
    }

    /// Injects a background load (tracker/off-core traffic) at `vaddr`.
    /// Posted inside a window.
    #[inline]
    pub fn inject_load(&mut self, vaddr: VirtAddr, size: u64) {
        self.inject_batch::<false>(&[vaddr.raw()], size);
    }

    /// Injects a background store at `vaddr`. Posted inside a window.
    #[inline]
    pub fn inject_store(&mut self, vaddr: VirtAddr, size: u64) {
        self.inject_batch::<true>(&[vaddr.raw()], size);
    }

    /// Injects a batch of background loads — one access of `size`
    /// bytes per address. Equivalent to calling [`Self::inject_load`]
    /// per address, but with a single stats update for the whole
    /// batch: the interval flush path drains dozens of lookup-table
    /// entries at once, and per-op bookkeeping was measurable there.
    /// Posted inside a window, one operation per address.
    #[inline]
    pub fn inject_load_batch(&mut self, addrs: &[u64], size: u64) {
        self.inject_batch::<false>(addrs, size);
    }

    /// Injects a batch of background stores — one access of `size`
    /// bytes per address, with a single stats update (see
    /// [`Self::inject_load_batch`]). Posted inside a window.
    #[inline]
    pub fn inject_store_batch(&mut self, addrs: &[u64], size: u64) {
        self.inject_batch::<true>(addrs, size);
    }

    #[inline]
    fn inject_batch<const WRITE: bool>(&mut self, addrs: &[u64], size: u64) {
        match &mut self.model {
            Some(m) => m.inject::<WRITE>(addrs, size),
            None => self.post_injections::<WRITE>(addrs, size),
        }
    }

    /// Posts one injection per address (the model is away).
    #[inline(never)]
    fn post_injections<const WRITE: bool>(&mut self, addrs: &[u64], size: u64) {
        let size = posted_size(size);
        let link = self.link_mut();
        for &addr in addrs {
            let vaddr = VirtAddr::new(addr);
            link.post(if WRITE {
                Op::InjectStore(vaddr, size)
            } else {
                Op::InjectLoad(vaddr, size)
            });
        }
    }

    /// Issues a persist write of `size` bytes at physical address
    /// `paddr` directly to the memory device, bypassing the cache
    /// hierarchy (non-temporal/persist-path semantics used for NVM
    /// shadow pages, logs, and staging buffers). Off the critical
    /// path, but occupies bus transfer slots like any other traffic.
    /// Posted inside a window.
    #[inline]
    pub fn persist_write(&mut self, paddr: PhysAddr, size: u64) {
        match &mut self.model {
            Some(m) => m.persist_write(paddr, size),
            None => self.post(Op::PersistWrite(paddr, posted_size(size))),
        }
    }

    /// Executes a `clwb` on the line containing `vaddr`: the line is
    /// cleaned in all levels and, if it was dirty anywhere, written back
    /// to memory. Returns the visible latency (charged to the core).
    pub fn clwb(&mut self, vaddr: VirtAddr) -> Cycles {
        self.model_mut().clwb(vaddr)
    }

    /// Charges a bulk DRAM→NVM copy of `bytes` (a checkpoint copy).
    /// Returns the cycles consumed; the core clock advances by them.
    pub fn bulk_copy_dram_to_nvm(&mut self, bytes: u64) -> Cycles {
        self.model_mut().bulk_copy_dram_to_nvm(bytes)
    }

    /// Charges a bulk NVM→NVM copy of `bytes` (staging-buffer apply).
    pub fn bulk_copy_nvm_to_nvm(&mut self, bytes: u64) -> Cycles {
        self.model_mut().bulk_copy_nvm_to_nvm(bytes)
    }

    /// [`Machine::bulk_copy_dram_to_nvm`] with the NVM bytes charged
    /// to `phase` in the write-amplification accounting.
    pub fn bulk_copy_dram_to_nvm_phase(&mut self, bytes: u64, phase: CkptPhase) -> Cycles {
        let m = self.model_mut();
        let cycles = m.bulk_copy_dram_to_nvm(bytes);
        m.charge_ckpt_nvm(phase, bytes);
        cycles
    }

    /// [`Machine::bulk_copy_nvm_to_nvm`] with the NVM bytes charged
    /// to `phase` in the write-amplification accounting.
    pub fn bulk_copy_nvm_to_nvm_phase(&mut self, bytes: u64, phase: CkptPhase) -> Cycles {
        let m = self.model_mut();
        let cycles = m.bulk_copy_nvm_to_nvm(bytes);
        m.charge_ckpt_nvm(phase, bytes);
        cycles
    }

    /// Writes a durability record of `bytes` to NVM via the persist
    /// path (off the critical path; occupies bus slots) and charges it
    /// to the [`CkptPhase::Seal`] tally.
    pub fn persist_seal_record(&mut self, paddr: PhysAddr, bytes: u64) {
        let m = self.model_mut();
        m.persist_write(paddr, bytes);
        m.charge_ckpt_nvm(CkptPhase::Seal, bytes);
    }

    /// Cumulative NVM bytes written per checkpoint phase.
    pub fn ckpt_nvm_bytes(&self) -> NvmPhaseBytes {
        self.model().ckpt_nvm
    }

    /// Read-only view of the memory controller.
    pub fn controller(&self) -> &MemoryController {
        &self.model().ctrl
    }

    /// Read-only view of the cache hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.model().hierarchy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> Machine {
        Machine::new(MachineConfig::setup_i())
    }

    #[test]
    fn demand_load_advances_clock() {
        let mut mach = m();
        let before = mach.now();
        let lat = mach.load(VirtAddr::new(0x1000), 8);
        assert_eq!(mach.now(), before + lat);
        assert!(lat >= 3 + 12 + 20, "cold miss pays full path");
    }

    #[test]
    fn cached_load_is_l1_latency() {
        let mut mach = m();
        mach.load(VirtAddr::new(0x1000), 8);
        let lat = mach.load(VirtAddr::new(0x1000), 8);
        assert_eq!(lat, 3);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut mach = m();
        mach.load(VirtAddr::new(60), 8); // bytes 60..68 span lines 0 and 64
        assert!(mach.hierarchy().contains(PhysAddr::new(0)));
        assert!(mach.hierarchy().contains(PhysAddr::new(64)));
    }

    #[test]
    fn phase_tagged_copies_tally_write_amplification() {
        let mut mach = m();
        mach.bulk_copy_dram_to_nvm_phase(4096, CkptPhase::Stage);
        mach.persist_seal_record(PhysAddr::new(0x100), 8);
        mach.bulk_copy_nvm_to_nvm_phase(4096, CkptPhase::Apply);
        mach.bulk_copy_nvm_to_nvm_phase(1024, CkptPhase::Merge);
        let t = mach.ckpt_nvm_bytes();
        assert_eq!(
            t,
            NvmPhaseBytes {
                stage: 4096,
                seal: 8,
                apply: 4096,
                merge: 1024,
            }
        );
        assert_eq!(t.total(), 4096 + 8 + 4096 + 1024);
        assert_eq!(mach.ckpt_nvm_bytes().since(&t).total(), 0);
        // Untagged copies stay out of the phase tally.
        mach.bulk_copy_dram_to_nvm(512);
        assert_eq!(mach.ckpt_nvm_bytes(), t);
    }

    #[test]
    fn injected_ops_do_not_advance_clock_but_occupy_bus() {
        let mut mach = m();
        let t0 = mach.now();
        for i in 0..100 {
            mach.inject_store(VirtAddr::new(0x10_0000 + i * 64), 8);
        }
        assert_eq!(mach.now(), t0, "injected traffic is off the critical path");
        // A demand miss now queues behind the injected transfers.
        let lat = mach.load(VirtAddr::new(0x90_0000), 8);
        assert!(lat > 3 + 12 + 20 + 60, "demand miss saw queueing delay");
        assert_eq!(mach.stats().injected_stores, 100);
    }

    #[test]
    fn batched_injection_matches_per_op_accounting() {
        let mut per_op = m();
        let mut batched = m();
        let addrs: Vec<u64> = (0..64).map(|i| 0x10_0000 + i * 64).collect();
        for &a in &addrs {
            per_op.inject_load(VirtAddr::new(a), 4);
            per_op.inject_store(VirtAddr::new(a), 4);
        }
        batched.inject_load_batch(&addrs, 4);
        batched.inject_store_batch(&addrs, 4);
        assert_eq!(
            per_op.stats().injected_loads,
            batched.stats().injected_loads
        );
        assert_eq!(
            per_op.stats().injected_stores,
            batched.stats().injected_stores
        );
        assert_eq!(per_op.now(), batched.now(), "both stay off critical path");
        // Both leave the memory system in the same interference state.
        let a = per_op.load(VirtAddr::new(0x90_0000), 8);
        let b = batched.load(VirtAddr::new(0x90_0000), 8);
        assert_eq!(a, b);
        batched.inject_load_batch(&[], 4);
        assert_eq!(batched.stats().injected_loads, 64, "empty batch is free");
    }

    #[test]
    fn advance_models_compute() {
        let mut mach = m();
        mach.advance(1000);
        assert_eq!(mach.now(), 1000);
        assert_eq!(mach.stats().cycles, 1000);
    }

    #[test]
    fn clwb_dirty_line_costs_more_than_clean() {
        let mut mach = m();
        let a = VirtAddr::new(0x2000);
        mach.store(a, 8);
        let dirty = mach.clwb(a);
        let clean = mach.clwb(a);
        assert!(dirty >= clean);
        assert!(mach.stats().dram_writes >= 1);
    }

    #[test]
    fn bulk_copy_charges_nvm_bandwidth() {
        let mut mach = m();
        let t0 = mach.now();
        let cycles = mach.bulk_copy_dram_to_nvm(1 << 20);
        assert_eq!(mach.now() - t0, cycles);
        // 1 MiB at 0.7 B/cycle ≈ 1.5M cycles.
        assert!(cycles > 1_000_000);
    }

    #[test]
    fn persist_write_bypasses_caches() {
        let mut mach = m();
        let base = mach.nvm_base();
        let t0 = mach.now();
        for i in 0..10 {
            mach.persist_write(base + i * 64, 64);
        }
        assert_eq!(mach.now(), t0, "persist writes are off the critical path");
        assert_eq!(mach.stats().nvm_writes, 10, "each line reached the device");
        // Repeated persist writes to one line hit the device every
        // time (no cache absorption).
        for _ in 0..5 {
            mach.persist_write(base, 8);
        }
        assert_eq!(mach.stats().nvm_writes, 15);
        let wear = mach.controller().nvm().wear_stats();
        assert_eq!(wear.max_line_writes, 6);
    }

    #[test]
    fn bulk_copies_record_nvm_volume() {
        let mut mach = m();
        mach.bulk_copy_dram_to_nvm(640);
        assert_eq!(mach.stats().nvm_writes, 10);
        mach.bulk_copy_nvm_to_nvm(64);
        assert_eq!(mach.stats().nvm_writes, 11);
    }

    #[test]
    fn direct_map_translator_wraps() {
        let t = DirectMap::new(1024);
        assert_eq!(t.translate(VirtAddr::new(1030)).raw(), 6);
    }

    #[test]
    fn zero_size_access_touches_one_line() {
        let mut mach = m();
        mach.load(VirtAddr::new(0x40), 0);
        assert_eq!(mach.stats().l1d.accesses(), 1);
    }

    #[test]
    fn stats_snapshot_includes_devices() {
        let mut mach = m();
        mach.store(VirtAddr::new(0x3000), 8);
        let s = mach.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.dram_reads + s.dram_writes, 1, "miss fill read");
    }

    /// One call that returns nothing, as a caller inside a window
    /// issues it.
    #[derive(Clone, Debug)]
    enum Post {
        Advance(u64),
        Load(u64, u64),
        Store(u64, u64),
        InjectLoad(u64, u64),
        InjectStore(u64, u64),
        InjectLoadBatch(Vec<u64>, u64),
        InjectStoreBatch(Vec<u64>, u64),
        /// Offset into NVM and size.
        PersistWrite(u64, u64),
    }

    impl Post {
        /// Operations the call posts.
        fn ops(&self) -> usize {
            match self {
                Post::InjectLoadBatch(a, _) | Post::InjectStoreBatch(a, _) => a.len(),
                _ => 1,
            }
        }

        fn issue(&self, m: &mut Machine) {
            let v = VirtAddr::new;
            match *self {
                Post::Advance(c) => m.advance(c),
                Post::Load(a, s) => m.post_load(v(a), s),
                Post::Store(a, s) => m.post_store(v(a), s),
                Post::InjectLoad(a, s) => m.inject_load(v(a), s),
                Post::InjectStore(a, s) => m.inject_store(v(a), s),
                Post::InjectLoadBatch(ref a, s) => m.inject_load_batch(a, s),
                Post::InjectStoreBatch(ref a, s) => m.inject_store_batch(a, s),
                Post::PersistWrite(o, s) => {
                    let base = m.nvm_base();
                    m.persist_write(base + o, s);
                }
            }
        }
    }

    /// A call that reads model state, so it closes the window.
    #[derive(Clone, Copy, Debug)]
    enum Read {
        Now,
        Stats,
        CkptNvm,
        Load(u64),
        Store(u64),
        Clwb(u64),
        BulkDramToNvm(u64),
        BulkNvmToNvmPhase(u64),
        Seal(u64),
    }

    impl Read {
        fn observe(self, m: &mut Machine) -> Vec<u64> {
            let v = VirtAddr::new;
            match self {
                Read::Now => vec![m.now()],
                Read::Stats => {
                    let s = m.stats();
                    vec![
                        s.cycles,
                        s.loads,
                        s.stores,
                        s.injected_loads,
                        s.injected_stores,
                        s.l1d.misses,
                        s.l2.misses,
                        s.l3.misses,
                        s.dram_writes,
                        s.nvm_writes,
                        s.nvm_write_stall_cycles,
                    ]
                }
                Read::CkptNvm => {
                    let t = m.ckpt_nvm_bytes();
                    vec![t.stage, t.seal, t.apply, t.merge]
                }
                Read::Load(a) => vec![m.load(v(a), 8)],
                Read::Store(a) => vec![m.store(v(a), 8)],
                Read::Clwb(a) => vec![m.clwb(v(a))],
                Read::BulkDramToNvm(b) => vec![m.bulk_copy_dram_to_nvm(b)],
                Read::BulkNvmToNvmPhase(b) => {
                    vec![m.bulk_copy_nvm_to_nvm_phase(b, CkptPhase::Apply)]
                }
                Read::Seal(o) => {
                    let base = m.nvm_base();
                    m.persist_seal_record(base + o, 8);
                    vec![m.ckpt_nvm_bytes().seal]
                }
            }
        }
    }

    /// Windows of posted calls, each followed by one read. The first
    /// windows hit the batch boundaries exactly (single-operation
    /// calls); the rest mix every call at random lengths, empty
    /// windows included.
    fn stream(seed: u64) -> Vec<(Vec<Post>, Read)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        // A few MiB of lines: L1 and L2 misses, some L3 misses and
        // dirty victims.
        let addr = |rng: &mut StdRng| rng.gen_range(0..1u64 << 22) * 8;
        let post = |rng: &mut StdRng, single: bool| {
            let a = addr(rng);
            let size = rng.gen_range(0..=80u64);
            match rng.gen_range(0..if single { 6 } else { 8 }) {
                0 => Post::Advance(rng.gen_range(0..400)),
                1 => Post::Load(a, size),
                2 => Post::Store(a, size),
                3 => Post::InjectLoad(a, 4),
                4 => Post::InjectStore(a, 4),
                5 => Post::PersistWrite(rng.gen_range(0..1u64 << 20) * 8, size),
                6 => {
                    Post::InjectLoadBatch((0..rng.gen_range(0..40)).map(|_| addr(rng)).collect(), 4)
                }
                _ => Post::InjectStoreBatch(
                    (0..rng.gen_range(0..40)).map(|_| addr(rng)).collect(),
                    4,
                ),
            }
        };
        let read = |rng: &mut StdRng| {
            let a = rng.gen_range(0..1u64 << 22) * 8;
            match rng.gen_range(0..9) {
                0 => Read::Now,
                1 => Read::Stats,
                2 => Read::CkptNvm,
                3 => Read::Load(a),
                4 => Read::Store(a),
                5 => Read::Clwb(a),
                6 => Read::BulkDramToNvm(rng.gen_range(1..5000)),
                7 => Read::BulkNvmToNvmPhase(rng.gen_range(1..5000)),
                _ => Read::Seal(rng.gen_range(0..1024u64) * 8),
            }
        };
        let mut windows = Vec::new();
        let exact = [
            0,
            1,
            BATCH_OPS - 1,
            BATCH_OPS,
            BATCH_OPS + 1,
            2 * BATCH_OPS,
            0,
            3 * BATCH_OPS + 7,
        ];
        for n in exact {
            let posts = (0..n).map(|_| post(&mut rng, true)).collect();
            windows.push((posts, read(&mut rng)));
        }
        for _ in 0..24 {
            let n: usize = [0, 3, 40, 300, 900][rng.gen_range(0..5usize)];
            let posts = (0..n).map(|_| post(&mut rng, false)).collect();
            windows.push((posts, read(&mut rng)));
        }
        windows
    }

    /// Every observation and the final state of a machine.
    fn replay(
        stream: &[(Vec<Post>, Read)],
        windowed: bool,
    ) -> (Vec<Vec<u64>>, MemStats, NvmPhaseBytes) {
        let mut mach = m();
        let mut seen = Vec::new();
        let mut body = |mach: &mut Machine| {
            for (posts, read) in stream {
                if windowed {
                    mach.open_window();
                    assert!(mach.window_open());
                }
                for p in posts {
                    p.issue(mach);
                }
                if windowed {
                    mach.close_window();
                }
                seen.push(read.observe(mach));
            }
        };
        if windowed {
            mach.with_worker(body);
        } else {
            body(&mut mach);
        }
        let wear = mach.controller().nvm().wear_stats();
        seen.push(vec![wear.max_line_writes, wear.distinct_lines]);
        (seen, mach.stats(), mach.ckpt_nvm_bytes())
    }

    #[test]
    fn posted_streams_match_inline_replay() {
        for seed in 0..6 {
            let s = stream(seed);
            let ops: usize = s.iter().flat_map(|(p, _)| p).map(Post::ops).sum();
            assert!(ops > 8 * BATCH_OPS, "the stream spans many batches");
            let inline = replay(&s, false);
            let posted = replay(&s, true);
            assert_eq!(inline.0.len(), posted.0.len());
            for (i, (a, b)) in inline.0.iter().zip(&posted.0).enumerate() {
                assert_eq!(a, b, "seed {seed}: observation {i} differs");
            }
            assert_eq!(inline.1, posted.1, "seed {seed}: final stats");
            assert_eq!(inline.2, posted.2, "seed {seed}: NVM phase tally");
        }
    }

    #[test]
    fn one_worker_serves_many_windows_and_keeps_the_queue_bounded() {
        let mut mach = m();
        mach.with_worker(|m| {
            for w in 0..50u64 {
                m.open_window();
                for i in 0..(w * 97) % 1500 {
                    m.post_store(VirtAddr::new(i * 64), 8);
                }
                m.close_window();
                let link = m.link.as_ref().expect("attached");
                assert_eq!(link.batch.capacity(), 0, "no batch is kept between windows");
            }
        });
        assert!(mach.link.is_none(), "the worker is detached on return");
        assert!(!mach.window_open());
    }

    #[test]
    fn a_window_left_open_is_closed_when_the_worker_detaches() {
        let mut posted = m();
        posted.with_worker(|m| {
            m.open_window();
            m.post_load(VirtAddr::new(0x1000), 8);
        });
        let mut inline = m();
        inline.post_load(VirtAddr::new(0x1000), 8);
        assert_eq!(posted.stats(), inline.stats());
    }

    #[test]
    fn a_panic_inside_the_window_joins_the_worker_and_keeps_the_state() {
        let mut posted = m();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            posted.with_worker(|m| {
                m.open_window();
                for i in 0..1000 {
                    m.post_store(VirtAddr::new(i * 64), 8);
                }
                panic!("a hook failed");
            })
        }));
        let err = res.expect_err("the panic propagates");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"a hook failed"));
        let mut inline = m();
        for i in 0..1000 {
            inline.post_store(VirtAddr::new(i * 64), 8);
        }
        assert!(!posted.window_open());
        assert_eq!(posted.stats(), inline.stats(), "posted ops were applied");
        // The machine takes another worker afterwards.
        posted.with_worker(|m| {
            m.open_window();
            m.advance(7);
            m.close_window();
        });
        assert_eq!(posted.now(), inline.now() + 7);
    }

    #[test]
    #[should_panic(expected = "machine state read while a posting window is open")]
    fn reading_the_clock_inside_a_window_is_rejected() {
        m().with_worker(|m| {
            m.open_window();
            m.now();
        });
    }

    #[test]
    #[should_panic(expected = "machine state read while a posting window is open")]
    fn a_latency_inside_a_window_is_rejected() {
        m().with_worker(|m| {
            m.open_window();
            m.load(VirtAddr::new(0x40), 8);
        });
    }

    #[test]
    #[should_panic(expected = "call it inside Machine::with_worker")]
    fn a_window_needs_a_worker() {
        m().open_window();
    }

    #[test]
    fn front_end_queries_work_inside_a_window() {
        let mut mach = m();
        let base = mach.nvm_base();
        mach.with_worker(|m| {
            m.open_window();
            assert_eq!(m.nvm_base(), base);
            assert_eq!(m.translate(VirtAddr::new(64)), PhysAddr::new(64));
            assert_eq!(m.config().l1d.latency, 3);
            m.close_window();
            m.close_window(); // closing a closed window does nothing
        });
    }
}
