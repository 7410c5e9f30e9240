//! The data plane: a per-thread persistent stack in NVM, updated
//! crash-consistently in two steps (Section III-B, point 4–5 of
//! Figure 6).
//!
//! At each checkpoint the OS first copies the dirty stack bytes into a
//! **staging buffer** in NVM together with a record of where they
//! belong; only once the staging buffer is complete is it **applied**
//! to the per-thread persistent stack. The commit point between the
//! two steps is not the stack's own: it is the seal of the
//! whole-process commit record in [`crate::recovery`], whose engine,
//! [`crate::recovery::PersistentProcess::commit_with`], makes every
//! staging, apply and fold call here. A crash after that seal redoes
//! the apply from the complete staging buffer; a crash before it
//! discards the buffer — either way the persistent stack reflects a
//! whole checkpoint, never a torn one.
//!
//! # Staged-delta spine (PR 8)
//!
//! The eager protocol pays the dirty-byte bill twice per interval:
//! once DRAM→staging and once staging→persistent-stack, with the
//! second copy on the commit critical path. The spine mode removes
//! the second copy from the critical path LSM-style: sealing a commit
//! **appends** the staged buffer to an NVM-resident spine of
//! immutable [`DeltaBatch`]es instead of applying it, and the seal
//! remains the sole durability point. A deferred **merge** —
//! triggered by batch count or overlapping-byte ratio, tunable via
//! [`SpineConfig`] — folds the spine newest-wins into the persistent
//! image, writing each surviving byte exactly once (overlapped bytes
//! from older batches are never written). Recovery folds the same
//! way; reads that need the durable state consult the spine-aware
//! [`PersistentStack::read_effective`].
//!
//! Every spine decision is made here, once, for both the data plane
//! and the cycle model in [`crate::oscomp`]:
//!
//! - one coverage type (sorted, disjoint, non-abutting byte spans)
//!   behind seal-time coalescing, the merge's newest-first fold and
//!   the distinct-byte count;
//! - one policy, `SpineShape::should_merge`, over a shape the data
//!   plane builds from its batches (`PersistentStack::spine_shape`)
//!   and the cycle model keeps in place of batches;
//! - one fold body, `PersistentStack::merge_spine_with`, whose hook
//!   between steps is where the commit engine crosses its merge crash
//!   windows;
//! - one batch rule: a seal appends a batch only if it staged at least
//!   one non-empty run. An idle seal still advances the committed
//!   sequence.
//!
//! # One columnar run layout
//!
//! Staged runs and spine batches share one layout, `RunBuffer`: the
//! run starts, each run's end offset into one byte vector, and the
//! bytes (the column layout of DBSP's batches). A stack owns one
//! staging buffer; staging appends a run's bytes to it straight from
//! the live image and apply reads them back as slices, so neither
//! allocates per run, and an eager stack keeps the buffer's capacity
//! from one commit to the next. A spine seal takes the buffer and
//! coalesces it into the batch, so spine mode keeps no second arena.

use prosper_gemos::image::MemoryImage;
use prosper_memsim::addr::{VirtAddr, VirtRange};
use serde::{Deserialize, Serialize};

use crate::bitmap::CopyRun;

/// Runs stored column-wise: run `i` targets `starts[i]` and holds
/// `bytes[ends[i - 1]..ends[i]]` (from 0 for the first run). Runs may
/// overlap, abut or come in any order; only [`coalesce_runs`] orders
/// them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RunBuffer {
    starts: Vec<u64>,
    ends: Vec<usize>,
    bytes: Vec<u8>,
}

impl RunBuffer {
    /// Number of runs.
    fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the buffer holds no runs.
    fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Total payload bytes across all runs.
    fn payload(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Empties the buffer, keeping its capacity.
    fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
        self.bytes.clear();
    }

    /// Appends a run of the `len` bytes at `start` in `image`.
    fn push_read(&mut self, image: &MemoryImage, start: VirtAddr, len: usize) {
        self.starts.push(start.raw());
        image.read_into(start, len, &mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// Run `i`: its start and its bytes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn run(&self, i: usize) -> (u64, &[u8]) {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.starts[i], &self.bytes[lo..self.ends[i]])
    }

    /// Every run, in buffer order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        (0..self.len()).map(|i| self.run(i))
    }

    /// Every run's byte span `[start, end)`, in buffer order.
    fn spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.iter().map(|(s, data)| (s, s + data.len() as u64))
    }
}

/// Tuning of the deferred spine merge (the LSM compaction policy).
///
/// A merge is triggered when **either** threshold is crossed: the
/// spine holds at least `max_batches` batches (bounding recovery
/// fold work), or the overlapping-byte ratio across batches reaches
/// `overlap_permille` (the write-amplification win of merging — every
/// overlapped byte is a byte the fold never writes — outweighs the
/// cost of rewriting the distinct coverage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpineConfig {
    /// Merge when the spine reaches this many batches (>= 2).
    pub max_batches: usize,
    /// Merge when `1000 * overlapped_bytes / total_batch_bytes`
    /// reaches this threshold (0 merges at every opportunity; 1001
    /// never triggers on overlap alone).
    pub overlap_permille: u32,
}

impl Default for SpineConfig {
    fn default() -> Self {
        Self {
            max_batches: 8,
            overlap_permille: 300,
        }
    }
}

impl SpineConfig {
    /// An eager-ish policy: merge as soon as two batches exist.
    #[must_use]
    pub fn merge_always() -> Self {
        Self {
            max_batches: 2,
            overlap_permille: 0,
        }
    }

    /// A lazy policy: merge only on batch-count pressure, never on
    /// overlap.
    #[must_use]
    pub fn lazy(max_batches: usize) -> Self {
        Self {
            max_batches,
            overlap_permille: 1001,
        }
    }
}

/// One immutable sealed delta batch on the spine: the coalesced
/// staged runs of exactly one committed sequence, in the staging
/// buffer's columnar layout. Never mutated after
/// `PersistentStack::seal_to_spine` creates it; merges fold batches
/// into the persistent image and retire them wholesale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaBatch {
    sequence: u64,
    runs: RunBuffer,
}

impl DeltaBatch {
    /// The committed sequence this batch holds.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Number of runs in the batch.
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Total payload bytes in the batch.
    pub fn bytes(&self) -> u64 {
        self.runs.payload()
    }
}

/// What a completed merge did — the inputs for write-amplification
/// accounting. `PersistentStack::merge_spine_with` also hands the
/// running totals to its hook after each fold step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Batches folded into the persistent image and retired.
    pub batches_folded: u64,
    /// Total payload bytes across the folded batches.
    pub input_bytes: u64,
    /// Distinct NVM bytes actually written by the fold (always
    /// `<= input_bytes`; the difference is the overlap the merge
    /// never rewrites).
    pub written_bytes: u64,
}

/// Byte spans `[start, end)`, kept sorted, disjoint and non-abutting:
/// an inserted span absorbs every span it overlaps or touches, so the
/// span count is the number of maximal runs covered. Spans are found
/// by binary search.
#[derive(Debug, Default)]
struct Coverage {
    spans: Vec<(u64, u64)>,
    bytes: u64,
}

impl Coverage {
    /// Adds `[start, end)` (empty spans cover nothing).
    fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // Spans in `lo..hi` overlap or abut the new one.
        let lo = self.spans.partition_point(|&(_, e)| e < start);
        let hi = self.spans.partition_point(|&(s, _)| s <= end);
        let (mut s, mut e) = (start, end);
        for &(cs, ce) in &self.spans[lo..hi] {
            s = s.min(cs);
            e = e.max(ce);
            self.bytes -= ce - cs;
        }
        self.bytes += e - s;
        self.spans.splice(lo..hi, [(s, e)]);
    }

    /// The parts of `[start, end)` not covered, ascending.
    fn gaps(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let first = self.spans.partition_point(|&(_, e)| e <= start);
        let mut covered = self.spans[first..].iter();
        let mut cursor = start;
        std::iter::from_fn(move || {
            while cursor < end {
                let (gap_end, next) = match covered.next() {
                    Some(&(s, e)) if s < end => (s, e),
                    _ => (end, end),
                };
                let gap = (cursor, gap_end);
                cursor = cursor.max(next);
                if gap.0 < gap.1 {
                    return Some(gap);
                }
            }
            None
        })
    }

    /// Distinct bytes covered.
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Folds a staged-run list into the minimal set of disjoint, maximal
/// runs, ascending, with newest-wins byte values: where runs overlap,
/// the last-staged bytes survive; abutting runs concatenate into one
/// descriptor. A batch sealed from the result covers exactly the same
/// bytes with the same final values, but carries the fewest possible
/// run descriptors — which is what the spine persists per batch and
/// what every later merge walks. The result is sized exactly.
fn coalesce_runs(runs: &RunBuffer) -> RunBuffer {
    let mut cover = Coverage::default();
    for (s, e) in runs.spans() {
        cover.insert(s, e);
    }
    let mut out = RunBuffer {
        starts: Vec::with_capacity(cover.spans.len()),
        ends: Vec::with_capacity(cover.spans.len()),
        bytes: vec![0; cover.bytes() as usize],
    };
    let mut end = 0;
    for &(s, e) in &cover.spans {
        end += (e - s) as usize;
        out.starts.push(s);
        out.ends.push(end);
    }
    // Oldest first, so the last-staged bytes win.
    for (s, data) in runs.iter().filter(|(_, data)| !data.is_empty()) {
        let i = cover.spans.partition_point(|&(_, e)| e <= s);
        let at = out.ends[i] - (cover.spans[i].1 - s) as usize;
        out.bytes[at..at + data.len()].copy_from_slice(data);
    }
    out
}

/// The merge policy's view of a spine: how many batches it holds,
/// their total bytes and the union of their coverage. The data plane
/// builds one from its resident batches
/// ([`PersistentStack::spine_shape`]); the cycle model keeps one in
/// place of the batches themselves. Either way
/// [`SpineShape::should_merge`] is the one merge decision.
#[derive(Debug, Default)]
pub(crate) struct SpineShape {
    batches: usize,
    total_bytes: u64,
    union: Coverage,
}

impl SpineShape {
    /// Records one sealed batch covering the byte spans `[start, end)`
    /// and returns its descriptor count: the number of maximal spans
    /// once overlapping and abutting spans merge. A batch that covers
    /// nothing is no batch — the shape is unchanged and the count is
    /// 0 — which is the rule [`PersistentStack::seal_to_spine`] keeps.
    pub fn push(&mut self, spans: impl IntoIterator<Item = (u64, u64)>) -> usize {
        let mut batch = Coverage::default();
        for (s, e) in spans {
            batch.insert(s, e);
        }
        if batch.bytes() == 0 {
            return 0;
        }
        self.batches += 1;
        self.total_bytes += batch.bytes();
        for &(s, e) in &batch.spans {
            self.union.insert(s, e);
        }
        batch.spans.len()
    }

    /// Resident batches.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Distinct bytes the batches cover (each byte once, however many
    /// batches touch it) — what a merge writes.
    pub fn distinct_bytes(&self) -> u64 {
        self.union.bytes()
    }

    /// `1000 * overlapped_bytes / total_bytes` (0 for an empty shape).
    pub fn overlap_permille(&self) -> u32 {
        if self.total_bytes == 0 {
            return 0;
        }
        let overlap = self.total_bytes - self.distinct_bytes();
        u32::try_from(overlap * 1000 / self.total_bytes).unwrap_or(1000)
    }

    /// The merge policy: at least two batches, and either the batch
    /// count reached `max_batches` or the overlap reached
    /// `overlap_permille`.
    pub fn should_merge(&self, cfg: &SpineConfig) -> bool {
        self.batches >= 2
            && (self.batches >= cfg.max_batches || self.overlap_permille() >= cfg.overlap_permille)
    }
}

/// The per-thread persistent stack store.
///
/// `volatile` mirrors the thread's live stack (in DRAM); `persistent`
/// is the NVM copy that recovery reads. All state that survives a
/// crash lives in `persistent`, `staging`, `staging_sequence`,
/// `committed_sequence` and `spine` — `crash` erases everything else.
///
/// Only the commit engine of [`crate::recovery::PersistentProcess`]
/// stages, applies, folds and recovers a stack, so a stack becomes
/// durable only under a sealed process commit record; outside this
/// crate the store is read-only.
#[derive(Debug)]
pub struct PersistentStack {
    tid: u32,
    range: VirtRange,
    /// Live (DRAM) image of the stack.
    volatile: MemoryImage,
    /// NVM persistent stack.
    persistent: MemoryImage,
    /// NVM staging buffer (step one of the two-step commit): one
    /// columnar buffer of run starts, end offsets and bytes. Eager
    /// apply empties it and keeps its capacity for the next commit;
    /// a spine seal takes it whole and coalesces it into the batch.
    staging: RunBuffer,
    /// Sequence the open staging buffer belongs to (0 when no buffer
    /// is open). Written with `begin_stage_at` and cleared when the
    /// buffer is applied, sealed to the spine or discarded. It is
    /// crash-recovery state: spine redo of a sealed record N appends
    /// the buffer only while it is still tagged N, so a batch already
    /// sealed to the spine is not appended twice; and a recovered
    /// stack must hold no tag, which the crash matrix checks after
    /// every recovery.
    staging_sequence: u64,
    /// Sequence number of the last fully-applied commit.
    committed_sequence: u64,
    /// NVM-resident spine of immutable sealed delta batches, oldest
    /// first (ascending sequence). Empty in eager-apply mode.
    spine: Vec<DeltaBatch>,
}

impl PersistentStack {
    /// Creates an empty store for thread `tid` covering `range`.
    pub(crate) fn new(tid: u32, range: VirtRange) -> Self {
        Self {
            tid,
            range,
            volatile: MemoryImage::new(),
            persistent: MemoryImage::new(),
            staging: RunBuffer::default(),
            staging_sequence: 0,
            committed_sequence: 0,
            spine: Vec::new(),
        }
    }

    /// Owning thread.
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The tracked stack range.
    pub fn range(&self) -> VirtRange {
        self.range
    }

    /// Records a live store into the volatile stack image.
    ///
    /// # Panics
    ///
    /// Panics if the write leaves the stack range.
    pub(crate) fn record_store(&mut self, addr: VirtAddr, bytes: &[u8]) {
        assert!(
            self.range.overlaps_access(addr, bytes.len() as u64),
            "store at {addr} outside stack range {}",
            self.range
        );
        self.volatile.write(addr, bytes);
    }

    /// The live volatile image.
    pub fn volatile(&self) -> &MemoryImage {
        &self.volatile
    }

    /// The persistent NVM image.
    pub fn persistent(&self) -> &MemoryImage {
        &self.persistent
    }

    /// Sequence number of the last complete commit.
    pub fn committed_sequence(&self) -> u64 {
        self.committed_sequence
    }

    /// Opens a fresh staging buffer for `sequence`, discarding any
    /// previous one: the first step of the commit. The tag is what
    /// recovery's redo of sealed record `sequence` reads to tell a
    /// buffer it still has to apply or seal from one already retired.
    pub(crate) fn begin_stage_at(&mut self, sequence: u64) {
        self.staging.clear();
        self.staging_sequence = sequence;
    }

    /// Sequence tag of the open staging buffer (0 when none is open).
    pub fn staging_sequence(&self) -> u64 {
        self.staging_sequence
    }

    /// Stages one dirty run from the volatile image into the NVM
    /// staging buffer, appending its bytes to the buffer's byte column.
    /// Drivable run-by-run so fault injection can fire a crash between
    /// any two runs.
    pub(crate) fn stage_run(&mut self, run: &CopyRun) {
        debug_assert!(
            self.staging_sequence != 0,
            "stage_run outside an open staging buffer"
        );
        self.staging
            .push_read(&self.volatile, run.start, run.len as usize);
    }

    /// Number of runs currently staged.
    pub fn staged_runs(&self) -> usize {
        self.staging.len()
    }

    /// Total bytes currently staged across all runs — the
    /// deterministic work-size input for stall attribution's
    /// redo-cost model.
    pub fn staged_bytes(&self) -> u64 {
        self.staging.payload()
    }

    /// Applies the staged run at `idx` to the persistent stack.
    /// Idempotent (staged runs carry absolute data), so recovery can
    /// replay applies interrupted at any point. Drivable run-by-run
    /// for fault injection. The caller vouches for the commit point:
    /// a sealed whole-process commit record.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds of the staging buffer.
    pub(crate) fn apply_run(&mut self, idx: usize) {
        let (start, data) = self.staging.run(idx);
        self.persistent.write(VirtAddr::new(start), data);
    }

    /// Finishes an apply: durably records `sequence` as the committed
    /// checkpoint and retires the staging buffer.
    pub(crate) fn finish_apply(&mut self, sequence: u64) {
        self.committed_sequence = sequence;
        self.discard_staging();
    }

    /// Retires the staging buffer: what recovery does with a buffer no
    /// sealed process record covers, and how an apply or a batch seal
    /// ends.
    pub(crate) fn discard_staging(&mut self) {
        self.staging.clear();
        self.staging_sequence = 0;
    }

    /// Simulates a power failure: volatile state is lost; persistent
    /// state (including any staged-but-unapplied buffer) survives.
    pub(crate) fn crash(&mut self) {
        self.volatile = MemoryImage::new();
    }

    /// The stack's share of crash recovery, after the process record's
    /// redo (if any) ran: a staging buffer still open belongs to a
    /// commit that never sealed, so it is discarded; the spine is
    /// folded into the persistent image; and the volatile image is
    /// rebuilt from it.
    pub(crate) fn recover_after_crash(&mut self) {
        self.discard_staging();
        self.merge_spine();
        self.volatile = self.persistent.clone();
    }

    // ------------------------------------------------------------------
    // Staged-delta spine (PR 8)
    // ------------------------------------------------------------------

    /// **Spine-mode step two**: retire the staging buffer as an
    /// immutable delta batch appended to the spine, and durably record
    /// `sequence` as committed. The staged bytes are not applied — the
    /// staging buffer *becomes* the batch — so the apply copy
    /// disappears from the commit critical path. The caller vouches for
    /// the commit point: a sealed whole-process commit record.
    ///
    /// The seal takes the staging buffer and coalesces it into the
    /// batch: overlapping runs collapse to their newest-wins bytes and
    /// abutting runs concatenate, so the batch persists the minimal
    /// descriptor list for its coverage, and the taken buffer is freed
    /// rather than kept as a second arena beside the spine. A buffer
    /// that staged no bytes appends no batch (the rule
    /// `SpineShape::push` applies for the cycle model); the committed
    /// sequence advances either way.
    pub(crate) fn seal_to_spine(&mut self, sequence: u64) {
        debug_assert!(
            self.staging_sequence != 0,
            "seal_to_spine without an open staging buffer"
        );
        let runs = coalesce_runs(&std::mem::take(&mut self.staging));
        if !runs.is_empty() {
            self.spine.push(DeltaBatch { sequence, runs });
        }
        self.committed_sequence = sequence;
        self.discard_staging();
    }

    /// The spine, oldest batch first.
    pub fn spine(&self) -> &[DeltaBatch] {
        &self.spine
    }

    /// Number of batches currently on the spine.
    pub fn spine_batches(&self) -> usize {
        self.spine.len()
    }

    /// Total payload bytes across all spine batches.
    pub fn spine_bytes(&self) -> u64 {
        self.spine.iter().map(DeltaBatch::bytes).sum()
    }

    /// The merge policy's view of the resident spine.
    pub(crate) fn spine_shape(&self) -> SpineShape {
        let mut shape = SpineShape::default();
        for batch in &self.spine {
            shape.push(batch.runs.spans());
        }
        shape
    }

    /// Whether the merge policy triggers right now.
    pub fn should_merge(&self, cfg: &SpineConfig) -> bool {
        self.spine_shape().should_merge(cfg)
    }

    /// Folds the whole spine newest-wins into the persistent image
    /// and retires it. Off the commit critical path; also the recovery
    /// fold. Idempotent and crash-safe: batches are immutable and a
    /// partial fold writes a value-identical subset of the full fold.
    pub(crate) fn merge_spine(&mut self) -> MergeStats {
        match self.merge_spine_with(|_| Ok::<(), std::convert::Infallible>(())) {
            Ok(stats) => stats,
            Err(never) => match never {},
        }
    }

    /// [`Self::merge_spine`] with a hook between fold steps. One step
    /// per batch, **newest first**: each step writes the batch's bytes
    /// that no newer batch covers, so newest-wins holds and every
    /// surviving byte is written exactly once. After each step
    /// `between` sees the running totals; an `Err` from it stops the
    /// fold there with the spine still resident — the state a crash
    /// between steps leaves, which re-merging recovers because each
    /// completed prefix of steps wrote a value-identical subset of the
    /// full fold. The spine is retired only after the last step.
    ///
    /// # Errors
    ///
    /// Returns the first error `between` returns.
    pub(crate) fn merge_spine_with<E>(
        &mut self,
        mut between: impl FnMut(&MergeStats) -> Result<(), E>,
    ) -> Result<MergeStats, E> {
        let mut done = MergeStats {
            input_bytes: self.spine_bytes(),
            ..MergeStats::default()
        };
        // Newest first: `shadow` covers every newer batch, and only the
        // gaps it leaves are written.
        let mut shadow = Coverage::default();
        for batch in self.spine.iter().rev() {
            for (s, data) in batch.runs.iter() {
                let e = s + data.len() as u64;
                for (ws, we) in shadow.gaps(s, e) {
                    let data = &data[(ws - s) as usize..(we - s) as usize];
                    self.persistent.write(VirtAddr::new(ws), data);
                    done.written_bytes += we - ws;
                }
                shadow.insert(s, e);
            }
            done.batches_folded += 1;
            between(&done)?;
        }
        self.spine.clear();
        Ok(done)
    }

    /// Spine-aware durable read: the persistent image with every spine
    /// batch folded over it, newest-wins, for `len` bytes at `addr`.
    /// What recovery and coherence checks consult while batches are
    /// still unmerged.
    pub fn read_effective(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        let mut out = self.persistent.read(addr, len);
        let (lo, hi) = (addr.raw(), addr.raw() + len as u64);
        // Oldest→newest overlay: later batches overwrite earlier ones.
        for batch in &self.spine {
            for (rs, data) in batch.runs.iter() {
                let re = rs + data.len() as u64;
                let (s, e) = (rs.max(lo), re.min(hi));
                if s < e {
                    out[(s - lo) as usize..(e - lo) as usize]
                        .copy_from_slice(&data[(s - rs) as usize..(e - rs) as usize]);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> PersistentStack {
        PersistentStack::new(
            0,
            VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7001_0000)),
        )
    }

    fn run(start: u64, len: u64) -> CopyRun {
        CopyRun {
            start: VirtAddr::new(start),
            len,
        }
    }

    /// Stages `runs` into a fresh buffer for `sequence`, as the commit
    /// engine does.
    fn stage(s: &mut PersistentStack, sequence: u64, runs: &[CopyRun]) {
        s.begin_stage_at(sequence);
        for r in runs {
            s.stage_run(r);
        }
    }

    /// One eager phase two of `sequence` after staging `runs`.
    fn commit(s: &mut PersistentStack, sequence: u64, runs: &[CopyRun]) {
        stage(s, sequence, runs);
        for idx in 0..s.staged_runs() {
            s.apply_run(idx);
        }
        s.finish_apply(sequence);
    }

    #[test]
    fn checkpoint_then_crash_recovers_committed_data() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"committed");
        commit(&mut s, 1, &[run(0x7000_0100, 16)]);
        // Post-checkpoint write is lost at the crash.
        s.record_store(VirtAddr::new(0x7000_0100), b"uncommitt");
        s.crash();
        s.recover_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0100), 9),
            b"committed"
        );
        assert_eq!(s.committed_sequence(), 1);
    }

    #[test]
    fn crash_during_staging_discards_partial_buffer() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0200), b"old");
        commit(&mut s, 1, &[run(0x7000_0200, 8)]);
        s.record_store(VirtAddr::new(0x7000_0200), b"new");
        // Stage sequence 2 but crash before any record seals it.
        stage(&mut s, 2, &[run(0x7000_0200, 8)]);
        s.crash();
        s.recover_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0200), 3),
            b"old",
            "unsealed staging discarded"
        );
        assert_eq!(s.committed_sequence(), 1);
    }

    #[test]
    fn only_staged_runs_persist() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0400), b"in-run");
        s.record_store(VirtAddr::new(0x7000_0500), b"not-in-run");
        commit(&mut s, 1, &[run(0x7000_0400, 8)]);
        s.crash();
        s.recover_after_crash();
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0400), 6), b"in-run");
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0500), 10),
            vec![0u8; 10],
            "unstaged bytes were never persisted"
        );
    }

    #[test]
    fn staging_sequence_tags_survive_crash_and_clear_on_retire() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"staged");
        assert_eq!(s.staging_sequence(), 0, "no open buffer yet");
        // A buffer staged for a whole-process sequence keeps its tag
        // across the crash (it lives in NVM)...
        s.begin_stage_at(7);
        s.stage_run(&run(0x7000_0100, 8));
        s.crash();
        assert_eq!(s.staging_sequence(), 7);
        // ...and recovery discards the unsealed buffer and drops the tag.
        s.recover_after_crash();
        assert_eq!(s.staging_sequence(), 0);
        assert_eq!(s.staged_runs(), 0);
        // finish_apply also retires the tag.
        s.record_store(VirtAddr::new(0x7000_0100), b"again");
        s.begin_stage_at(9);
        s.stage_run(&run(0x7000_0100, 8));
        s.apply_run(0);
        s.finish_apply(9);
        assert_eq!(s.staging_sequence(), 0);
        assert_eq!(s.committed_sequence(), 9);
    }

    #[test]
    fn spine_commit_defers_apply_and_reads_effective() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0100), b"alpha");
        stage(&mut s, 1, &[run(0x7000_0100, 8)]);
        s.seal_to_spine(1);
        assert_eq!(s.committed_sequence(), 1);
        assert_eq!(s.spine_batches(), 1);
        // The apply copy never ran: the persistent image is untouched…
        assert_eq!(s.persistent().read(VirtAddr::new(0x7000_0100), 5), [0; 5]);
        // …but the spine-aware durable read sees the committed bytes.
        assert_eq!(s.read_effective(VirtAddr::new(0x7000_0100), 5), b"alpha");
    }

    #[test]
    fn spine_newest_wins_on_overlap() {
        let mut s = store();
        for (seq, val) in [(1u64, b"aaaaaaaa"), (2, b"bbbbbbbb")] {
            s.record_store(VirtAddr::new(0x7000_0100), val);
            stage(&mut s, seq, &[run(0x7000_0100, 8)]);
            s.seal_to_spine(seq);
        }
        assert_eq!(s.read_effective(VirtAddr::new(0x7000_0100), 8), b"bbbbbbbb");
        let stats = s.merge_spine();
        assert_eq!(stats.batches_folded, 2);
        assert_eq!(stats.input_bytes, 16);
        assert_eq!(stats.written_bytes, 8, "overlapped bytes written once");
        assert_eq!(
            s.persistent().read(VirtAddr::new(0x7000_0100), 8),
            b"bbbbbbbb"
        );
        assert_eq!(s.spine_batches(), 0);
    }

    #[test]
    fn seal_coalesces_adjacent_and_overlapping_runs() {
        let mut s = store();
        // Three abutting runs plus an overlapping restage: one
        // descriptor should survive, carrying the newest bytes.
        s.record_store(VirtAddr::new(0x7000_0100), b"abcdefghijkl");
        stage(
            &mut s,
            1,
            &[
                run(0x7000_0100, 4),
                run(0x7000_0104, 4),
                run(0x7000_0108, 4),
            ],
        );
        s.seal_to_spine(1);
        assert_eq!(s.spine()[0].runs(), 1, "abutting runs coalesce");
        assert_eq!(s.spine()[0].bytes(), 12);
        assert_eq!(
            s.read_effective(VirtAddr::new(0x7000_0100), 12),
            b"abcdefghijkl"
        );

        // Overlapping restage inside one buffer: newest bytes win and
        // the batch still holds a single maximal run.
        s.record_store(VirtAddr::new(0x7000_0200), b"old-old-");
        s.begin_stage_at(2);
        s.stage_run(&run(0x7000_0200, 8));
        s.record_store(VirtAddr::new(0x7000_0204), b"NEW!");
        s.stage_run(&run(0x7000_0204, 4));
        s.seal_to_spine(2);
        let batch = &s.spine()[1];
        assert_eq!(batch.runs(), 1, "overlap folds into one descriptor");
        assert_eq!(batch.bytes(), 8, "shadowed bytes dropped from the batch");
        assert_eq!(s.read_effective(VirtAddr::new(0x7000_0200), 8), b"old-NEW!");

        // Disjoint runs stay separate descriptors.
        s.record_store(VirtAddr::new(0x7000_0300), b"aaaa");
        s.record_store(VirtAddr::new(0x7000_0400), b"bbbb");
        stage(&mut s, 3, &[run(0x7000_0300, 4), run(0x7000_0400, 4)]);
        s.seal_to_spine(3);
        assert_eq!(s.spine()[2].runs(), 2, "a gap keeps runs apart");

        // The merged image agrees with the volatile truth.
        s.merge_spine();
        assert_eq!(
            s.persistent().read(VirtAddr::new(0x7000_0200), 8),
            b"old-NEW!"
        );
    }

    #[test]
    fn merge_plan_partial_prefix_is_crash_safe() {
        let two_batches = || {
            let mut s = store();
            // Batch 1: two runs; batch 2 overlaps the first run's tail.
            s.record_store(VirtAddr::new(0x7000_0100), b"oldoldold");
            s.record_store(VirtAddr::new(0x7000_0200), b"keepme");
            stage(&mut s, 1, &[run(0x7000_0100, 9), run(0x7000_0200, 6)]);
            s.seal_to_spine(1);
            s.record_store(VirtAddr::new(0x7000_0104), b"newnew");
            stage(&mut s, 2, &[run(0x7000_0104, 6)]);
            s.seal_to_spine(2);
            s
        };

        // The hook sees one step per batch, newest first.
        let mut steps = Vec::new();
        let stats = two_batches().merge_spine_with(|done| {
            steps.push(*done);
            Ok::<(), ()>(())
        });
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].batches_folded, 1);
        assert_eq!(steps[1].batches_folded, 2);
        // Newest step writes its full 6 bytes; the older one is
        // shadowed where batch 2 covers it ([0x104, 0x109) = 5 bytes).
        assert_eq!(steps[0].written_bytes, 6);
        assert_eq!(steps[1].written_bytes - steps[0].written_bytes, 9 - 5 + 6);
        assert_eq!(stats, Ok(steps[1]));

        // Crash mid-merge: only the newest step applied, spine intact.
        let mut s = two_batches();
        let crashed = s.merge_spine_with(|done| {
            if done.batches_folded == 1 {
                Err("crash")
            } else {
                Ok(())
            }
        });
        assert_eq!(crashed, Err("crash"));
        assert_eq!(s.spine_batches(), 2, "an interrupted fold retires nothing");
        s.crash();
        s.recover_after_crash();
        assert_eq!(
            s.volatile().read(VirtAddr::new(0x7000_0100), 10),
            b"oldonewnew"
        );
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0200), 6), b"keepme");
        assert_eq!(s.spine_batches(), 0, "recovery folds and retires");
        assert_eq!(s.committed_sequence(), 2);
    }

    #[test]
    fn spine_overlap_policy_triggers_merge() {
        let mut s = store();
        for seq in 1..=3u64 {
            s.record_store(VirtAddr::new(0x7000_0100), &[seq as u8; 8]);
            stage(&mut s, seq, &[run(0x7000_0100, 8)]);
            s.seal_to_spine(seq);
        }
        // Fully overlapping batches: 16 of 24 bytes are overlap.
        assert_eq!(s.spine_shape().overlap_permille(), 666);
        assert!(s.should_merge(&SpineConfig::default()));
        assert!(!s.should_merge(&SpineConfig::lazy(8)), "lazy policy waits");
        assert!(s.should_merge(&SpineConfig::lazy(3)), "count pressure");
    }

    #[test]
    fn spine_recovery_discards_unsealed_staging_and_keeps_batches() {
        let mut s = store();
        s.record_store(VirtAddr::new(0x7000_0300), b"fresh");
        stage(&mut s, 1, &[run(0x7000_0300, 8)]);
        s.seal_to_spine(1);
        // Staging for a sequence no record sealed is discarded; the
        // durable batch survives and recovery folds it.
        s.record_store(VirtAddr::new(0x7000_0300), b"torn!");
        stage(&mut s, 2, &[run(0x7000_0300, 8)]);
        s.crash();
        s.recover_after_crash();
        assert_eq!(s.volatile().read(VirtAddr::new(0x7000_0300), 5), b"fresh");
        assert_eq!(s.committed_sequence(), 1);
        assert_eq!(s.staged_runs(), 0);
        assert_eq!(s.spine_batches(), 0, "recovery folds and retires");
    }

    #[test]
    fn spine_differential_matches_eager_apply() {
        // The same commit history through both modes lands the same
        // persistent image.
        let mut eager = store();
        let mut spine = store();
        let writes: [(u64, &[u8]); 4] = [
            (0x7000_0100, b"first"),
            (0x7000_0140, b"second"),
            (0x7000_0100, b"third"),
            (0x7000_0108, b"fourth"),
        ];
        for (i, (addr, bytes)) in writes.iter().enumerate() {
            let seq = i as u64 + 1;
            let runs = [run(*addr, bytes.len() as u64 + 2)];
            eager.record_store(VirtAddr::new(*addr), bytes);
            commit(&mut eager, seq, &runs);
            spine.record_store(VirtAddr::new(*addr), bytes);
            stage(&mut spine, seq, &runs);
            spine.seal_to_spine(seq);
        }
        spine.merge_spine();
        let range = VirtRange::new(VirtAddr::new(0x7000_0000), VirtAddr::new(0x7000_1000));
        assert!(eager.persistent().matches(spine.persistent(), range));
        assert_eq!(eager.committed_sequence(), spine.committed_sequence());
    }

    #[test]
    #[should_panic(expected = "outside stack range")]
    fn out_of_range_store_rejected() {
        store().record_store(VirtAddr::new(0x100), b"x");
    }

    /// Maximal runs of `set`'s bytes inside `[lo, hi)`.
    fn runs_of(set: &std::collections::BTreeSet<u64>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for &b in set.range(lo..hi) {
            match out.last_mut() {
                Some(last) if last.1 == b => last.1 = b + 1,
                _ => out.push((b, b + 1)),
            }
        }
        out
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Coverage` against a byte set: small offsets make abutting,
        /// nested and duplicate spans common.
        #[test]
        fn coverage_matches_a_byte_set(
            spans in prop::collection::vec((0u64..64, 0u64..16), 1..24),
            query in (0u64..80, 0u64..40),
        ) {
            let mut cov = Coverage::default();
            let mut set = std::collections::BTreeSet::new();
            let (lo, hi) = (query.0, query.0 + query.1);
            for (start, len) in spans {
                let uncovered: std::collections::BTreeSet<u64> =
                    (lo..hi).filter(|b| !set.contains(b)).collect();
                prop_assert_eq!(
                    cov.gaps(lo, hi).collect::<Vec<_>>(),
                    runs_of(&uncovered, lo, hi)
                );
                cov.insert(start, start + len);
                set.extend(start..start + len);
                prop_assert_eq!(cov.bytes(), set.len() as u64);
                prop_assert_eq!(&cov.spans, &runs_of(&set, 0, u64::MAX));
            }
        }
    }
}
