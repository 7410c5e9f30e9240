//! The full process-persistence property: a run that crashes and
//! resumes from its last checkpoint ends in exactly the same state as
//! an uninterrupted run.
//!
//! The paper validates this by killing gem5 and watching the GemOS
//! process "restart from the last checkpoint successfully". Here the
//! execution is a recorded trace (the replay position plays the role
//! of the program counter, checkpointed in `rip`), the memory state is
//! the Prosper persistent stack, and the crash can land anywhere.

use std::collections::BTreeMap;

use prosper_repro::core::recovery::PersistentProcess;
use prosper_repro::core::tracker::{DirtyTracker, TrackerConfig};
use prosper_repro::gemos::image::MemoryImage;
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use prosper_repro::trace::record::TraceEvent;
use prosper_repro::trace::source::TraceSource;
use prosper_repro::trace::tracefile::TraceFile;
use prosper_repro::trace::workloads::{Workload, WorkloadProfile};

const EVENTS: usize = 12_000;
const CHECKPOINT_EVERY: usize = 2_000;

/// Deterministic store value: a function of address and position, so
/// re-execution after resume writes the same bytes.
fn value_at(addr: u64, size: u32) -> Vec<u8> {
    (0..size as u64)
        .map(|i| ((addr + i) as u8) ^ 0x5a)
        .collect()
}

fn record_trace() -> (TraceFile, VirtRange, VirtAddr) {
    let mut w = Workload::new(WorkloadProfile::perlbench(), 31);
    let range = w.stack().reserved_range();
    let top = w.stack().top();
    (TraceFile::record(&mut w, 31, EVENTS), range, top)
}

/// Applies events `[from, to)` of the trace to a process's data plane
/// and tracker.
fn apply_events(
    file: &TraceFile,
    from: usize,
    to: usize,
    process: &mut PersistentProcess,
    tracker: &mut DirtyTracker,
) {
    let mut ops = Vec::new();
    for ev in &file.events[from..to] {
        if let TraceEvent::Access(a) = ev {
            if a.is_stack_store() {
                tracker.observe_store(a.vaddr, u64::from(a.size), &mut ops);
                process.record_store(0, a.vaddr, &value_at(a.vaddr.raw(), a.size));
            }
        }
    }
}

/// Takes a checkpoint at trace position `pos`.
fn checkpoint_at(
    pos: usize,
    top: VirtAddr,
    process: &mut PersistentProcess,
    tracker: &mut DirtyTracker,
) {
    tracker.flush();
    let geom = tracker.geometry();
    let watermark = tracker.min_soi_watermark().unwrap_or(top);
    let (runs, _) = tracker
        .bitmap_mut()
        .inspect_and_clear(&geom, VirtRange::new(watermark, top));
    tracker.reset_watermark();
    process.regs_mut(0).rip = pos as u64;
    let mut per_thread = BTreeMap::new();
    per_thread.insert(0u32, runs);
    process.commit(&per_thread);
}

/// Uninterrupted reference run: final volatile stack image.
fn reference_run(file: &TraceFile, range: VirtRange) -> MemoryImage {
    let mut img = MemoryImage::new();
    for ev in &file.events {
        if let TraceEvent::Access(a) = ev {
            if a.is_stack_store() && range.contains(a.vaddr) {
                img.write(a.vaddr, &value_at(a.vaddr.raw(), a.size));
            }
        }
    }
    img
}

fn crash_resume_run(
    file: &TraceFile,
    range: VirtRange,
    top: VirtAddr,
    crash_at: usize,
) -> MemoryImage {
    let mut process = PersistentProcess::new(&[range]);
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    tracker.configure(range, VirtAddr::new(0x1000_0000));

    // Execute until the crash point, checkpointing periodically.
    let mut pos = 0usize;
    while pos < crash_at {
        let next = (pos + CHECKPOINT_EVERY).min(crash_at);
        apply_events(file, pos, next, &mut process, &mut tracker);
        pos = next;
        if pos.is_multiple_of(CHECKPOINT_EVERY) {
            checkpoint_at(pos, top, &mut process, &mut tracker);
        }
    }

    // Power failure: volatile state and tracker contents vanish.
    process.crash();
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    tracker.configure(range, VirtAddr::new(0x1000_0000));

    // Recovery: resume from the checkpointed position; if the crash
    // preceded the first checkpoint, the process restarts from the
    // beginning (nothing was ever persisted).
    let resume_pos = match process.recover() {
        Ok(recovered) => recovered.regs[0].rip as usize,
        Err(_) => {
            process = PersistentProcess::new(&[range]);
            0
        }
    };
    assert!(resume_pos <= crash_at);
    assert_eq!(resume_pos % CHECKPOINT_EVERY, 0, "resumed at a checkpoint");

    // Re-execute from the checkpoint to the end.
    let mut pos = resume_pos;
    while pos < EVENTS {
        let next = (pos + CHECKPOINT_EVERY).min(EVENTS);
        apply_events(file, pos, next, &mut process, &mut tracker);
        pos = next;
        checkpoint_at(pos, top, &mut process, &mut tracker);
    }
    process.stack(0).volatile().clone()
}

#[test]
fn crash_and_resume_matches_uninterrupted_run() {
    let (file, range, top) = record_trace();
    let reference = reference_run(&file, range);
    for crash_at in [1_500usize, 4_000, 7_777, 11_999] {
        let resumed = crash_resume_run(&file, range, top, crash_at);
        assert!(
            resumed.matches(&reference, range),
            "crash at {crash_at}: diverged at {:?}",
            resumed.first_mismatch(&reference, range)
        );
    }
}

#[test]
fn resume_position_never_exceeds_crash_point() {
    let (file, range, top) = record_trace();
    // Crash immediately after the first checkpoint boundary.
    let resumed = crash_resume_run(&file, range, top, CHECKPOINT_EVERY + 1);
    let reference = reference_run(&file, range);
    assert!(resumed.matches(&reference, range));
}
