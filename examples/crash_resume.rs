//! Crash-and-resume: the property that defines process persistence.
//!
//! A recorded execution is run with periodic Prosper checkpoints; a
//! power failure is injected mid-run; the process recovers from its
//! last checkpoint (registers carry the resume position, the
//! persistent stack carries the memory) and re-executes to completion.
//! The final memory state is verified byte-for-byte against an
//! uninterrupted run — the same validation the paper performs by
//! killing gem5 and restarting GemOS.
//!
//! Run with:
//! ```sh
//! cargo run --release --example crash_resume
//! ```

use std::collections::BTreeMap;

use prosper_repro::core::recovery::PersistentProcess;
use prosper_repro::core::tracker::{DirtyTracker, TrackerConfig};
use prosper_repro::gemos::image::MemoryImage;
use prosper_repro::memsim::addr::{VirtAddr, VirtRange};
use prosper_repro::trace::record::TraceEvent;
use prosper_repro::trace::source::TraceSource;
use prosper_repro::trace::tracefile::TraceFile;
use prosper_repro::trace::workloads::{Workload, WorkloadProfile};

const EVENTS: usize = 10_000;
const CHECKPOINT_EVERY: usize = 2_500;
const CRASH_AT: usize = 6_200;

fn value_at(addr: u64, size: u32) -> Vec<u8> {
    (0..size as u64)
        .map(|i| ((addr + i) as u8) ^ 0xa5)
        .collect()
}

fn main() {
    // Record the execution once; the replay position is the "program
    // counter" a register checkpoint captures.
    let mut workload = Workload::new(WorkloadProfile::gapbs_pr(), 77);
    let range = workload.stack().reserved_range();
    let top = workload.stack().top();
    let trace = TraceFile::record(&mut workload, 77, EVENTS);

    // Reference: uninterrupted execution.
    let mut reference = MemoryImage::new();
    for ev in &trace.events {
        if let TraceEvent::Access(a) = ev {
            if a.is_stack_store() && range.contains(a.vaddr) {
                reference.write(a.vaddr, &value_at(a.vaddr.raw(), a.size));
            }
        }
    }

    // Persistent run.
    let mut process = PersistentProcess::new(&[range]);
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    tracker.configure(range, VirtAddr::new(0x1000_0000));

    let apply =
        |process: &mut PersistentProcess, tracker: &mut DirtyTracker, from: usize, to: usize| {
            let mut ops = Vec::new();
            for ev in &trace.events[from..to] {
                if let TraceEvent::Access(a) = ev {
                    if a.is_stack_store() {
                        tracker.observe_store(a.vaddr, u64::from(a.size), &mut ops);
                        process.record_store(0, a.vaddr, &value_at(a.vaddr.raw(), a.size));
                    }
                }
            }
        };
    let checkpoint = |process: &mut PersistentProcess, tracker: &mut DirtyTracker, pos: usize| {
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
        println!("checkpoint at event {pos}");
    };

    let mut pos = 0;
    while pos < CRASH_AT {
        let next = (pos + CHECKPOINT_EVERY).min(CRASH_AT);
        apply(&mut process, &mut tracker, pos, next);
        pos = next;
        if pos % CHECKPOINT_EVERY == 0 {
            checkpoint(&mut process, &mut tracker, pos);
        }
    }
    println!("\n*** power failure at event {CRASH_AT} ***\n");
    process.crash();
    let mut tracker = DirtyTracker::new(TrackerConfig::default());
    tracker.configure(range, VirtAddr::new(0x1000_0000));

    let recovered = process.recover().expect("checkpoints completed");
    let mut pos = recovered.regs[0].rip as usize;
    println!(
        "recovered at checkpoint sequence {}, resuming from event {pos}",
        recovered.sequence
    );
    while pos < EVENTS {
        let next = (pos + CHECKPOINT_EVERY).min(EVENTS);
        apply(&mut process, &mut tracker, pos, next);
        pos = next;
        checkpoint(&mut process, &mut tracker, pos);
    }

    assert!(
        process.stack(0).volatile().matches(&reference, range),
        "resumed run diverged from the uninterrupted run"
    );
    println!("\nfinal state matches the uninterrupted run byte-for-byte: OK");
}
