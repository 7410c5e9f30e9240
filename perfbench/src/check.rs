//! The output check on the mirrored data plane.

use std::time::Instant;

use prosper_memsim::addr::VirtAddr;

use crate::harness::{regs_for, DataPlane};

/// Bytes compared per step.
const CHUNK: u64 = 4096;

/// What the output check found.
#[derive(Clone, Debug, Default)]
pub struct CheckOut {
    /// Operations checked: the timed commits plus the crash recovery.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Host ms of `recover()`.
    pub recover_ms: f64,
    /// One line per failure.
    pub problems: Vec<String>,
}

/// Word-wise digest of one chunk.
fn digest(bytes: &[u8]) -> u64 {
    bytes.chunks(8).fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The chunk-aligned starts covering `[lo, hi)`.
fn chunks(lo: u64, hi: u64) -> impl Iterator<Item = u64> {
    let first = if lo < hi { lo / CHUNK * CHUNK } else { hi };
    (first..hi).step_by(CHUNK as usize)
}

/// Checks that every region's effective persistent bytes equal its
/// volatile bytes, then crashes and recovers the process and checks it
/// lands on the last committed sequence with the same bytes and
/// registers. `timed` is the number of timed commits.
pub fn run(plane: &mut DataPlane, timed: u64) -> CheckOut {
    let mut out = CheckOut {
        attempted: timed + 1,
        ..CheckOut::default()
    };
    let process = &mut plane.process;
    let seq = process.committed_sequence();
    if seq != plane.commits {
        out.problems.push(format!(
            "committed sequence {seq} after {} commits",
            plane.commits
        ));
    }

    // Durable state equals live state, region by region.
    let mut before: Vec<Vec<u64>> = Vec::new();
    let mut mismatched = 0u64;
    for (tid, &(lo, hi)) in plane.touched.iter().enumerate() {
        let stack = process.stack(tid as u32);
        let mut sums = Vec::new();
        for at in chunks(lo, hi) {
            let live = stack.volatile().read(VirtAddr::new(at), CHUNK as usize);
            if stack.read_effective(VirtAddr::new(at), CHUNK as usize) != live {
                mismatched += 1;
            }
            sums.push(digest(&live));
        }
        before.push(sums);
    }
    if mismatched > 0 {
        out.problems.push(format!(
            "{mismatched} chunks of durable state differ from live state"
        ));
    }

    // Crash and recover onto the last sequence.
    process.crash();
    let t = Instant::now();
    let recovered = process.recover();
    out.recover_ms = t.elapsed().as_secs_f64() * 1e3;
    match recovered {
        Ok(state) => {
            if state.sequence != seq {
                out.problems
                    .push(format!("recovered sequence {} != {seq}", state.sequence));
            }
            let expected: Vec<_> = (0..state.regs.len() as u32)
                .map(|tid| regs_for(seq, tid))
                .collect();
            if state.regs != expected {
                out.problems
                    .push("recovered registers differ from the last commit".into());
            }
        }
        Err(e) => out.problems.push(format!("recovery failed: {e:?}")),
    }
    if let Err(e) = process.verify_coherent() {
        out.problems.push(format!("incoherent after recovery: {e}"));
    }
    for (tid, &(lo, hi)) in plane.touched.iter().enumerate() {
        let stack = process.stack(tid as u32);
        let after: Vec<u64> = chunks(lo, hi)
            .map(|at| digest(&stack.volatile().read(VirtAddr::new(at), CHUNK as usize)))
            .collect();
        if after != before[tid] {
            out.problems.push(format!(
                "region {tid}: recovered bytes differ from pre-crash bytes"
            ));
        }
    }
    // The end-of-run checks judge one operation: the crash recovery
    // and the state it recovered.
    out.failed = u64::from(!out.problems.is_empty()) + plane.failed_commits.min(timed);
    if plane.failed_commits > 0 {
        out.problems.push(format!(
            "{} commits left the wrong committed sequence",
            plane.failed_commits
        ));
    }
    out
}
