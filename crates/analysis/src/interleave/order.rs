//! Commit-order invariants, checked over event traces.
//!
//! The checker is shared between two producers: the model explorer
//! (every explored schedule yields a trace) and the real commit path
//! (`prosper_core::recovery::CommitProbe` logs map 1:1 onto
//! [`OrderEvent`]). One checker, two witnesses.

use std::fmt;

/// One commit-protocol event, tagged with its sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderEvent {
    /// The tracker finished quiescing for this sequence.
    Quiesced {
        /// Commit sequence number.
        seq: u64,
    },
    /// The coordinator inspected (and cleared) one stack's bitmap.
    Inspect {
        /// Commit sequence number.
        seq: u64,
        /// Stack/thread id whose bitmap was inspected.
        tid: u32,
    },
    /// The engine staged one stack's runs.
    Stage {
        /// Commit sequence number.
        seq: u64,
        /// Stack/thread id staged.
        tid: u32,
    },
    /// The serial seal — the single durable commit point.
    Seal {
        /// Commit sequence number.
        seq: u64,
    },
    /// The engine applied one stack's staged runs.
    Apply {
        /// Commit sequence number.
        seq: u64,
        /// Stack/thread id applied.
        tid: u32,
    },
    /// The coordinator retired the commit record.
    Retire {
        /// Commit sequence number.
        seq: u64,
    },
    /// A deferred spine merge folded one stack's delta batches up to
    /// and including the batch sealed at `seq` (staged-delta spine
    /// mode).
    Merge {
        /// Newest sealed sequence the merge folded.
        seq: u64,
        /// Stack/thread id whose spine was merged.
        tid: u32,
    },
}

impl OrderEvent {
    /// The sequence number the event belongs to.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match *self {
            OrderEvent::Quiesced { seq }
            | OrderEvent::Inspect { seq, .. }
            | OrderEvent::Stage { seq, .. }
            | OrderEvent::Seal { seq }
            | OrderEvent::Apply { seq, .. }
            | OrderEvent::Retire { seq }
            | OrderEvent::Merge { seq, .. } => seq,
        }
    }
}

/// A violated commit-order invariant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OrderViolation {
    /// A sequence sealed more than once: two commit points.
    DuplicateSeal {
        /// Offending sequence.
        seq: u64,
    },
    /// A sequence staged or applied work but never sealed.
    MissingSeal {
        /// Offending sequence.
        seq: u64,
    },
    /// A stage event landed after its sequence's seal: the seal was
    /// not the commit point for that stack's data.
    StageAfterSeal {
        /// Offending sequence.
        seq: u64,
        /// Stack staged late.
        tid: u32,
    },
    /// An apply event landed before its sequence's seal: NVM mutated
    /// before the commit point.
    ApplyBeforeSeal {
        /// Offending sequence.
        seq: u64,
        /// Stack applied early.
        tid: u32,
    },
    /// The record retired before every apply finished.
    RetireBeforeApply {
        /// Offending sequence.
        seq: u64,
    },
    /// A later sequence staged or sealed while the earlier, sealed
    /// sequence's record was still live (its retire missing or
    /// late): the two sequences overlap, so the new staging or commit
    /// point lands on top of a predecessor that has not finished
    /// applying.
    SequenceOverlap {
        /// The sealed, not-yet-retired earlier sequence.
        earlier: u64,
        /// The later sequence that started early.
        later: u64,
    },
    /// A bitmap inspection happened before the quiescence handshake
    /// for its sequence.
    InspectBeforeQuiesce {
        /// Offending sequence.
        seq: u64,
        /// Stack inspected early.
        tid: u32,
    },
    /// A spine merge folded up to a batch whose sequence had not
    /// sealed yet: the merge crossed an unsealed batch, so a crash
    /// inside it could make unsealed data durable.
    MergeCrossesUnsealedBatch {
        /// The unsealed sequence the merge folded.
        seq: u64,
        /// Stack merged early.
        tid: u32,
    },
    /// A later spine merge on the same stack folded up to an *older*
    /// sequence than an earlier merge: the fold went backwards, so
    /// recovery would not see a prefix-closed spine (a retired batch
    /// reappearing behind the fold point).
    MergeRegressed {
        /// Stack whose fold regressed.
        tid: u32,
        /// The newer sequence the earlier merge had already folded.
        earlier: u64,
        /// The older sequence the later merge regressed to.
        later: u64,
    },
}

impl fmt::Display for OrderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrderViolation::DuplicateSeal { seq } => {
                write!(f, "sequence {seq} sealed more than once")
            }
            OrderViolation::MissingSeal { seq } => {
                write!(f, "sequence {seq} staged/applied work without a seal")
            }
            OrderViolation::StageAfterSeal { seq, tid } => {
                write!(f, "stack {tid} staged after seal of sequence {seq}")
            }
            OrderViolation::ApplyBeforeSeal { seq, tid } => {
                write!(f, "stack {tid} applied before seal of sequence {seq}")
            }
            OrderViolation::RetireBeforeApply { seq } => {
                write!(f, "sequence {seq} retired before all applies finished")
            }
            OrderViolation::SequenceOverlap { earlier, later } => {
                write!(
                    f,
                    "sequence {later} staged or sealed before sequence {earlier} retired"
                )
            }
            OrderViolation::InspectBeforeQuiesce { seq, tid } => {
                write!(
                    f,
                    "bitmap of stack {tid} inspected before quiescence of sequence {seq}"
                )
            }
            OrderViolation::MergeCrossesUnsealedBatch { seq, tid } => {
                write!(
                    f,
                    "spine merge on stack {tid} crossed the unsealed batch of sequence {seq}"
                )
            }
            OrderViolation::MergeRegressed {
                tid,
                earlier,
                later,
            } => {
                write!(
                    f,
                    "spine merge on stack {tid} regressed from sequence {earlier} to {later}"
                )
            }
        }
    }
}

/// Checks the commit-order invariants over one trace. Returns every
/// violation found (empty = trace is valid).
#[must_use]
pub fn check_order(events: &[OrderEvent]) -> Vec<OrderViolation> {
    let mut out = Vec::new();
    let mut seqs: Vec<u64> = events.iter().map(OrderEvent::seq).collect();
    seqs.sort_unstable();
    seqs.dedup();

    for &seq in &seqs {
        let seal_positions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, OrderEvent::Seal { seq: s } if *s == seq))
            .map(|(i, _)| i)
            .collect();
        if seal_positions.len() > 1 {
            out.push(OrderViolation::DuplicateSeal { seq });
        }
        let has_work = events.iter().any(|e| {
            matches!(e, OrderEvent::Stage { seq: s, .. } | OrderEvent::Apply { seq: s, .. } if *s == seq)
        });
        let Some(&seal) = seal_positions.first() else {
            if has_work {
                out.push(OrderViolation::MissingSeal { seq });
            }
            continue;
        };
        let quiesce = events
            .iter()
            .position(|e| matches!(e, OrderEvent::Quiesced { seq: s } if *s == seq));
        for (i, e) in events.iter().enumerate() {
            match *e {
                OrderEvent::Stage { seq: s, tid } if s == seq && i > seal => {
                    out.push(OrderViolation::StageAfterSeal { seq, tid });
                }
                OrderEvent::Apply { seq: s, tid } if s == seq && i < seal => {
                    out.push(OrderViolation::ApplyBeforeSeal { seq, tid });
                }
                OrderEvent::Inspect { seq: s, tid } if s == seq => {
                    if let Some(q) = quiesce {
                        if i < q {
                            out.push(OrderViolation::InspectBeforeQuiesce { seq, tid });
                        }
                    }
                }
                _ => {}
            }
        }
        let last_apply = events
            .iter()
            .rposition(|e| matches!(e, OrderEvent::Apply { seq: s, .. } if *s == seq));
        let retire = events
            .iter()
            .position(|e| matches!(e, OrderEvent::Retire { seq: s } if *s == seq));
        if let (Some(a), Some(r)) = (last_apply, retire) {
            if r < a {
                out.push(OrderViolation::RetireBeforeApply { seq });
            }
        }
    }

    // One sequence at a time: once sequence N has sealed, nothing of
    // N+1 may stage or seal before retire(N) closes N. Everything else
    // of N+1 — apply, retire — is ordered through its own seal by the
    // per-sequence checks above. Only enforced when seal(N+1) is in the
    // trace, so a crash-truncated stream is not penalized for a retire
    // it never reached.
    for window in seqs.windows(2) {
        let (earlier, later) = (window[0], window[1]);
        let sealed = |seq: u64| {
            events
                .iter()
                .any(|e| matches!(e, OrderEvent::Seal { seq: s } if *s == seq))
        };
        if !sealed(earlier) || !sealed(later) {
            continue;
        }
        let retire_earlier = events
            .iter()
            .position(|e| matches!(e, OrderEvent::Retire { seq: s } if *s == earlier));
        let first_later = events.iter().position(|e| {
            matches!(e, OrderEvent::Stage { seq: s, .. } | OrderEvent::Seal { seq: s } if *s == later)
        });
        if first_later.is_some_and(|l| retire_earlier.is_none_or(|r| l < r)) {
            out.push(OrderViolation::SequenceOverlap { earlier, later });
        }
    }

    // Spine-mode rules (PR 8). A merge folds the spine up to a sealed
    // batch, so the referenced sequence must have sealed *earlier in
    // the trace* — merge never crosses an unsealed batch. And per
    // stack the fold point is monotone: a merge that regresses to an
    // older sequence would resurrect retired batches, so recovery
    // could no longer rely on the spine being a prefix-closed suffix
    // of the sealed history.
    let mut last_fold: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if let OrderEvent::Merge { seq, tid } = *e {
            let sealed_before = events[..i]
                .iter()
                .any(|p| matches!(p, OrderEvent::Seal { seq: s } if *s == seq));
            if !sealed_before {
                out.push(OrderViolation::MergeCrossesUnsealedBatch { seq, tid });
            }
            let prev = last_fold.get(&tid).copied();
            if let Some(prev) = prev {
                if seq < prev {
                    out.push(OrderViolation::MergeRegressed {
                        tid,
                        earlier: prev,
                        later: seq,
                    });
                }
            }
            last_fold.insert(tid, prev.unwrap_or(0).max(seq));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_trace() -> Vec<OrderEvent> {
        vec![
            OrderEvent::Quiesced { seq: 1 },
            OrderEvent::Inspect { seq: 1, tid: 0 },
            OrderEvent::Stage { seq: 1, tid: 0 },
            OrderEvent::Stage { seq: 1, tid: 1 },
            OrderEvent::Seal { seq: 1 },
            OrderEvent::Apply { seq: 1, tid: 1 },
            OrderEvent::Apply { seq: 1, tid: 0 },
            OrderEvent::Retire { seq: 1 },
        ]
    }

    #[test]
    fn valid_trace_passes() {
        assert!(check_order(&good_trace()).is_empty());
    }

    #[test]
    fn detects_stage_after_seal() {
        let mut t = good_trace();
        t.swap(3, 4); // stage tid=1 after seal
        assert!(t.iter().any(|e| matches!(e, OrderEvent::Seal { .. })));
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::StageAfterSeal { seq: 1, tid: 1 }));
    }

    #[test]
    fn detects_apply_before_seal() {
        let mut t = good_trace();
        t.swap(4, 5);
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::ApplyBeforeSeal { seq: 1, tid: 1 }));
    }

    #[test]
    fn detects_duplicate_and_missing_seal() {
        let mut t = good_trace();
        t.push(OrderEvent::Seal { seq: 1 });
        assert!(check_order(&t).contains(&OrderViolation::DuplicateSeal { seq: 1 }));
        let t2 = vec![OrderEvent::Stage { seq: 3, tid: 0 }];
        assert!(check_order(&t2).contains(&OrderViolation::MissingSeal { seq: 3 }));
    }

    #[test]
    fn pipelined_overlap_after_prior_seal_is_flagged() {
        // Sequence 2 stages inside sequence 1's apply — after seal(1),
        // before retire(1). The engine commits one sequence at a time,
        // so this overlap is a violation.
        let mut t = good_trace();
        t.insert(5, OrderEvent::Stage { seq: 2, tid: 0 });
        t.push(OrderEvent::Seal { seq: 2 });
        t.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t.push(OrderEvent::Retire { seq: 2 });
        let v = check_order(&t);
        assert_eq!(
            v,
            [OrderViolation::SequenceOverlap {
                earlier: 1,
                later: 2
            }]
        );
        // A trace cut inside apply(1), before anything of sequence 2
        // sealed, stays clean: its missing retire(1) is no violation.
        assert!(check_order(&good_trace()[..6]).is_empty());
    }

    #[test]
    fn detects_stage_before_prior_seal() {
        let mut t = good_trace();
        t.insert(2, OrderEvent::Stage { seq: 2, tid: 0 });
        t.push(OrderEvent::Seal { seq: 2 });
        t.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t.push(OrderEvent::Retire { seq: 2 });
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::SequenceOverlap {
            earlier: 1,
            later: 2
        }));
    }

    #[test]
    fn detects_seal_before_prior_apply_done() {
        // Sequence 2 seals while apply(1) is still running.
        let mut t = good_trace();
        t.insert(5, OrderEvent::Stage { seq: 2, tid: 0 });
        t.insert(6, OrderEvent::Seal { seq: 2 });
        t.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t.push(OrderEvent::Retire { seq: 2 });
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::SequenceOverlap {
            earlier: 1,
            later: 2
        }));
    }

    #[test]
    fn detects_seal_before_prior_retire() {
        // Sequence 2 stages and seals only after apply(1) finished, but
        // sequence 1's record never retired.
        let mut t = good_trace();
        t.pop(); // drop Retire { seq: 1 }
        t.push(OrderEvent::Stage { seq: 2, tid: 0 });
        t.push(OrderEvent::Seal { seq: 2 });
        t.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t.push(OrderEvent::Retire { seq: 2 });
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::SequenceOverlap {
            earlier: 1,
            later: 2
        }));
        // A late retire (after the next seal) is the same violation.
        let mut t2 = good_trace();
        t2.pop();
        t2.push(OrderEvent::Stage { seq: 2, tid: 0 });
        t2.push(OrderEvent::Seal { seq: 2 });
        t2.push(OrderEvent::Retire { seq: 1 });
        t2.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t2.push(OrderEvent::Retire { seq: 2 });
        let v2 = check_order(&t2);
        assert!(v2.contains(&OrderViolation::SequenceOverlap {
            earlier: 1,
            later: 2
        }));
    }

    #[test]
    fn merge_after_seal_is_legal_and_ordering_is_enforced() {
        // Legal spine schedule: batches seal at 1 and 2, then one
        // merge folds both (fold point = newest sealed sequence).
        let mut t = good_trace();
        t.push(OrderEvent::Stage { seq: 2, tid: 0 });
        t.push(OrderEvent::Seal { seq: 2 });
        t.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t.push(OrderEvent::Retire { seq: 2 });
        t.push(OrderEvent::Merge { seq: 2, tid: 0 });
        assert!(check_order(&t).is_empty(), "legal merge rejected");

        // The same merge slid before seal(2) crosses an unsealed
        // batch.
        let mut bad = good_trace();
        bad.push(OrderEvent::Stage { seq: 2, tid: 0 });
        bad.push(OrderEvent::Merge { seq: 2, tid: 0 });
        bad.push(OrderEvent::Seal { seq: 2 });
        bad.push(OrderEvent::Apply { seq: 2, tid: 0 });
        bad.push(OrderEvent::Retire { seq: 2 });
        let v = check_order(&bad);
        assert!(v.contains(&OrderViolation::MergeCrossesUnsealedBatch { seq: 2, tid: 0 }));
    }

    #[test]
    fn detects_regressed_merge_fold_point() {
        let mut t = good_trace();
        t.push(OrderEvent::Stage { seq: 2, tid: 0 });
        t.push(OrderEvent::Seal { seq: 2 });
        t.push(OrderEvent::Apply { seq: 2, tid: 0 });
        t.push(OrderEvent::Retire { seq: 2 });
        t.push(OrderEvent::Merge { seq: 2, tid: 0 });
        // A later merge on the same stack folding only up to seq 1
        // resurrects the already-retired batch 2.
        t.push(OrderEvent::Merge { seq: 1, tid: 0 });
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::MergeRegressed {
            tid: 0,
            earlier: 2,
            later: 1
        }));
        // A different stack folding up to 1 is unrelated and legal.
        let mut other = good_trace();
        other.push(OrderEvent::Merge { seq: 1, tid: 0 });
        other.push(OrderEvent::Merge { seq: 1, tid: 1 });
        assert!(check_order(&other).is_empty());
    }

    #[test]
    fn detects_retire_before_apply_and_early_inspect() {
        let t = vec![
            OrderEvent::Inspect { seq: 1, tid: 0 },
            OrderEvent::Quiesced { seq: 1 },
            OrderEvent::Stage { seq: 1, tid: 0 },
            OrderEvent::Seal { seq: 1 },
            OrderEvent::Retire { seq: 1 },
            OrderEvent::Apply { seq: 1, tid: 0 },
        ];
        let v = check_order(&t);
        assert!(v.contains(&OrderViolation::RetireBeforeApply { seq: 1 }));
        assert!(v.contains(&OrderViolation::InspectBeforeQuiesce { seq: 1, tid: 0 }));
    }
}
