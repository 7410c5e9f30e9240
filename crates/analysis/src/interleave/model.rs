//! A synchronization skeleton of the commit protocol, plus
//! deliberately seeded bugs.
//!
//! Thread layout follows the roles of the commit engine
//! (`commit_with`) in `crates/core/src/recovery.rs`:
//!
//! * thread `0` — the **coordinator**: quiescence handshake, bitmap
//!   inspect+clear, serial seal, record retire;
//! * threads `1..=workers` — **stage/apply workers** over contiguous
//!   chunks of stacks. The engine runs every stage and apply pass on
//!   its calling thread, one stack at a time in tid order, which is
//!   the W = 1 model; W > 1 over-approximates it, admitting every
//!   interleaving of per-stack passes a parallel pass could produce;
//! * thread `workers + 1` — the **tracker/mutator**: dirties stack
//!   words and bitmap bits between commits and answers the
//!   quiescence handshake.
//!
//! Synchronization is modelled as counting semaphores with
//! release/acquire vector-clock edges; shared state as explicit
//! locations. The [`Bug`] variants each drop exactly one edge the
//! real protocol relies on, so the explorer's detection of each one
//! is a regression test of the checker itself.

use super::order::OrderEvent;

/// Index of a modelled shared-memory location.
pub type Loc = usize;

/// One access a step performs on a shared location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// A read of the location.
    Read(Loc),
    /// A write of the location.
    Write(Loc),
}

/// A blocking or signalling semaphore operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncAction {
    /// Increment the semaphore and publish this thread's clock.
    Release(usize),
    /// Block until the semaphore count reaches `need`, then join the
    /// semaphore's clock.
    Acquire {
        /// Semaphore index.
        sync: usize,
        /// Required count.
        need: u64,
    },
}

/// One atomic step of a model thread.
#[derive(Clone, Debug, Default)]
pub struct Step {
    /// Optional semaphore operation (performed first).
    pub sync: Option<SyncAction>,
    /// Shared-location accesses this step performs.
    pub accesses: Vec<Access>,
    /// Optional commit-order event this step emits.
    pub event: Option<OrderEvent>,
    /// Human-readable label for race reports.
    pub label: &'static str,
}

/// A complete model: per-thread step lists plus naming metadata.
#[derive(Clone, Debug)]
pub struct Program {
    /// Step list per thread, index = model thread id.
    pub threads: Vec<Vec<Step>>,
    /// Display name per thread.
    pub thread_names: Vec<String>,
    /// Display name per location.
    pub locations: Vec<String>,
    /// Number of semaphores.
    pub syncs: usize,
}

/// A deliberately seeded protocol bug (a dropped synchronization
/// edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bug {
    /// The correct protocol.
    None,
    /// The coordinator seals without waiting for stage workers: the
    /// seal stops being the commit point for late-staged stacks.
    SealBeforeStageDone,
    /// Apply workers share an unsynchronized progress cursor: a
    /// write-write race.
    SharedApplyCursor,
    /// The coordinator inspects bitmaps without the tracker
    /// quiescence handshake: a torn bitmap read/clear race.
    SkipQuiesceHandshake,
    /// The coordinator starts the next sequence without waiting for
    /// apply completion: commit sequences overlap. In the pipelined
    /// program this drops the apply-drain edge in front of the next
    /// seal — the sharpened invariant's second half.
    OverlappedSequences,
    /// Pipelined-only: the coordinator opens the next sequence's
    /// stage gate *before* this sequence's seal, so workers can stage
    /// N+1 buffers while N is still discardable — the sharpened
    /// invariant's first half.
    StageBeforePriorSeal,
}

impl Bug {
    /// Every seeded bug (excluding `None`).
    pub const ALL: &'static [Bug] = &[
        Bug::SealBeforeStageDone,
        Bug::SharedApplyCursor,
        Bug::SkipQuiesceHandshake,
        Bug::OverlappedSequences,
        Bug::StageBeforePriorSeal,
    ];

    /// Short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Bug::None => "none",
            Bug::SealBeforeStageDone => "seal-before-stage-done",
            Bug::SharedApplyCursor => "shared-apply-cursor",
            Bug::SkipQuiesceHandshake => "skip-quiesce-handshake",
            Bug::OverlappedSequences => "overlapped-sequences",
            Bug::StageBeforePriorSeal => "stage-before-prior-seal",
        }
    }
}

/// Parameters of a modelled commit run.
#[derive(Clone, Copy, Debug)]
pub struct CommitConfig {
    /// Number of stage/apply worker threads.
    pub workers: usize,
    /// Number of stacks (per-thread program stacks being committed).
    pub stacks: usize,
    /// Number of back-to-back commit sequences.
    pub sequences: u64,
    /// Model the PR-7 pipelined protocol: the coordinator defers the
    /// apply join, so stage(N+1) legally overlaps apply(N); seal(N+1)
    /// still waits for apply(N) to drain.
    pub pipelined: bool,
    /// Which protocol edge, if any, to break.
    pub bug: Bug,
}

/// Locations per stack plus the shared record and cursor.
struct Locs {
    stacks: usize,
}

impl Locs {
    fn bitmap(&self, t: usize) -> Loc {
        t
    }
    fn volatile(&self, t: usize) -> Loc {
        self.stacks + t
    }
    fn staging(&self, t: usize) -> Loc {
        2 * self.stacks + t
    }
    fn persistent(&self, t: usize) -> Loc {
        3 * self.stacks + t
    }
    fn record(&self) -> Loc {
        4 * self.stacks
    }
    fn cursor(&self) -> Loc {
        4 * self.stacks + 1
    }
    fn names(&self) -> Vec<String> {
        let mut v = Vec::new();
        for kind in ["bitmap", "volatile", "staging", "persistent"] {
            for t in 0..self.stacks {
                v.push(format!("{kind}[{t}]"));
            }
        }
        v.push("commit_record".into());
        v.push("apply_cursor".into());
        v
    }
}

/// Semaphores per sequence.
struct Syncs;

impl Syncs {
    const PER_SEQ: usize = 6;
    fn quiesced(s: u64) -> usize {
        Self::PER_SEQ * s as usize
    }
    fn resume(s: u64) -> usize {
        Self::PER_SEQ * s as usize + 1
    }
    fn stage_go(s: u64) -> usize {
        Self::PER_SEQ * s as usize + 2
    }
    fn stage_done(s: u64) -> usize {
        Self::PER_SEQ * s as usize + 3
    }
    fn apply_go(s: u64) -> usize {
        Self::PER_SEQ * s as usize + 4
    }
    fn apply_done(s: u64) -> usize {
        Self::PER_SEQ * s as usize + 5
    }
}

/// The contiguous chunk of stacks worker `w` (1-based model tid)
/// owns. The engine passes over all stacks in tid order on one thread;
/// with W > 1 the model splits them into static chunks, which
/// over-approximates that serial pass for the properties checked here
/// (each stack is staged and applied exactly once per sequence by a
/// single owner, and the owner carries the program-order edge between
/// apply(N) and the staging-buffer reuse in stage(N+1)).
fn chunk(w: usize, workers: usize, stacks: usize) -> std::ops::Range<usize> {
    let per = stacks.div_ceil(workers);
    let start = (w - 1) * per;
    start.min(stacks)..(start + per).min(stacks)
}

/// Builds the model program for one commit configuration.
// Threads are addressed by model tid (coordinator 0, workers 1..=W,
// tracker W+1); indexing reads clearer than enumerate-skip-take here.
#[allow(clippy::needless_range_loop)]
#[must_use]
pub fn commit_program(cfg: &CommitConfig) -> Program {
    let locs = Locs { stacks: cfg.stacks };
    let coordinator = 0usize;
    let tracker = cfg.workers + 1;
    let mut threads: Vec<Vec<Step>> = vec![Vec::new(); cfg.workers + 2];

    for s in 0..cfg.sequences {
        // Tracker/mutator: dirty stacks, then answer the handshake.
        if s > 0 {
            threads[tracker].push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::resume(s - 1),
                    need: 1,
                }),
                label: "tracker: wait for resume",
                ..Step::default()
            });
        }
        for t in 0..cfg.stacks {
            threads[tracker].push(Step {
                accesses: vec![
                    Access::Write(locs.volatile(t)),
                    Access::Write(locs.bitmap(t)),
                ],
                label: "tracker: dirty stack words + bitmap",
                ..Step::default()
            });
        }
        threads[tracker].push(Step {
            sync: Some(SyncAction::Release(Syncs::quiesced(s))),
            event: Some(OrderEvent::Quiesced { seq: s }),
            label: "tracker: quiesced",
            ..Step::default()
        });

        // Coordinator.
        if cfg.bug != Bug::SkipQuiesceHandshake {
            threads[coordinator].push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::quiesced(s),
                    need: 1,
                }),
                label: "coordinator: quiescence handshake",
                ..Step::default()
            });
        }
        for t in 0..cfg.stacks {
            threads[coordinator].push(Step {
                accesses: vec![Access::Read(locs.bitmap(t)), Access::Write(locs.bitmap(t))],
                event: Some(OrderEvent::Inspect {
                    seq: s,
                    tid: t as u32,
                }),
                label: "coordinator: inspect+clear bitmap",
                ..Step::default()
            });
        }
        threads[coordinator].push(Step {
            sync: Some(SyncAction::Release(Syncs::stage_go(s))),
            label: "coordinator: start stage",
            ..Step::default()
        });
        if cfg.bug != Bug::SealBeforeStageDone {
            threads[coordinator].push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::stage_done(s),
                    need: cfg.workers as u64,
                }),
                label: "coordinator: join stage",
                ..Step::default()
            });
        }
        if cfg.pipelined && s > 0 {
            // The seal seeded away by StageBeforePriorSeal lands
            // here: only after the next sequence finished staging —
            // the commit point drifted behind the staged-ahead work.
            if cfg.bug == Bug::StageBeforePriorSeal {
                threads[coordinator].push(Step {
                    accesses: vec![Access::Write(locs.record())],
                    event: Some(OrderEvent::Seal { seq: s - 1 }),
                    label: "coordinator: late seal of prior sequence (bug)",
                    ..Step::default()
                });
            }
            // Sharpened invariant, second half: the next seal waits
            // for the prior sequence's drain window to close — the
            // apply join plus the record retire. OverlappedSequences
            // drops both: it seals ahead with the predecessor's
            // cleanup outstanding (the retire lands after the seal,
            // below).
            if cfg.bug != Bug::OverlappedSequences {
                threads[coordinator].push(Step {
                    sync: Some(SyncAction::Acquire {
                        sync: Syncs::apply_done(s - 1),
                        need: cfg.workers as u64,
                    }),
                    label: "coordinator: drain prior apply",
                    ..Step::default()
                });
                threads[coordinator].push(Step {
                    accesses: vec![Access::Write(locs.record())],
                    event: Some(OrderEvent::Retire { seq: s - 1 }),
                    label: "coordinator: retire prior record",
                    ..Step::default()
                });
            }
        }
        let defer_seal =
            cfg.pipelined && cfg.bug == Bug::StageBeforePriorSeal && s + 1 < cfg.sequences;
        if !defer_seal {
            threads[coordinator].push(Step {
                accesses: vec![Access::Write(locs.record())],
                event: Some(OrderEvent::Seal { seq: s }),
                label: "coordinator: serial seal",
                ..Step::default()
            });
        }
        if cfg.pipelined && s > 0 && cfg.bug == Bug::OverlappedSequences {
            // The dropped drain edge: the prior record retires only
            // after this sequence already sealed.
            threads[coordinator].push(Step {
                accesses: vec![Access::Write(locs.record())],
                event: Some(OrderEvent::Retire { seq: s - 1 }),
                label: "coordinator: late retire of prior record (bug)",
                ..Step::default()
            });
        }
        threads[coordinator].push(Step {
            sync: Some(SyncAction::Release(Syncs::resume(s))),
            label: "coordinator: resume mutator",
            ..Step::default()
        });
        threads[coordinator].push(Step {
            sync: Some(SyncAction::Release(Syncs::apply_go(s))),
            label: "coordinator: start apply",
            ..Step::default()
        });
        if cfg.pipelined {
            // Pipelined: no apply join here — the next iteration's
            // stage legally overlaps this apply's drain. The drain is
            // joined just before the *next* seal (above), or after
            // the loop for the final sequence.
            if s + 1 == cfg.sequences {
                threads[coordinator].push(Step {
                    sync: Some(SyncAction::Acquire {
                        sync: Syncs::apply_done(s),
                        need: cfg.workers as u64,
                    }),
                    label: "coordinator: join final apply",
                    ..Step::default()
                });
                threads[coordinator].push(Step {
                    accesses: vec![Access::Write(locs.record())],
                    event: Some(OrderEvent::Retire { seq: s }),
                    label: "coordinator: retire record",
                    ..Step::default()
                });
            }
        } else {
            let overlap = cfg.bug == Bug::OverlappedSequences && s + 1 < cfg.sequences;
            if !overlap {
                threads[coordinator].push(Step {
                    sync: Some(SyncAction::Acquire {
                        sync: Syncs::apply_done(s),
                        need: cfg.workers as u64,
                    }),
                    label: "coordinator: join apply",
                    ..Step::default()
                });
                threads[coordinator].push(Step {
                    accesses: vec![Access::Write(locs.record())],
                    event: Some(OrderEvent::Retire { seq: s }),
                    label: "coordinator: retire record",
                    ..Step::default()
                });
            }
        }

        // Workers.
        for w in 1..=cfg.workers {
            let my = chunk(w, cfg.workers, cfg.stacks);
            threads[w].push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::stage_go(s),
                    need: 1,
                }),
                label: "worker: wait for stage",
                ..Step::default()
            });
            for t in my.clone() {
                threads[w].push(Step {
                    accesses: vec![
                        Access::Read(locs.volatile(t)),
                        Access::Write(locs.staging(t)),
                    ],
                    event: Some(OrderEvent::Stage {
                        seq: s,
                        tid: t as u32,
                    }),
                    label: "worker: stage runs",
                    ..Step::default()
                });
            }
            threads[w].push(Step {
                sync: Some(SyncAction::Release(Syncs::stage_done(s))),
                label: "worker: stage done",
                ..Step::default()
            });
            threads[w].push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::apply_go(s),
                    need: 1,
                }),
                label: "worker: wait for apply",
                ..Step::default()
            });
            for t in my {
                let mut accesses = vec![
                    Access::Read(locs.staging(t)),
                    Access::Write(locs.persistent(t)),
                ];
                if cfg.bug == Bug::SharedApplyCursor {
                    accesses.push(Access::Write(locs.cursor()));
                }
                threads[w].push(Step {
                    accesses,
                    event: Some(OrderEvent::Apply {
                        seq: s,
                        tid: t as u32,
                    }),
                    label: "worker: apply staged runs",
                    ..Step::default()
                });
            }
            threads[w].push(Step {
                sync: Some(SyncAction::Release(Syncs::apply_done(s))),
                label: "worker: apply done",
                ..Step::default()
            });
        }
    }

    let mut thread_names = vec!["coordinator".to_owned()];
    for w in 1..=cfg.workers {
        thread_names.push(format!("worker[{w}]"));
    }
    thread_names.push("tracker".to_owned());

    Program {
        threads,
        thread_names,
        locations: locs.names(),
        syncs: Syncs::PER_SEQ * cfg.sequences as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_chunking_covers_all_stacks() {
        assert_eq!(chunk(1, 2, 4), 0..2);
        assert_eq!(chunk(2, 2, 4), 2..4);
        assert_eq!(chunk(1, 4, 2), 0..1);
        assert_eq!(chunk(3, 4, 2), 2..2); // idle worker
    }

    #[test]
    fn program_shape() {
        let p = commit_program(&CommitConfig {
            workers: 2,
            stacks: 2,
            sequences: 1,
            pipelined: false,
            bug: Bug::None,
        });
        assert_eq!(p.threads.len(), 4);
        assert_eq!(p.thread_names.len(), 4);
        assert_eq!(p.syncs, 6);
        // Coordinator emits exactly one seal per sequence.
        let seals = p.threads[0]
            .iter()
            .filter(|s| matches!(s.event, Some(OrderEvent::Seal { .. })))
            .count();
        assert_eq!(seals, 1);
    }

    /// The pipelined coordinator releases the next sequence's stage
    /// gate before joining the prior apply — the structural overlap —
    /// while still sealing exactly once per sequence.
    #[test]
    fn pipelined_program_defers_the_apply_join() {
        let p = commit_program(&CommitConfig {
            workers: 2,
            stacks: 2,
            sequences: 2,
            pipelined: true,
            bug: Bug::None,
        });
        let labels: Vec<&str> = p.threads[0].iter().map(|s| s.label).collect();
        let second_stage_go = labels
            .iter()
            .enumerate()
            .filter(|(_, l)| **l == "coordinator: start stage")
            .nth(1)
            .map(|(i, _)| i)
            .expect("two sequences start staging");
        let drain = labels
            .iter()
            .position(|l| *l == "coordinator: drain prior apply")
            .expect("the prior apply is drained before the next seal");
        assert!(
            second_stage_go < drain,
            "stage(1) must open before apply(0) is joined: {labels:?}"
        );
        let seals = p.threads[0]
            .iter()
            .filter(|s| matches!(s.event, Some(OrderEvent::Seal { .. })))
            .count();
        assert_eq!(seals, 2);
        let retires = p.threads[0]
            .iter()
            .filter(|s| matches!(s.event, Some(OrderEvent::Retire { .. })))
            .count();
        assert_eq!(retires, 2);
    }

    #[test]
    fn bugged_programs_differ_from_correct() {
        for &bug in Bug::ALL {
            // StageBeforePriorSeal only exists on the pipelined path;
            // a step-count diff cannot see its reordering, so compare
            // the full per-thread (label, access-count) shape.
            let pipelined = bug == Bug::StageBeforePriorSeal;
            let cfg = |bug| CommitConfig {
                workers: 2,
                stacks: 2,
                sequences: 2,
                pipelined,
                bug,
            };
            let shape = |prog: &Program| {
                prog.threads
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(|s| (s.label, s.accesses.len()))
                            .collect::<Vec<_>>()
                    })
                    .collect::<Vec<_>>()
            };
            assert!(
                shape(&commit_program(&cfg(bug))) != shape(&commit_program(&cfg(Bug::None))),
                "bug {bug:?} produced an identical program"
            );
        }
    }
}
