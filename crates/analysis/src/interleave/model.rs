//! A synchronization skeleton of the commit protocol, plus
//! deliberately seeded bugs.
//!
//! Thread layout follows the two roles that still run concurrently
//! around the commit engine (`commit_with` in
//! `crates/core/src/recovery.rs`):
//!
//! * thread `0` — the **coordinator**, the OS side: quiescence
//!   handshake, bitmap inspect+clear, then the commit in program
//!   order — stage every stack, seal, resume the mutator, apply every
//!   stack, retire the record. The engine runs every per-stack pass
//!   on its calling thread, so stage, seal and apply need no edges of
//!   their own;
//! * thread `1` — the **tracker/mutator**: dirties stack words and
//!   bitmap bits between commits and answers the quiescence
//!   handshake.
//!
//! Synchronization is modelled as counting semaphores with
//! release/acquire vector-clock edges; shared state as explicit
//! locations: each stack's bitmap words and its live stack words, the
//! only state both threads touch (staging buffers, persistent images
//! and the commit record are the coordinator's alone). The handshake
//! has exactly two edges, and each [`Bug`] variant drops one of them,
//! so the explorer's detection of each one is a regression test of the
//! checker itself.

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
    /// The coordinator inspects bitmaps without the tracker
    /// quiescence handshake: a torn bitmap read/clear race.
    SkipQuiesceHandshake,
    /// The tracker dirties sequence s+1 without waiting for the
    /// coordinator to resume it after seal(s): its stores race the
    /// inspection and staging of sequence s.
    SkipResumeHandshake,
}

impl Bug {
    /// Every seeded bug (excluding `None`).
    pub const ALL: &'static [Bug] = &[Bug::SkipQuiesceHandshake, Bug::SkipResumeHandshake];

    /// Short stable name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Bug::None => "none",
            Bug::SkipQuiesceHandshake => "skip-quiesce-handshake",
            Bug::SkipResumeHandshake => "skip-resume-handshake",
        }
    }
}

/// Parameters of a modelled commit run.
#[derive(Clone, Copy, Debug)]
pub struct CommitConfig {
    /// Number of stacks (per-thread program stacks being committed).
    pub stacks: usize,
    /// Number of back-to-back commit sequences.
    pub sequences: u64,
    /// Which protocol edge, if any, to break.
    pub bug: Bug,
}

/// The two locations of each stack.
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
    fn names(&self) -> Vec<String> {
        let mut v = Vec::new();
        for kind in ["bitmap", "volatile"] {
            for t in 0..self.stacks {
                v.push(format!("{kind}[{t}]"));
            }
        }
        v
    }
}

/// The two handshake semaphores of each sequence.
struct Syncs;

impl Syncs {
    const PER_SEQ: usize = 2;
    fn quiesced(s: u64) -> usize {
        Self::PER_SEQ * s as usize
    }
    fn resume(s: u64) -> usize {
        Self::PER_SEQ * s as usize + 1
    }
}

/// Builds the model program for one commit configuration.
#[must_use]
pub fn commit_program(cfg: &CommitConfig) -> Program {
    let locs = Locs { stacks: cfg.stacks };
    let mut coordinator: Vec<Step> = Vec::new();
    let mut tracker: Vec<Step> = Vec::new();

    for s in 0..cfg.sequences {
        // Tracker/mutator: wait to be resumed, dirty stacks, then
        // answer the handshake.
        if s > 0 && cfg.bug != Bug::SkipResumeHandshake {
            tracker.push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::resume(s - 1),
                    need: 1,
                }),
                label: "tracker: wait for resume",
                ..Step::default()
            });
        }
        for t in 0..cfg.stacks {
            tracker.push(Step {
                accesses: vec![
                    Access::Write(locs.volatile(t)),
                    Access::Write(locs.bitmap(t)),
                ],
                label: "tracker: dirty stack words + bitmap",
                ..Step::default()
            });
        }
        tracker.push(Step {
            sync: Some(SyncAction::Release(Syncs::quiesced(s))),
            event: Some(OrderEvent::Quiesced { seq: s }),
            label: "tracker: quiesced",
            ..Step::default()
        });

        // Coordinator, in the engine's program order.
        if cfg.bug != Bug::SkipQuiesceHandshake {
            coordinator.push(Step {
                sync: Some(SyncAction::Acquire {
                    sync: Syncs::quiesced(s),
                    need: 1,
                }),
                label: "coordinator: quiescence handshake",
                ..Step::default()
            });
        }
        for t in 0..cfg.stacks {
            coordinator.push(Step {
                accesses: vec![Access::Read(locs.bitmap(t)), Access::Write(locs.bitmap(t))],
                event: Some(OrderEvent::Inspect {
                    seq: s,
                    tid: t as u32,
                }),
                label: "coordinator: inspect+clear bitmap",
                ..Step::default()
            });
        }
        for t in 0..cfg.stacks {
            coordinator.push(Step {
                accesses: vec![Access::Read(locs.volatile(t))],
                event: Some(OrderEvent::Stage {
                    seq: s,
                    tid: t as u32,
                }),
                label: "coordinator: stage runs",
                ..Step::default()
            });
        }
        coordinator.push(Step {
            event: Some(OrderEvent::Seal { seq: s }),
            label: "coordinator: serial seal",
            ..Step::default()
        });
        coordinator.push(Step {
            sync: Some(SyncAction::Release(Syncs::resume(s))),
            label: "coordinator: resume mutator",
            ..Step::default()
        });
        for t in 0..cfg.stacks {
            coordinator.push(Step {
                event: Some(OrderEvent::Apply {
                    seq: s,
                    tid: t as u32,
                }),
                label: "coordinator: apply staged runs",
                ..Step::default()
            });
        }
        coordinator.push(Step {
            event: Some(OrderEvent::Retire { seq: s }),
            label: "coordinator: retire record",
            ..Step::default()
        });
    }

    Program {
        threads: vec![coordinator, tracker],
        thread_names: vec!["coordinator".to_owned(), "tracker".to_owned()],
        locations: locs.names(),
        syncs: Syncs::PER_SEQ * cfg.sequences as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shape() {
        let p = commit_program(&CommitConfig {
            stacks: 2,
            sequences: 1,
            bug: Bug::None,
        });
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.thread_names.len(), 2);
        assert_eq!(p.syncs, 2);
        // Coordinator emits exactly one seal per sequence, after every
        // stage and before every apply: program order on one thread.
        let events: Vec<OrderEvent> = p.threads[0].iter().filter_map(|s| s.event).collect();
        assert_eq!(
            events,
            [
                OrderEvent::Inspect { seq: 0, tid: 0 },
                OrderEvent::Inspect { seq: 0, tid: 1 },
                OrderEvent::Stage { seq: 0, tid: 0 },
                OrderEvent::Stage { seq: 0, tid: 1 },
                OrderEvent::Seal { seq: 0 },
                OrderEvent::Apply { seq: 0, tid: 0 },
                OrderEvent::Apply { seq: 0, tid: 1 },
                OrderEvent::Retire { seq: 0 },
            ]
        );
    }

    #[test]
    fn bugged_programs_differ_from_correct() {
        for &bug in Bug::ALL {
            let cfg = |bug| CommitConfig {
                stacks: 2,
                sequences: 2,
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
