//! Exhaustive bounded-preemption schedule exploration with
//! vector-clock race detection.
//!
//! The explorer runs a [`Program`] under every schedule reachable
//! within a preemption bound (a context switch away from a
//! still-enabled thread counts as a preemption; switches at blocking
//! points are free). Each executed step advances the running
//! thread's vector clock; release/acquire pairs on the model
//! semaphores transfer clocks, and every shared-location access is
//! checked for happens-before ordering against the location's last
//! writer and concurrent readers. Completed schedules additionally
//! have their event traces checked against the commit-order
//! invariants.

use super::model::{Access, Program, Step, SyncAction};
use super::order::{check_order, OrderEvent, OrderViolation};
use super::vclock::VClock;
use std::collections::BTreeSet;

/// Exploration bounds.
#[derive(Clone, Copy, Debug)]
pub struct ExplorerConfig {
    /// Maximum context switches away from a still-enabled thread.
    pub preemption_bound: usize,
    /// Hard cap on completed schedules; exceeding it sets
    /// [`ExploreReport::truncated`].
    pub max_schedules: u64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        Self {
            preemption_bound: 2,
            max_schedules: 2_000_000,
        }
    }
}

/// A data race between two threads on one location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RaceReport {
    /// Location name from the program's naming table.
    pub location: String,
    /// First involved thread (the earlier, unordered accessor).
    pub thread_a: String,
    /// Second involved thread (the racing accessor).
    pub thread_b: String,
    /// Step label of the racing access.
    pub label: String,
    /// The schedule (thread id per step) that exhibited the race.
    pub schedule: Vec<usize>,
}

/// Everything the explorer found.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Completed schedules explored.
    pub schedules: u64,
    /// True when `max_schedules` stopped exploration early.
    pub truncated: bool,
    /// Schedules that deadlocked (no enabled thread before
    /// completion).
    pub deadlocks: u64,
    /// Distinct data races (deduplicated by location + thread pair).
    pub races: Vec<RaceReport>,
    /// Distinct commit-order violations with a witness schedule each.
    pub order_violations: Vec<(OrderViolation, Vec<usize>)>,
}

impl ExploreReport {
    /// True when no race, order violation, or deadlock was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.order_violations.is_empty() && self.deadlocks == 0
    }
}

#[derive(Clone, Debug, Default)]
struct SyncState {
    count: u64,
    vc: VClock,
}

#[derive(Clone, Debug, Default)]
struct LocState {
    last_write: Option<(usize, VClock)>,
    reads: Vec<(usize, VClock)>,
}

#[derive(Clone, Debug)]
struct ExecState {
    pc: Vec<usize>,
    tvc: Vec<VClock>,
    syncs: Vec<SyncState>,
    locs: Vec<LocState>,
    trace: Vec<OrderEvent>,
    schedule: Vec<usize>,
    last_tid: Option<usize>,
    preemptions: usize,
}

struct Explorer<'a> {
    program: &'a Program,
    cfg: ExplorerConfig,
    report: ExploreReport,
    seen_races: BTreeSet<(usize, usize, usize)>,
    seen_violations: BTreeSet<String>,
}

/// Explores every schedule of `program` within the bounds of `cfg`.
#[must_use]
pub fn explore(program: &Program, cfg: &ExplorerConfig) -> ExploreReport {
    let threads = program.threads.len();
    let init = ExecState {
        pc: vec![0; threads],
        tvc: (0..threads)
            .map(|t| {
                let mut vc = VClock::new(threads);
                vc.tick(t);
                vc
            })
            .collect(),
        syncs: (0..program.syncs)
            .map(|_| SyncState {
                count: 0,
                vc: VClock::new(threads),
            })
            .collect(),
        locs: (0..program.locations.len())
            .map(|_| LocState::default())
            .collect(),
        trace: Vec::new(),
        schedule: Vec::new(),
        last_tid: None,
        preemptions: 0,
    };
    let mut explorer = Explorer {
        program,
        cfg: *cfg,
        report: ExploreReport::default(),
        seen_races: BTreeSet::new(),
        seen_violations: BTreeSet::new(),
    };
    explorer.dfs(init);
    explorer.report
}

impl Explorer<'_> {
    fn enabled(&self, state: &ExecState, tid: usize) -> bool {
        let Some(step) = self.program.threads[tid].get(state.pc[tid]) else {
            return false;
        };
        match step.sync {
            Some(SyncAction::Acquire { sync, need }) => state.syncs[sync].count >= need,
            _ => true,
        }
    }

    /// Runs one step of `tid`, updating clocks, race state, and the
    /// event trace.
    fn exec(&mut self, state: &mut ExecState, tid: usize) {
        let step: &Step = &self.program.threads[tid][state.pc[tid]];
        state.pc[tid] += 1;
        state.schedule.push(tid);
        state.tvc[tid].tick(tid);
        match step.sync {
            Some(SyncAction::Acquire { sync, .. }) => {
                let vc = state.syncs[sync].vc.clone();
                state.tvc[tid].join(&vc);
            }
            Some(SyncAction::Release(sync)) => {
                state.syncs[sync].count += 1;
                let vc = state.tvc[tid].clone();
                state.syncs[sync].vc.join(&vc);
            }
            None => {}
        }
        for &access in &step.accesses {
            let vc = state.tvc[tid].clone();
            match access {
                Access::Read(loc) => {
                    if let Some((wt, wvc)) = &state.locs[loc].last_write {
                        if *wt != tid && wvc.concurrent(&vc) {
                            self.record_race(loc, *wt, tid, step.label, &state.schedule);
                        }
                    }
                    let entry = &mut state.locs[loc].reads;
                    entry.retain(|(t, _)| *t != tid);
                    entry.push((tid, vc));
                }
                Access::Write(loc) => {
                    if let Some((wt, wvc)) = &state.locs[loc].last_write {
                        if *wt != tid && wvc.concurrent(&vc) {
                            self.record_race(loc, *wt, tid, step.label, &state.schedule);
                        }
                    }
                    for (rt, rvc) in &state.locs[loc].reads {
                        if *rt != tid && rvc.concurrent(&vc) {
                            self.record_race(loc, *rt, tid, step.label, &state.schedule);
                        }
                    }
                    state.locs[loc].reads.clear();
                    state.locs[loc].last_write = Some((tid, vc));
                }
            }
        }
        if let Some(event) = step.event {
            state.trace.push(event);
        }
        state.last_tid = Some(tid);
    }

    fn record_race(&mut self, loc: usize, a: usize, b: usize, label: &str, schedule: &[usize]) {
        let key = (loc, a.min(b), a.max(b));
        if self.seen_races.insert(key) {
            self.report.races.push(RaceReport {
                location: self.program.locations[loc].clone(),
                thread_a: self.program.thread_names[a.min(b)].clone(),
                thread_b: self.program.thread_names[a.max(b)].clone(),
                label: label.to_owned(),
                schedule: schedule.to_vec(),
            });
        }
    }

    fn leaf(&mut self, state: &ExecState, deadlocked: bool) {
        self.report.schedules += 1;
        if deadlocked {
            self.report.deadlocks += 1;
            return;
        }
        for v in check_order(&state.trace) {
            let key = v.to_string();
            if self.seen_violations.insert(key) {
                self.report
                    .order_violations
                    .push((v, state.schedule.clone()));
            }
        }
    }

    fn dfs(&mut self, mut state: ExecState) {
        loop {
            if self.report.truncated || self.report.schedules >= self.cfg.max_schedules {
                self.report.truncated = true;
                return;
            }
            let threads = self.program.threads.len();
            let done = (0..threads).all(|t| state.pc[t] >= self.program.threads[t].len());
            if done {
                self.leaf(&state, false);
                return;
            }
            let enabled: Vec<usize> = (0..threads).filter(|&t| self.enabled(&state, t)).collect();
            if enabled.is_empty() {
                self.leaf(&state, true);
                return;
            }
            // Choice set under the preemption bound: continuing the
            // last-run thread is free; switching away from it while
            // it is still enabled costs one preemption.
            let last_enabled = state.last_tid.is_some_and(|t| enabled.contains(&t));
            let choices: Vec<usize> = if last_enabled {
                if state.preemptions >= self.cfg.preemption_bound {
                    vec![state.last_tid.unwrap_or(enabled[0])]
                } else {
                    enabled
                }
            } else {
                enabled
            };
            if choices.len() == 1 {
                // No branching: run in place without cloning.
                self.exec(&mut state, choices[0]);
                continue;
            }
            for (i, &tid) in choices.iter().enumerate() {
                let preempt = last_enabled && state.last_tid != Some(tid);
                if i + 1 == choices.len() {
                    if preempt {
                        state.preemptions += 1;
                    }
                    self.exec(&mut state, tid);
                    break;
                }
                let mut branch = state.clone();
                if preempt {
                    branch.preemptions += 1;
                }
                self.exec(&mut branch, tid);
                self.dfs(branch);
                if self.report.truncated {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::model::{commit_program, Bug, CommitConfig};

    fn run(bug: Bug, sequences: u64, bound: usize) -> ExploreReport {
        let program = commit_program(&CommitConfig {
            stacks: 2,
            sequences,
            bug,
        });
        explore(
            &program,
            &ExplorerConfig {
                preemption_bound: bound,
                max_schedules: 2_000_000,
            },
        )
    }

    #[test]
    fn correct_single_worker_is_clean() {
        let r = run(Bug::None, 2, 2);
        assert!(!r.truncated);
        assert!(r.schedules > 0);
        assert!(r.is_clean(), "unexpected findings: {r:?}");
    }

    #[test]
    fn skipped_quiesce_races_on_bitmap() {
        let r = run(Bug::SkipQuiesceHandshake, 1, 1);
        assert!(r
            .races
            .iter()
            .any(|race| race.location.starts_with("bitmap")));
    }

    #[test]
    fn skipped_resume_races_on_bitmap() {
        let r = run(Bug::SkipResumeHandshake, 2, 1);
        assert!(r
            .races
            .iter()
            .any(|race| race.location.starts_with("bitmap")));
    }
}
