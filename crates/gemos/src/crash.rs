//! Crash-point fault injection.
//!
//! The paper validates correctness by killing the gem5 process mid-run
//! and confirming that the application inside GemOS resumes from its
//! last checkpoint. We model the same discipline deterministically:
//! every step boundary of the checkpoint pipeline is a named
//! [`CrashSite`], and pipeline code crosses each one through a
//! [`FaultInjector`], which fires a simulated power failure
//! ([`CrashInjected`]) where its [`CrashPlan`] says. The commit and
//! recovery they interrupt are `prosper_core::recovery`'s; the
//! exhaustive sweep over every site is `prosper_core::faultinject`.

/// A named step boundary of the checkpoint pipeline at which a
/// simulated power failure can fire.
///
/// The taxonomy covers the whole-process two-phase commit (stage every
/// thread's runs and the register file, seal one process commit
/// record, then apply), plus the OS-side pipeline steps around it
/// (bitmap inspection/clearing and the context-switch save/restore
/// protocol). Exhaustive enumeration of these sites is how recovery
/// invariants are validated — the same discipline as killing gem5
/// mid-run, but deterministic and complete.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CrashSite {
    /// Before any commit state has been staged.
    PreStage,
    /// Thread `tid` has staged `runs_staged` of its copy runs; the
    /// staging buffer is incomplete and unsealed.
    MidStage {
        /// Thread whose staging was interrupted.
        tid: u32,
        /// Runs staged so far.
        runs_staged: u32,
    },
    /// Every thread's runs and the register file are staged; the
    /// process commit record is not yet sealed.
    PreSeal,
    /// The process commit record is sealed (the commit point); nothing
    /// has been applied yet.
    PostSeal,
    /// Thread `tid` has applied `runs_applied` staged runs to its
    /// persistent stack; the apply is incomplete.
    MidApply {
        /// Thread whose apply was interrupted.
        tid: u32,
        /// Runs applied so far.
        runs_applied: u32,
    },
    /// Thread `tid`'s staging buffer is fully applied and its stack
    /// sequence bumped; later threads are not yet applied.
    PostApplyThread {
        /// Thread whose apply just completed.
        tid: u32,
    },
    /// All stacks are applied; the register file is not.
    PostApplyPreRegisters,
    /// Thread `tid`'s register slot is written; later threads' are not.
    MidRegisterApply {
        /// Thread whose registers were just applied.
        tid: u32,
    },
    /// The whole-process commit completed and its record was retired.
    PostCommit,
    /// Bitmap words of thread `tid`'s inspection window were cleared,
    /// but the resulting copy runs were never committed.
    MidBitmapClear {
        /// Thread whose bitmap was being cleared.
        tid: u32,
    },
    /// Context switch-out: the lookup table flushed, but the outgoing
    /// thread's MSR state was not yet saved.
    MidSwitchSave,
    /// Context switch-in: the incoming thread's MSRs are restored, but
    /// the switch has not completed.
    MidSwitchRestore,
    /// Spine-mode commit: thread `tid`'s sealed staging buffer was
    /// appended to its delta spine as an immutable batch; later
    /// threads' batches are not yet appended. The process record seal
    /// already passed, so recovery redoes the batch appends.
    BatchSeal {
        /// Thread whose batch was just appended.
        tid: u32,
    },
    /// Spine merge in progress on thread `tid`: `batches_folded`
    /// newest batches are folded into the persistent image, the spine
    /// itself is untouched. Recovery simply re-merges — a partial
    /// fold wrote a value-identical subset of the full fold.
    MidMerge {
        /// Thread whose merge was interrupted.
        tid: u32,
        /// Newest-first batches folded so far.
        batches_folded: u32,
    },
    /// Spine merge on thread `tid` fully folded and the batches
    /// retired (spine truncated); the durable image already carries
    /// every batch's surviving bytes.
    MergeRetire {
        /// Thread whose merge just retired its batches.
        tid: u32,
    },
}

impl std::fmt::Display for CrashSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashSite::PreStage => write!(f, "pre-stage"),
            CrashSite::MidStage { tid, runs_staged } => {
                write!(f, "mid-stage(tid={tid}, runs={runs_staged})")
            }
            CrashSite::PreSeal => write!(f, "pre-seal"),
            CrashSite::PostSeal => write!(f, "post-seal"),
            CrashSite::MidApply { tid, runs_applied } => {
                write!(f, "mid-apply(tid={tid}, runs={runs_applied})")
            }
            CrashSite::PostApplyThread { tid } => write!(f, "post-apply-thread(tid={tid})"),
            CrashSite::PostApplyPreRegisters => write!(f, "post-apply-pre-registers"),
            CrashSite::MidRegisterApply { tid } => write!(f, "mid-register-apply(tid={tid})"),
            CrashSite::PostCommit => write!(f, "post-commit"),
            CrashSite::MidBitmapClear { tid } => write!(f, "mid-bitmap-clear(tid={tid})"),
            CrashSite::MidSwitchSave => write!(f, "mid-switch-save"),
            CrashSite::MidSwitchRestore => write!(f, "mid-switch-restore"),
            CrashSite::BatchSeal { tid } => write!(f, "batch-seal(tid={tid})"),
            CrashSite::MidMerge {
                tid,
                batches_folded,
            } => {
                write!(f, "mid-merge(tid={tid}, folded={batches_folded})")
            }
            CrashSite::MergeRetire { tid } => write!(f, "merge-retire(tid={tid})"),
        }
    }
}

impl CrashSite {
    /// The name of every variant of this enum, in declaration order.
    ///
    /// `prosper-lint`'s `PA-CRASH002` rule parses the enum out of this
    /// file's source to check that every variant has an injection
    /// point and a crash-matrix reference; a test in
    /// `prosper-analysis` asserts the parsed list equals this constant
    /// so the source parser can never silently drift from the compiled
    /// enum.
    pub const VARIANT_NAMES: &'static [&'static str] = &[
        "PreStage",
        "MidStage",
        "PreSeal",
        "PostSeal",
        "MidApply",
        "PostApplyThread",
        "PostApplyPreRegisters",
        "MidRegisterApply",
        "PostCommit",
        "MidBitmapClear",
        "MidSwitchSave",
        "MidSwitchRestore",
        "BatchSeal",
        "MidMerge",
        "MergeRetire",
    ];

    /// `true` for sites at or after the seal: the commit point has
    /// passed, so recovery must redo (finish) the interrupted commit
    /// rather than discard it. The spine sites (`BatchSeal`,
    /// `MidMerge`, `MergeRetire`) only exist after the process record
    /// sealed — the batch append and the deferred merge both operate
    /// on committed data — so they are post-seal too.
    pub fn is_post_seal(&self) -> bool {
        matches!(
            self,
            CrashSite::PostSeal
                | CrashSite::MidApply { .. }
                | CrashSite::PostApplyThread { .. }
                | CrashSite::PostApplyPreRegisters
                | CrashSite::MidRegisterApply { .. }
                | CrashSite::PostCommit
                | CrashSite::BatchSeal { .. }
                | CrashSite::MidMerge { .. }
                | CrashSite::MergeRetire { .. }
        )
    }
}

/// When a [`FaultInjector`] fires.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CrashPlan {
    /// Never fire — record the boundaries crossed (enumeration runs).
    #[default]
    Record,
    /// Fire at the `n`-th boundary crossing (zero-based), whatever
    /// site it is. This is how an exhaustive sweep addresses every
    /// crash point of a run deterministically.
    AtIndex(u64),
    /// Fire at the first boundary matching this site.
    AtSite(CrashSite),
}

/// The error returned through the pipeline when an injected crash
/// fires: the interrupted operation must stop immediately, leaving
/// persistent state exactly as a real power failure would. Only
/// [`FaultInjector::cross`] builds one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub struct CrashInjected {
    /// The boundary at which the simulated power failure fired.
    pub site: CrashSite,
}

impl std::fmt::Display for CrashInjected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected crash at {}", self.site)
    }
}

impl std::error::Error for CrashInjected {}

/// Deterministic crash-point fault injector.
///
/// Pipeline code calls [`FaultInjector::cross`] at every named step
/// boundary; the injector records the boundary and, per its
/// [`CrashPlan`], decides whether the simulated power failure fires
/// there. A `Record` run enumerates every boundary a workload crosses;
/// re-running with `AtIndex(i)` for each recorded index visits every
/// crash point exhaustively.
///
/// # Examples
///
/// ```
/// use prosper_gemos::crash::{CrashPlan, CrashSite, FaultInjector};
///
/// let mut inj = FaultInjector::new(CrashPlan::AtIndex(1));
/// assert!(inj.cross(CrashSite::PreStage).is_ok());
/// let err = inj.cross(CrashSite::PreSeal).unwrap_err(); // fires here
/// assert_eq!(err.site, CrashSite::PreSeal);
/// assert!(inj.cross(CrashSite::PostSeal).is_ok()); // at most one firing
/// assert_eq!(inj.fired().unwrap().1, CrashSite::PreSeal);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    plan: CrashPlan,
    crossed: Vec<CrashSite>,
    fired: Option<(u64, CrashSite)>,
}

impl FaultInjector {
    /// Creates an injector with the given plan.
    pub fn new(plan: CrashPlan) -> Self {
        Self {
            plan,
            crossed: Vec::new(),
            fired: None,
        }
    }

    /// An injector that never fires (normal operation / enumeration).
    pub fn disabled() -> Self {
        Self::new(CrashPlan::Record)
    }

    /// An injector firing at the `n`-th boundary crossing.
    pub fn at_index(n: u64) -> Self {
        Self::new(CrashPlan::AtIndex(n))
    }

    /// An injector firing at the first boundary matching `site`.
    pub fn at_site(site: CrashSite) -> Self {
        Self::new(CrashPlan::AtSite(site))
    }

    /// Crosses step boundary `site`: records it and, if the plan says
    /// so, fires the simulated power failure here. Fires at most once
    /// per injector.
    ///
    /// # Errors
    ///
    /// Returns [`CrashInjected`] at the boundary the crash fires at;
    /// the caller stops there, as the interrupted operation would.
    pub fn cross(&mut self, site: CrashSite) -> Result<(), CrashInjected> {
        let idx = self.crossed.len() as u64;
        self.crossed.push(site);
        if self.fired.is_some() {
            return Ok(());
        }
        let fire = match self.plan {
            CrashPlan::Record => false,
            CrashPlan::AtIndex(n) => idx == n,
            CrashPlan::AtSite(s) => s == site,
        };
        if !fire {
            return Ok(());
        }
        self.fired = Some((idx, site));
        Err(CrashInjected { site })
    }

    /// Every boundary crossed so far, in order.
    pub fn crossed(&self) -> &[CrashSite] {
        &self.crossed
    }

    /// The boundary the crash fired at, if it fired.
    pub fn fired(&self) -> Option<(u64, CrashSite)> {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_at_site_fires_once_on_match() {
        let mut inj = FaultInjector::at_site(CrashSite::PostSeal);
        assert_eq!(inj.cross(CrashSite::PreStage), Ok(()));
        assert_eq!(inj.cross(CrashSite::PreSeal), Ok(()));
        assert_eq!(
            inj.cross(CrashSite::PostSeal),
            Err(CrashInjected {
                site: CrashSite::PostSeal
            })
        );
        assert_eq!(inj.cross(CrashSite::PostSeal), Ok(()), "fires at most once");
        assert_eq!(inj.fired(), Some((2, CrashSite::PostSeal)));
        assert_eq!(
            inj.crossed(),
            [
                CrashSite::PreStage,
                CrashSite::PreSeal,
                CrashSite::PostSeal,
                CrashSite::PostSeal
            ]
        );
    }

    #[test]
    fn recording_injector_never_fires() {
        let mut inj = FaultInjector::new(CrashPlan::Record);
        let sites: Vec<CrashSite> = (1..=8)
            .map(|k| CrashSite::MidStage {
                tid: 1,
                runs_staged: k,
            })
            .collect();
        for &site in &sites {
            assert_eq!(inj.cross(site), Ok(()));
        }
        assert_eq!(inj.fired(), None);
        assert_eq!(inj.crossed(), sites, "every crossing recorded, in order");
    }

    #[test]
    fn post_seal_classification_matches_protocol() {
        assert!(!CrashSite::PreStage.is_post_seal());
        assert!(!CrashSite::MidStage {
            tid: 0,
            runs_staged: 1
        }
        .is_post_seal());
        assert!(!CrashSite::PreSeal.is_post_seal());
        assert!(CrashSite::PostSeal.is_post_seal());
        assert!(CrashSite::MidApply {
            tid: 0,
            runs_applied: 1
        }
        .is_post_seal());
        assert!(CrashSite::PostApplyPreRegisters.is_post_seal());
        assert!(CrashSite::PostCommit.is_post_seal());
        assert!(!CrashSite::MidBitmapClear { tid: 0 }.is_post_seal());
        assert!(!CrashSite::MidSwitchSave.is_post_seal());
        // Spine sites operate on already-committed data: post-seal.
        assert!(CrashSite::BatchSeal { tid: 0 }.is_post_seal());
        assert!(CrashSite::MidMerge {
            tid: 0,
            batches_folded: 1
        }
        .is_post_seal());
        assert!(CrashSite::MergeRetire { tid: 1 }.is_post_seal());
    }

    #[test]
    fn crash_injected_displays_site() {
        let err = CrashInjected {
            site: CrashSite::MidApply {
                tid: 3,
                runs_applied: 2,
            },
        };
        assert!(err.to_string().contains("mid-apply(tid=3, runs=2)"));
    }
}
