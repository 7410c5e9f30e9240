//! Dynamic tracking granularity, a policy the paper leaves as future
//! work (end of the Figure 10 discussion: "Granularity setting should
//! be dynamically adjusted (from the OS layer) to reduce the overhead
//! for workloads like Stream"). After each checkpoint the OS inspects
//! the measured dirty *density* of the interval and coarsens or refines
//! the tracking granularity MSR for the next interval.
//!
//! The policy only consumes information the Prosper hardware already
//! exposes (copy runs and the bytes they cover), so it is a faithful
//! OS-layer extension rather than new hardware.

use serde::{Deserialize, Serialize};

/// Granularities the OS may select (multiples of 8 bytes, as the
/// tracker supports).
pub const GRANULARITY_LADDER: [u64; 5] = [8, 16, 32, 64, 128];

/// OS policy that adapts tracking granularity to the observed dirty
/// density.
///
/// Density is `dirty bytes / (dirty granules × granularity)` — i.e.
/// how full the copied granules actually were. Dense intervals
/// (Stream-like) waste bitmap-processing effort at fine granularity,
/// so the policy coarsens; sparse intervals refine.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GranularityAdapter {
    /// Current ladder index.
    index: usize,
    /// Coarsen when the mean set-bit run exceeds this many granules.
    pub coarsen_run_threshold: f64,
    /// Refine when the mean set-bit run falls below this.
    pub refine_run_threshold: f64,
}

impl Default for GranularityAdapter {
    fn default() -> Self {
        Self {
            index: 0,
            coarsen_run_threshold: 16.0,
            refine_run_threshold: 3.0,
        }
    }
}

impl GranularityAdapter {
    /// Creates an adapter starting at the given granularity.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is not on the ladder.
    pub fn starting_at(granularity: u64) -> Self {
        let index = GRANULARITY_LADDER
            .iter()
            .position(|&g| g == granularity)
            .expect("granularity must be one of 8/16/32/64/128");
        Self {
            index,
            ..Self::default()
        }
    }

    /// Current granularity in bytes.
    pub fn granularity(&self) -> u64 {
        GRANULARITY_LADDER[self.index]
    }

    /// Feeds one checkpoint's observation: the number of copy runs and
    /// the bytes they covered. Returns the granularity for the next
    /// interval.
    pub fn observe(&mut self, runs: u64, bytes: u64) -> u64 {
        if runs == 0 {
            return self.granularity();
        }
        let granules_per_run = bytes as f64 / self.granularity() as f64 / runs as f64;
        if granules_per_run > self.coarsen_run_threshold
            && self.index + 1 < GRANULARITY_LADDER.len()
        {
            self.index += 1;
        } else if granules_per_run < self.refine_run_threshold && self.index > 0 {
            self.index -= 1;
        }
        self.granularity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adapter_coarsens_on_dense_runs() {
        let mut a = GranularityAdapter::default();
        assert_eq!(a.granularity(), 8);
        // 4 runs covering 4096 bytes at 8B => 128 granules/run: dense.
        assert_eq!(a.observe(4, 4096), 16);
        assert_eq!(a.observe(4, 8192), 32);
    }

    #[test]
    fn adapter_refines_on_sparse_runs() {
        let mut a = GranularityAdapter::starting_at(128);
        // 100 runs covering 12800 bytes at 128B = 1 granule/run.
        assert_eq!(a.observe(100, 12_800), 64);
        assert_eq!(a.observe(100, 6_400), 32);
    }

    #[test]
    fn adapter_saturates_at_ladder_ends() {
        let mut a = GranularityAdapter::starting_at(128);
        for _ in 0..10 {
            a.observe(1, 1_000_000);
        }
        assert_eq!(a.granularity(), 128);
        let mut a = GranularityAdapter::default();
        for _ in 0..10 {
            a.observe(100, 800);
        }
        assert_eq!(a.granularity(), 8);
    }

    #[test]
    fn adapter_holds_steady_in_the_middle_band() {
        let mut a = GranularityAdapter::starting_at(32);
        // 8 granules per run: between the thresholds.
        assert_eq!(a.observe(10, 10 * 8 * 32), 32);
    }

    #[test]
    fn empty_interval_changes_nothing() {
        let mut a = GranularityAdapter::starting_at(32);
        assert_eq!(a.observe(0, 0), 32);
    }

    #[test]
    #[should_panic(expected = "granularity must be one of")]
    fn off_ladder_start_rejected() {
        GranularityAdapter::starting_at(24);
    }
}
