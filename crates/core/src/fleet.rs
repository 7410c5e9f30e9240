//! Fleet-scale checkpoint orchestration with staggered shard offsets.
//!
//! A datacenter node running Prosper does not checkpoint one process:
//! it checkpoints a *fleet* of tenants, and if every tenant's interval
//! timer fires at the same instant the NVM write channel saturates once
//! per interval and idles the rest of it. [`CheckpointFleet`] models
//! the orchestrator that fixes this: `N` shards, each owning `M`
//! tenant [`PersistentProcess`] threads and a private dirty-bitmap
//! domain, with checkpoint intervals *deterministically staggered* —
//! shard `k` commits at offset `k·(interval/N)` — so the same total
//! bytes spread across the whole interval instead of piling into one
//! window.
//!
//! Two fleet-level effects are modelled on top of the per-process
//! commit machinery:
//!
//! * **Write-bandwidth smoothing**, measured as the peak-to-mean ratio
//!   of NVM checkpoint bytes per fixed-width virtual-time window
//!   ([`prosper_memsim::BandwidthWindows`]). The perf suite gates on
//!   staggered being *strictly* below aligned at equal total bytes.
//! * **Global backpressure**: shards share a staging pool that drains
//!   at a fixed rate (the spine merge / apply retire path). When a
//!   shard's commit would push pool occupancy past the high-water
//!   mark, the commit is deferred until the pool drains below it, and
//!   the wait is charged to [`StallCause::Backpressure`] in the PR-6
//!   attribution ledger — the conservation invariant (segments exactly
//!   tile windows) holds by construction, backpressure included.
//!
//! Everything runs on the deterministic virtual clock: commit
//! durations come from the [`commit_cost`] model, NVM bytes are tagged
//! per phase through the memsim machine's checkpoint-phase ledger, and
//! per-tenant commit latency (scheduled tick → apply completion) feeds
//! an [`SloTracker`] so tail percentiles survive aggregation.

use std::collections::BTreeMap;

use prosper_memsim::addr::{VirtAddr, VirtRange};
use prosper_memsim::{BandwidthWindows, CkptPhase, Machine, MachineConfig, NvmPhaseBytes};
use prosper_telemetry::{AttributionSnapshot, SloReport, SloTracker, StallAccountant, StallCause};

use crate::bitmap::{BitmapGeometry, CopyRun, DirtyBitmap};
use crate::recovery::{commit_cost, CommitHooks, PersistentProcess};

/// Bytes of one tenant's stack span (what the dirty bitmap tracks and
/// the store generator writes into).
const TENANT_STACK_BYTES: u64 = 32 * 1024;

/// Virtual-address stride between tenant stacks; keeps every tenant in
/// a disjoint, page-aligned span.
const TENANT_SPAN_BYTES: u64 = 1 << 20;

/// Base of the fleet's stack arena.
const STACK_ARENA_BASE: u64 = 0x7000_0000_0000;

/// Base of the per-shard bitmap arenas (disjoint from the stacks).
const BITMAP_ARENA_BASE: u64 = 0x1000_0000_0000;

/// Virtual-address stride between per-shard bitmap domains.
const BITMAP_SPAN_BYTES: u64 = 1 << 24;

/// Dirty-tracking granularity (bytes per bitmap bit).
const GRANULARITY: u64 = 64;

/// Modelled size of one durable seal record (bytes written to NVM at
/// the commit's durability point).
const SEAL_RECORD_BYTES: u64 = 64;

/// Configuration for one fleet run. All times are virtual nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of shards (commit-scheduling domains).
    pub shards: u32,
    /// Tenant threads per shard (each is one `PersistentProcess`
    /// thread with its own stack and SLO series).
    pub tenants_per_shard: u32,
    /// Number of checkpoint intervals to simulate.
    pub intervals: u32,
    /// Checkpoint interval length.
    pub interval_ns: u64,
    /// Stores each tenant issues per interval.
    pub stores_per_interval: u32,
    /// Bytes per store.
    pub store_bytes: u64,
    /// When `true`, shard `k` commits at offset `k·(interval/N)`;
    /// when `false`, every shard commits at the interval boundary
    /// (the aligned baseline the perf gate compares against).
    pub staggered: bool,
    /// Seed for the deterministic store-address generator.
    pub seed: u64,
    /// Shared staging-pool capacity.
    pub staging_capacity_bytes: u64,
    /// Backpressure threshold in permille of capacity: a commit that
    /// finds occupancy above `capacity·hw/1000` is deferred until the
    /// pool drains back to the mark.
    pub high_water_permille: u32,
    /// Staging-pool drain rate (bytes per virtual ns) — the modelled
    /// throughput of the retire path emptying the pool.
    pub drain_bytes_per_ns: u64,
    /// Width of one bandwidth-accounting window.
    pub window_ns: u64,
    /// Per-tenant commit-latency SLO objective.
    pub slo_objective_ns: u64,
    /// Allowed SLO violation fraction.
    pub slo_error_budget: f64,
}

impl FleetConfig {
    /// A small deterministic fleet sized so backpressure never
    /// triggers: 4 shards × 2 tenants over 8 one-millisecond
    /// intervals, bandwidth windows of `interval/shards` so staggered
    /// commits land in distinct windows.
    #[must_use]
    pub fn smoke() -> Self {
        let interval_ns = 1_000_000;
        let shards = 4;
        FleetConfig {
            shards,
            tenants_per_shard: 2,
            intervals: 8,
            interval_ns,
            stores_per_interval: 64,
            store_bytes: 64,
            staggered: true,
            seed: 0x5eed_f1ee,
            staging_capacity_bytes: 1 << 20,
            high_water_permille: 800,
            drain_bytes_per_ns: 4,
            window_ns: interval_ns / u64::from(shards),
            slo_objective_ns: 200_000,
            slo_error_budget: 0.001,
        }
    }

    /// [`Self::smoke`] with the stagger disabled (aligned baseline).
    #[must_use]
    pub fn smoke_aligned() -> Self {
        FleetConfig {
            staggered: false,
            ..Self::smoke()
        }
    }

    /// [`Self::smoke`] with the staging pool constrained — intervals
    /// too short to drain between ticks, a small pool, a low mark —
    /// so a fraction of commits defer and the
    /// [`StallCause::Backpressure`] cause shows up in the ledger. The
    /// preset the checkpoint-tax report's `fleet` section runs.
    #[must_use]
    pub fn choked() -> Self {
        FleetConfig {
            interval_ns: 2_000,
            staging_capacity_bytes: 8 * 1024,
            high_water_permille: 250,
            drain_bytes_per_ns: 1,
            stores_per_interval: 256,
            window_ns: 500,
            ..Self::smoke()
        }
    }

    /// Shard `k`'s deterministic commit offset within an interval.
    #[must_use]
    pub fn shard_offset_ns(&self, shard: u32) -> u64 {
        if self.staggered {
            u64::from(shard) * (self.interval_ns / u64::from(self.shards.max(1)))
        } else {
            0
        }
    }

    /// Total tenant threads across the fleet.
    #[must_use]
    pub fn total_tenants(&self) -> u32 {
        self.shards * self.tenants_per_shard
    }

    /// Absolute backpressure threshold in bytes.
    #[must_use]
    pub fn high_water_bytes(&self) -> u64 {
        self.staging_capacity_bytes / 1000 * u64::from(self.high_water_permille)
            + self.staging_capacity_bytes % 1000 * u64::from(self.high_water_permille) / 1000
    }
}

/// Everything measured by one fleet run.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Shard commits performed (`shards × intervals`).
    pub commits: u64,
    /// Commits that hit the high-water mark and were deferred.
    pub deferred_commits: u64,
    /// Total ns of deferral charged to [`StallCause::Backpressure`].
    pub backpressure_ns: u64,
    /// Per-phase NVM checkpoint bytes from the machine's tagged
    /// ledger (stage/seal/apply).
    pub nvm_phase_bytes: NvmPhaseBytes,
    /// Peak bytes written in any single bandwidth window.
    pub peak_window_bytes: u64,
    /// `1000 × peak/mean` NVM checkpoint write bandwidth over the
    /// run horizon — the smoothing figure of merit (1000 = flat).
    pub peak_to_mean_milli: u64,
    /// Width of the bandwidth windows used.
    pub window_ns: u64,
    /// Virtual-time horizon the mean was taken over.
    pub horizon_ns: u64,
    /// Per-tenant commit-latency SLO report (latency measured from
    /// scheduled tick to apply completion, queueing included).
    pub slo: SloReport,
    /// The full attribution ledger (verifiable via
    /// [`AttributionSnapshot::verify_conservation`]).
    pub attribution: AttributionSnapshot,
}

/// Deterministic xorshift64 store-address generator.
struct Xorshift64(u64);

impl Xorshift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Shared staging-pool occupancy with a linear drain model.
struct StagingPool {
    occupancy: u64,
    /// Virtual time the occupancy was last brought current.
    as_of_ns: u64,
    drain_bytes_per_ns: u64,
}

impl StagingPool {
    /// Advances the drain model to `t` (never backwards) and returns
    /// the occupancy there.
    fn occupancy_at(&mut self, t: u64) -> u64 {
        if t > self.as_of_ns {
            let drained = (t - self.as_of_ns).saturating_mul(self.drain_bytes_per_ns);
            self.occupancy = self.occupancy.saturating_sub(drained);
            self.as_of_ns = t;
        }
        self.occupancy
    }

    /// Ns until occupancy drains from `occ` down to `mark` (0 if
    /// already at or below, `u64::MAX` if the pool never drains).
    fn drain_wait_ns(&self, occ: u64, mark: u64) -> u64 {
        let excess = occ.saturating_sub(mark);
        if excess == 0 {
            0
        } else if self.drain_bytes_per_ns == 0 {
            u64::MAX
        } else {
            excess.div_ceil(self.drain_bytes_per_ns)
        }
    }
}

/// One shard: a tenant process, its private dirty-bitmap domain, and
/// its scheduling state.
struct Shard {
    process: PersistentProcess,
    bitmap: DirtyBitmap,
    geom: BitmapGeometry,
    /// First tenant stack base (tenant `m` lives at
    /// `base + m·TENANT_SPAN_BYTES`).
    stack_base: u64,
    /// End of this shard's previous commit window; the next window
    /// starts no earlier (keeps per-tid ledger windows disjoint).
    prev_end_ns: u64,
    /// Reused run buffer for bitmap inspection.
    run_buf: Vec<CopyRun>,
}

impl Shard {
    fn tenant_range(&self, tenant: u32) -> VirtRange {
        let base = self.stack_base + u64::from(tenant) * TENANT_SPAN_BYTES;
        VirtRange::new(
            VirtAddr::new(base),
            VirtAddr::new(base + TENANT_STACK_BYTES),
        )
    }
}

/// The fleet orchestrator. Construct with [`CheckpointFleet::new`],
/// run to completion with [`CheckpointFleet::run`].
#[derive(Debug)]
pub struct CheckpointFleet {
    cfg: FleetConfig,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("stack_base", &self.stack_base)
            .field("prev_end_ns", &self.prev_end_ns)
            .finish_non_exhaustive()
    }
}

impl CheckpointFleet {
    /// Creates a fleet orchestrator for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has zero shards, tenants, intervals, or window
    /// width, or an interval too short to stagger.
    #[must_use]
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.shards > 0, "fleet needs at least one shard");
        assert!(cfg.tenants_per_shard > 0, "shard needs at least one tenant");
        assert!(cfg.intervals > 0, "fleet needs at least one interval");
        assert!(cfg.window_ns > 0, "bandwidth window must be non-zero");
        assert!(
            cfg.interval_ns >= u64::from(cfg.shards),
            "interval too short to stagger across shards"
        );
        assert!(
            cfg.drain_bytes_per_ns > 0,
            "staging pool must drain at a non-zero rate"
        );
        CheckpointFleet { cfg }
    }

    /// The configuration the fleet was built with.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    fn build_shards(&self) -> Vec<Shard> {
        let cfg = &self.cfg;
        (0..cfg.shards)
            .map(|s| {
                let stack_base = STACK_ARENA_BASE
                    + u64::from(s) * u64::from(cfg.tenants_per_shard) * TENANT_SPAN_BYTES;
                let ranges: Vec<VirtRange> = (0..cfg.tenants_per_shard)
                    .map(|m| {
                        let base = stack_base + u64::from(m) * TENANT_SPAN_BYTES;
                        VirtRange::new(
                            VirtAddr::new(base),
                            VirtAddr::new(base + TENANT_STACK_BYTES),
                        )
                    })
                    .collect();
                Shard {
                    process: PersistentProcess::new(&ranges),
                    bitmap: DirtyBitmap::new(),
                    geom: BitmapGeometry {
                        range_start: VirtAddr::new(stack_base),
                        bitmap_base: VirtAddr::new(
                            BITMAP_ARENA_BASE + u64::from(s) * BITMAP_SPAN_BYTES,
                        ),
                        granularity: GRANULARITY,
                    },
                    stack_base,
                    prev_end_ns: 0,
                    run_buf: Vec::new(),
                }
            })
            .collect()
    }

    /// Issues one interval's stores for every tenant of `shard`:
    /// records them into the process stacks and marks the shard's
    /// dirty-bitmap domain, granule by granule.
    fn issue_stores(cfg: &FleetConfig, shard: &mut Shard, rng: &mut Xorshift64, interval: u32) {
        for m in 0..cfg.tenants_per_shard {
            let range = shard.tenant_range(m);
            let span = range.end() - range.start();
            for _ in 0..cfg.stores_per_interval {
                let len = cfg.store_bytes.min(span);
                let max_off = span - len;
                let off = if max_off == 0 {
                    0
                } else {
                    rng.next() % max_off
                };
                let addr = range.start() + off;
                let byte = (rng.next() ^ u64::from(interval)) as u8;
                let data = vec![byte; len as usize];
                shard.process.record_store(m, addr, &data);
                // Mark every granule the store touches.
                let mut g = addr.raw() / GRANULARITY * GRANULARITY;
                while g < addr.raw() + len {
                    let (word_addr, bit) = shard.geom.locate(VirtAddr::new(g));
                    shard.bitmap.merge_word(word_addr, 1 << bit);
                    g += GRANULARITY;
                }
            }
        }
    }

    /// Runs the fleet to completion and returns the measurements.
    #[must_use]
    pub fn run(&mut self) -> FleetResult {
        let cfg = self.cfg;
        let mut shards = self.build_shards();
        let mut rng = Xorshift64(cfg.seed | 1);
        let mut machine = Machine::new(MachineConfig::setup_i());
        let mut bw = BandwidthWindows::new(cfg.window_ns);
        let acct = StallAccountant::new_virtual();
        let slo = SloTracker::new(cfg.slo_objective_ns, cfg.slo_error_budget);
        let mut pool = StagingPool {
            occupancy: 0,
            as_of_ns: 0,
            drain_bytes_per_ns: cfg.drain_bytes_per_ns,
        };
        let high_water = cfg.high_water_bytes();

        let mut commits = 0u64;
        let mut deferred = 0u64;
        let mut backpressure_ns = 0u64;

        for interval in 0..cfg.intervals {
            // Stores for this interval land before any shard's commit
            // tick fires.
            for shard in shards.iter_mut() {
                Self::issue_stores(&cfg, shard, &mut rng, interval);
            }
            // Commit ticks in deterministic time order across shards.
            let mut ticks: Vec<(u64, u32)> = (0..cfg.shards)
                .map(|k| {
                    (
                        u64::from(interval) * cfg.interval_ns + cfg.shard_offset_ns(k),
                        k,
                    )
                })
                .collect();
            ticks.sort_unstable();
            for (t_sched, k) in ticks {
                let shard = &mut shards[k as usize];
                let sequence = u64::from(interval) + 1;

                // Inspect this shard's bitmap domain per tenant.
                let mut runs_map: BTreeMap<u32, Vec<CopyRun>> = BTreeMap::new();
                let mut total_runs = 0u64;
                let mut total_bytes = 0u64;
                for m in 0..cfg.tenants_per_shard {
                    let active = shard.tenant_range(m);
                    let geom = shard.geom;
                    let _ = shard
                        .bitmap
                        .inspect_and_clear_into(&geom, active, &mut shard.run_buf);
                    total_runs += shard.run_buf.len() as u64;
                    total_bytes += shard.run_buf.iter().map(|r| r.len).sum::<u64>();
                    runs_map.insert(m, shard.run_buf.clone());
                }

                // Ledger window opens at the scheduled tick, clamped
                // so this shard's windows never overlap.
                let win_start = t_sched.max(shard.prev_end_ns);
                let occ = pool.occupancy_at(win_start);
                let wait = pool.drain_wait_ns(occ, high_water);
                let t_start = if wait > 0 {
                    deferred += 1;
                    win_start.saturating_add(wait)
                } else {
                    win_start
                };
                pool.occupancy_at(t_start);
                pool.occupancy = pool
                    .occupancy
                    .saturating_add(total_bytes)
                    .min(cfg.staging_capacity_bytes);

                // Modelled serial commit durations (workers = 1).
                let stage_ns = commit_cost::PHASE_BASE_NS
                    + total_runs * commit_cost::STAGE_RUN_NS
                    + total_bytes * commit_cost::STAGE_BYTE_NS;
                let seal_ns = commit_cost::SEAL_NS
                    + u64::from(cfg.tenants_per_shard) * commit_cost::BOOKKEEP_SLOT_NS;
                let apply_ns = commit_cost::PHASE_BASE_NS
                    + total_runs * commit_cost::APPLY_RUN_NS
                    + total_bytes * commit_cost::APPLY_BYTE_NS
                    + u64::from(cfg.tenants_per_shard) * commit_cost::REGISTER_SLOT_NS;
                let t_end = t_start + stage_ns + seal_ns + apply_ns;

                // The real commit, for bytes and crash-consistency
                // correctness; timing comes from the model above.
                shard
                    .process
                    .commit_with(std::slice::from_ref(&runs_map), 1, CommitHooks::default())
                    .expect("no injector is attached, so the commit cannot crash");
                commits += 1;

                // Tagged NVM traffic: stage copy, seal record, apply
                // copy — the same per-phase ledger the spine perf
                // section reads.
                machine.bulk_copy_dram_to_nvm_phase(total_bytes, CkptPhase::Stage);
                let seal_paddr = machine.nvm_base();
                machine.persist_seal_record(seal_paddr, SEAL_RECORD_BYTES);
                machine.bulk_copy_nvm_to_nvm_phase(total_bytes, CkptPhase::Apply);
                // The whole commit's NVM traffic is charged to the
                // window containing its start; commits are short
                // relative to the window width.
                bw.record(t_start, total_bytes * 2 + SEAL_RECORD_BYTES);

                // Attribution: each tenant's window is exactly tiled
                // by backpressure + stage + seal + apply segments.
                for m in 0..cfg.tenants_per_shard {
                    let tid = k * cfg.tenants_per_shard + m;
                    acct.record_window(tid, win_start, t_end);
                    if t_start > win_start {
                        acct.record_segment(
                            tid,
                            StallCause::Backpressure,
                            sequence,
                            win_start,
                            t_start,
                        );
                    }
                    acct.record_segment(
                        tid,
                        StallCause::Stage,
                        sequence,
                        t_start,
                        t_start + stage_ns,
                    );
                    acct.record_segment(
                        tid,
                        StallCause::Seal,
                        sequence,
                        t_start + stage_ns,
                        t_start + stage_ns + seal_ns,
                    );
                    acct.record_segment(
                        tid,
                        StallCause::Apply,
                        sequence,
                        t_start + stage_ns + seal_ns,
                        t_end,
                    );
                    // SLO latency runs from the *scheduled* tick, so
                    // queueing behind the previous commit counts too.
                    slo.record(tid, t_end - t_sched);
                }
                backpressure_ns += (t_start - win_start) * u64::from(cfg.tenants_per_shard);
                shard.prev_end_ns = t_end;
            }
        }

        let horizon_ns = u64::from(cfg.intervals) * cfg.interval_ns - 1;
        let nvm_phase_bytes = machine.ckpt_nvm_bytes();
        let result = FleetResult {
            commits,
            deferred_commits: deferred,
            backpressure_ns,
            nvm_phase_bytes,
            peak_window_bytes: bw.peak_bytes(),
            peak_to_mean_milli: bw.peak_to_mean_milli(horizon_ns),
            window_ns: cfg.window_ns,
            horizon_ns,
            slo: slo.report(),
            attribution: acct.snapshot(),
        };
        Self::publish(&result);
        result
    }

    /// Publishes fleet counters/gauges under the registered
    /// `prosper.fleet.*` names (no-op without a telemetry context).
    fn publish(result: &FleetResult) {
        if !prosper_telemetry::enabled() {
            return;
        }
        prosper_telemetry::with(|t| {
            let r = t.registry();
            r.counter("prosper.fleet.commits").add(result.commits);
            r.counter("prosper.fleet.deferred_commits")
                .add(result.deferred_commits);
            r.counter("prosper.fleet.ckpt_nvm_bytes")
                .add(result.nvm_phase_bytes.total());
            r.gauge("prosper.fleet.peak_to_mean_milli")
                .set(i64::try_from(result.peak_to_mean_milli).unwrap_or(i64::MAX));
            prosper_telemetry::report_to_registry(&result.attribution, r);
            prosper_telemetry::slo_to_registry(&result.slo, r);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_offsets_are_deterministic_and_spread() {
        let cfg = FleetConfig::smoke();
        let offsets: Vec<u64> = (0..cfg.shards).map(|k| cfg.shard_offset_ns(k)).collect();
        assert_eq!(offsets, vec![0, 250_000, 500_000, 750_000]);
        let aligned = FleetConfig::smoke_aligned();
        assert!((0..aligned.shards).all(|k| aligned.shard_offset_ns(k) == 0));
    }

    #[test]
    fn staggered_peak_to_mean_strictly_below_aligned_at_equal_bytes() {
        let stag = CheckpointFleet::new(FleetConfig::smoke()).run();
        let alig = CheckpointFleet::new(FleetConfig::smoke_aligned()).run();
        assert_eq!(
            stag.nvm_phase_bytes.total(),
            alig.nvm_phase_bytes.total(),
            "same workload must write the same total bytes"
        );
        assert!(stag.nvm_phase_bytes.total() > 0);
        assert!(
            stag.peak_to_mean_milli < alig.peak_to_mean_milli,
            "staggering must strictly lower peak-to-mean ({} vs {})",
            stag.peak_to_mean_milli,
            alig.peak_to_mean_milli
        );
    }

    #[test]
    fn attribution_conserves_with_and_without_backpressure() {
        let calm = CheckpointFleet::new(FleetConfig::smoke()).run();
        calm.attribution
            .verify_conservation()
            .expect("calm fleet ledger must tile");
        assert_eq!(calm.deferred_commits, 0);
        assert_eq!(calm.backpressure_ns, 0);

        let choked = CheckpointFleet::new(FleetConfig::choked()).run();
        choked
            .attribution
            .verify_conservation()
            .expect("backpressured ledger must still tile");
        assert!(choked.deferred_commits > 0, "choked fleet must defer");
        assert!(choked.backpressure_ns > 0);
        let ledger_bp: u64 = choked
            .attribution
            .segments
            .iter()
            .filter(|s| s.cause == StallCause::Backpressure)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(ledger_bp, choked.backpressure_ns);
    }

    #[test]
    fn every_tenant_gets_slo_series_and_commits_complete() {
        let cfg = FleetConfig::smoke();
        let result = CheckpointFleet::new(cfg).run();
        assert_eq!(
            result.commits,
            u64::from(cfg.shards) * u64::from(cfg.intervals)
        );
        assert_eq!(
            result.slo.per_thread.len() as u32,
            cfg.total_tenants(),
            "one SLO series per tenant"
        );
        for stats in result.slo.per_thread.values() {
            assert!(stats.p99_ns > 0, "latencies must be recorded");
        }
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let a = CheckpointFleet::new(FleetConfig::smoke()).run();
        let b = CheckpointFleet::new(FleetConfig::smoke()).run();
        assert_eq!(a.nvm_phase_bytes, b.nvm_phase_bytes);
        assert_eq!(a.peak_to_mean_milli, b.peak_to_mean_milli);
        assert_eq!(a.attribution, b.attribution);
    }

    #[test]
    fn high_water_bytes_is_exact_permille() {
        let mut cfg = FleetConfig::smoke();
        cfg.staging_capacity_bytes = 10_000;
        cfg.high_water_permille = 800;
        assert_eq!(cfg.high_water_bytes(), 8000);
        cfg.staging_capacity_bytes = 1001;
        cfg.high_water_permille = 500;
        assert_eq!(cfg.high_water_bytes(), 500);
    }
}
