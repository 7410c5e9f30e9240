//! The metrics registry holds only what a program reads back.
//!
//! A traced spine pass — a spine-mode [`ProsperMechanism`] whose every
//! interval's runs are committed through a spine [`PersistentProcess`],
//! the shape of the benchmark's traced `mcf_spine` pass — touches every
//! instrumented layer: the machine, the checkpoint manager, the cycle
//! model and the data plane. The registry it leaves must hold exactly
//! the 12 registered metrics, each under its registered kind, so a new
//! instrument that nothing reads shows up here.

use std::collections::BTreeMap;

use prosper_core::recovery::PersistentProcess;
use prosper_core::{ProsperMechanism, SpineConfig};
use prosper_gemos::checkpoint::{
    CheckpointManager, CheckpointOutcome, IntervalInfo, MemoryPersistence,
};
use prosper_memsim::addr::VirtRange;
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_telemetry::names::{self, InstrumentKind};
use prosper_telemetry::{RingBufferSink, Telemetry};
use prosper_trace::record::MemAccess;
use prosper_trace::source::TraceSource;
use prosper_trace::workloads::{Workload, WorkloadProfile};

/// The mechanism, with its runs mirrored into the data plane at every
/// interval end.
struct Mirrored {
    mech: ProsperMechanism,
    process: PersistentProcess,
}

impl MemoryPersistence for Mirrored {
    fn name(&self) -> &'static str {
        self.mech.name()
    }

    fn begin_interval(&mut self, machine: &mut Machine, region: VirtRange) {
        self.mech.begin_interval(machine, region);
    }

    fn on_store(&mut self, machine: &mut Machine, access: &MemAccess) {
        self.mech.on_store(machine, access);
    }

    fn end_interval(&mut self, machine: &mut Machine, info: IntervalInfo) -> CheckpointOutcome {
        let outcome = self.mech.end_interval(machine, info);
        let runs = BTreeMap::from([(0, self.mech.last_runs().to_vec())]);
        self.process.commit(&runs);
        outcome
    }
}

#[test]
fn traced_spine_pass_registers_exactly_the_read_metrics() {
    let (sink, _events) = RingBufferSink::new(1 << 12);
    let tel = prosper_telemetry::install(Telemetry::new(Box::new(sink)));
    let workload = Workload::new(WorkloadProfile::mcf(), 1);
    let stack = workload.stack().reserved_range();
    let mut mirrored = Mirrored {
        mech: ProsperMechanism::with_defaults().with_spine(SpineConfig::merge_always()),
        process: PersistentProcess::new_with_spine(&[stack], SpineConfig::merge_always()),
    };
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, 30_000);
    let result = mgr.run_stack_only(workload, &mut mirrored, 4);
    prosper_telemetry::uninstall();
    assert_eq!(result.intervals, 4);
    assert_eq!(mirrored.process.committed_sequence(), 4);

    let snap = tel.registry().snapshot();
    let got: BTreeMap<&str, InstrumentKind> = snap
        .counters
        .keys()
        .map(|n| (n.as_str(), InstrumentKind::Counter))
        .chain(
            snap.gauges
                .keys()
                .map(|n| (n.as_str(), InstrumentKind::Gauge)),
        )
        .chain(
            snap.histograms
                .keys()
                .map(|n| (n.as_str(), InstrumentKind::Histogram)),
        )
        .collect();
    let kept = BTreeMap::from([
        (
            "prosper.ckpt.phase.inspect_cycles",
            InstrumentKind::Histogram,
        ),
        ("prosper.ckpt.phase.clear_cycles", InstrumentKind::Histogram),
        ("prosper.ckpt.phase.stage_cycles", InstrumentKind::Histogram),
        ("prosper.ckpt.phase.apply_cycles", InstrumentKind::Histogram),
        ("prosper.ckpt.phase.merge_cycles", InstrumentKind::Histogram),
        ("prosper.commit.phase.stage_ns", InstrumentKind::Histogram),
        ("prosper.commit.phase.seal_ns", InstrumentKind::Histogram),
        ("prosper.commit.phase.apply_ns", InstrumentKind::Histogram),
        ("prosper.commit.phase.merge_ns", InstrumentKind::Histogram),
        ("prosper.spine.merges", InstrumentKind::Counter),
        ("prosper.spine.merged_bytes", InstrumentKind::Counter),
        ("prosper.commit.workers", InstrumentKind::Gauge),
    ]);
    assert_eq!(got, kept, "the traced pass's registry");

    // The catalogue registers the same 12 metrics; everything else in
    // it is a span or an instant.
    let registered: BTreeMap<&str, InstrumentKind> = names::REGISTERED
        .iter()
        .copied()
        .filter(|&(_, kind)| kind != InstrumentKind::Span)
        .collect();
    assert_eq!(registered, kept, "the registered metrics");
}
