//! Captures a checkpoint-timeline trace of a Prosper run for export
//! as a Chrome `trace_event` document (viewable in Perfetto or
//! `chrome://tracing`).
//!
//! The capture installs a dedicated telemetry context with a
//! ring-buffer sink, replays a workload under the Prosper mechanism,
//! and returns the recorded span/event stream. Because each simulated
//! run starts its clock at zero, tracing one run at a time is what
//! keeps the exported timeline well-formed.

use prosper_core::ProsperMechanism;
use prosper_gemos::checkpoint::{CheckpointManager, RunResult};
use prosper_memsim::config::MachineConfig;
use prosper_memsim::machine::Machine;
use prosper_telemetry as telemetry;
use prosper_telemetry::{Event, RingBufferSink, Telemetry};
use prosper_trace::workloads::{Workload, WorkloadProfile};

use crate::scale;

/// Everything a traced checkpoint run produced.
#[derive(Debug)]
pub struct TraceCapture {
    /// The span/instant event stream, in emission order.
    pub events: Vec<Event>,
    /// The run's aggregate result (for cross-checking).
    pub result: RunResult,
}

/// Runs `intervals` checkpoint intervals of the GAPBS PageRank
/// workload under Prosper with a telemetry context installed, and
/// returns the captured events.
///
/// Any previously installed telemetry context is replaced and the
/// capture's own context is uninstalled on return; callers install
/// their own context afterwards if they need one.
#[must_use]
pub fn capture_prosper_run(intervals: u64) -> TraceCapture {
    let (sink, handle) = RingBufferSink::new(1 << 20);
    telemetry::install(Telemetry::new(Box::new(sink)));
    let mut machine = Machine::new(MachineConfig::setup_i());
    let mut mgr = CheckpointManager::new(&mut machine, scale::INTERVAL_10MS);
    let mut mech = ProsperMechanism::with_defaults();
    let workload = Workload::new(WorkloadProfile::gapbs_pr(), scale::SEED);
    let result = mgr.run_stack_only(workload, &mut mech, intervals);
    telemetry::uninstall().expect("capture context was installed");
    TraceCapture {
        events: handle.take(),
        result,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_has_nested_checkpoint_phases() {
        let cap = capture_prosper_run(2);
        assert_eq!(cap.result.intervals, 2);
        // Each interval must contain the Prosper phases nested inside
        // the manager's commit span.
        for phase in [
            "prosper.ckpt.quiesce",
            "prosper.ckpt.scan",
            "prosper.ckpt.copy",
            "prosper.ckpt.apply",
        ] {
            let begins = cap
                .events
                .iter()
                .filter(|e| matches!(e, Event::SpanBegin { name, .. } if name == phase))
                .count();
            assert_eq!(begins, 2, "{phase} once per interval");
        }
        let nested = cap.events.iter().any(
            |e| matches!(e, Event::SpanBegin { name, depth, .. } if name == "prosper.ckpt.quiesce" && *depth >= 2),
        );
        assert!(nested, "phases nest inside interval and commit spans");
    }

    #[test]
    fn chrome_export_is_parseable() {
        let cap = capture_prosper_run(1);
        let json = telemetry::chrome_trace(&cap.events);
        let doc: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(doc["traceEvents"].as_array().is_some());
    }
}
