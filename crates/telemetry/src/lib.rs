//! Unified telemetry for the Prosper reproduction: a metrics registry
//! (counters, gauges, log-linear histograms), structured span/event
//! tracing with pluggable sinks and a Chrome `trace_event` exporter
//! for Perfetto, and the stall-attribution ledger.
//!
//! The hot-path contract: with no context installed every
//! instrumentation call is a thread-local boolean load and a
//! predictable branch. Simulator code keeps its own plain counters on
//! per-store paths and reports into telemetry only at interval
//! boundaries.

#![forbid(unsafe_code)]
pub mod attribution;
pub mod metrics;
pub mod names;
pub mod sink;
pub mod span;
pub mod time;

pub use attribution::{
    AttributionSnapshot, ConservationError, Stall, StallAccountant, StallCause, StallSegment,
    StallWindow, ThreadStallTotals,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry};
pub use sink::{chrome_trace, EventSink, RingBufferSink};
pub use span::{
    enabled, install, instant, set_tid, span_begin, span_end, uninstall, with, Event, Telemetry,
};
pub use time::Stopwatch;
