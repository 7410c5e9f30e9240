//! Structured span/event tracing over the simulated clock.
//!
//! The simulator is single-threaded, so the active [`Telemetry`]
//! context lives in a thread-local. Instrumented code calls the free
//! functions ([`span_begin`], [`span_end`], [`instant`]) with
//! explicit cycle timestamps from the machine clock; with no context
//! installed each call is one thread-local boolean load and a branch.
//! Timestamps are simulated cycles, not wall time. `tid` carries the
//! simulated core id (see [`set_tid`]).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::metrics::Registry;
use crate::sink::EventSink;

/// One trace record. `depth` is the span-nesting level at emission
/// (0 = top level), letting consumers validate nesting without
/// replaying the stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    SpanBegin {
        name: String,
        cat: String,
        ts: u64,
        tid: u32,
        depth: u32,
    },
    SpanEnd {
        name: String,
        ts: u64,
        tid: u32,
        depth: u32,
    },
    Instant {
        name: String,
        ts: u64,
        tid: u32,
    },
}

impl Event {
    #[must_use]
    pub fn ts(&self) -> u64 {
        match self {
            Event::SpanBegin { ts, .. } | Event::SpanEnd { ts, .. } | Event::Instant { ts, .. } => {
                *ts
            }
        }
    }

    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Event::SpanBegin { name, .. }
            | Event::SpanEnd { name, .. }
            | Event::Instant { name, .. } => name,
        }
    }
}

/// A telemetry context: a metrics registry plus an event sink.
pub struct Telemetry {
    registry: Registry,
    sink: RefCell<Box<dyn EventSink>>,
    depth: Cell<u32>,
    tid: Cell<u32>,
    open: RefCell<Vec<String>>,
}

impl Telemetry {
    #[must_use]
    pub fn new(sink: Box<dyn EventSink>) -> Self {
        Telemetry {
            registry: Registry::new(),
            sink: RefCell::new(sink),
            depth: Cell::new(0),
            tid: Cell::new(0),
            open: RefCell::new(Vec::new()),
        }
    }

    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Current span-nesting depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth.get()
    }

    pub fn set_tid(&self, tid: u32) {
        self.tid.set(tid);
    }

    pub fn span_begin(&self, name: &str, cat: &str, ts: u64) {
        let depth = self.depth.get();
        self.depth.set(depth + 1);
        self.open.borrow_mut().push(name.to_string());
        self.sink.borrow_mut().record(&Event::SpanBegin {
            name: name.to_string(),
            cat: cat.to_string(),
            ts,
            tid: self.tid.get(),
            depth,
        });
    }

    /// Closes the innermost open span, which must be `name` — spans
    /// are strictly nested.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced or interleaved begin/end pairs; that is
    /// an instrumentation bug worth failing loudly on.
    pub fn span_end(&self, name: &str, ts: u64) {
        let top = self.open.borrow_mut().pop();
        assert_eq!(
            top.as_deref(),
            Some(name),
            "span_end({name}) does not match innermost open span {top:?}"
        );
        let depth = self.depth.get() - 1;
        self.depth.set(depth);
        self.sink.borrow_mut().record(&Event::SpanEnd {
            name: name.to_string(),
            ts,
            tid: self.tid.get(),
            depth,
        });
    }

    pub fn instant(&self, name: &str, ts: u64) {
        self.sink.borrow_mut().record(&Event::Instant {
            name: name.to_string(),
            ts,
            tid: self.tid.get(),
        });
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CTX: RefCell<Option<Rc<Telemetry>>> = const { RefCell::new(None) };
}

/// Installs a context for this thread, returning a shared handle to
/// it. Replaces any previous context.
pub fn install(t: Telemetry) -> Rc<Telemetry> {
    let rc = Rc::new(t);
    CTX.with(|c| *c.borrow_mut() = Some(rc.clone()));
    ENABLED.with(|e| e.set(true));
    rc
}

/// Removes this thread's context, returning its handle if one was
/// installed.
pub fn uninstall() -> Option<Rc<Telemetry>> {
    ENABLED.with(|e| e.set(false));
    CTX.with(|c| c.borrow_mut().take())
}

/// Fast path: is a context installed? One thread-local load.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Runs `f` against the installed context, if any.
pub fn with<R>(f: impl FnOnce(&Telemetry) -> R) -> Option<R> {
    if !enabled() {
        return None;
    }
    CTX.with(|c| c.borrow().as_ref().map(|t| f(t)))
}

/// Opens a span on the installed context; no-op without one.
#[inline]
pub fn span_begin(name: &str, cat: &str, ts: u64) {
    if enabled() {
        with(|t| t.span_begin(name, cat, ts));
    }
}

/// Closes a span on the installed context; no-op without one.
#[inline]
pub fn span_end(name: &str, ts: u64) {
    if enabled() {
        with(|t| t.span_end(name, ts));
    }
}

/// Emits an instant event on the installed context; no-op without one.
#[inline]
pub fn instant(name: &str, ts: u64) {
    if enabled() {
        with(|t| t.instant(name, ts));
    }
}

/// Sets the simulated core id stamped on subsequent events.
#[inline]
pub fn set_tid(tid: u32) {
    if enabled() {
        with(|t| t.set_tid(tid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingBufferSink;

    #[test]
    fn nesting_depth_tracks_begin_end() {
        let (sink, events) = RingBufferSink::new(64);
        let t = Telemetry::new(Box::new(sink));
        t.span_begin("outer", "test", 10);
        assert_eq!(t.depth(), 1);
        t.span_begin("inner", "test", 20);
        assert_eq!(t.depth(), 2);
        t.span_end("inner", 30);
        t.span_end("outer", 40);
        assert_eq!(t.depth(), 0);

        let evs = events.take();
        assert_eq!(evs.len(), 4);
        match (&evs[0], &evs[1], &evs[2], &evs[3]) {
            (
                Event::SpanBegin {
                    name: a, depth: 0, ..
                },
                Event::SpanBegin {
                    name: b, depth: 1, ..
                },
                Event::SpanEnd {
                    name: c, depth: 1, ..
                },
                Event::SpanEnd {
                    name: d, depth: 0, ..
                },
            ) => {
                assert_eq!((a.as_str(), b.as_str()), ("outer", "inner"));
                assert_eq!((c.as_str(), d.as_str()), ("inner", "outer"));
            }
            other => panic!("unexpected event shapes: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "does not match innermost")]
    fn interleaved_spans_panic() {
        let (sink, _events) = RingBufferSink::new(8);
        let t = Telemetry::new(Box::new(sink));
        t.span_begin("a", "test", 0);
        t.span_begin("b", "test", 1);
        t.span_end("a", 2);
    }

    #[test]
    fn free_functions_are_noops_without_context() {
        uninstall();
        assert!(!enabled());
        // Must not panic or allocate a context.
        span_begin("x", "test", 0);
        span_end("x", 1);
        instant("y", 2);
        assert!(with(|_| ()).is_none());
    }

    #[test]
    fn install_routes_free_functions() {
        let (sink, events) = RingBufferSink::new(8);
        install(Telemetry::new(Box::new(sink)));
        assert!(enabled());
        set_tid(3);
        span_begin("s", "test", 5);
        span_end("s", 9);
        let t = uninstall().expect("context was installed");
        drop(t);
        let evs = events.take();
        assert_eq!(evs.len(), 2);
        assert!(matches!(&evs[0], Event::SpanBegin { tid: 3, ts: 5, .. }));
    }
}
