//! Pluggable destinations for trace events, plus the Chrome
//! `trace_event` exporter consumed by Perfetto / `chrome://tracing`.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use serde::Serialize;
use serde_json::Value;

use crate::span::Event;

/// Receives every emitted event. Implementations must not panic on
/// I/O trouble — telemetry must never take the simulation down.
pub trait EventSink {
    fn record(&mut self, ev: &Event);
}

/// Shared view onto a [`RingBufferSink`]'s storage, for tests and
/// post-run export.
#[derive(Clone)]
pub struct RingBufferHandle {
    buf: Rc<RefCell<VecDeque<Event>>>,
}

impl RingBufferHandle {
    /// Drains and returns everything recorded so far, oldest first.
    #[must_use]
    pub fn take(&self) -> Vec<Event> {
        self.buf.borrow_mut().drain(..).collect()
    }
}

/// Keeps the most recent `capacity` events in memory.
pub struct RingBufferSink {
    buf: Rc<RefCell<VecDeque<Event>>>,
    capacity: usize,
}

impl RingBufferSink {
    /// Returns the sink plus a handle that stays valid after the sink
    /// is boxed into a [`crate::span::Telemetry`].
    #[must_use]
    pub fn new(capacity: usize) -> (Self, RingBufferHandle) {
        let buf = Rc::new(RefCell::new(VecDeque::with_capacity(capacity.min(4096))));
        (
            RingBufferSink {
                buf: buf.clone(),
                capacity,
            },
            RingBufferHandle { buf },
        )
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, ev: &Event) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(ev.clone());
    }
}

/// Renders events as a Chrome `trace_event` JSON document
/// (`{"traceEvents": [...]}`), using duration begin/end pairs so
/// nesting survives. Timestamps are simulated cycles reported in the
/// `ts` microsecond field (1 cycle = 1 µs on the trace timeline).
#[must_use]
pub fn chrome_trace(events: &[Event]) -> String {
    let entries: Vec<Value> = events
        .iter()
        .map(|ev| {
            let (ph, name, cat, ts, tid) = match ev {
                Event::SpanBegin {
                    name, cat, ts, tid, ..
                } => ("B", name.clone(), cat.clone(), *ts, *tid),
                Event::SpanEnd { name, ts, tid, .. } => {
                    ("E", name.clone(), String::new(), *ts, *tid)
                }
                Event::Instant { name, ts, tid } => ("i", name.clone(), String::new(), *ts, *tid),
            };
            let mut fields = vec![
                ("name".to_string(), name.to_value()),
                ("ph".to_string(), ph.to_value()),
                ("ts".to_string(), ts.to_value()),
                ("pid".to_string(), 1u32.to_value()),
                ("tid".to_string(), tid.to_value()),
            ];
            if !cat.is_empty() {
                fields.push(("cat".to_string(), cat.to_value()));
            }
            if ph == "i" {
                // Thread-scoped instant marker.
                fields.push(("s".to_string(), "t".to_value()));
            }
            Value::Object(fields)
        })
        .collect();
    let doc = Value::Object(vec![("traceEvents".to_string(), Value::Array(entries))]);
    serde_json::to_string(&doc).expect("value tree serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SpanBegin {
                name: "ckpt.interval".into(),
                cat: "ckpt".into(),
                ts: 100,
                tid: 0,
                depth: 0,
            },
            Event::Instant {
                name: "hwm".into(),
                ts: 150,
                tid: 0,
            },
            Event::SpanEnd {
                name: "ckpt.interval".into(),
                ts: 300,
                tid: 0,
                depth: 0,
            },
        ]
    }

    #[test]
    fn ring_buffer_caps_and_drains() {
        let (mut sink, handle) = RingBufferSink::new(2);
        for ev in sample_events() {
            sink.record(&ev);
        }
        let evs = handle.take();
        assert_eq!(evs.len(), 2, "oldest event evicted at capacity");
        assert_eq!(evs[0].name(), "hwm");
        assert!(handle.take().is_empty(), "take drains the buffer");
    }

    #[test]
    fn chrome_trace_shape() {
        let json = chrome_trace(&sample_events());
        let doc: Value = serde_json::from_str(&json).unwrap();
        let events = doc["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["ph"].as_str(), Some("B"));
        assert_eq!(events[0]["cat"].as_str(), Some("ckpt"));
        assert_eq!(events[0]["ts"].as_u64(), Some(100));
        assert_eq!(events[1]["ph"].as_str(), Some("i"));
        assert_eq!(events[2]["ph"].as_str(), Some("E"));
        assert_eq!(events[2]["pid"].as_u64(), Some(1));
    }
}
