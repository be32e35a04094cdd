//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of
//! the call: its name (`layer.function`), start and end relative to the
//! tracer's origin, the thread it ran on, and the span that caused it.
//! Phase spans on the orchestrating thread also carry the `obs` counter
//! totals at their end boundary. Spans stay in memory until the run ends
//! and [`Tracer::to_json`] renders them for writing out.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span; `SpanId(0)` is "no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Microseconds since the tracer's origin.
    pub start_us: f64,
    pub end_us: f64,
    /// Small per-thread index, in order of each thread's first span.
    pub thread: u64,
    /// The home a per-home call simulated.
    pub home: Option<u32>,
    /// `obs` counter totals when the span ended (phase spans only).
    pub counts: Option<BTreeMap<String, u64>>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures,
/// so the set-up repetitions share the traced run's code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD_INDEX: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Time `f` as a call span that simulates home `home`.
    pub fn home_call<T>(
        &self,
        parent: SpanId,
        name: &'static str,
        home: u32,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        self.record(parent, name, Some(home), false, f)
    }

    /// Time `f` as a phase span under `parent`, attaching the `obs`
    /// counter totals at its end. Call from the orchestrating thread only.
    pub fn phase<T>(&self, parent: SpanId, name: &'static str, f: impl FnOnce(SpanId) -> T) -> T {
        self.record(parent, name, None, true, f)
    }

    fn record<T>(
        &self,
        parent: SpanId,
        name: &'static str,
        home: Option<u32>,
        counts: bool,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.enabled {
            return f(SpanId(0));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.origin.elapsed();
        let out = f(SpanId(id));
        let end = self.origin.elapsed();
        let counts = counts.then(|| obs::snapshot().counters);
        let span = Span {
            id,
            parent: parent.0,
            name,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            thread: THREAD_INDEX.with(|t| *t),
            home,
            counts,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking span")
            .clone()
    }

    /// Render every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3}",
                s.id, s.parent, s.name, s.thread, s.start_us, s.end_us
            ));
            if let Some(home) = s.home {
                out.push_str(&format!(",\"home\":{home}"));
            }
            if let Some(counts) = &s.counts {
                out.push_str(",\"counts\":{");
                for (j, (k, v)) in counts.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{k}\":{v}"));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        out
    }
}
