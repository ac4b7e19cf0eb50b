//! In-memory spans around the benchmark's calls into each layer, written
//! out as Chrome trace-event JSON with a per-layer self-time summary.
//!
//! A span records its name, start, duration, the span that caused it, the
//! phase of the run it belongs to, and a work count (instructions, calls)
//! so that rates are measured where the work happens. With tracing off,
//! [`Tracer::span`] is one branch plus the clock reads its caller needs,
//! and nothing is stored.

use itr_stats::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `faults.observe`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The phase of the run: `setup`, `loop` or `probe`.
    pub phase: &'static str,
    /// Units of work done inside the span (instructions, calls, ...).
    pub work: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: &'static str,
}

impl Tracer {
    /// A recorder that keeps spans when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), phase: "setup" }
    }

    /// Turns recording on or off between phases.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with `phase`.
    pub fn set_phase(&mut self, phase: &'static str) {
        self.phase = phase;
    }

    /// The closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.record(name, |tr| (f(tr), 1)).0
    }

    /// Runs `f`, which returns its result and the work it did, inside a
    /// span named `name`.
    pub fn counted<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> (T, u64)) -> T {
        self.record(name, f).0
    }

    /// Runs `f` inside a span named `name` and returns its wall time,
    /// which is measured whether or not spans are kept.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        self.record(name, |tr| (f(tr), 1))
    }

    fn record<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, u64),
    ) -> (T, Duration) {
        if !self.on {
            let t = Instant::now();
            let (out, _) = f(self);
            return (out, t.elapsed());
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: (start - self.t0).as_nanos() as u64,
            dur_ns: 0,
            parent,
            phase: self.phase,
            work: 0,
        });
        self.open.push(index);
        let (out, work) = f(self);
        let dur = start.elapsed();
        self.open.pop();
        self.spans[index].dur_ns = dur.as_nanos() as u64;
        self.spans[index].work = work;
        (out, dur)
    }
}

/// Self time in milliseconds and call count, per span name and per
/// layer. A span's self time is its duration minus the time its direct
/// children cover.
pub type SelfTimes = (BTreeMap<&'static str, (f64, u64)>, BTreeMap<&'static str, f64>);

/// Computes [`SelfTimes`] over `spans`.
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, children) in spans.iter().zip(&child_ns) {
        let self_ms = s.dur_ns.saturating_sub(*children) as f64 / 1e6;
        let e = by_name.entry(s.name).or_insert((0.0, 0));
        e.0 += self_ms;
        e.1 += 1;
        *by_layer.entry(s.layer()).or_insert(0.0) += self_ms;
    }
    (by_name, by_layer)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The Chrome trace-event document (`chrome://tracing`, Perfetto): one
/// complete (`"ph": "X"`) event per span, plus the per-layer self-time
/// summary under `itrLayerSummary`.
pub fn chrome_trace(spans: &[Span], workload: &str, seed: u64) -> Value {
    let us = |ns: u64| Value::Float(ns as f64 / 1e3);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let mut args = vec![
                ("id", Value::UInt(id as u64)),
                ("phase", Value::Str(s.phase.to_string())),
                ("work", Value::UInt(s.work)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent", Value::UInt(p as u64)));
            }
            obj(vec![
                ("name", Value::Str(s.name.to_string())),
                ("cat", Value::Str(s.layer().to_string())),
                ("ph", Value::Str("X".to_string())),
                ("ts", us(s.start_ns)),
                ("dur", us(s.dur_ns)),
                ("pid", Value::UInt(1)),
                ("tid", Value::UInt(1)),
                ("args", obj(args)),
            ])
        })
        .collect();
    let (by_name, by_layer) = self_times(spans);
    let calls = by_name
        .iter()
        .map(|(name, (self_ms, n))| {
            (
                name.to_string(),
                obj(vec![("self_ms", Value::Float(*self_ms)), ("calls", Value::UInt(*n))]),
            )
        })
        .collect();
    let layers =
        by_layer.iter().map(|(layer, ms)| (layer.to_string(), Value::Float(*ms))).collect();
    obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
        (
            "itrLayerSummary",
            obj(vec![
                ("workload", Value::Str(workload.to_string())),
                ("seed", Value::UInt(seed)),
                ("self_ms_by_layer", Value::Object(layers)),
                ("self_ms_by_call", Value::Object(calls)),
            ]),
        ),
    ])
}
