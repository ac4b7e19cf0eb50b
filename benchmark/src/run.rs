//! One benchmark run: one workload at one seed, in one process.
//!
//! With tracing off the run sets the workload up, then repeats the
//! workload's pass of operations in a closed loop for the requested time,
//! at least [`MIN_PASSES`] times, setting the workload up again after each
//! pass, and reports the end-to-end metrics over each operation's fastest
//! repetition and the fastest set-up. With tracing on it sets up once with
//! spans on, alternates untraced and traced passes (so both see the same
//! spells of a shared host, and their fastest repetitions give the
//! tracing overhead), and then runs the attribution probes; the per-layer
//! metrics come from the spans.

use crate::heap;
use crate::metrics::{Measured, END_TO_END, EXACT};
use crate::probe::{attribute, layer_metrics};
use crate::stats::{highest_reportable, median, percentile};
use crate::trace::{chrome_trace, Tracer};
use crate::workload::{Digest, Scale, Session, Workload, DEFAULT_SEED};
use itr_stats::json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Measured seconds per run unless `--seconds` says otherwise
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Passes every untraced run completes, so each operation has a
/// repetition to be fastest of.
pub const MIN_PASSES: u64 = 2;

/// Passes every traced run completes, half of them traced, so each
/// operation has three repetitions of either kind to be fastest of.
pub const TRACED_PASSES: u64 = 6;

/// Schema tag of the full run record (`--out`, `run --all`, `compare`).
pub const RECORD_SCHEMA: &str = "itr-benchmark-run/v1";

/// The pinned result digests of the default seed at full scale.
const PINNED: &str = include_str!("../pinned.json");

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Where a traced run writes its Chrome trace, if anywhere.
    pub trace_file: Option<PathBuf>,
    /// Input sizes.
    pub scale: Scale,
}

/// How the run's digest compares with the pinned one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// Nothing is pinned for this seed and scale.
    Unpinned,
    /// The digest equals the pinned one.
    Match,
    /// The digest differs from the pinned one, given here.
    Mismatch(u64),
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Operations run (both loops of a traced run).
    pub attempted: u64,
    /// Operations whose check failed, or whose repetition disagreed with
    /// the first pass.
    pub failed: u64,
    /// Digest of the first pass's simulated results.
    pub result_digest: u64,
    /// The digest's pin status.
    pub pinned: Pin,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Measured>,
    /// Exact model outputs over the first pass.
    pub exact: Vec<(&'static str, f64)>,
    /// An untraced run's tail: the highest percentile of the operations'
    /// times with ten operations beyond it, its value in milliseconds,
    /// and the operation count. Reported, not bounded.
    pub tail: Option<(f64, f64, usize)>,
}

impl RunRecord {
    /// All checks held: no failed operation, and the digest matches its
    /// pin.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !matches!(self.pinned, Pin::Mismatch(_))
    }

    /// The one-line result the benchmark contract specifies: `correct`,
    /// `attempted`, `failed` and the metrics with their units.
    pub fn result_json(&self) -> String {
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), metrics_value(&self.metrics)),
        ])
        .to_json()
    }

    /// The full record, one JSON line, as `compare` reads it.
    pub fn record_json(&self) -> String {
        let pinned = match self.pinned {
            Pin::Unpinned => "unpinned".to_string(),
            Pin::Match => "match".to_string(),
            Pin::Mismatch(want) => format!("mismatch (pinned {want:#018x})"),
        };
        let exact =
            self.exact.iter().map(|(name, v)| (name.to_string(), Value::Float(*v))).collect();
        let tail = self.tail.map_or(Value::Null, |(p, ms, n)| {
            Value::Object(vec![
                ("percentile".to_string(), Value::Float(p)),
                ("ms".to_string(), Value::Float(ms)),
                ("n".to_string(), Value::UInt(n as u64)),
            ])
        });
        Value::Object(vec![
            ("schema".to_string(), Value::Str(RECORD_SCHEMA.to_string())),
            ("workload".to_string(), Value::Str(self.workload.name().to_string())),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("scale".to_string(), Value::Str(self.scale.label().to_string())),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("result_digest".to_string(), Value::Str(format!("{:#018x}", self.result_digest))),
            ("pinned".to_string(), Value::Str(pinned)),
            ("metrics".to_string(), metrics_value(&self.metrics)),
            ("exact".to_string(), Value::Object(exact)),
            ("tail".to_string(), tail),
        ])
        .to_json()
    }

    /// Human-readable lines: every metric by name with its unit.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}{}): {} ops checked, {} failed; result_digest {:#018x} ({})\n",
            self.workload.name(),
            self.seed,
            self.scale.label(),
            if self.traced { ", traced" } else { "" },
            self.attempted,
            self.failed,
            self.result_digest,
            match self.pinned {
                Pin::Unpinned => "not pinned".to_string(),
                Pin::Match => "matches pin".to_string(),
                Pin::Mismatch(want) => format!("PIN MISMATCH, pinned {want:#018x}"),
            },
        );
        for m in &self.metrics {
            out += &format!("  {:<40} {:>14.6} {}\n", m.name, m.value, m.unit);
        }
        if let Some((p, ms, n)) = self.tail {
            let name = format!("op_ms_p{p}");
            out +=
                &format!("  {name:<40} {ms:>14.6} ms  (tail over {n} operations; not bounded)\n");
        }
        for (name, v) in &self.exact {
            let unit = EXACT.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            out += &format!("  {name:<40} {v:>14.6} {unit}  (exact)\n");
        }
        out
    }
}

fn metrics_value(metrics: &[Measured]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// What one loop measured.
struct Loop {
    /// Per operation of the pass, its fastest untraced repetition in
    /// milliseconds.
    best_ms: Vec<f64>,
    /// The same over traced repetitions (empty when none was traced).
    traced_ms: Vec<f64>,
    /// Operations run.
    ops: u64,
    /// Operations whose check failed, or whose repetition produced other
    /// results than the first pass.
    failed: u64,
    /// Digest of the first pass's results.
    digest: u64,
    /// Per operation of the first pass, the most heap bytes live while it
    /// ran (the same in every pass: allocation is deterministic).
    peak_heap: Vec<f64>,
}

/// Repeats the session's pass for `seconds`, at least `min_passes` times,
/// calling `after_pass` after each. When `alternate`, every second pass
/// runs with spans on, and the loop stops after an even number of passes.
fn drive(
    session: &mut dyn Session,
    tr: &mut Tracer,
    seconds: f64,
    min_passes: u64,
    alternate: bool,
    after_pass: &mut dyn FnMut(),
) -> Loop {
    let pass = session.pass_len();
    let mut best_ms = vec![f64::INFINITY; pass as usize];
    let mut traced_ms = if alternate { best_ms.clone() } else { Vec::new() };
    let mut first: Vec<Vec<u64>> = Vec::with_capacity(pass as usize);
    let mut digest = Digest::default();
    let mut failed = 0;
    let mut peak_heap = Vec::with_capacity(pass as usize);
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let passes = i / pass;
        if i.is_multiple_of(pass) {
            if i > 0 {
                after_pass();
            }
            if passes >= min_passes
                && (!alternate || passes.is_multiple_of(2))
                && start.elapsed().as_secs_f64() >= seconds
            {
                break;
            }
            tr.set_on(alternate && passes % 2 == 1);
        }
        session.prepare(i, tr);
        heap::reset_peak();
        let t = Instant::now();
        let op = tr.span("bench.op", |tr| session.op(i, tr));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let j = (i % pass) as usize;
        let best = if alternate && passes % 2 == 1 { &mut traced_ms } else { &mut best_ms };
        best[j] = best[j].min(ms);
        let ok = if i < pass {
            peak_heap.push(heap::peak_bytes() as f64);
            for &w in &op.words {
                digest.word(w);
            }
            first.push(op.words);
            op.ok
        } else {
            op.ok && op.words == first[j]
        };
        failed += u64::from(!ok);
        i += 1;
    }
    Loop { best_ms, traced_ms, ops: i, failed, digest: digest.value(), peak_heap }
}

/// The pinned digest for `workload`, when `seed` and `scale` are pinned.
pub fn pinned_digest(workload: Workload, seed: u64, scale: Scale) -> Option<u64> {
    if seed != DEFAULT_SEED || scale != Scale::Full {
        return None;
    }
    let doc = Value::parse(PINNED).expect("pinned.json is valid JSON");
    let hex = doc.get("digests")?.get(workload.name())?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// Runs one workload as `cfg` says.
///
/// # Errors
///
/// Returns an error when the trace file cannot be written.
pub fn run(cfg: &RunConfig) -> Result<RunRecord, String> {
    let w = cfg.workload;
    let mut tr = Tracer::new(false);
    let record = |attempted, failed, digest, metrics, exact| {
        let pinned = match pinned_digest(w, cfg.seed, cfg.scale) {
            None => Pin::Unpinned,
            Some(want) if want == digest => Pin::Match,
            Some(want) => Pin::Mismatch(want),
        };
        RunRecord {
            workload: w,
            seed: cfg.seed,
            scale: cfg.scale,
            traced: cfg.trace,
            attempted,
            failed,
            result_digest: digest,
            pinned,
            metrics,
            exact,
            tail: None,
        }
    };

    if !cfg.trace {
        // Set-ups are timed like operations: spread over the run, so that
        // some fall outside a shared host's slow spells, and the fastest
        // counts. Back-to-back set-ups share a spell, and the median of
        // such runs moved by 30% between two sets of ten.
        let (mut session, t) = tr.timed("bench.setup", |tr| w.setup(cfg.seed, cfg.scale, tr));
        let mut setups = vec![t.as_secs_f64()];
        let mut again = || {
            let start = Instant::now();
            drop(w.setup(cfg.seed, cfg.scale, &mut Tracer::new(false)));
            setups.push(start.elapsed().as_secs_f64());
        };
        let run = drive(session.as_mut(), &mut tr, cfg.seconds, MIN_PASSES, false, &mut again);
        let values = [
            setups.iter().copied().fold(f64::INFINITY, f64::min),
            run.best_ms.len() as f64 / (run.best_ms.iter().sum::<f64>() / 1e3),
            median(&run.best_ms),
            median(&run.peak_heap) / (1024.0 * 1024.0),
        ];
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Measured { name: m.name, unit: m.unit, value })
            .collect();
        let mut record = record(run.ops, run.failed, run.digest, metrics, session.exact());
        record.tail = tail(&run.best_ms);
        return Ok(record);
    }

    tr.set_on(true);
    let mut session = tr.span("bench.setup", |tr| w.setup(cfg.seed, cfg.scale, tr));
    tr.set_phase("loop");
    let run = drive(session.as_mut(), &mut tr, cfg.seconds, TRACED_PASSES, true, &mut || {});
    tr.set_on(true);
    tr.set_phase("probe");
    let inputs = session.probe_inputs();
    let counts =
        tr.span("bench.probe", |tr| attribute(tr, &inputs, session.fuzzer(), cfg.seed, cfg.scale));
    // Per operation, traced over untraced fastest time; the median is
    // robust to the few heavy operations a sum would hang on.
    let ratios: Vec<f64> = run.traced_ms.iter().zip(&run.best_ms).map(|(t, u)| t / u).collect();
    let metrics = layer_metrics(tr.spans(), &counts, median(&ratios) - 1.0);
    if let Some(path) = &cfg.trace_file {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let doc = chrome_trace(tr.spans(), w.name(), cfg.seed).to_json();
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(record(run.ops, run.failed, run.digest, metrics, session.exact()))
}

/// The highest percentile of the per-operation times with at least ten
/// operations beyond it, as (percentile, milliseconds, operations).
fn tail(best_ms: &[f64]) -> Option<(f64, f64, usize)> {
    highest_reportable(best_ms.len()).map(|p| (p, percentile(best_ms, p), best_ms.len()))
}
