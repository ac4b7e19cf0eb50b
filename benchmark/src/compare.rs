//! `compare A.jsonl B.jsonl`: the verdict on every end-to-end metric and
//! workload between a parent (A) and a change (B), by the rules of a
//! small-sandbox measurement: medians and quartiles per side, the share
//! of same-seed pairs B wins, and a verdict against the metric's fixed
//! bound. Exact model outputs must match run for run.

use crate::metrics::{Better, EndToEnd, END_TO_END, EXACT};
use crate::run::RECORD_SCHEMA;
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use itr_stats::json::Value;
use std::collections::BTreeMap;

/// One untraced run record, as `compare` needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Exact outputs by name, plus the result digest.
    pub exact: BTreeMap<String, String>,
}

/// Parses the untraced run records of a JSONL file's text; other lines
/// (traced records, blank lines) are skipped.
///
/// # Errors
///
/// Returns the line number and reason of the first malformed record.
pub fn parse_records(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |why: &str| format!("line {}: {why}", n + 1);
        let v = Value::parse(line).map_err(|e| err(&e.to_string()))?;
        if v.get("schema").and_then(Value::as_str) != Some(RECORD_SCHEMA) {
            return Err(err("not an itr-benchmark run record"));
        }
        if v.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload =
            v.get("workload").and_then(Value::as_str).ok_or_else(|| err("no workload"))?;
        let seed = v.get("seed").and_then(Value::as_u64).ok_or_else(|| err("no seed"))?;
        let mut metrics = BTreeMap::new();
        for (name, m) in v.get("metrics").and_then(Value::as_object).unwrap_or_default() {
            let value = m.get("value").and_then(Value::as_f64).ok_or_else(|| err("bad metric"))?;
            metrics.insert(name.clone(), value);
        }
        let mut exact = BTreeMap::new();
        for (name, x) in v.get("exact").and_then(Value::as_object).unwrap_or_default() {
            exact.insert(name.clone(), x.to_json());
        }
        if let Some(d) = v.get("result_digest").and_then(Value::as_str) {
            exact.insert("result_digest".to_string(), d.to_string());
        }
        out.push(Sample { workload: workload.to_string(), seed, metrics, exact });
    }
    Ok(out)
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins at least nine tenths of the pairs and its median moved by
    /// more than A's interquartile range, in the better direction.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's own spread is wider than the bound, so no-regression cannot be
    /// shown (and B does not beat every A run).
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: EndToEnd,
    /// Parent values.
    pub a: Vec<f64>,
    /// Change values.
    pub b: Vec<f64>,
    /// B's share of won same-seed pairs (ties count for neither side), or
    /// `None` without pairs.
    pub win_rate: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the rules to one metric's values. `pairs` holds same-seed
/// `(a, b)` values.
pub fn verdict(
    metric: &EndToEnd,
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
) -> (Verdict, Option<f64>) {
    let (ma, mb) = (median(a), median(b));
    let (q1, q3) = quartiles(a);
    let spread = (q3 - q1) / ma.abs();
    let allowed = (metric.bound * ma.abs()).max(metric.floor);
    let worse_by = match metric.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let win_rate = (!pairs.is_empty()).then(|| {
        pairs.iter().filter(|&&(x, y)| metric.better.prefers(y, x)).count() as f64
            / pairs.len() as f64
    });
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| metric.better.prefers(y, x)));
    let v = if worse_by > allowed {
        if spread > metric.bound {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if win_rate.is_some_and(|w| w >= 0.9) && -worse_by > q3 - q1 {
        Verdict::Improved
    } else if spread > metric.bound && !b_beats_all {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (v, win_rate)
}

/// Compares every end-to-end metric of every workload present in both.
pub fn compare(a: &[Sample], b: &[Sample]) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in Workload::ALL.map(Workload::name) {
        let sa: Vec<&Sample> = a.iter().filter(|s| s.workload == w).collect();
        let sb: Vec<&Sample> = b.iter().filter(|s| s.workload == w).collect();
        for metric in END_TO_END {
            let values = |s: &[&Sample]| -> Vec<f64> {
                s.iter().filter_map(|x| x.metrics.get(metric.name).copied()).collect()
            };
            let (va, vb) = (values(&sa), values(&sb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let pairs: Vec<(f64, f64)> = sa
                .iter()
                .filter_map(|x| {
                    let y = sb.iter().find(|y| y.seed == x.seed)?;
                    Some((*x.metrics.get(metric.name)?, *y.metrics.get(metric.name)?))
                })
                .collect();
            let (verdict, win_rate) = verdict(&metric, &va, &vb, &pairs);
            rows.push(Row { workload: w.to_string(), metric, a: va, b: vb, win_rate, verdict });
        }
    }
    rows
}

/// Same-seed runs whose exact outputs or result digests differ, as
/// `workload seed name: a != b` lines.
pub fn exact_mismatches(a: &[Sample], b: &[Sample]) -> Vec<String> {
    let mut out = Vec::new();
    for x in a.iter().chain(b) {
        for y in a.iter().chain(b) {
            if x.workload != y.workload || x.seed != y.seed {
                continue;
            }
            for (name, vx) in &x.exact {
                if let Some(vy) = y.exact.get(name) {
                    let line = format!("{} seed {} {name}: {vx} != {vy}", x.workload, x.seed);
                    if vx != vy && !out.contains(&line) {
                        out.push(line);
                    }
                }
            }
        }
    }
    out
}

/// The comparison as a table.
pub fn render(rows: &[Row], mismatches: &[String]) -> String {
    let mut out = format!(
        "{:<15} {:<13} {:>5} {:>12} {:>12} {:>12} {:>12} {:>7} {:>6}  verdict\n",
        "workload", "metric", "unit", "A median", "A iqr", "B median", "B iqr", "B wins", "bound"
    );
    for r in rows {
        let iqr = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            q3 - q1
        };
        out += &format!(
            "{:<15} {:<13} {:>5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>7} {:>5.0}%  {}\n",
            r.workload,
            r.metric.name,
            r.metric.unit,
            median(&r.a),
            iqr(&r.a),
            median(&r.b),
            iqr(&r.b),
            r.win_rate.map_or("-".to_string(), |w| format!("{:.0}%", w * 100.0)),
            r.metric.bound * 100.0,
            r.verdict.label(),
        );
    }
    let names: Vec<&str> = EXACT.iter().map(|(n, _)| *n).collect();
    if mismatches.is_empty() {
        out += &format!(
            "exact outputs ({} and result_digest): identical at every seed\n",
            names.join(", ")
        );
    } else {
        out += "exact outputs CHANGED:\n";
        for m in mismatches {
            out += &format!("  {m}\n");
        }
    }
    out
}
