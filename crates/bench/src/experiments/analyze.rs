//! The `itr-analyze` static-analysis pass as a harness job family: the
//! workload suite splits round-robin across fixed shards, each shard
//! runs the full static stack (CFG, trace enumeration, aliasing, set
//! conflicts) with dynamic cross-validation, and the emit job renders
//! `analyze.txt` / `analyze.csv` in suite order.
//!
//! The analysis parameters are pinned to the `itr-analyze` binary's
//! defaults (mimic seed aside, which follows the scale) so the artifact
//! is directly comparable to `tests/golden_analyze.json` and to ad-hoc
//! binary runs.

use super::{emit_payload, get_str, get_u64, obj, Csv, Emitted, Scale};
use itr_analyze::{analyze_program, AnalyzeConfig, WorkloadAnalysis};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_stats::json::Value;
use itr_workloads::suite::{self, WorkloadKind};
use std::fmt::Write as _;
use std::path::Path;

/// Fixed shard count — part of the deterministic decomposition.
pub const ANALYZE_SHARDS: u32 = 4;

/// Mimic dynamic-instruction target, pinned to the `itr-analyze` binary
/// default so artifacts and the golden baseline stay comparable across
/// scales.
pub const ANALYZE_MIMIC_INSTRS: u64 = 30_000;

/// Dynamic verification budget, likewise pinned to the binary default.
pub const ANALYZE_VERIFY_BUDGET: u64 = 200_000;

/// One workload's analysis as a journal-crossing payload.
fn workload_value(index: usize, kind: &WorkloadKind, w: &WorkloadAnalysis) -> Value {
    let l16 = w.lens.iter().find(|l| l.max_len == 16);
    let dynamic = l16.and_then(|l| l.dynamic.as_ref());
    obj(vec![
        ("index", Value::UInt(index as u64)),
        ("name", Value::Str(w.name.clone())),
        (
            "kind",
            Value::Str(
                match kind {
                    WorkloadKind::Kernel => "kernel",
                    WorkloadKind::Mimic => "mimic",
                }
                .to_string(),
            ),
        ),
        ("text_instrs", Value::UInt(w.text_instrs)),
        ("cfg_blocks", Value::UInt(w.cfg_blocks)),
        ("cfg_edges", Value::UInt(w.cfg_edges)),
        ("loops", Value::UInt(w.loops)),
        ("unreachable", Value::UInt(w.unreachable_instrs)),
        (
            "static_traces",
            Value::Array(w.lens.iter().map(|l| Value::UInt(l.static_traces)).collect()),
        ),
        ("alias_groups", Value::UInt(l16.map_or(0, |l| l.alias.groups))),
        ("content_aliases", Value::UInt(l16.map_or(0, |l| l.alias.content_groups))),
        ("overfull_sets", Value::UInt(l16.map_or(0, |l| l.conflicts.overfull_sets))),
        ("dyn_checked", Value::UInt(dynamic.map_or(0, |d| d.checked))),
        ("dyn_matched", Value::UInt(dynamic.map_or(0, |d| d.matched))),
        ("violations", Value::UInt(w.violations())),
    ])
}

/// Renders the suite summary; shard payloads are merged back into suite
/// order via the recorded indices, so the artifact is stable for any
/// shard schedule.
pub fn render_analyze(shards: &[Value]) -> Emitted {
    let mut units: Vec<&Value> = shards
        .iter()
        .filter_map(|v| v.get("workloads").and_then(Value::as_array))
        .flatten()
        .collect();
    units.sort_by_key(|v| get_u64(v, "index"));

    let mut text = String::new();
    let _ = writeln!(text, "=== itr-analyze: static trace universe per workload ===");
    let _ = writeln!(
        text,
        "{:<10} {:>6} {:>6} {:>6} {:>5} {:>7} {:>8} {:>8} {:>8} {:>7} {:>8} {:>8} {:>5}",
        "bench",
        "text",
        "blocks",
        "edges",
        "loops",
        "unreach",
        "static4",
        "static8",
        "static16",
        "alias16",
        "overfull",
        "dyn-ok",
        "viol"
    );
    let mut rows = Vec::new();
    let mut total_violations = 0u64;
    let mut total_unreachable = 0u64;
    for v in units {
        let name = get_str(v, "name");
        let statics = v.get("static_traces").and_then(Value::as_array).unwrap_or(&[]);
        let s = |i: usize| statics.get(i).and_then(Value::as_u64).unwrap_or(0);
        let unreachable = get_u64(v, "unreachable");
        let violations = get_u64(v, "violations");
        total_violations += violations;
        total_unreachable += unreachable;
        let _ = writeln!(
            text,
            "{name:<10} {:>6} {:>6} {:>6} {:>5} {:>7} {:>8} {:>8} {:>8} {:>7} {:>8} {:>8} {:>5}",
            get_u64(v, "text_instrs"),
            get_u64(v, "cfg_blocks"),
            get_u64(v, "cfg_edges"),
            get_u64(v, "loops"),
            unreachable,
            s(0),
            s(1),
            s(2),
            get_u64(v, "alias_groups"),
            get_u64(v, "overfull_sets"),
            get_u64(v, "dyn_matched"),
            violations,
        );
        rows.push(format!(
            "{name},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            get_str(v, "kind"),
            get_u64(v, "text_instrs"),
            get_u64(v, "cfg_blocks"),
            get_u64(v, "cfg_edges"),
            get_u64(v, "loops"),
            unreachable,
            s(0),
            s(1),
            s(2),
            get_u64(v, "alias_groups"),
            get_u64(v, "content_aliases"),
            get_u64(v, "overfull_sets"),
            violations,
        ));
    }
    if total_violations == 0 {
        let _ = writeln!(
            text,
            "\nEvery dynamic trace is a member of its static universe with a matching\n\
             signature (the static/dynamic cross-validation oracle held), and no\n\
             workload carries unreachable code ({total_unreachable} unreachable instructions)."
        );
    } else {
        let _ =
            writeln!(text, "\n{total_violations} CROSS-VALIDATION VIOLATION(S) — see analyze.csv.");
    }
    Emitted {
        txt_name: "analyze.txt",
        text,
        csv: Some(Csv {
            name: "analyze.csv",
            header: "bench,kind,text_instrs,cfg_blocks,cfg_edges,loops,unreachable,\
                     static4,static8,static16,alias_groups16,content_aliases16,\
                     overfull_sets16,violations"
                .to_string(),
            rows,
        }),
    }
}

/// Registers the sharded analysis and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let seed = scale.seed;
    reg.add(JobSpec::new("analyze-suite", &[], move |_| {
        let total = suite::everything(seed, ANALYZE_MIMIC_INSTRS).len() as u64;
        (0..ANALYZE_SHARDS)
            .map(|shard| {
                ShardSpec::new(shard, (shard as u64, total), move |ctx| {
                    let cfg = AnalyzeConfig {
                        verify_budget: ANALYZE_VERIFY_BUDGET,
                        ..AnalyzeConfig::default()
                    };
                    let workloads = suite::everything(seed, ANALYZE_MIMIC_INSTRS);
                    let mut values = Vec::new();
                    for (index, w) in workloads.iter().enumerate() {
                        if index as u32 % ANALYZE_SHARDS != shard || ctx.cancelled() {
                            continue;
                        }
                        let kind = match w.kind {
                            WorkloadKind::Kernel => "kernel",
                            WorkloadKind::Mimic => "mimic",
                        };
                        let analysis = analyze_program(&w.name, kind, &w.program, &cfg);
                        values.push(workload_value(index, &w.kind, &analysis));
                    }
                    obj(vec![
                        ("shard", Value::UInt(shard as u64)),
                        ("workloads", Value::Array(values)),
                    ])
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("analyze", &["analyze-suite"], move |_, board| {
        let shards: Vec<Value> = board.expect("analyze-suite").data().cloned().collect();
        emit_payload(&dir, &render_analyze(&shards))
    }));
}
