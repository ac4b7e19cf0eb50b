//! Checkpoint/rollback recovery reproduction family (`itr-recover`).
//!
//! One compute family plus one emit job:
//!
//! * **recover-sweep** — one shard per (workload × fault-model kind ×
//!   checkpoint condition). Each shard samples a pinned campaign of
//!   that model, classifies every fault once in passive mode (the
//!   Figure-8 heuristic), then runs the recovery engine at every
//!   checkpoint spacing in [`GAPS`] — producing the ground-truth
//!   recovery-coverage-vs-checkpoint-cost curve, with the heuristic
//!   `ItrMask`/`ItrSdcD` predictions confirmed or corrected per fault.
//!   The conditions are the paper's strict §2.3 rule (zero availability
//!   on real programs — the baseline), bounded wait, and bounded wait
//!   under `itr-env`-style context switching (cache flushed every
//!   quantum, including mid-retry).
//! * **recover-report** — renders `recover.txt` / `recover.csv`.

use super::{emit_payload, get_str, get_u64, obj, Csv, Emitted, Scale};
use itr_faults::{CampaignConfig, ModelKind};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_isa::asm::assemble;
use itr_recover::{sweep_kind, ActualOutcome, SweepCell, BOUNDED_WAIT_AGE};
use itr_stats::json::Value;
use itr_workloads::kernels;
use std::fmt::Write as _;
use std::path::Path;

/// The swept workloads: detection-rich kernels that halt quickly, so
/// every sampled fault's golden run fits a small budget.
pub const RECOVER_PROGRAMS: [&str; 2] = ["crc32", "rle_compress"];

/// The swept fault-model kinds: the paper's SEU baseline, a persistent
/// model (retry cannot absorb it), and the burst-during-retry
/// interaction scenario.
pub const RECOVER_KINDS: [ModelKind; 3] =
    [ModelKind::Seu, ModelKind::StuckAt0, ModelKind::BurstOnRetry];

/// Checkpoint spacings swept per condition (committed instructions).
pub const GAPS: [u64; 4] = [0, 256, 1_024, 4_096];

/// Context-switch quantum of the `ctx` condition (cycles).
pub const SWITCH_QUANTUM: u64 = 2_500;

/// Cycle budget per active run.
pub const MAX_CYCLES: u64 = 4_000_000;

/// Instruction budget for the golden reference runs.
pub const GOLDEN_INSTRS: u64 = 400_000;

/// One checkpoint condition of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Condition {
    /// Stable label used in reports and CSVs.
    pub label: &'static str,
    /// Bounded-wait age window, or `None` for the strict §2.3 rule.
    pub line_age: Option<u64>,
    /// Context-switch quantum, or `None` for uninterrupted runs.
    pub switch_cycles: Option<u64>,
}

/// The swept conditions, in shard order.
pub const CONDITIONS: [Condition; 3] = [
    Condition { label: "strict", line_age: None, switch_cycles: None },
    Condition { label: "aged", line_age: Some(BOUNDED_WAIT_AGE), switch_cycles: None },
    Condition {
        label: "aged+ctx",
        line_age: Some(BOUNDED_WAIT_AGE),
        switch_cycles: Some(SWITCH_QUANTUM),
    },
];

/// The pinned recovery campaign. Fault windows target the early decode
/// range where record instances live — committed corruption that the
/// engine must actually roll back, not just retry away.
pub fn recover_cfg(scale: &Scale) -> CampaignConfig {
    CampaignConfig {
        faults: (scale.faults / 16).max(6),
        window_cycles: (scale.window_cycles / 5).max(10_000),
        min_decode: 10,
        max_decode: 300,
        seed: scale.seed ^ 0x4EC0_7E4A,
        threads: 0,
        ..CampaignConfig::default()
    }
}

fn assembled(name: &str) -> itr_isa::Program {
    let kernel = kernels::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown kernel {name}"));
    assemble(kernel.source).unwrap_or_else(|e| panic!("{name} failed to assemble: {e:?}"))
}

/// The shard grid, in shard order.
pub fn sweep_points() -> Vec<(&'static str, ModelKind, Condition)> {
    let mut points = Vec::new();
    for &program in &RECOVER_PROGRAMS {
        for &kind in &RECOVER_KINDS {
            for &cond in &CONDITIONS {
                points.push((program, kind, cond));
            }
        }
    }
    points
}

/// One rendered sweep row: a [`SweepCell`] plus its shard coordinates.
#[derive(Debug, Clone)]
pub struct RecoverRow {
    /// Workload name.
    pub program: String,
    /// Fault-model kind label.
    pub kind: String,
    /// Checkpoint-condition label.
    pub cond: String,
    /// The aggregated cell.
    pub cell: SweepCell,
}

/// Renders `recover.txt` / `recover.csv`.
pub fn render_recover(rows: &[RecoverRow], faults: u32) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Checkpoint/rollback recovery: ground truth vs the Figure-8 heuristic ===",
    );
    let _ = writeln!(
        text,
        "({faults} sampled faults per (workload, model); every fault classified once\n\
         passively, then run under full active-mode recovery at each checkpoint\n\
         spacing; conditions: strict = the paper's §2.3 rule, aged = bounded wait\n\
         ({BOUNDED_WAIT_AGE}-event line age), aged+ctx = bounded wait with the ITR cache flushed\n\
         every {SWITCH_QUANTUM} cycles)\n"
    );
    let _ = writeln!(
        text,
        "{:>12} {:>14} {:>8} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9} {:>10} {:>8} {:>8}",
        "program",
        "model",
        "cond",
        "gap",
        "clean",
        "sdc",
        "recov",
        "r-out",
        "r-sdc",
        "fatal",
        "ckpt/ki",
        "coverage%",
        "confirm",
        "correct"
    );
    let mut csv_rows = Vec::new();
    for r in rows {
        let c = &r.cell;
        let _ = writeln!(
            text,
            "{:>12} {:>14} {:>8} {:>5} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>9.2} {:>9.1}% {:>8} {:>8}",
            r.program,
            r.kind,
            r.cond,
            c.gap,
            c.count(ActualOutcome::FinishedClean),
            c.count(ActualOutcome::FinishedSdc),
            c.count(ActualOutcome::Recovered),
            c.count(ActualOutcome::RecoveredOutputLoss),
            c.count(ActualOutcome::RollbackSdc),
            c.count(ActualOutcome::Fatal),
            c.checkpoints_per_kinstr(),
            c.recovery_coverage_pct(),
            c.confirmed,
            c.corrected
        );
        csv_rows.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.2}",
            r.program,
            r.kind,
            r.cond,
            c.gap,
            c.count(ActualOutcome::FinishedClean),
            c.count(ActualOutcome::FinishedSdc),
            c.count(ActualOutcome::Recovered),
            c.count(ActualOutcome::RecoveredOutputLoss),
            c.count(ActualOutcome::RollbackSdc),
            c.count(ActualOutcome::Fatal),
            c.count(ActualOutcome::Hung),
            c.confirmed,
            c.corrected,
            c.unpredicted,
            c.checkpoints,
            c.rollbacks,
            c.checkpoints_per_kinstr(),
            c.recovery_coverage_pct(),
            c.mean_rollback_distance()
        ));
    }
    let strict_ckpts: u64 =
        rows.iter().filter(|r| r.cond == "strict").map(|r| r.cell.checkpoints).sum();
    let violations: u32 = rows.iter().map(|r| r.cell.violations).sum();
    assert_eq!(violations, 0, "sound recovery invariants must hold across the sweep");
    let _ = writeln!(
        text,
        "\nThe strict condition took {strict_ckpts} checkpoints across every workload: a\n\
         single run-once trace (any prologue) blocks it for the rest of the run, so\n\
         every detection under it is fatal. Bounded wait restores availability; its\n\
         price is the r-sdc column (a checkpoint can cover corruption an aged-out\n\
         line still carried). Sound invariant violations: {violations} (asserted zero).",
    );
    Emitted {
        txt_name: "recover.txt",
        text,
        csv: Some(Csv {
            name: "recover.csv",
            header: "program,kind,cond,gap,finished_clean,finished_sdc,recovered,\
                     recovered_output_loss,rollback_sdc,fatal,hung,confirmed,corrected,\
                     unpredicted,checkpoints,rollbacks,ckpt_per_kinstr,coverage_pct,\
                     mean_rollback_distance"
                .to_string(),
            rows: csv_rows,
        }),
    }
}

/// Registers the sweep family and the emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("recover-sweep", &[], move |_| {
        let cfg = recover_cfg(&s);
        sweep_points()
            .into_iter()
            .enumerate()
            .map(|(i, (program, kind, cond))| {
                let cfg = cfg.clone();
                ShardSpec::new(i as u32, (0, u64::from(cfg.faults)), move |ctx| {
                    let p = assembled(program);
                    let cells = sweep_kind(
                        &p,
                        kind,
                        &cfg,
                        &GAPS,
                        cond.line_age,
                        MAX_CYCLES,
                        GOLDEN_INSTRS,
                        cond.switch_cycles,
                        &|| ctx.cancelled(),
                    );
                    obj(vec![
                        ("program", Value::Str(program.into())),
                        ("kind", Value::Str(kind.label().into())),
                        ("cond", Value::Str(cond.label.into())),
                        (
                            "cells",
                            Value::Array(
                                cells
                                    .iter()
                                    .map(|c| {
                                        obj(vec![
                                            ("gap", Value::UInt(c.gap)),
                                            (
                                                "counts",
                                                Value::Array(
                                                    c.counts
                                                        .iter()
                                                        .map(|&n| Value::UInt(u64::from(n)))
                                                        .collect(),
                                                ),
                                            ),
                                            ("confirmed", Value::UInt(u64::from(c.confirmed))),
                                            ("corrected", Value::UInt(u64::from(c.corrected))),
                                            ("unpredicted", Value::UInt(u64::from(c.unpredicted))),
                                            ("violations", Value::UInt(u64::from(c.violations))),
                                            ("checkpoints", Value::UInt(c.checkpoints)),
                                            ("opportunities", Value::UInt(c.opportunities)),
                                            ("committed", Value::UInt(c.committed)),
                                            ("rollbacks", Value::UInt(u64::from(c.rollbacks))),
                                            (
                                                "rollback_distance_sum",
                                                Value::UInt(c.rollback_distance_sum),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
            })
            .collect()
    }));

    let dir = out.to_path_buf();
    let s = scale.clone();
    reg.add(JobSpec::single("recover-report", &["recover-sweep"], move |_, board| {
        let mut rows = Vec::new();
        for d in board.expect("recover-sweep").data() {
            let cells = d.get("cells").and_then(Value::as_array).expect("cells");
            for c in cells {
                let mut counts = [0u32; 7];
                let arr = c.get("counts").and_then(Value::as_array).expect("counts");
                for (e, n) in counts.iter_mut().zip(arr) {
                    *e = n.as_u64().expect("count") as u32;
                }
                rows.push(RecoverRow {
                    program: get_str(d, "program").to_string(),
                    kind: get_str(d, "kind").to_string(),
                    cond: get_str(d, "cond").to_string(),
                    cell: SweepCell {
                        gap: get_u64(c, "gap"),
                        counts,
                        confirmed: get_u64(c, "confirmed") as u32,
                        corrected: get_u64(c, "corrected") as u32,
                        unpredicted: get_u64(c, "unpredicted") as u32,
                        violations: get_u64(c, "violations") as u32,
                        checkpoints: get_u64(c, "checkpoints"),
                        opportunities: get_u64(c, "opportunities"),
                        committed: get_u64(c, "committed"),
                        rollbacks: get_u64(c, "rollbacks") as u32,
                        rollback_distance_sum: get_u64(c, "rollback_distance_sum"),
                    },
                });
            }
        }
        emit_payload(&dir, &render_recover(&rows, recover_cfg(&s).faults))
    }));
}
