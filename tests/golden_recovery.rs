//! Pins the recovery engine's ground truth across commits.
//!
//! CI's `recover-check` job compares `itr-repro --jobs 1` with
//! `--jobs 8`, which only compares two runs of one build. This test
//! compares every field of [`RecoveryRun`] for a fault matrix against a
//! snapshot committed in `tests/golden_recovery.json`, so a change to
//! the engine, the checkpointer or the simulators that moves one
//! outcome, rollback target or commit count shows up as a diff here.
//!
//! Matrix: crc32, fib, sum_loop and the gzip mimic × every
//! [`ModelKind`] × 40 sampled instances × checkpoint gaps 0 and 1024;
//! every 4th instance also runs with a context switch every 3,000
//! cycles. The matrix must reach every outcome listed in [`REACHED`]
//! and at least one run the engine's commit cap stops.
//!
//! Regenerate the snapshot (after an *intentional* change to recovery
//! behaviour) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_recovery
//! ```

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::faults::{FaultModel, ModelKind};
use itr::stats::json::Value;
use itr::stats::SplitMix64;
use itr::workloads::suite::by_name;
use itr_recover::{
    run_recovery, run_recovery_with_switches, ActualOutcome, GoldenRun, RecoverConfig, RecoveryRun,
};
use std::path::PathBuf;

/// Workloads of the matrix; the mimic is generated at
/// [`MIMIC_SEED`] × [`MIMIC_INSTRS`].
const WORKLOADS: [&str; 4] = ["crc32", "fib", "sum_loop", "gzip"];
const MIMIC_SEED: u64 = 1;
const MIMIC_INSTRS: u64 = 20_000;
/// Instruction budget of each golden run (every workload halts inside).
const GOLDEN_INSTRS: u64 = 400_000;
/// Sampled instances per fault-model kind and workload.
const INSTANCES: usize = 40;
/// Checkpoint spacings, in committed instructions.
const GAPS: [u64; 2] = [0, 1_024];
/// Every `SWITCH_EVERY`-th instance also runs under context switches
/// of [`SWITCH_CYCLES`].
const SWITCH_EVERY: usize = 4;
const SWITCH_CYCLES: u64 = 3_000;
/// Commits a run may make past the golden length before the engine
/// stops it (the engine's record slack).
const COMMIT_SLACK: u64 = 64;
/// Outcomes the matrix must reach.
const REACHED: [ActualOutcome; 5] = [
    ActualOutcome::FinishedClean,
    ActualOutcome::FinishedSdc,
    ActualOutcome::Recovered,
    ActualOutcome::RollbackSdc,
    ActualOutcome::Fatal,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_recovery.json")
}

fn opt_u64(v: Option<u64>) -> Value {
    v.map_or(Value::Null, Value::UInt)
}

fn opt_bool(v: Option<bool>) -> Value {
    v.map_or(Value::Null, Value::Bool)
}

/// Every field of one run.
fn run_value(run: &RecoveryRun) -> Value {
    Value::Object(vec![
        ("actual".to_string(), Value::Str(run.actual.label().to_string())),
        ("detected".to_string(), Value::Bool(run.detected)),
        ("rolled_back".to_string(), Value::Bool(run.rolled_back)),
        ("checkpoint_at".to_string(), opt_u64(run.checkpoint_at)),
        ("rollback_distance".to_string(), Value::UInt(run.rollback_distance)),
        ("checkpoints_taken".to_string(), Value::UInt(run.checkpoints_taken)),
        ("opportunities".to_string(), Value::UInt(run.opportunities)),
        ("committed".to_string(), Value::UInt(run.committed)),
        ("prefix_clean".to_string(), opt_bool(run.prefix_clean)),
    ])
}

/// Every case of one workload, in a fixed order: `(name, run, capped)`,
/// where `capped` says the commit cap stopped the run.
fn measure_workload(name: &str) -> Vec<(String, RecoveryRun, bool)> {
    let program = by_name(name, MIMIC_SEED, MIMIC_INSTRS).unwrap().program;
    let golden = GoldenRun::capture(&program, GOLDEN_INSTRS);
    assert!(golden.halted, "{name} halts within {GOLDEN_INSTRS} instructions");
    let cap = golden.records.len() as u64 + COMMIT_SLACK;
    let mut rng = SplitMix64::new(0x2EC0_7E21);
    let mut out = Vec::new();
    for kind in ModelKind::ALL {
        for i in 0..INSTANCES {
            let model = FaultModel::sample(kind, &mut rng, 10, golden.records.len() as u64);
            for gap in GAPS {
                let cfg = RecoverConfig { checkpoint_min_gap: gap, ..RecoverConfig::default() };
                let case = format!("{name}/{}/{i}/gap{gap}", kind.label());
                let run = run_recovery(&program, &model, &golden, &cfg);
                out.push((case.clone(), run.clone(), run.committed == cap));
                if i % SWITCH_EVERY == 0 {
                    let run =
                        run_recovery_with_switches(&program, &model, &golden, &cfg, SWITCH_CYCLES);
                    let capped = run.committed == cap;
                    out.push((format!("{case}/switch{SWITCH_CYCLES}"), run, capped));
                }
            }
        }
    }
    out
}

/// Every case of the matrix, measured two workloads at a time.
fn measure_all() -> Vec<(String, RecoveryRun, bool)> {
    let mut out = Vec::new();
    for pair in WORKLOADS.chunks(2) {
        let runs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> =
                pair.iter().map(|name| s.spawn(move || measure_workload(name))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        out.extend(runs.into_iter().flatten());
    }
    out
}

fn render(cases: &[(String, RecoveryRun, bool)]) -> String {
    let header = Value::Object(vec![
        ("schema".to_string(), Value::Str("itr-recovery/v1".to_string())),
        ("mimic_seed".to_string(), Value::UInt(MIMIC_SEED)),
        ("mimic_instrs".to_string(), Value::UInt(MIMIC_INSTRS)),
    ])
    .to_json();
    let mut text = format!("{},\n\"cases\":{{\n", &header[..header.len() - 1]);
    for (i, (name, run, _)) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        text.push_str(&format!(
            "{}:{}{sep}\n",
            Value::Str(name.clone()).to_json(),
            run_value(run).to_json()
        ));
    }
    text.push_str("}}\n");
    text
}

/// Every run of the matrix equals the snapshot, field for field.
#[test]
fn recovery_runs_match_the_snapshot() {
    let measured = measure_all();
    for outcome in REACHED {
        assert!(measured.iter().any(|(_, r, _)| r.actual == outcome), "no {outcome} run");
    }
    assert!(measured.iter().any(|(_, _, capped)| *capped), "no run stops at the commit cap");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), render(&measured)).expect("write golden recovery");
        return;
    }

    let text = std::fs::read_to_string(golden_path())
        .expect("tests/golden_recovery.json missing; regenerate with UPDATE_GOLDEN=1");
    let golden = Value::parse(&text).expect("golden snapshot parses");
    assert_eq!(golden.get("schema").and_then(Value::as_str), Some("itr-recovery/v1"));
    assert_eq!(golden.get("mimic_seed").and_then(Value::as_u64), Some(MIMIC_SEED));
    assert_eq!(golden.get("mimic_instrs").and_then(Value::as_u64), Some(MIMIC_INSTRS));
    let golden_cases = golden.get("cases").and_then(Value::as_object).expect("golden has cases");
    let names: Vec<&str> = measured.iter().map(|(n, _, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden_cases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, golden_names, "case set changed; regenerate with UPDATE_GOLDEN=1");

    let diffs: Vec<String> = measured
        .iter()
        .zip(golden_cases)
        .filter(|((_, run, _), (_, want))| run_value(run) != *want)
        .map(|((name, run, _), (_, want))| {
            format!("{name}: {} != {}", run_value(run).to_json(), want.to_json())
        })
        .collect();
    assert!(diffs.is_empty(), "recovery behaviour moved:\n{}", diffs.join("\n"));
}
