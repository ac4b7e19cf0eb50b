//! Pins what passive fault campaigns observe, fault by fault, across
//! commits.
//!
//! `fork_equals_fresh` compares two paths of one build; this test holds
//! every planned fault's observation at each window against a snapshot
//! committed in `tests/golden_observations.json`, so a change to the
//! campaign driver or the simulators that moves one outcome, one
//! mismatch, one resident ITR line or one report counter shows up here.
//!
//! Matrix: the vortex mimic (100k instructions) under SEUs struck at
//! decodes 50k–100k, and the gzip mimic (60k instructions) under every
//! [`ModelKind`] struck at decodes 200–2,000, each observed at windows of
//! 2k, 10k and 100k cycles through [`Plan::run_range_windows`] (outcome
//! and report) and [`Plan::observe`] (the observation behind it). An
//! instance that panics the simulator is pinned as a panic.
//!
//! Regenerate the snapshot (after an *intentional* change to what
//! campaigns observe) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release --test golden_observations
//! ```

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::core::{ItrConfig, ItrMode};
use itr::faults::{classify, CampaignConfig, CampaignPlan, Fault, ModelKind, ModelPlan, Plan};
use itr::isa::Program;
use itr::stats::json::Value;
use itr::workloads::{generate_mimic_sized, profiles};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

const WINDOWS: [u64; 3] = [2_000, 10_000, 100_000];
const MIMIC_SEED: u64 = 1;
const SEED: u64 = 0x0B5E_2024;
/// SEUs planned on the vortex mimic, and instances per kind on gzip.
const VORTEX_FAULTS: u32 = 40;
const GZIP_FAULTS: u32 = 24;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_observations.json")
}

fn mimic(name: &str, instrs: u64) -> Program {
    generate_mimic_sized(profiles::by_name(name).unwrap(), MIMIC_SEED, instrs)
}

fn config(faults: u32, min_decode: u64, max_decode: u64) -> CampaignConfig {
    CampaignConfig {
        faults,
        window_cycles: *WINDOWS.last().unwrap(),
        min_decode,
        max_decode,
        seed: SEED,
        itr: ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() },
        ..CampaignConfig::default()
    }
}

/// FNV-1a over `bytes`.
fn digest(bytes: impl IntoIterator<Item = u8>) -> Value {
    let h = bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Value::Str(format!("{h:016x}"))
}

/// Every pinned field of fault `j` at each window, or a panic marker.
fn case_value<F: Fault + Clone>(
    program: &Program,
    plan: &Plan<F>,
    cfg: &CampaignConfig,
    j: u32,
) -> Value {
    let run = catch_unwind(AssertUnwindSafe(|| {
        let shards = plan.run_range_windows(program, cfg, &WINDOWS, j, j + 1, &|| false);
        let observed = plan.observe(program, cfg, &WINDOWS, j as usize);
        (shards, observed)
    }));
    let Ok((shards, observed)) = run else {
        return Value::Object(vec![("panic".to_string(), Value::Bool(true))]);
    };
    let windows = shards
        .iter()
        .zip(&observed)
        .zip(WINDOWS)
        .map(|((shard, (obs, _)), window)| {
            let outcome = shard.records[0].outcome;
            assert_eq!(outcome, classify(obs, plan.clean_signatures()), "fault {j}");
            let mismatch = obs.first_mismatch.map_or(Value::Null, |(pc, cached, new)| {
                Value::Array(vec![Value::UInt(pc), Value::UInt(cached), Value::UInt(new)])
            });
            let lines = obs
                .resident_lines
                .iter()
                .flat_map(|(pc, sig)| pc.to_le_bytes().into_iter().chain(sig.to_le_bytes()));
            Value::Object(vec![
                ("window".to_string(), Value::UInt(window)),
                ("outcome".to_string(), Value::Str(outcome.label().to_string())),
                ("sdc".to_string(), Value::Bool(obs.sdc)),
                ("deadlock".to_string(), Value::Bool(obs.deadlock)),
                ("spc_fired".to_string(), Value::Bool(obs.spc_fired)),
                ("first_mismatch".to_string(), mismatch),
                ("resident_lines".to_string(), digest(lines)),
                ("report".to_string(), digest(shard.report.to_json().into_bytes())),
            ])
        })
        .collect();
    Value::Array(windows)
}

fn plan_cases<F: Fault + Clone>(
    name: &str,
    program: &Program,
    plan: &Plan<F>,
    cfg: &CampaignConfig,
) -> Vec<(String, Value)> {
    (0..cfg.faults).map(|j| (format!("{name}/{j}"), case_value(program, plan, cfg, j))).collect()
}

fn measure_vortex() -> Vec<(String, Value)> {
    let program = mimic("vortex", 100_000);
    let cfg = config(VORTEX_FAULTS, 50_000, 100_000);
    plan_cases("vortex/seu", &program, &CampaignPlan::new(&program, &cfg), &cfg)
}

fn measure_gzip() -> Vec<(String, Value)> {
    let program = mimic("gzip", 60_000);
    let cfg = config(GZIP_FAULTS, 200, 2_000);
    ModelKind::ALL
        .iter()
        .flat_map(|&kind| {
            let plan = ModelPlan::new(&program, kind, &cfg);
            plan_cases(&format!("gzip/{}", kind.label()), &program, &plan, &cfg)
        })
        .collect()
}

fn measure_all() -> Vec<(String, Value)> {
    std::thread::scope(|s| {
        let vortex = s.spawn(measure_vortex);
        let mut cases = measure_gzip();
        cases.splice(0..0, vortex.join().unwrap());
        cases
    })
}

fn render(cases: &[(String, Value)]) -> String {
    let mut text = String::from("{\"schema\":\"itr-observations/v1\",\n\"cases\":{\n");
    for (i, (name, value)) in cases.iter().enumerate() {
        let sep = if i + 1 == cases.len() { "" } else { "," };
        text.push_str(&format!(
            "{}:{}{sep}\n",
            Value::Str(name.clone()).to_json(),
            value.to_json()
        ));
    }
    text.push_str("}}\n");
    text
}

/// Every fault's observation at every window equals the snapshot.
#[test]
fn observations_match_the_snapshot() {
    let measured = measure_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), render(&measured)).expect("write golden observations");
        return;
    }
    let text = std::fs::read_to_string(golden_path())
        .expect("tests/golden_observations.json missing; regenerate with UPDATE_GOLDEN=1");
    let golden = Value::parse(&text).expect("golden snapshot parses");
    assert_eq!(golden.get("schema").and_then(Value::as_str), Some("itr-observations/v1"));
    let golden_cases = golden.get("cases").and_then(Value::as_object).expect("golden has cases");
    let names: Vec<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden_cases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, golden_names, "case set changed; regenerate with UPDATE_GOLDEN=1");
    let diffs: Vec<String> = measured
        .iter()
        .zip(golden_cases)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: {} != {}", got.to_json(), want.to_json()))
        .collect();
    assert!(diffs.is_empty(), "observations moved:\n{}", diffs.join("\n"));
}
