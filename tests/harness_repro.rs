//! End-to-end tests of the `itr-harness` reproduction pipeline: a tiny
//! quick run journals every shard, resumes with zero recomputation,
//! regenerates every committed `results/` artifact, and writes what the
//! experiments' compute and render functions produce when called
//! directly.

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr_bench::experiments::{register_all, Scale};
use itr_harness::{fingerprint, run, Registry, RunOptions};
use std::path::{Path, PathBuf};

/// A budget small enough that the whole DAG runs in seconds.
fn tiny_scale() -> Scale {
    Scale {
        faults: 10,
        window_cycles: 10_000,
        instrs: 60_000,
        program_instrs: 20_000,
        ..Scale::quick()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itr-repro-test-{}-{name}", std::process::id()));
    let _ignored = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn registry(scale: &Scale, out: &Path) -> Registry {
    let mut reg = Registry::new(fingerprint(&scale.canonical()));
    register_all(&mut reg, scale, out);
    reg
}

#[test]
fn quick_run_journals_and_resumes_without_recomputation() {
    let scale = tiny_scale();
    let out = tmp_dir("resume");
    let opts = RunOptions {
        threads: 4,
        journal_path: Some(out.join("journal.jsonl")),
        ..RunOptions::default()
    };
    let first = run(registry(&scale, &out), &opts).expect("first run");
    assert_eq!(first.quarantined, 0, "{:?}", first.quarantines);
    assert_eq!(first.executed, first.total_shards);
    assert!(out.join("journal.jsonl").exists());
    for artifact in [
        "table1.txt",
        "fig8.txt",
        "fig8_injection.csv",
        "ablations.csv",
        "sweep.txt",
        "sweep_pareto.csv",
        "env.txt",
        "env.csv",
    ] {
        assert!(out.join(artifact).exists(), "missing {artifact}");
    }
    // Every committed text artifact has a job that regenerates it.
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    for entry in std::fs::read_dir(&committed).expect("read results/") {
        let name = entry.expect("results/ entry").file_name();
        let name = name.to_str().expect("UTF-8 artifact name");
        if name.ends_with(".txt") {
            assert!(out.join(name).exists(), "no job writes the committed results/{name}");
        }
    }
    let fig8_first = std::fs::read_to_string(out.join("fig8.txt")).expect("fig8.txt");

    let resumed = run(registry(&scale, &out), &RunOptions { resume: true, threads: 1, ..opts })
        .expect("resumed run");
    assert_eq!(resumed.executed, 0, "every shard replayed from the journal");
    assert_eq!(resumed.journaled, first.total_shards);
    let fig8_resumed = std::fs::read_to_string(out.join("fig8.txt")).expect("fig8.txt");
    assert_eq!(fig8_first, fig8_resumed, "replayed emit is byte-identical");
}

#[test]
fn harness_artifacts_match_the_standalone_render_path() {
    use itr_bench::experiments::injection::{fig8_cfg, render_fig8, tally, Fig8Unit};
    use itr_faults::CampaignPlan;
    use itr_workloads::{generate_mimic_sized, profiles};

    let scale = tiny_scale();
    let out = tmp_dir("parity");
    let summary = run(registry(&scale, &out), &RunOptions { threads: 8, ..RunOptions::default() })
        .expect("run");
    assert_eq!(summary.quarantined, 0, "{:?}", summary.quarantines);

    // Recompute Figure 8 without the harness — one unsharded campaign
    // per benchmark through the same render function — and compare the
    // artifact text up to the `[wrote …]` line that names the CSV.
    let units: Vec<Fig8Unit> = profiles::coverage_figure_set()
        .into_iter()
        .map(|profile| {
            let program = generate_mimic_sized(profile, scale.seed, scale.program_instrs);
            let cfg = fig8_cfg(scale.seed, scale.faults, scale.window_cycles, scale.program_instrs);
            let plan = CampaignPlan::new(&program, &cfg);
            let shard = plan.run_range(&program, &cfg, 0, cfg.faults, &|| false);
            Fig8Unit { name: profile.name.to_string(), counts: tally(&shard.records) }
        })
        .collect();
    let expected = render_fig8(&units, scale.faults, scale.window_cycles);
    let artifact = std::fs::read_to_string(out.join("fig8.txt")).expect("fig8.txt");
    assert!(
        artifact.starts_with(&expected.text),
        "harness artifact diverges from the direct render:\n{artifact}"
    );
    let csv = std::fs::read_to_string(out.join("fig8_injection.csv")).expect("csv");
    let expected_csv = expected.csv.expect("fig8 writes a CSV");
    let mut body = expected_csv.header.clone();
    body.push('\n');
    for row in &expected_csv.rows {
        body.push_str(row);
        body.push('\n');
    }
    assert_eq!(csv, body, "CSV artifact is byte-identical");
}

#[test]
fn scale_change_is_a_fingerprint_change() {
    let scale = tiny_scale();
    let out = tmp_dir("fingerprint");
    let opts = RunOptions {
        threads: 4,
        journal_path: Some(out.join("journal.jsonl")),
        ..RunOptions::default()
    };
    run(registry(&scale, &out), &opts).expect("first run");

    let bigger = Scale { faults: 20, ..scale };
    let err = run(registry(&bigger, &out), &RunOptions { resume: true, ..opts })
        .expect_err("journal from another scale must not resume");
    assert!(err.contains("fingerprint"), "{err}");
}
