//! Pins the deterministic fuzz statistics across commits.
//!
//! `itr-fuzz run --seed 1 --iters 5000` twice yields byte-identical
//! statistics, but that only compares two runs of one build. These tests
//! compare quick campaigns against snapshots committed in `tests/`, so a
//! change to the oracles, the engine or the simulators that moves a
//! feature, a finding or an RNG draw shows up as a diff here:
//!
//! * `golden_fuzz_stats.json` — a blind campaign;
//! * `golden_fuzz_stats_directed.json` — a shorter analysis-directed
//!   campaign, whose mutations read the gap plan (`itr_fuzz::directed`).
//!
//! Regenerate the snapshots (after an *intentional* change to what the
//! fuzzer explores) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fuzz_stats
//! ```

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::fuzz::{run, FuzzConfig};
use std::path::PathBuf;

/// Campaign parameters — baked into the snapshots.
const SEED: u64 = 1;
const ITERS: u64 = 1500;
const DIRECTED_ITERS: u64 = 600;

/// Runs `cfg` and compares its statistics with `tests/<file>`.
fn check(cfg: &FuzzConfig, file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join(file);
    let measured = run(cfg, &|| false).stats_value(cfg).to_json();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &measured).expect("write golden fuzz stats");
        return;
    }

    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("tests/{file} missing; regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        measured, golden,
        "fuzz statistics moved; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn quick_campaign_matches_the_committed_stats() {
    check(&FuzzConfig::quick(SEED, ITERS), "golden_fuzz_stats.json");
}

#[test]
fn directed_campaign_matches_the_committed_stats() {
    let cfg = FuzzConfig { directed: true, ..FuzzConfig::quick(SEED, DIRECTED_ITERS) };
    check(&cfg, "golden_fuzz_stats_directed.json");
}
