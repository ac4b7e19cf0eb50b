//! Pins the deterministic fuzz statistics across commits.
//!
//! `itr-fuzz run --seed 1 --iters 5000` twice yields byte-identical
//! statistics, but that only compares two runs of one build. This test
//! compares one quick campaign against a snapshot committed in
//! `tests/golden_fuzz_stats.json`, so a change to the oracles, the
//! engine or the simulators that moves a feature, a finding or an RNG
//! draw shows up as a diff here.
//!
//! Regenerate the snapshot (after an *intentional* change to what the
//! fuzzer explores) with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fuzz_stats
//! ```

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::fuzz::{run, FuzzConfig};
use std::path::PathBuf;

/// Campaign parameters — baked into the snapshot.
const SEED: u64 = 1;
const ITERS: u64 = 1500;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_fuzz_stats.json")
}

#[test]
fn quick_campaign_matches_the_committed_stats() {
    let cfg = FuzzConfig::quick(SEED, ITERS);
    let measured = run(&cfg, &|| false).stats_value(&cfg).to_json();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), &measured).expect("write golden fuzz stats");
        return;
    }

    let golden = std::fs::read_to_string(golden_path())
        .expect("tests/golden_fuzz_stats.json missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        measured, golden,
        "fuzz statistics moved; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
