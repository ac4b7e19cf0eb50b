//! Miniature versions of every experiment pipeline, asserting the paper's
//! qualitative claims hold end to end. (The full-scale runs are
//! `itr-repro` jobs; these keep the claims under test.)

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::core::{Associativity, CoverageModel, ItrCacheConfig, TraceRecord};
use itr::faults::{run_campaign, CampaignConfig};
use itr::isa::asm::assemble;
use itr::power::{
    energy_per_access_nj, AreaComparison, EnergyRow, ITR_CACHE_1024X2, POWER4_ICACHE,
};
use itr::sim::{Pipeline, PipelineConfig, RunExit};
use itr::workloads::{generate_mimic_sized, kernels, profiles, SyntheticTraceStream};
use std::collections::HashMap;

/// Figures 1–4 claim: hot benchmarks concentrate dynamic instructions in
/// few close-repeating traces; perl/vortex do not.
#[test]
fn repetition_characterization_shape() {
    fn stats(name: &str) -> (f64, f64) {
        let p = profiles::by_name(name).expect("known");
        let mut by_trace: HashMap<u64, u64> = HashMap::new();
        let mut last: HashMap<u64, u64> = HashMap::new();
        let (mut total, mut close, mut pos) = (0u64, 0u64, 0u64);
        for t in SyntheticTraceStream::new(p, 5, 300_000) {
            *by_trace.entry(t.start_pc).or_default() += t.len as u64;
            if let Some(prev) = last.insert(t.start_pc, pos) {
                if pos - prev < 5_000 {
                    close += t.len as u64;
                }
            }
            total += t.len as u64;
            pos += t.len as u64;
        }
        let mut counts: Vec<u64> = by_trace.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u64 = counts.iter().take(100).sum();
        (top100 as f64 / total as f64, close as f64 / total as f64)
    }
    let (bzip_top, bzip_close) = stats("bzip");
    let (vortex_top, vortex_close) = stats("vortex");
    assert!(bzip_top > 0.9, "bzip top-100 share {bzip_top}");
    assert!(bzip_close > 0.9, "bzip within-5000 share {bzip_close}");
    assert!(vortex_top < 0.5, "vortex top-100 share {vortex_top}");
    assert!(vortex_close < 0.8, "vortex within-5000 share {vortex_close}");
}

/// Figures 6/7 claims: detection loss ≤ recovery loss everywhere; bigger
/// caches reduce vortex's loss substantially; easy benchmarks lose almost
/// nothing at the paper's default point.
#[test]
fn coverage_design_space_shape() {
    let run = |name: &str, entries: u32, assoc: Associativity| {
        let p = profiles::by_name(name).expect("known");
        let mut m = CoverageModel::new(ItrCacheConfig::new(entries, assoc));
        for t in SyntheticTraceStream::new(p, 9, 400_000) {
            m.observe(&t);
        }
        m.report()
    };
    for name in ["bzip", "gap", "vortex", "gcc", "swim"] {
        for entries in [256, 1024] {
            let r = run(name, entries, Associativity::Ways(2));
            assert!(r.detection_loss_instrs <= r.recovery_loss_instrs, "{name}/{entries}");
        }
    }
    let vortex_small = run("vortex", 256, Associativity::Direct);
    let vortex_large = run("vortex", 1024, Associativity::Direct);
    assert!(
        vortex_large.recovery_loss_pct() < vortex_small.recovery_loss_pct() * 0.7,
        "capacity must cut vortex's loss: {} -> {}",
        vortex_small.recovery_loss_pct(),
        vortex_large.recovery_loss_pct()
    );
    let bzip = run("bzip", 1024, Associativity::Ways(2));
    assert!(bzip.recovery_loss_pct() < 1.0, "bzip {}%", bzip.recovery_loss_pct());
}

/// Figure 8 claim: the large majority of decode faults in a repetitive
/// workload are detected through the ITR cache.
#[test]
fn fault_injection_mostly_detected() {
    let profile = profiles::by_name("gap").expect("known");
    let program = generate_mimic_sized(profile, 5, 40_000);
    let cfg = CampaignConfig {
        faults: 30,
        window_cycles: 15_000,
        min_decode: 100,
        max_decode: 30_000,
        seed: 2,
        threads: 2,
        ..CampaignConfig::default()
    };
    let result = run_campaign(&program, &cfg);
    assert_eq!(result.records.len(), 30);
    assert!(
        result.itr_detected_fraction() > 0.6,
        "ITR-detected fraction {:.2}, counts {:?}",
        result.itr_detected_fraction(),
        result.counts
    );
}

/// §5 claims: ITR cache ≈ 1/7 of the I-unit's area; per-access energies
/// match the published CACTI values; total ITR energy beats redundant
/// fetching on a real pipeline run.
#[test]
fn area_and_energy_comparisons() {
    let area = AreaComparison::paper_itr_cache();
    assert!((6.0..9.0).contains(&area.ratio()));
    assert!((energy_per_access_nj(&POWER4_ICACHE) - 0.87).abs() < 0.01);
    assert!((energy_per_access_nj(&ITR_CACHE_1024X2) - 0.58).abs() < 0.01);

    let program = assemble(kernels::CRC32.source).expect("assembles");
    let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
    assert_eq!(pipe.run(10_000_000), RunExit::Halted);
    let unit = pipe.itr().expect("on");
    let row = EnergyRow::from_counts(
        "crc32",
        unit.cache().stats().reads + unit.cache().stats().writes,
        pipe.stats().icache_accesses,
    );
    assert!(
        row.itr_single_port_mj < row.icache_refetch_mj,
        "ITR {} mJ vs I-cache {} mJ",
        row.itr_single_port_mj,
        row.icache_refetch_mj
    );
}

/// Synthetic stream model and generated programs agree on the benchmark's
/// qualitative behaviour (cross-validation of the two workload paths).
#[test]
fn stream_model_and_programs_agree() {
    use itr::sim::TraceStream;
    let p = profiles::by_name("twolf").expect("known");
    let instrs = 120_000u64;

    let mut stream_model = CoverageModel::new(ItrCacheConfig::paper_default());
    for t in SyntheticTraceStream::new(p, 7, instrs) {
        stream_model.observe(&t);
    }
    let program = generate_mimic_sized(p, 7, instrs);
    let mut program_model = CoverageModel::new(ItrCacheConfig::paper_default());
    for t in TraceStream::new(&program, instrs) {
        program_model.observe(&t);
    }
    let (a, b) = (stream_model.report(), program_model.report());
    let delta = (a.recovery_loss_pct() - b.recovery_loss_pct()).abs();
    assert!(
        delta < 5.0,
        "stream model {:.2}% vs program {:.2}% recovery loss",
        a.recovery_loss_pct(),
        b.recovery_loss_pct()
    );
}

/// A workload with no repetition at all gets no ITR protection — the
/// boundary condition of the whole idea.
#[test]
fn zero_repetition_means_zero_protection() {
    let mut m = CoverageModel::new(ItrCacheConfig::new(256, Associativity::Ways(2)));
    for i in 0..10_000u64 {
        m.observe(&TraceRecord { start_pc: 0x1000 + i * 64, signature: i, len: 8 });
    }
    let r = m.report();
    assert_eq!(r.recovery_loss_instrs, r.total_instrs, "every trace misses");
}
