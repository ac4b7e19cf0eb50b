//! Golden-baseline and oracle-sensitivity tests for `itr-analyze`.
//!
//! Three guarantees are pinned here:
//!
//! 1. The static analysis of the full workload suite matches
//!    `tests/golden_analyze.json` (regenerate with
//!    `itr-analyze --write-baseline tests/golden_analyze.json` after an
//!    intentional change).
//! 2. The static/dynamic cross-validation oracle holds for every
//!    workload at every configured trace length: each dynamic trace is
//!    a member of its static universe with a matching signature.
//! 3. The oracle has teeth: deliberately dropping fallthrough edges
//!    from the enumeration (the injected-bug drill) is caught as closure
//!    violations.
//! 4. Checking a start against the universe's stored walk decides
//!    exactly what a fresh walk would: counts and violations equal an
//!    always-walk reference over seed, generated and doctored inputs.

#![allow(clippy::unwrap_used)] // test code: panicking on broken expectations is the point

use itr::analyze::{
    analyze_program, cross_validate, dynamic_traces, enumerate, walk, AnalyzeConfig, AnalyzeReport,
    CrossValidation, EnumOptions, ProgramImage, Universe, Violation, ViolationKind,
};
use itr::core::{FoldKind, TraceRecord};
use itr::isa::Program;
use itr::stats::json::Value;
use itr::workloads::suite::{self, WorkloadKind};

/// Suite parameters pinned to the `itr-analyze` binary defaults, which
/// is what the golden baseline was generated with.
const SEED: u64 = 0x1712_2007;
const MIMIC_INSTRS: u64 = 30_000;

fn kind_label(kind: &WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::Kernel => "kernel",
        WorkloadKind::Mimic => "mimic",
    }
}

fn full_report() -> AnalyzeReport {
    let config = AnalyzeConfig::default();
    let workloads = suite::everything(SEED, MIMIC_INSTRS)
        .iter()
        .map(|w| analyze_program(&w.name, kind_label(&w.kind), &w.program, &config))
        .collect();
    AnalyzeReport { config, workloads }
}

#[test]
fn suite_analysis_matches_golden_baseline() {
    let baseline = Value::parse(include_str!("golden_analyze.json")).unwrap();
    let report = full_report();
    if let Err(problems) = report.check_baseline(&baseline) {
        panic!("analysis drifted from tests/golden_analyze.json:\n  {}", problems.join("\n  "));
    }
}

#[test]
fn cross_validation_oracle_holds_for_every_workload_and_length() {
    let report = full_report();
    assert_eq!(report.workloads.len(), suite::everything(SEED, MIMIC_INSTRS).len());
    for w in &report.workloads {
        for len in &w.lens {
            let dynamic = len.dynamic.as_ref().expect("verify_budget > 0");
            assert!(
                dynamic.violations.is_empty(),
                "{} len {}: {} cross-validation violation(s), first: {:?}",
                w.name,
                len.max_len,
                dynamic.violations.len(),
                dynamic.violations.first(),
            );
            assert_eq!(
                dynamic.region_escapes, 0,
                "{} len {}: dynamic trace started outside the analysis region",
                w.name, len.max_len,
            );
            assert!(dynamic.checked > 0, "{} len {}: nothing verified", w.name, len.max_len);
        }
        assert_eq!(w.unreachable_instrs, 0, "{}: unreachable code", w.name);
    }
}

#[test]
fn dropping_fallthrough_edges_is_caught_by_the_oracle() {
    // The injected-enumeration-bug drill: an enumerator that forgets the
    // not-taken successor of conditional branches produces a universe
    // that the dynamic run escapes from, and the oracle must say so.
    let w = suite::by_name("sum_loop", SEED, MIMIC_INSTRS).expect("sum_loop kernel exists");
    let image = ProgramImage::new(&w.program);
    let buggy = EnumOptions { follow_fallthrough: false, ..EnumOptions::default() };
    let universe = enumerate(&image, 16, &buggy);
    let records = dynamic_traces(&w.program, 200_000, 16);
    let cv = cross_validate(&image, &universe, &records);
    assert!(
        !cv.violations.is_empty(),
        "a fallthrough-dropping enumerator must be flagged, got {cv:?}"
    );

    // And the correct enumerator over the same inputs is clean.
    let fixed = enumerate(&image, 16, &EnumOptions::default());
    let cv = cross_validate(&image, &fixed, &records);
    assert!(cv.passed(), "correct enumeration must pass: {cv:?}");
}

/// The cross-validation rule with every in-region start walked afresh.
fn always_walk(
    image: &ProgramImage,
    universe: &Universe,
    dynamic: &[TraceRecord],
) -> CrossValidation {
    let mut cv = CrossValidation::default();
    for record in dynamic {
        cv.checked += 1;
        if !image.in_region(record.start_pc) {
            cv.region_escapes += 1;
            continue;
        }
        let walked = walk(image, record.start_pc, universe.max_len, FoldKind::Xor).record;
        if !walked.is_some_and(|s| s.signature == record.signature && s.len == record.len) {
            let v =
                Violation { kind: ViolationKind::Content, dynamic: *record, static_record: walked };
            cv.violations.push(v);
            continue;
        }
        if !universe.contains(record.start_pc) {
            if image.has_indirect_jumps() {
                cv.indirect_escapes += 1;
            } else {
                let v = Violation {
                    kind: ViolationKind::Closure,
                    dynamic: *record,
                    static_record: walked,
                };
                cv.violations.push(v);
            }
            continue;
        }
        cv.matched += 1;
    }
    cv
}

#[test]
fn stored_walks_cross_validate_like_fresh_walks() {
    use itr::fuzz::{gen, seed_corpus};
    use itr::stats::SplitMix64;

    let mut rng = SplitMix64::new(5);
    let programs: Vec<Program> = seed_corpus(1, 500)
        .iter()
        .chain(&(0..24).map(|i| gen::generate(&mut rng, 16 + 4 * i)).collect::<Vec<_>>())
        .map(|c| c.program())
        .collect();
    let crippled = EnumOptions { follow_fallthrough: false, ..EnumOptions::default() };
    let (mut content, mut closure, mut escapes) = (0, 0, 0);
    for program in &programs {
        let image = ProgramImage::new(program);
        for len in [4u32, 8, 16] {
            let mut dynamic = dynamic_traces(program, 600, len);
            let Some(&first) = dynamic.first() else { continue };
            // A corrupted signature and a start far outside the region.
            dynamic.push(TraceRecord { signature: first.signature ^ 0xDEAD_BEEF, ..first });
            dynamic.push(TraceRecord { start_pc: image.region().1 + 0x1000, ..first });
            for opts in [EnumOptions::default(), crippled] {
                let universe = enumerate(&image, len, &opts);
                let got = cross_validate(&image, &universe, &dynamic);
                let want = always_walk(&image, &universe, &dynamic);
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "len {len}");
                for v in &got.violations {
                    match v.kind {
                        ViolationKind::Content => content += 1,
                        ViolationKind::Closure => closure += 1,
                    }
                }
                escapes += got.region_escapes + got.indirect_escapes;
            }
        }
    }
    assert!(content > 0 && closure > 0 && escapes > 0, "every outcome is reached");
}
