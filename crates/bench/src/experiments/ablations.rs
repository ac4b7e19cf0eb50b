//! The three ablation studies (checked-bit replacement, trace-length
//! limit, redundant-fetch fallback), one shard per (study, benchmark)
//! unit.

use super::{emit_payload, get_arr, get_f64, get_str, get_u64, obj, Csv, Emitted, Scale};
use itr_core::{fan_out_records, Associativity, CoverageModel, ItrCacheConfig, TraceRecord};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_power::{energy_per_access_nj, ITR_CACHE_1024X2, POWER4_ICACHE};
use itr_sim::Execution;
use itr_stats::json::Value;
use itr_workloads::{generate_mimic_sized, profiles, SpecProfile};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;

/// The benchmarks the trace-length ablation runs on.
pub const TRACE_LEN_BENCHES: [&str; 3] = ["parser", "twolf", "vortex"];

/// One ablation measurement.
#[derive(Debug, Clone)]
pub enum AblationUnit {
    /// Checked-bit-aware replacement vs plain LRU (2-way, 256
    /// signatures).
    CheckedBit {
        /// Benchmark name.
        bench: String,
        /// Detection loss, plain LRU (%).
        det_lru: f64,
        /// Detection loss, checked-bit-aware (%).
        det_ckd: f64,
        /// Recovery loss, plain LRU (%).
        rec_lru: f64,
        /// Recovery loss, checked-bit-aware (%).
        rec_ckd: f64,
    },
    /// Trace length limit vs static population and coverage.
    TraceLen {
        /// Benchmark name.
        bench: String,
        /// `(limit, static traces, detection loss %, recovery loss %)`.
        points: Vec<(u64, u64, f64, f64)>,
    },
    /// Redundant fetch on ITR miss vs full duplication.
    RedundantFetch {
        /// Benchmark name.
        bench: String,
        /// Recovery loss (%).
        rec: f64,
        /// ITR-gated refetch energy (mJ).
        gated_mj: f64,
        /// Full-duplication refetch energy (mJ).
        full_dup_mj: f64,
    },
}

impl AblationUnit {
    /// Journal-crossing encoding.
    pub fn to_value(&self) -> Value {
        match self {
            AblationUnit::CheckedBit { bench, det_lru, det_ckd, rec_lru, rec_ckd } => obj(vec![
                ("kind", Value::Str("checked_bit".into())),
                ("bench", Value::Str(bench.clone())),
                ("det_lru", Value::Float(*det_lru)),
                ("det_ckd", Value::Float(*det_ckd)),
                ("rec_lru", Value::Float(*rec_lru)),
                ("rec_ckd", Value::Float(*rec_ckd)),
            ]),
            AblationUnit::TraceLen { bench, points } => obj(vec![
                ("kind", Value::Str("trace_len".into())),
                ("bench", Value::Str(bench.clone())),
                (
                    "points",
                    Value::Array(
                        points
                            .iter()
                            .map(|&(limit, statics, det, rec)| {
                                obj(vec![
                                    ("limit", Value::UInt(limit)),
                                    ("statics", Value::UInt(statics)),
                                    ("det", Value::Float(det)),
                                    ("rec", Value::Float(rec)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            AblationUnit::RedundantFetch { bench, rec, gated_mj, full_dup_mj } => obj(vec![
                ("kind", Value::Str("redundant_fetch".into())),
                ("bench", Value::Str(bench.clone())),
                ("rec", Value::Float(*rec)),
                ("gated_mj", Value::Float(*gated_mj)),
                ("full_dup_mj", Value::Float(*full_dup_mj)),
            ]),
        }
    }

    /// Decoding.
    pub fn from_value(v: &Value) -> AblationUnit {
        match get_str(v, "kind") {
            "checked_bit" => AblationUnit::CheckedBit {
                bench: get_str(v, "bench").to_string(),
                det_lru: get_f64(v, "det_lru"),
                det_ckd: get_f64(v, "det_ckd"),
                rec_lru: get_f64(v, "rec_lru"),
                rec_ckd: get_f64(v, "rec_ckd"),
            },
            "trace_len" => AblationUnit::TraceLen {
                bench: get_str(v, "bench").to_string(),
                points: get_arr(v, "points")
                    .iter()
                    .map(|p| {
                        (
                            get_u64(p, "limit"),
                            get_u64(p, "statics"),
                            get_f64(p, "det"),
                            get_f64(p, "rec"),
                        )
                    })
                    .collect(),
            },
            "redundant_fetch" => AblationUnit::RedundantFetch {
                bench: get_str(v, "bench").to_string(),
                rec: get_f64(v, "rec"),
                gated_mj: get_f64(v, "gated_mj"),
                full_dup_mj: get_f64(v, "full_dup_mj"),
            },
            other => panic!("unknown ablation kind `{other}`"),
        }
    }
}

/// Ablation 1 for one benchmark.
pub fn checked_bit_unit(
    profile: SpecProfile,
    seed: u64,
    instrs: u64,
    from_programs: bool,
) -> AblationUnit {
    let stream: Vec<TraceRecord> =
        crate::stream_with(profile, seed, instrs, from_programs).collect();
    let mut models = [
        CoverageModel::new(ItrCacheConfig::new(256, Associativity::Ways(2))),
        CoverageModel::new(
            ItrCacheConfig::new(256, Associativity::Ways(2)).with_checked_bit_replacement(true),
        ),
    ];
    fan_out_records(&stream, &mut models);
    let (p, c) = (models[0].report(), models[1].report());
    AblationUnit::CheckedBit {
        bench: profile.name.to_string(),
        det_lru: p.detection_loss_pct(),
        det_ckd: c.detection_loss_pct(),
        rec_lru: p.recovery_loss_pct(),
        rec_ckd: c.recovery_loss_pct(),
    }
}

/// Ablation 2 for one benchmark.
///
/// The program is simulated **once** ([`Execution::record`]); each
/// trace-length limit re-forms traces from the recorded decode stream
/// ([`Execution::traces`]) instead of re-simulating (the trace stream
/// under any limit is a pure function of the decode stream, which the
/// limit does not affect).
pub fn trace_len_unit(profile: SpecProfile, seed: u64, program_instrs: u64) -> AblationUnit {
    let program = generate_mimic_sized(profile, seed, program_instrs);
    let exec = Execution::record(&program, program_instrs);
    let mut points = Vec::new();
    for limit in [8u32, 16, 32] {
        let mut statics: BTreeSet<u64> = BTreeSet::new();
        let mut model = CoverageModel::new(ItrCacheConfig::new(1024, Associativity::Ways(2)));
        for t in exec.traces(program_instrs, limit) {
            statics.insert(t.start_pc);
            model.observe(&t);
        }
        let r = model.report();
        points.push((
            limit as u64,
            statics.len() as u64,
            r.detection_loss_pct(),
            r.recovery_loss_pct(),
        ));
    }
    AblationUnit::TraceLen { bench: profile.name.to_string(), points }
}

/// Ablation 3 for one benchmark.
pub fn redundant_fetch_unit(
    profile: SpecProfile,
    seed: u64,
    instrs: u64,
    from_programs: bool,
) -> AblationUnit {
    let e_ic = energy_per_access_nj(&POWER4_ICACHE);
    let e_itr = energy_per_access_nj(&ITR_CACHE_1024X2);
    let mut model = CoverageModel::new(ItrCacheConfig::new(1024, Associativity::Ways(2)));
    let mut miss_fetch_groups = 0u64;
    let mut all_fetch_groups = 0u64;
    let mut itr_accesses = 0u64;
    for t in crate::stream_with(profile, seed, instrs, from_programs) {
        all_fetch_groups += (t.len as u64).div_ceil(4);
        // One extra ITR-cache check per refetched trace, plus the
        // refetch itself (one fetch group per 4 instructions).
        if model.cache().peek(t.start_pc).is_none() {
            miss_fetch_groups += (t.len as u64).div_ceil(4);
            itr_accesses += 1;
        }
        model.observe(&t);
    }
    let r = model.report();
    let gated_mj = (miss_fetch_groups as f64 * e_ic + itr_accesses as f64 * e_itr) * 1e-6;
    let full_dup_mj = all_fetch_groups as f64 * e_ic * 1e-6;
    AblationUnit::RedundantFetch {
        bench: profile.name.to_string(),
        rec: r.recovery_loss_pct(),
        gated_mj,
        full_dup_mj,
    }
}

/// Renders the three studies (`ablations.txt` / `ablations.csv`).
/// `units` must arrive in shard order: all checked-bit units, then
/// trace-length, then redundant-fetch.
pub fn render_ablations(units: &[AblationUnit]) -> Emitted {
    let mut text = String::new();
    let mut rows = Vec::new();

    let _ =
        writeln!(text, "=== Ablation 1: checked-bit-aware replacement (2-way, 256 signatures) ===");
    let _ = writeln!(
        text,
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "bench", "det(LRU)", "det(ckd)", "rec(LRU)", "rec(ckd)"
    );
    for u in units {
        if let AblationUnit::CheckedBit { bench, det_lru, det_ckd, rec_lru, rec_ckd } = u {
            let _ = writeln!(
                text,
                "{bench:<10} {det_lru:>9.2}% {det_ckd:>9.2}% {rec_lru:>9.2}% {rec_ckd:>9.2}%"
            );
            rows.push(format!(
                "checked_bit,{bench},{det_lru:.4},{det_ckd:.4},{rec_lru:.4},{rec_ckd:.4}"
            ));
        }
    }

    let _ =
        writeln!(text, "\n=== Ablation 2: trace length limit (generated programs, 1024×2-way) ===");
    let _ = writeln!(
        text,
        "{:<10} {:>6} {:>14} {:>10} {:>10}",
        "bench", "limit", "static traces", "det loss", "rec loss"
    );
    for u in units {
        if let AblationUnit::TraceLen { bench, points } = u {
            for &(limit, statics, det, rec) in points {
                let _ =
                    writeln!(text, "{bench:<10} {limit:>6} {statics:>14} {det:>9.2}% {rec:>9.2}%");
                rows.push(format!("trace_len,{bench},{limit},{statics},{det:.4},{rec:.4}"));
            }
        }
    }

    let _ = writeln!(
        text,
        "\n=== Ablation 3: redundant fetch on ITR miss vs full duplication (§3) ==="
    );
    let _ = writeln!(
        text,
        "{:<10} {:>10} {:>14} {:>14} {:>14}",
        "bench", "rec loss", "gated (mJ)", "full dup (mJ)", "saving"
    );
    for u in units {
        if let AblationUnit::RedundantFetch { bench, rec, gated_mj, full_dup_mj } = u {
            let _ = writeln!(
                text,
                "{bench:<10} {rec:>9.2}% {gated_mj:>14.4} {full_dup_mj:>14.4} {:>13.1}x",
                full_dup_mj / gated_mj.max(1e-12)
            );
            rows.push(format!("redundant_fetch,{bench},{rec:.4},{gated_mj:.5},{full_dup_mj:.5}"));
        }
    }
    let _ = writeln!(text, "(either fallback closes recovery loss to 0.00% for every benchmark)");
    Emitted {
        txt_name: "ablations.txt",
        text,
        csv: Some(Csv {
            name: "ablations.csv",
            header: "ablation,bench,a,b,c,d".to_string(),
            rows,
        }),
    }
}

/// Registers the measurement job and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("ablations-units", &[], move |_| {
        let mut shards = Vec::new();
        let mut index = 0u32;
        for profile in profiles::coverage_figure_set() {
            let s = s.clone();
            shards.push(ShardSpec::new(index, (index as u64, index as u64 + 1), move |_| {
                checked_bit_unit(profile, s.seed, s.instrs, s.from_programs).to_value()
            }));
            index += 1;
        }
        for name in TRACE_LEN_BENCHES {
            let s = s.clone();
            shards.push(ShardSpec::new(index, (index as u64, index as u64 + 1), move |_| {
                let profile = profiles::by_name(name).expect("known benchmark");
                trace_len_unit(profile, s.seed, s.program_instrs).to_value()
            }));
            index += 1;
        }
        for profile in profiles::coverage_figure_set() {
            let s = s.clone();
            shards.push(ShardSpec::new(index, (index as u64, index as u64 + 1), move |_| {
                redundant_fetch_unit(profile, s.seed, s.instrs, s.from_programs).to_value()
            }));
            index += 1;
        }
        shards
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("ablations", &["ablations-units"], move |_, board| {
        let units: Vec<AblationUnit> =
            board.expect("ablations-units").data().map(AblationUnit::from_value).collect();
        emit_payload(&dir, &render_ablations(&units))
    }));
}
