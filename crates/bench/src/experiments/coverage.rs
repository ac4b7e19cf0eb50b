//! Figures 6–7: detection/recovery coverage loss across the ITR-cache
//! design space, one compute shard per benchmark (the stream is
//! collected once and replayed into all 18 configurations plus the
//! 1024×2-way summary point).

use super::{emit_payload, get_arr, get_bool, get_f64, get_str, obj, Csv, Emitted, Scale};
use itr_core::{fan_out_records, Associativity, CoverageModel, ItrCacheConfig, TraceRecord};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_stats::json::Value;
use itr_workloads::{profiles, SpecProfile};
use std::fmt::Write as _;
use std::path::Path;

/// Cache sizes the figures sweep.
pub const SIZES: [u32; 3] = [256, 512, 1024];

/// One benchmark's coverage results.
#[derive(Debug, Clone)]
pub struct CoverageUnit {
    /// Benchmark name.
    pub name: String,
    /// Member of the Figures 6–8 subset (gets the full sweep).
    pub in_figure_set: bool,
    /// `sweep[assoc][size] = (detection_loss_pct, recovery_loss_pct)`,
    /// indices following [`Associativity::SWEEP`] × [`SIZES`].
    pub sweep: Vec<Vec<(f64, f64)>>,
    /// 1024-signature 2-way summary point (all 16 benchmarks).
    pub det2: f64,
    /// Recovery loss at the summary point.
    pub rec2: f64,
}

impl CoverageUnit {
    /// Journal-crossing encoding.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("in_figure_set", Value::Bool(self.in_figure_set)),
            (
                "sweep",
                Value::Array(
                    self.sweep
                        .iter()
                        .map(|per_size| {
                            Value::Array(
                                per_size
                                    .iter()
                                    .map(|&(d, r)| {
                                        obj(vec![
                                            ("det", Value::Float(d)),
                                            ("rec", Value::Float(r)),
                                        ])
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
            ("det2", Value::Float(self.det2)),
            ("rec2", Value::Float(self.rec2)),
        ])
    }

    /// Decoding.
    pub fn from_value(v: &Value) -> CoverageUnit {
        CoverageUnit {
            name: get_str(v, "name").to_string(),
            in_figure_set: get_bool(v, "in_figure_set"),
            sweep: get_arr(v, "sweep")
                .iter()
                .map(|per_size| {
                    per_size
                        .as_array()
                        .expect("sweep row")
                        .iter()
                        .map(|p| (get_f64(p, "det"), get_f64(p, "rec")))
                        .collect()
                })
                .collect(),
            det2: get_f64(v, "det2"),
            rec2: get_f64(v, "rec2"),
        }
    }
}

/// Measures one benchmark — the compute shard body. The stream is collected once and
/// fanned out to every configuration's [`CoverageModel`] in a single
/// pass ([`fan_out_records`]); each model observes the identical
/// record sequence it would see in a dedicated run.
pub fn coverage_unit(
    profile: SpecProfile,
    seed: u64,
    instrs: u64,
    from_programs: bool,
) -> CoverageUnit {
    let in_figure_set = profiles::coverage_figure_set().iter().any(|p| p.name == profile.name);
    let stream: Vec<TraceRecord> =
        crate::stream_with(profile, seed, instrs, from_programs).collect();
    let mut models: Vec<CoverageModel> = Vec::new();
    if in_figure_set {
        for assoc in Associativity::SWEEP {
            for &size in &SIZES {
                models.push(CoverageModel::new(ItrCacheConfig::new(size, assoc)));
            }
        }
    }
    models.push(CoverageModel::new(ItrCacheConfig::new(1024, Associativity::Ways(2))));
    fan_out_records(&stream, &mut models);

    let mut reports = models.iter().map(CoverageModel::report);
    let mut sweep = Vec::new();
    if in_figure_set {
        for _ in Associativity::SWEEP {
            let per_size = SIZES
                .iter()
                .map(|_| {
                    let r = reports.next().expect("sweep model");
                    (r.detection_loss_pct(), r.recovery_loss_pct())
                })
                .collect();
            sweep.push(per_size);
        }
    }
    let r = reports.next().expect("summary model");
    CoverageUnit {
        name: profile.name.to_string(),
        in_figure_set,
        sweep,
        det2: r.detection_loss_pct(),
        rec2: r.recovery_loss_pct(),
    }
}

/// Renders Figures 6–7 (`fig6_7.txt` and its CSV).
pub fn render_fig6_7(units: &[CoverageUnit]) -> Emitted {
    let mut text = String::new();
    let mut rows = Vec::new();

    let _ = writeln!(text, "=== Figures 6/7: coverage loss (% of all dynamic instructions) ===");
    let _ = writeln!(text, "(rows: benchmark × associativity; paired columns per cache size)\n");
    let _ = write!(text, "{:<10} {:<7}", "bench", "assoc");
    for s in SIZES {
        let _ = write!(text, "  {:>8} {:>8}", format!("det{s}"), format!("rec{s}"));
    }
    let _ = writeln!(text);

    for u in units.iter().filter(|u| u.in_figure_set) {
        for (ai, assoc) in Associativity::SWEEP.into_iter().enumerate() {
            let _ = write!(text, "{:<10} {:<7}", u.name, assoc.label());
            for (si, &size) in SIZES.iter().enumerate() {
                let (det, rec) = u.sweep[ai][si];
                let _ = write!(text, "  {det:>7.2}% {rec:>7.2}%");
                rows.push(format!("{},{},{size},{det:.4},{rec:.4}", u.name, assoc.label()));
            }
            let _ = writeln!(text);
        }
    }

    let det: Vec<(&str, f64)> = units.iter().map(|u| (u.name.as_str(), u.det2)).collect();
    let rec: Vec<(&str, f64)> = units.iter().map(|u| (u.name.as_str(), u.rec2)).collect();
    fn avg(v: &[(&str, f64)]) -> f64 {
        v.iter().map(|(_, x)| x).sum::<f64>() / v.len() as f64
    }
    fn max<'a>(v: &[(&'a str, f64)]) -> (&'a str, f64) {
        v.iter().fold(("", 0.0f64), |m, &(n, x)| if x > m.1 { (n, x) } else { m })
    }
    let _ = writeln!(text, "\n2-way, 1024 signatures across all 16 benchmarks:");
    let _ = writeln!(
        text,
        "  detection loss: avg {:.2}% (paper: 1.3%), max {:.2}% on {} (paper: 8.2% on vortex)",
        avg(&det),
        max(&det).1,
        max(&det).0
    );
    let _ = writeln!(
        text,
        "  recovery  loss: avg {:.2}% (paper: 2.5%), max {:.2}% on {} (paper: 15% on vortex)",
        avg(&rec),
        max(&rec).1,
        max(&rec).0
    );
    Emitted {
        txt_name: "fig6_7.txt",
        text,
        csv: Some(Csv {
            name: "fig6_7_coverage.csv",
            header: "bench,assoc,entries,detection_loss_pct,recovery_loss_pct".to_string(),
            rows,
        }),
    }
}

/// Registers the compute job and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("coverage", &[], move |_| {
        profiles::all()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let s = s.clone();
                ShardSpec::new(i as u32, (i as u64, i as u64 + 1), move |_| {
                    coverage_unit(p, s.seed, s.instrs, s.from_programs).to_value()
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("fig6_7", &["coverage"], move |_, board| {
        let units: Vec<CoverageUnit> =
            board.expect("coverage").data().map(CoverageUnit::from_value).collect();
        emit_payload(&dir, &render_fig6_7(&units))
    }));
}
