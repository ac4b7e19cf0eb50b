//! Trace-stream characterization: one pass per benchmark feeds Table 1
//! and Figures 1–4. A single `characterize` job collects each stream
//! once and three emit jobs render from its payloads.

use super::{emit_payload, get_arr, get_bool, get_f64, get_str, get_u64, obj, Csv, Emitted, Scale};
use crate::{pct, StreamStats};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_stats::json::Value;
use itr_workloads::{profiles, MimicModel, SpecProfile};
use std::fmt::Write as _;
use std::path::Path;

/// Union of the top-N points Figures 1 and 2 plot.
pub const TOP_POINTS: [usize; 10] = [10, 25, 50, 100, 200, 300, 400, 500, 700, 1000];
/// Figure 1 (integer suite) points.
pub const INT_POINTS: [usize; 8] = [50, 100, 200, 300, 400, 500, 700, 1000];
/// Figure 2 (floating-point suite) points.
pub const FP_POINTS: [usize; 8] = [10, 25, 50, 100, 200, 300, 400, 500];
/// Figures 3–4 distance buckets (500-instruction steps to 10 000).
pub fn dist_buckets() -> Vec<u64> {
    (1..=20).map(|i| i * 500).collect()
}

/// Everything Table 1 and Figures 1–4 need from one benchmark's stream.
#[derive(Debug, Clone)]
pub struct BenchChar {
    /// Benchmark name.
    pub name: String,
    /// Floating-point suite member.
    pub fp: bool,
    /// Paper's published static-trace count.
    pub paper: u32,
    /// Modelled full static population.
    pub modelled: u32,
    /// Static traces visited within the instruction budget.
    pub observed: u64,
    /// `(n, cumulative % of dynamic instructions)` at [`TOP_POINTS`].
    pub tops: Vec<(usize, f64)>,
    /// `(distance, % of dynamic instructions)` at [`dist_buckets`].
    pub dists: Vec<(u64, f64)>,
}

impl BenchChar {
    /// Journal-crossing encoding.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("fp", Value::Bool(self.fp)),
            ("paper", Value::UInt(self.paper as u64)),
            ("modelled", Value::UInt(self.modelled as u64)),
            ("observed", Value::UInt(self.observed)),
            (
                "tops",
                Value::Array(
                    self.tops
                        .iter()
                        .map(|&(n, p)| {
                            obj(vec![("n", Value::UInt(n as u64)), ("pct", Value::Float(p))])
                        })
                        .collect(),
                ),
            ),
            (
                "dists",
                Value::Array(
                    self.dists
                        .iter()
                        .map(|&(d, p)| obj(vec![("d", Value::UInt(d)), ("pct", Value::Float(p))]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Decoding (panics on shape mismatch — a schema bug, not input).
    pub fn from_value(v: &Value) -> BenchChar {
        BenchChar {
            name: get_str(v, "name").to_string(),
            fp: get_bool(v, "fp"),
            paper: get_u64(v, "paper") as u32,
            modelled: get_u64(v, "modelled") as u32,
            observed: get_u64(v, "observed"),
            tops: get_arr(v, "tops")
                .iter()
                .map(|t| (get_u64(t, "n") as usize, get_f64(t, "pct")))
                .collect(),
            dists: get_arr(v, "dists")
                .iter()
                .map(|t| (get_u64(t, "d"), get_f64(t, "pct")))
                .collect(),
        }
    }

    fn top(&self, n: usize) -> f64 {
        self.tops.iter().find(|&&(p, _)| p == n).map(|&(_, v)| v).unwrap_or(0.0)
    }

    fn dist(&self, d: u64) -> f64 {
        self.dists.iter().find(|&&(p, _)| p == d).map(|&(_, v)| v).unwrap_or(0.0)
    }
}

/// Characterizes one benchmark — the compute shard body.
pub fn characterize_bench(
    profile: SpecProfile,
    seed: u64,
    instrs: u64,
    from_programs: bool,
) -> BenchChar {
    let modelled = MimicModel::new(profile, seed).modelled_static_traces();
    let stats = StreamStats::collect(crate::stream_with(profile, seed, instrs, from_programs));
    BenchChar {
        name: profile.name.to_string(),
        fp: profile.fp,
        paper: profile.static_traces,
        modelled,
        observed: stats.static_traces() as u64,
        tops: TOP_POINTS.iter().map(|&n| (n, stats.top_n_share_pct(n))).collect(),
        dists: dist_buckets().iter().map(|&d| (d, stats.within_distance_pct(d))).collect(),
    }
}

/// Renders Table 1 (`table1.txt` / `table1_static_traces.csv`).
pub fn render_table1(units: &[BenchChar]) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(text, "=== Table 1: static traces per benchmark ===");
    let _ = writeln!(
        text,
        "{:<10} {:>8} {:>9} {:>9}   (modelled = full static population;",
        "bench", "paper", "modelled", "observed"
    );
    let _ = writeln!(text, "{:>52}", "observed = visited within --instrs)");
    let mut rows = Vec::new();
    for u in units {
        let _ = writeln!(text, "{:<10} {:>8} {:>9} {:>9}", u.name, u.paper, u.modelled, u.observed);
        rows.push(format!("{},{},{},{}", u.name, u.paper, u.modelled, u.observed));
    }
    Emitted {
        txt_name: "table1.txt",
        text,
        csv: Some(Csv {
            name: "table1_static_traces.csv",
            header: "bench,paper,modelled,observed".to_string(),
            rows,
        }),
    }
}

/// Renders Figures 1–2 (`fig1_2.txt` and its CSV).
pub fn render_fig1_2(units: &[BenchChar]) -> Emitted {
    let mut text = String::new();
    let mut rows = Vec::new();
    for (title, fp, points) in [
        ("Figure 1 (integer)", false, INT_POINTS.as_slice()),
        ("Figure 2 (floating point)", true, FP_POINTS.as_slice()),
    ] {
        let _ = writeln!(
            text,
            "\n=== {title}: cumulative % dynamic instructions by top-N static traces ==="
        );
        let _ = write!(text, "{:<10}", "bench");
        for n in points {
            let _ = write!(text, "{:>9}", format!("top{n}"));
        }
        let _ = writeln!(text);
        for u in units.iter().filter(|u| u.fp == fp) {
            let _ = write!(text, "{:<10}", u.name);
            for &n in points {
                let _ = write!(text, "{:>9}", pct(u.top(n)));
            }
            let _ = writeln!(text);
            for &n in points {
                rows.push(format!("{},{},{:.3}", u.name, n, u.top(n)));
            }
        }
    }
    let _ = writeln!(
        text,
        "\nPaper shape: in most integer benchmarks <500 static traces contribute nearly all"
    );
    let _ = writeln!(
        text,
        "dynamic instructions (gcc/vortex excepted); FP benchmarks are more repetitive."
    );
    Emitted {
        txt_name: "fig1_2.txt",
        text,
        csv: Some(Csv {
            name: "fig1_2_repetition.csv",
            header: "bench,top_n,share_pct".to_string(),
            rows,
        }),
    }
}

/// Renders Figures 3–4 (`fig3_4.txt` and its CSV).
pub fn render_fig3_4(units: &[BenchChar]) -> Emitted {
    let buckets = dist_buckets();
    let mut text = String::new();
    let mut rows = Vec::new();
    for (title, fp) in [("Figure 3 (integer)", false), ("Figure 4 (floating point)", true)] {
        let _ = writeln!(
            text,
            "\n=== {title}: % dynamic instructions from repeats within distance ==="
        );
        let _ = write!(text, "{:<10}", "bench");
        for d in [500u64, 1000, 1500, 2000, 5000, 10000] {
            let _ = write!(text, "{:>9}", format!("<{d}"));
        }
        let _ = writeln!(text);
        for u in units.iter().filter(|u| u.fp == fp) {
            let _ = write!(text, "{:<10}", u.name);
            for d in [500u64, 1000, 1500, 2000, 5000, 10000] {
                let _ = write!(text, "{:>9}", pct(u.dist(d)));
            }
            let _ = writeln!(text);
            for &d in &buckets {
                rows.push(format!("{},{},{:.3}", u.name, d, u.dist(d)));
            }
        }
    }
    let _ = writeln!(
        text,
        "\nPaper shape: most integer benchmarks reach 85% within 5000 instructions (perl"
    );
    let _ = writeln!(
        text,
        "and vortex excepted); FP benchmarks reach near-total coverage within 1500."
    );
    Emitted {
        txt_name: "fig3_4.txt",
        text,
        csv: Some(Csv {
            name: "fig3_4_distance.csv",
            header: "bench,distance,share_pct".to_string(),
            rows,
        }),
    }
}

/// Decodes the `characterize` job's payloads back into units, in shard
/// (= `profiles::all()`) order.
pub fn units_from(board: &itr_harness::Blackboard) -> Vec<BenchChar> {
    board.expect("characterize").data().map(BenchChar::from_value).collect()
}

/// Registers the compute job and its three emit jobs.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("characterize", &[], move |_| {
        profiles::all()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let s = s.clone();
                ShardSpec::new(i as u32, (i as u64, i as u64 + 1), move |_| {
                    characterize_bench(p, s.seed, s.instrs, s.from_programs).to_value()
                })
            })
            .collect()
    }));
    for (name, render) in [
        ("table1", render_table1 as fn(&[BenchChar]) -> Emitted),
        ("fig1_2", render_fig1_2),
        ("fig3_4", render_fig3_4),
    ] {
        let dir = out.to_path_buf();
        reg.add(JobSpec::single(name, &["characterize"], move |_, board| {
            emit_payload(&dir, &render(&units_from(board)))
        }));
    }
}
