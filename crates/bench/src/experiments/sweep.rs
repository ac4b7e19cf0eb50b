//! The design-space sweep: one functional simulation per workload fans
//! out to every point of a 1056-geometry ITR-cache grid, and the emit
//! job distils the grid into a coverage/energy/area Pareto front.
//!
//! The grid crosses trace-length limit × cache entries × associativity
//! × replacement policy. Each workload is simulated **once** per run
//! ([`Execution::record`]); each trace-length limit re-forms traces
//! from the recorded decode stream ([`Execution::traces`]), and
//! [`fan_out_records`] drives all 96 cache geometries of that limit in
//! a single pass over the records. A direct implementation would
//! re-simulate each workload 1056 times; this one simulates it once.

use super::{emit_payload, get_arr, get_str, obj, Csv, Emitted, Scale};
use itr_core::{fan_out_records, Associativity, CoverageModel, ItrCacheConfig};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_power::{energy_per_access_nj, itr_cache_area_cm2, itr_cache_spec};
use itr_sim::Execution;
use itr_stats::json::Value;
use itr_workloads::{generate_mimic_sized, profiles, SpecProfile};
use std::fmt::Write as _;
use std::path::Path;

/// Cache sizes (signature entries) the sweep crosses.
pub const SWEEP_ENTRIES: [u32; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Set organisations the sweep crosses. Unlike the Figures 6–7 sweep
/// this stops at 32-way rather than fully-associative: full
/// associativity at thousands of entries is not an implementable SRAM
/// (and its O(entries) probe would dominate the whole sweep's runtime
/// for a design point nobody would build).
pub const SWEEP_ASSOCS: [Associativity; 6] = [
    Associativity::Direct,
    Associativity::Ways(2),
    Associativity::Ways(4),
    Associativity::Ways(8),
    Associativity::Ways(16),
    Associativity::Ways(32),
];

/// Trace-length limits the sweep crosses.
pub const SWEEP_TRACE_LENS: [u32; 11] = [2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32];

/// One point of the sweep grid.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Trace-length limit (instructions per signature).
    pub trace_len: u32,
    /// Signature entries in the ITR cache.
    pub entries: u32,
    /// Set organisation.
    pub assoc: Associativity,
    /// Checked-bit-aware replacement instead of plain LRU.
    pub checked: bool,
}

impl Geometry {
    /// Bits per cache entry: 64-bit signature + parity (+ checked bit).
    pub fn entry_bits(&self) -> u32 {
        65 + u32::from(self.checked)
    }

    /// Per-access energy of this cache geometry (nJ).
    pub fn energy_nj(&self) -> f64 {
        energy_per_access_nj(&itr_cache_spec(self.entries, self.assoc.ways(self.entries)))
    }

    /// Estimated die area of this cache geometry (cm²).
    pub fn area_cm2(&self) -> f64 {
        itr_cache_area_cm2(self.entries, self.entry_bits())
    }
}

/// The full grid in canonical order (trace length outermost, then
/// entries, associativity, replacement) — the order every shard's
/// `counts` vector and the emitted CSV follow.
pub fn geometries() -> Vec<Geometry> {
    let mut v =
        Vec::with_capacity(SWEEP_TRACE_LENS.len() * SWEEP_ENTRIES.len() * SWEEP_ASSOCS.len() * 2);
    for &trace_len in &SWEEP_TRACE_LENS {
        for &entries in &SWEEP_ENTRIES {
            for assoc in SWEEP_ASSOCS {
                for checked in [false, true] {
                    v.push(Geometry { trace_len, entries, assoc, checked });
                }
            }
        }
    }
    v
}

/// One workload's raw loss counts across the whole grid, in
/// [`geometries`] order: `(total_instrs, detection_loss, recovery_loss)`.
#[derive(Debug, Clone)]
pub struct SweepUnit {
    /// Benchmark name.
    pub name: String,
    /// Per-geometry instruction counts.
    pub counts: Vec<(u64, u64, u64)>,
}

impl SweepUnit {
    /// Journal-crossing encoding.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            (
                "counts",
                Value::Array(
                    self.counts
                        .iter()
                        .map(|&(t, d, r)| {
                            Value::Array(vec![Value::UInt(t), Value::UInt(d), Value::UInt(r)])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decoding.
    pub fn from_value(v: &Value) -> SweepUnit {
        SweepUnit {
            name: get_str(v, "name").to_string(),
            counts: get_arr(v, "counts")
                .iter()
                .map(|row| {
                    let row = row.as_array().expect("counts row");
                    let at = |i: usize| row[i].as_u64().expect("count");
                    (at(0), at(1), at(2))
                })
                .collect(),
        }
    }
}

/// Sweeps one workload — the compute shard body. Simulates the program
/// once, then fans its traces at each length limit out to all 1056
/// grid points.
pub fn sweep_unit(profile: SpecProfile, seed: u64, program_instrs: u64) -> SweepUnit {
    let program = generate_mimic_sized(profile, seed, program_instrs);
    let exec = Execution::record(&program, program_instrs);
    let mut counts = Vec::with_capacity(geometries().len());
    for &trace_len in &SWEEP_TRACE_LENS {
        let records = exec.traces(program_instrs, trace_len);
        let mut models: Vec<CoverageModel> = Vec::new();
        for &entries in &SWEEP_ENTRIES {
            for assoc in SWEEP_ASSOCS {
                for checked in [false, true] {
                    models.push(CoverageModel::new(
                        ItrCacheConfig::new(entries, assoc).with_checked_bit_replacement(checked),
                    ));
                }
            }
        }
        fan_out_records(&records, &mut models);
        for m in &models {
            let r = m.report();
            counts.push((r.total_instrs, r.detection_loss_instrs, r.recovery_loss_instrs));
        }
    }
    SweepUnit { name: profile.name.to_string(), counts }
}

/// One aggregated grid point, ready to rank.
struct SweepRow {
    geom: Geometry,
    det_pct: f64,
    rec_pct: f64,
    energy_nj: f64,
    area_cm2: f64,
    pareto: bool,
}

/// `a` dominates `b` when it is no worse on every objective and
/// strictly better on at least one (all four are minimised).
fn dominates(a: &SweepRow, b: &SweepRow) -> bool {
    let le = a.det_pct <= b.det_pct
        && a.rec_pct <= b.rec_pct
        && a.energy_nj <= b.energy_nj
        && a.area_cm2 <= b.area_cm2;
    let lt = a.det_pct < b.det_pct
        || a.rec_pct < b.rec_pct
        || a.energy_nj < b.energy_nj
        || a.area_cm2 < b.area_cm2;
    le && lt
}

/// Renders the sweep artifacts: the Pareto front as text, the full grid
/// (with a `pareto` flag column) as CSV.
pub fn render_sweep(units: &[SweepUnit]) -> Emitted {
    let geoms = geometries();
    let mut total = vec![(0u64, 0u64, 0u64); geoms.len()];
    for u in units {
        assert_eq!(u.counts.len(), geoms.len(), "grid shape mismatch for {}", u.name);
        for (acc, &(t, d, r)) in total.iter_mut().zip(&u.counts) {
            acc.0 += t;
            acc.1 += d;
            acc.2 += r;
        }
    }
    let mut rows: Vec<SweepRow> = geoms
        .iter()
        .zip(&total)
        .map(|(&geom, &(t, d, r))| SweepRow {
            geom,
            det_pct: d as f64 / t.max(1) as f64 * 100.0,
            rec_pct: r as f64 / t.max(1) as f64 * 100.0,
            energy_nj: geom.energy_nj(),
            area_cm2: geom.area_cm2(),
            pareto: true,
        })
        .collect();
    for i in 0..rows.len() {
        rows[i].pareto = !rows.iter().any(|other| dominates(other, &rows[i]));
    }

    let mut text = String::new();
    let names: Vec<&str> = units.iter().map(|u| u.name.as_str()).collect();
    let front = rows.iter().filter(|r| r.pareto).count();
    let _ = writeln!(text, "=== Design-space sweep: coverage / energy / area Pareto front ===");
    let _ = writeln!(
        text,
        "grid: {} trace lengths x {} sizes x {} assoc x 2 replacement = {} geometries",
        SWEEP_TRACE_LENS.len(),
        SWEEP_ENTRIES.len(),
        SWEEP_ASSOCS.len(),
        geoms.len()
    );
    let _ = writeln!(
        text,
        "losses aggregated over {} workloads ({}), instruction-weighted",
        names.len(),
        names.join(", ")
    );
    let _ = writeln!(
        text,
        "objectives minimised: detection loss %, recovery loss %, nJ/access, cm^2\n"
    );
    let _ = writeln!(text, "Pareto front ({front} of {} geometries):", geoms.len());
    let _ = writeln!(
        text,
        "{:<6} {:>8} {:<7} {:>4} {:>9} {:>9} {:>10} {:>10}",
        "tlen", "entries", "assoc", "ckd", "det", "rec", "nJ/access", "cm^2"
    );
    for r in rows.iter().filter(|r| r.pareto) {
        let _ = writeln!(
            text,
            "{:<6} {:>8} {:<7} {:>4} {:>8.3}% {:>8.3}% {:>10.4} {:>10.6}",
            r.geom.trace_len,
            r.geom.entries,
            r.geom.assoc.label(),
            if r.geom.checked { "ckd" } else { "lru" },
            r.det_pct,
            r.rec_pct,
            r.energy_nj,
            r.area_cm2
        );
    }
    let paper = rows
        .iter()
        .find(|r| {
            r.geom.trace_len == 16
                && r.geom.entries == 1024
                && r.geom.assoc == Associativity::Ways(2)
                && !r.geom.checked
        })
        .expect("paper point in grid");
    let _ = writeln!(
        text,
        "\npaper point (1024x2-way, len 16, LRU): det {:.3}% rec {:.3}% {:.4} nJ \
         {:.6} cm^2 — {}on the front",
        paper.det_pct,
        paper.rec_pct,
        paper.energy_nj,
        paper.area_cm2,
        if paper.pareto { "" } else { "not " }
    );

    let csv_rows = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{:.4},{:.4},{:.5},{:.7},{}",
                r.geom.trace_len,
                r.geom.entries,
                r.geom.assoc.label(),
                u8::from(r.geom.checked),
                r.det_pct,
                r.rec_pct,
                r.energy_nj,
                r.area_cm2,
                u8::from(r.pareto)
            )
        })
        .collect();
    Emitted {
        txt_name: "sweep.txt",
        text,
        csv: Some(Csv {
            name: "sweep_pareto.csv",
            header: "trace_len,entries,assoc,checked,detection_loss_pct,recovery_loss_pct,\
                     energy_nj_per_access,area_cm2,pareto"
                .to_string(),
            rows: csv_rows,
        }),
    }
}

/// Registers the sweep compute job (one shard per workload — the unit
/// of work is now a simulation, not a configuration) and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("sweep", &[], move |_| {
        profiles::coverage_figure_set()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let s = s.clone();
                ShardSpec::new(i as u32, (i as u64, i as u64 + 1), move |_| {
                    sweep_unit(p, s.seed, s.program_instrs).to_value()
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("sweep-pareto", &["sweep"], move |_, board| {
        let units: Vec<SweepUnit> =
            board.expect("sweep").data().map(SweepUnit::from_value).collect();
        emit_payload(&dir, &render_sweep(&units))
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_the_advertised_shape() {
        let g = geometries();
        assert_eq!(g.len(), 1056);
        assert_eq!(g.len(), SWEEP_TRACE_LENS.len() * SWEEP_ENTRIES.len() * 6 * 2);
    }

    #[test]
    fn paper_geometry_matches_published_energy() {
        let geom = Geometry {
            trace_len: 16,
            entries: 1024,
            assoc: Associativity::Ways(2),
            checked: false,
        };
        assert!((geom.energy_nj() - 0.58).abs() < 0.005);
        assert_eq!(geom.entry_bits(), 65);
    }

    #[test]
    fn pareto_front_is_nonempty_and_mutually_nondominated() {
        let profile = profiles::by_name("vortex").expect("vortex profile");
        let unit = sweep_unit(profile, 1, 4_000);
        assert_eq!(unit.counts.len(), 1056);
        let emitted = render_sweep(&[unit]);
        let front: Vec<&String> =
            emitted.csv.as_ref().expect("csv").rows.iter().filter(|r| r.ends_with(",1")).collect();
        assert!(!front.is_empty(), "empty Pareto front");
        // Round-trip the unit encoding while we are here.
        let profile = profiles::by_name("vortex").expect("vortex profile");
        let unit = sweep_unit(profile, 1, 4_000);
        let decoded = SweepUnit::from_value(&unit.to_value());
        assert_eq!(decoded.counts, unit.counts);
    }
}
