//! Figure 9: ITR-cache energy versus the redundant second I-cache fetch,
//! one compute shard per benchmark (a full ITR-enabled pipeline run).

use super::{emit_payload, get_f64, get_str, get_u64, obj, Csv, Emitted, Scale};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_power::EnergyRow;
use itr_sim::{Pipeline, PipelineConfig};
use itr_stats::json::Value;
use itr_workloads::{generate_mimic_sized, profiles, SpecProfile};
use std::fmt::Write as _;
use std::path::Path;

/// The generated-program size Figure 9 runs at (fixed in both modes).
pub const FIG9_PROGRAM_INSTRS: u64 = 300_000;

/// One benchmark's Figure 9 row.
#[derive(Debug, Clone)]
pub struct EnergyUnit {
    /// Benchmark name.
    pub name: String,
    /// ITR cache accesses (reads + writes).
    pub itr_accesses: u64,
    /// I-cache accesses a redundant frontend would repeat.
    pub icache_accesses: u64,
    /// ITR cache energy, single shared port (mJ).
    pub itr_single_port_mj: f64,
    /// ITR cache energy, separate read/write ports (mJ).
    pub itr_dual_port_mj: f64,
    /// Redundant second-fetch energy (mJ).
    pub icache_refetch_mj: f64,
}

impl EnergyUnit {
    /// Journal-crossing encoding.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("itr_accesses", Value::UInt(self.itr_accesses)),
            ("icache_accesses", Value::UInt(self.icache_accesses)),
            ("itr_single_port_mj", Value::Float(self.itr_single_port_mj)),
            ("itr_dual_port_mj", Value::Float(self.itr_dual_port_mj)),
            ("icache_refetch_mj", Value::Float(self.icache_refetch_mj)),
        ])
    }

    /// Decoding.
    pub fn from_value(v: &Value) -> EnergyUnit {
        EnergyUnit {
            name: get_str(v, "name").to_string(),
            itr_accesses: get_u64(v, "itr_accesses"),
            icache_accesses: get_u64(v, "icache_accesses"),
            itr_single_port_mj: get_f64(v, "itr_single_port_mj"),
            itr_dual_port_mj: get_f64(v, "itr_dual_port_mj"),
            icache_refetch_mj: get_f64(v, "icache_refetch_mj"),
        }
    }

    /// Same ratio [`EnergyRow::saving_factor`] reports.
    pub fn saving_factor(&self) -> f64 {
        if self.itr_single_port_mj == 0.0 {
            return f64::INFINITY;
        }
        self.icache_refetch_mj / self.itr_single_port_mj
    }
}

/// Measures one benchmark — the compute shard body.
pub fn energy_unit(profile: SpecProfile, seed: u64, program_instrs: u64) -> EnergyUnit {
    let program = generate_mimic_sized(profile, seed, program_instrs);
    let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
    pipe.run(program_instrs * 10);
    let row = EnergyRow::from_report(profile.name, &pipe.stats_report())
        .expect("ITR-enabled run exports itr_cache and pipeline sections");
    EnergyUnit {
        name: row.name,
        itr_accesses: row.itr_accesses,
        icache_accesses: row.icache_accesses,
        itr_single_port_mj: row.itr_single_port_mj,
        itr_dual_port_mj: row.itr_dual_port_mj,
        icache_refetch_mj: row.icache_refetch_mj,
    }
}

/// Renders Figure 9 (`fig9.txt` and its CSV).
pub fn render_fig9(units: &[EnergyUnit]) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(text, "=== Figure 9: energy of ITR cache vs I-cache second fetch (mJ) ===");
    let _ = writeln!(
        text,
        "{:<10} {:>12} {:>12} {:>14} {:>14} {:>14} {:>8}",
        "bench", "itr-acc", "ic-acc", "ITR 1rd/wr", "ITR 1rd+1wr", "I-cache", "saving"
    );
    let mut rows = Vec::new();
    for u in units {
        let _ = writeln!(
            text,
            "{:<10} {:>12} {:>12} {:>14.3} {:>14.3} {:>14.3} {:>7.1}x",
            u.name,
            u.itr_accesses,
            u.icache_accesses,
            u.itr_single_port_mj,
            u.itr_dual_port_mj,
            u.icache_refetch_mj,
            u.saving_factor()
        );
        rows.push(format!(
            "{},{},{},{:.5},{:.5},{:.5}",
            u.name,
            u.itr_accesses,
            u.icache_accesses,
            u.itr_single_port_mj,
            u.itr_dual_port_mj,
            u.icache_refetch_mj
        ));
    }
    let _ = writeln!(
        text,
        "\nPaper shape: the ITR cache is far more energy-efficient than fetching every"
    );
    let _ = writeln!(text, "instruction twice from the I-cache, for every benchmark.");
    Emitted {
        txt_name: "fig9.txt",
        text,
        csv: Some(Csv {
            name: "fig9_energy.csv",
            header: "bench,itr_accesses,icache_accesses,itr_single_mj,itr_dual_mj,icache_mj"
                .to_string(),
            rows,
        }),
    }
}

/// Registers the compute job and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let seed = scale.seed;
    reg.add(JobSpec::new("energy", &[], move |_| {
        profiles::all()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                ShardSpec::new(i as u32, (i as u64, i as u64 + 1), move |_| {
                    energy_unit(p, seed, FIG9_PROGRAM_INSTRS).to_value()
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("fig9", &["energy"], move |_, board| {
        let units: Vec<EnergyUnit> =
            board.expect("energy").data().map(EnergyUnit::from_value).collect();
        emit_payload(&dir, &render_fig9(&units))
    }));
}
