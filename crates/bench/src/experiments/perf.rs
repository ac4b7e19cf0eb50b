//! Performance overhead of the ITR machinery: IPC with and without the
//! ITR unit (plus the §3 redundant-fetch fallback), one shard per
//! workload.

use super::{emit_payload, get_f64, get_str, obj, Csv, Emitted, Scale};
use itr_core::ItrConfig;
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_isa::asm::assemble;
use itr_isa::Program;
use itr_sim::{Pipeline, PipelineConfig};
use itr_stats::json::Value;
use itr_workloads::{generate_mimic_sized, kernels, profiles};
use std::fmt::Write as _;
use std::path::Path;

/// Cycle budget for the hand-written kernels (they halt long before it).
pub const KERNEL_BUDGET: u64 = 50_000_000;

/// IPC of one run, read from its `itr-stats/v1` report.
pub fn ipc(program: &Program, cfg: PipelineConfig, max_cycles: u64) -> f64 {
    let mut pipe = Pipeline::new(program, cfg);
    pipe.run(max_cycles);
    let report = pipe.stats_report();
    let cycles = report.counter("pipeline", "cycles").unwrap_or(0);
    let committed = report.counter("pipeline", "committed").unwrap_or(0);
    if cycles == 0 {
        0.0
    } else {
        committed as f64 / cycles as f64
    }
}

/// One workload's three IPC measurements.
#[derive(Debug, Clone)]
pub struct PerfUnit {
    /// Workload name.
    pub name: String,
    /// Baseline IPC (no ITR unit).
    pub base: f64,
    /// IPC with the ITR unit.
    pub itr: f64,
    /// IPC with ITR plus redundant fetch on miss.
    pub rfod: f64,
}

impl PerfUnit {
    /// Journal-crossing encoding.
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("name", Value::Str(self.name.clone())),
            ("base", Value::Float(self.base)),
            ("itr", Value::Float(self.itr)),
            ("rfod", Value::Float(self.rfod)),
        ])
    }

    /// Decoding.
    pub fn from_value(v: &Value) -> PerfUnit {
        PerfUnit {
            name: get_str(v, "name").to_string(),
            base: get_f64(v, "base"),
            itr: get_f64(v, "itr"),
            rfod: get_f64(v, "rfod"),
        }
    }
}

/// Measures one workload — the shard body.
pub fn measure(name: &str, program: &Program, budget: u64) -> PerfUnit {
    let base = ipc(program, PipelineConfig::default(), budget);
    let itr = ipc(program, PipelineConfig::with_itr(), budget);
    let rfod_cfg = PipelineConfig {
        itr: Some(ItrConfig { redundant_fetch_on_miss: true, ..ItrConfig::paper_default() }),
        ..PipelineConfig::default()
    };
    let rfod = ipc(program, rfod_cfg, budget);
    PerfUnit { name: name.to_string(), base, itr, rfod }
}

/// Renders the study (`perf_overhead.txt` and its CSV).
pub fn render_perf(units: &[PerfUnit]) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(text, "=== ITR performance overhead (IPC) ===");
    let _ = writeln!(
        text,
        "{:<12} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "workload", "baseline", "ITR", "ITR+rfod", "ITR ovh", "rfod ovh"
    );
    let mut rows = Vec::new();
    for u in units {
        let ovh = (1.0 - u.itr / u.base) * 100.0;
        let rovh = (1.0 - u.rfod / u.base) * 100.0;
        let _ = writeln!(
            text,
            "{:<12} {:>9.3} {:>9.3} {:>9.3} {ovh:>9.2}% {rovh:>9.2}%",
            u.name, u.base, u.itr, u.rfod
        );
        rows.push(format!("{},{:.4},{:.4},{:.4}", u.name, u.base, u.itr, u.rfod));
    }
    let _ = writeln!(
        text,
        "\nExpected: plain ITR costs at most a few percent (interlock rarely on the"
    );
    let _ = writeln!(
        text,
        "critical path); the redundant-fetch fallback costs more where miss rates are"
    );
    let _ =
        writeln!(text, "high (vortex/perl/gcc), the bandwidth-for-coverage trade §3 describes.");
    Emitted {
        txt_name: "perf_overhead.txt",
        text,
        csv: Some(Csv {
            name: "perf_overhead.csv",
            header: "workload,baseline_ipc,itr_ipc,rfod_ipc".to_string(),
            rows,
        }),
    }
}

/// Registers the measurement job and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("perf-ipc", &[], move |_| {
        let mut shards = Vec::new();
        let mut index = 0u32;
        for kernel in kernels::all() {
            shards.push(ShardSpec::new(index, (index as u64, index as u64 + 1), move |_| {
                let program = assemble(kernel.source).expect("kernel assembles");
                measure(kernel.name, &program, KERNEL_BUDGET).to_value()
            }));
            index += 1;
        }
        for profile in profiles::all() {
            let s = s.clone();
            shards.push(ShardSpec::new(index, (index as u64, index as u64 + 1), move |_| {
                let program = generate_mimic_sized(profile, s.seed, s.program_instrs);
                measure(profile.name, &program, s.program_instrs * 20).to_value()
            }));
            index += 1;
        }
        shards
    }));
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("perf-overhead", &["perf-ipc"], move |_, board| {
        let units: Vec<PerfUnit> =
            board.expect("perf-ipc").data().map(PerfUnit::from_value).collect();
        emit_payload(&dir, &render_perf(&units))
    }));
}
