//! Superscalar width sweep: does the ITR machinery scale with the core?
//!
//! The commit interlock polls per instruction and the ITR ROB fills with
//! one entry per in-flight trace; neither should become a bottleneck as
//! the machine gets wider. This sweep measures IPC at widths 1/2/4/8 with
//! and without the ITR unit on a mixed workload (every kernel plus the
//! `gap`, `vortex` and `swim` mimics), as one emit shard.

use super::{emit_payload, Csv, Emitted, Scale};
use itr_harness::{JobSpec, Registry};
use itr_sim::{Pipeline, PipelineConfig};
use itr_workloads::suite;
use std::fmt::Write as _;
use std::path::Path;

/// Runs the sweep and renders `width_sweep.txt` / `width_sweep.csv`.
pub fn render_width_sweep(seed: u64, program_instrs: u64) -> Emitted {
    let mut workloads = suite::all_kernels();
    workloads.extend(
        suite::all_mimics(seed, program_instrs)
            .into_iter()
            .filter(|w| matches!(w.name.as_str(), "gap" | "vortex" | "swim")),
    );
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Superscalar width sweep (geometric-mean IPC over {} workloads) ===",
        workloads.len()
    );
    let _ = writeln!(text, "{:>6} {:>12} {:>12} {:>10}", "width", "baseline", "ITR", "overhead");
    let mut rows = Vec::new();
    for width in [1u32, 2, 4, 8] {
        let mut ipc = [1.0f64, 1.0];
        for (k, with_itr) in [false, true].into_iter().enumerate() {
            for w in &workloads {
                let base =
                    if with_itr { PipelineConfig::with_itr() } else { PipelineConfig::default() };
                let cfg = PipelineConfig { width, issue_width: width, ..base };
                let mut pipe = Pipeline::new(&w.program, cfg);
                pipe.run(program_instrs * 40);
                ipc[k] *= pipe.stats().ipc();
            }
            ipc[k] = ipc[k].powf(1.0 / workloads.len() as f64);
        }
        let overhead = (1.0 - ipc[1] / ipc[0]) * 100.0;
        let _ = writeln!(text, "{width:>6} {:>12.3} {:>12.3} {overhead:>9.2}%", ipc[0], ipc[1]);
        rows.push(format!("{width},{:.4},{:.4}", ipc[0], ipc[1]));
    }
    let _ =
        writeln!(text, "\nExpected: the ITR unit's overhead stays negligible at every width — the");
    let _ = writeln!(text, "dispatch-side check always resolves well before commit.");
    Emitted {
        txt_name: "width_sweep.txt",
        text,
        csv: Some(Csv {
            name: "width_sweep.csv",
            header: "width,baseline_ipc,itr_ipc".into(),
            rows,
        }),
    }
}

/// Registers the `width-sweep` emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let (seed, program_instrs) = (scale.seed, scale.program_instrs);
    let dir = out.to_path_buf();
    reg.add(JobSpec::single("width-sweep", &[], move |_, _| {
        emit_payload(&dir, &render_width_sweep(seed, program_instrs))
    }));
}
