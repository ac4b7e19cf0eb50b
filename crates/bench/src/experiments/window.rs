//! Observation-window sensitivity (the paper's footnote 1): the same
//! fault population classified under growing windows.
//!
//! Sharded by **fault range**, not window point: each shard simulates
//! its faults once (at the largest window) and classifies every
//! [`WINDOWS`] boundary from the same execution via
//! [`CampaignPlan::run_range_windows`] — one fifth of the pre-fan-out
//! simulation work, byte-identical artifacts.
//!
//! [`CampaignPlan::run_range_windows`]: itr_faults::Plan::run_range_windows

use super::{emit_payload, get_arr, get_u64, obj, Csv, Emitted, Scale};
use crate::experiments::injection::{planned_mimic, tally, OutcomeCounts, FAULTS_PER_SHARD};
use itr_faults::{shard_bounds, CampaignConfig, Outcome};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_stats::json::Value;
use itr_workloads::profiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The windows the study sweeps.
pub const WINDOWS: [u64; 5] = [1_000, 4_000, 16_000, 64_000, 256_000];

/// The generated-program size (fixed in both modes).
pub const WINDOW_PROGRAM_INSTRS: u64 = 200_000;

/// The campaign configuration for one window point.
pub fn window_cfg(base_seed: u64, faults: u32, window: u64, program_instrs: u64) -> CampaignConfig {
    CampaignConfig {
        faults,
        window_cycles: window,
        min_decode: 200,
        max_decode: program_instrs,
        seed: base_seed ^ 0x71D0,
        ..CampaignConfig::default()
    }
}

/// One window point's tallies.
#[derive(Debug, Clone)]
pub struct WindowUnit {
    /// Observation window in cycles.
    pub window: u64,
    /// Outcome tallies in [`Outcome::ALL`] order.
    pub counts: OutcomeCounts,
}

impl WindowUnit {
    fn pcts(&self) -> (f64, f64, f64, f64) {
        let n = self.counts.iter().sum::<u64>().max(1) as f64;
        let frac = |o: Outcome| {
            let i = Outcome::ALL.iter().position(|x| *x == o).expect("known outcome");
            self.counts[i] as f64 * 100.0 / n
        };
        let itr = Outcome::ALL.into_iter().filter(|o| o.itr_detected()).map(frac).sum::<f64>();
        let may = frac(Outcome::MayItrSdc) + frac(Outcome::MayItrMask);
        let undet = frac(Outcome::UndetSdc) + frac(Outcome::UndetMask) + frac(Outcome::UndetWdog);
        let spc = frac(Outcome::SpcSdc);
        (itr, may, undet, spc)
    }
}

/// Renders the study (`window_sensitivity.txt` and its CSV).
pub fn render_window(units: &[WindowUnit], faults: u32, bench: &str) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Window sensitivity: {faults} faults on `{bench}`, growing observation window ==="
    );
    let _ = writeln!(
        text,
        "{:>10} {:>10} {:>10} {:>10} {:>10}",
        "window", "ITR%", "MayITR%", "Undet%", "spc%"
    );
    let mut rows = Vec::new();
    for u in units {
        let (itr, may, undet, spc) = u.pcts();
        let _ =
            writeln!(text, "{:>10} {itr:>9.1}% {may:>9.1}% {undet:>9.1}% {spc:>9.1}%", u.window);
        rows.push(format!("{},{itr:.2},{may:.2},{undet:.2},{spc:.2}", u.window));
    }
    let _ =
        writeln!(text, "\nFinding (matches the paper's footnote 1): detection saturates almost");
    let _ = writeln!(
        text,
        "immediately — faults strike hot traces in proportion to their decode share,"
    );
    let _ =
        writeln!(text, "and hot traces re-check within hundreds of cycles. The small MayITR mass");
    let _ =
        writeln!(text, "either converts to detection or is evicted (becoming Undet) as the window");
    let _ =
        writeln!(text, "grows; nothing changes past the knee, so the paper's 1M-cycle window is");
    let _ = writeln!(text, "comfortably sufficient.");
    Emitted {
        txt_name: "window_sensitivity.txt",
        text,
        csv: Some(Csv {
            name: "window_sensitivity.csv",
            header: "window_cycles,itr_pct,mayitr_pct,undet_pct,spc_pct".to_string(),
            rows,
        }),
    }
}

/// Registers the sweep job and its emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    let ranges = shard_bounds(scale.faults, scale.faults.div_ceil(FAULTS_PER_SHARD));
    reg.add(JobSpec::new("window-sweep", &[], move |_| {
        let profile = profiles::by_name("vortex").expect("known");
        ranges
            .iter()
            .enumerate()
            .map(|(ri, &(lo, hi))| {
                let s = s.clone();
                ShardSpec::new(ri as u32, (lo as u64, hi as u64), move |ctx| {
                    // One plan at the largest window: its golden stream
                    // covers every smaller boundary, and the fault list
                    // is window-independent by construction.
                    let top = *WINDOWS.last().expect("non-empty window sweep");
                    let cfg = window_cfg(s.seed, s.faults, top, WINDOW_PROGRAM_INSTRS);
                    let planned = planned_mimic(profile, s.seed, WINDOW_PROGRAM_INSTRS, &cfg);
                    let shards = planned.plan.run_range_windows(
                        &planned.program,
                        &planned.cfg,
                        &WINDOWS,
                        lo,
                        hi,
                        &|| ctx.cancelled(),
                    );
                    obj(vec![(
                        "windows",
                        Value::Array(
                            WINDOWS
                                .iter()
                                .zip(&shards)
                                .map(|(&window, shard)| {
                                    obj(vec![
                                        ("window", Value::UInt(window)),
                                        (
                                            "counts",
                                            Value::Array(
                                                tally(&shard.records)
                                                    .iter()
                                                    .map(|&c| Value::UInt(c))
                                                    .collect(),
                                            ),
                                        ),
                                    ])
                                })
                                .collect(),
                        ),
                    )])
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    let s = scale.clone();
    reg.add(JobSpec::single("window-sensitivity", &["window-sweep"], move |_, board| {
        let mut per_window: BTreeMap<u64, OutcomeCounts> =
            WINDOWS.iter().map(|&w| (w, [0u64; 10])).collect();
        for data in board.expect("window-sweep").data() {
            for wv in get_arr(data, "windows") {
                let entry = per_window.get_mut(&get_u64(wv, "window")).expect("known window");
                let arr = wv.get("counts").and_then(Value::as_array).expect("counts");
                for (e, c) in entry.iter_mut().zip(arr) {
                    *e += c.as_u64().expect("count");
                }
            }
        }
        let units: Vec<WindowUnit> =
            WINDOWS.iter().map(|&w| WindowUnit { window: w, counts: per_window[&w] }).collect();
        emit_payload(&dir, &render_window(&units, s.faults, "vortex"))
    }));
}
