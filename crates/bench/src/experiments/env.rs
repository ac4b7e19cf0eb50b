//! Hostile-environment reproduction families (`itr-env`).
//!
//! Three compute families plus one emit job:
//!
//! * **env-interleave** — one shard per schedule point (switch policy ×
//!   preemption × quantum). The program set is recorded **once** when
//!   the job plans its shards; every shard replays the same recordings
//!   through its own shared ITR unit — the coverage sweeps' fan-out
//!   economics applied to OS scheduling instead of cache geometry.
//! * **env-faultmodels** — one shard per [`ModelKind`]: a sampled
//!   campaign of that model over a mimic workload, classified through
//!   the Figure-8 outcome taxonomy (so every extended fault model is
//!   exercised by at least one campaign shard).
//! * **env-workloads** — one shard per new workload family
//!   (compression, parsing, packet processing): self-check output plus
//!   a Table-1-style repetition characterization.
//! * **env-report** — renders `env.txt` / `env.csv` from the three.

use super::{emit_payload, get_str, get_u64, obj, Csv, Emitted, Scale};
use crate::StreamStats;
use itr_core::ItrConfig;
use itr_env::{record_program_set, run_scenario, Preemption, ScenarioConfig, SwitchPolicy};
use itr_faults::{CampaignConfig, FaultModel, ModelKind, ModelPlan, Outcome};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_isa::asm::assemble;
use itr_sim::{FuncSim, TraceStream};
use itr_stats::json::Value;
use itr_workloads::{generate_mimic_sized, kernels, profiles};
use std::fmt::Write as _;
use std::path::Path;

/// The interleaved program set: one classic kernel plus the three new
/// hostile-environment workload families.
pub const ENV_PROGRAMS: [&str; 4] = ["crc32", "rle_compress", "json_parse", "pkt_parse"];

/// Dispatches recorded per program (the streams cycle past this).
pub const ENV_RECORD_INSTRS: u64 = 3_000;

/// Periodic quanta the interleave study sweeps (dispatches per slice).
pub const QUANTA: [u64; 4] = [64, 256, 1024, 4096];

/// Mean slice length of the random-preemption points.
pub const RANDOM_MEAN_QUANTUM: u64 = 256;

/// The new workload families characterized by `env-workloads`.
pub const NEW_WORKLOADS: [&str; 3] = ["rle_compress", "json_parse", "pkt_parse"];

/// Mimic-program size for the fault-model campaigns.
pub const MODEL_PROGRAM_INSTRS: u64 = 60_000;

/// Total dispatches of one interleave schedule point.
pub fn interleave_budget(scale: &Scale) -> u64 {
    (scale.instrs / 80).clamp(20_000, 200_000)
}

/// The schedule points, in shard order: every periodic quantum plus one
/// random-preemption point, for each switch policy.
pub fn schedule_points(scale: &Scale) -> Vec<(SwitchPolicy, Preemption)> {
    let mut points = Vec::new();
    for policy in SwitchPolicy::ALL {
        for &quantum in &QUANTA {
            points.push((policy, Preemption::Periodic { quantum }));
        }
        points.push((
            policy,
            Preemption::Random {
                mean_quantum: RANDOM_MEAN_QUANTUM,
                seed: scale.seed ^ 0x00C0_FFEE,
            },
        ));
    }
    points
}

/// The fault-model campaign configuration (smaller windows than the SEU
/// campaigns: each shard runs a whole campaign of one model kind).
pub fn model_cfg(scale: &Scale) -> CampaignConfig {
    CampaignConfig {
        faults: (scale.faults / 8).max(8),
        window_cycles: (scale.window_cycles / 5).max(10_000),
        min_decode: 100,
        max_decode: 4_000,
        seed: scale.seed ^ 0x0E0F_A017,
        ..CampaignConfig::default()
    }
}

fn quantum_of(p: &Preemption) -> u64 {
    match *p {
        Preemption::Periodic { quantum } => quantum,
        Preemption::Random { mean_quantum, .. } => mean_quantum,
    }
}

fn assembled(name: &str) -> (itr_isa::Program, &'static str) {
    let kernel = kernels::all()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("unknown kernel {name}"));
    let program =
        assemble(kernel.source).unwrap_or_else(|e| panic!("{name} failed to assemble: {e:?}"));
    (program, kernel.expected_output)
}

/// One interleave point as journaled/rendered.
#[derive(Debug, Clone)]
pub struct InterleaveRow {
    /// Switch-policy label (`flush` / `pollute`).
    pub policy: String,
    /// Preemption label (`periodic` / `random`).
    pub sched: String,
    /// Quantum (mean quantum for random preemption).
    pub quantum: u64,
    /// Context switches taken.
    pub switches: u64,
    /// Committed instructions.
    pub instrs: u64,
    /// Detection loss % (evictions + switch flushes).
    pub det_pct: f64,
    /// Recovery loss %.
    pub rec_pct: f64,
    /// Detection-coverage instructions lost to switch flushes alone.
    pub flush_unref_instrs: u64,
    /// Shared-SPC violations (expected 0).
    pub spc_violations: u64,
    /// Probe miss rate in the first 16 dispatches after a switch.
    pub cold_miss_pct: f64,
    /// Probe miss rate ≥ 64 dispatches after a switch.
    pub warm_miss_pct: f64,
}

/// Renders `env.txt` / `env.csv`.
pub fn render_env(
    interleave: &[InterleaveRow],
    models: &[(String, u64, [u64; 10], bool)],
    workloads: &[(String, String, String, u64, u64, f64, f64)],
    budget: u64,
    model_faults: u32,
) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Hostile environments: {} programs time-sliced through one shared ITR cache ===",
        ENV_PROGRAMS.len()
    );
    let _ = writeln!(
        text,
        "({} dispatches per schedule; each program recorded once as an Execution,\n\
         every schedule point replays the same recordings)\n",
        budget
    );
    let _ = writeln!(
        text,
        "{:>8} {:>9} {:>8} {:>9} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "policy",
        "sched",
        "quantum",
        "switches",
        "det-loss%",
        "rec-loss%",
        "flush-loss",
        "cold-miss%",
        "spc-viol"
    );
    let mut rows = Vec::new();
    for r in interleave {
        let _ = writeln!(
            text,
            "{:>8} {:>9} {:>8} {:>9} {:>8.2}% {:>8.2}% {:>9} {:>11.1}% {:>9}",
            r.policy,
            r.sched,
            r.quantum,
            r.switches,
            r.det_pct,
            r.rec_pct,
            r.flush_unref_instrs,
            r.cold_miss_pct,
            r.spc_violations
        );
        rows.push(format!(
            "{},{},{},{},{},{:.4},{:.4},{},{},{:.2},{:.2}",
            r.policy,
            r.sched,
            r.quantum,
            r.switches,
            r.instrs,
            r.det_pct,
            r.rec_pct,
            r.flush_unref_instrs,
            r.spc_violations,
            r.cold_miss_pct,
            r.warm_miss_pct
        ));
    }
    let _ = writeln!(
        text,
        "\nWarm-up: cold-miss% is the ITR probe miss rate within 16 dispatches of a\n\
         switch, vs {:.1}%–{:.1}% once warm — flushing on switch re-pays the cold-start\n\
         misses every quantum, and at small quanta also forfeits detection coverage\n\
         (flush-loss = unreferenced instructions invalidated at switches, the §3\n\
         detection-loss measure applied to context switching).",
        interleave.iter().map(|r| r.warm_miss_pct).fold(f64::INFINITY, f64::min),
        interleave.iter().map(|r| r.warm_miss_pct).fold(0.0, f64::max),
    );

    let _ = writeln!(
        text,
        "\n=== Extended fault models ({model_faults} sampled instances per model) ==="
    );
    let _ = writeln!(
        text,
        "{:>14} {:>9} {:>7} {:>8} {:>7} {:>6} {:>22}",
        "model", "injected", "ITR%", "MayITR%", "Undet%", "spc%", "active-recovery-sound"
    );
    for (kind, injected, counts, sound) in models {
        let n = counts.iter().sum::<u64>().max(1) as f64;
        let frac = |pred: &dyn Fn(Outcome) -> bool| {
            Outcome::ALL
                .iter()
                .enumerate()
                .filter(|(_, o)| pred(**o))
                .map(|(i, _)| counts[i])
                .sum::<u64>() as f64
                * 100.0
                / n
        };
        let itr = frac(&|o: Outcome| o.itr_detected());
        let may = frac(&|o: Outcome| matches!(o, Outcome::MayItrSdc | Outcome::MayItrMask));
        let undet = frac(&|o: Outcome| {
            matches!(o, Outcome::UndetSdc | Outcome::UndetMask | Outcome::UndetWdog)
        });
        let spc = frac(&|o: Outcome| o == Outcome::SpcSdc);
        let _ = writeln!(
            text,
            "{kind:>14} {injected:>9} {itr:>6.1}% {may:>7.1}% {undet:>6.1}% {spc:>5.1}% {:>22}",
            if *sound { "yes" } else { "no (re-strikes)" }
        );
    }
    let _ = writeln!(
        text,
        "\nModels marked unsound re-strike during the retry window, so Active-mode\n\
         retry cannot disambiguate the faulty instance; campaigns classify them in\n\
         Passive mode and the fuzz oracle applies only the always-sound checks."
    );

    let _ = writeln!(text, "\n=== New workload families (Table-1-style characterization) ===");
    let _ = writeln!(
        text,
        "{:>14} {:>10} {:>8} {:>14} {:>8} {:>12}",
        "kernel", "output", "instrs", "static-traces", "top10%", "within-4096%"
    );
    for (name, output, expected, instrs, traces, top10, within) in workloads {
        assert_eq!(output, expected, "{name}: self-check output mismatch");
        let _ = writeln!(
            text,
            "{name:>14} {output:>10} {instrs:>8} {traces:>14} {top10:>7.1}% {within:>11.1}%"
        );
    }
    let _ = writeln!(
        text,
        "\nAll three families repeat their hot traces at short distances, so ITR's\n\
         repetition assumption (Table 1) holds beyond the paper's SPEC2K suite."
    );

    Emitted {
        txt_name: "env.txt",
        text,
        csv: Some(Csv {
            name: "env.csv",
            header: "policy,sched,quantum,switches,instrs,det_loss_pct,rec_loss_pct,\
                     flush_unref_instrs,spc_violations,cold_miss_pct,warm_miss_pct"
                .to_string(),
            rows,
        }),
    }
}

/// Registers the three compute families and the emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::new("env-interleave", &[], move |_| {
        // Recorded once here, shared by every schedule-point shard.
        let programs = record_program_set(&ENV_PROGRAMS, ENV_RECORD_INSTRS);
        let budget = interleave_budget(&s);
        schedule_points(&s)
            .into_iter()
            .enumerate()
            .map(|(i, (policy, preemption))| {
                let programs = programs.clone();
                ShardSpec::new(i as u32, (0, budget), move |_| {
                    let cfg = ScenarioConfig {
                        itr: ItrConfig::paper_default(),
                        policy,
                        preemption,
                        dispatch_budget: budget,
                        spc: true,
                    };
                    let r = run_scenario(&programs, &cfg);
                    let bucket_rate = |pred: &dyn Fn(u64) -> bool| {
                        let (mut probes, mut misses) = (0u64, 0u64);
                        for b in r.warmup.iter().filter(|b| pred(b.lo)) {
                            probes += b.probes;
                            misses += b.misses;
                        }
                        misses as f64 * 100.0 / probes.max(1) as f64
                    };
                    obj(vec![
                        ("policy", Value::Str(policy.label().into())),
                        ("sched", Value::Str(preemption.label().into())),
                        ("quantum", Value::UInt(quantum_of(&preemption))),
                        ("switches", Value::UInt(r.switches)),
                        ("instrs", Value::UInt(r.total.instrs_committed)),
                        ("det_loss_instrs", Value::UInt(r.detection_loss_instrs())),
                        ("det_pct", Value::Float(r.detection_loss_pct())),
                        ("rec_pct", Value::Float(r.recovery_loss_pct())),
                        ("flush_unref_instrs", Value::UInt(r.flush.unreferenced_instrs)),
                        ("spc_checks", Value::UInt(r.spc_checks)),
                        ("spc_violations", Value::UInt(r.spc_violations)),
                        ("cold_miss_pct", Value::Float(bucket_rate(&|lo| lo == 0))),
                        ("warm_miss_pct", Value::Float(bucket_rate(&|lo| lo >= 64))),
                        (
                            "per_program",
                            Value::Array(
                                r.per_program
                                    .iter()
                                    .map(|p| {
                                        obj(vec![
                                            ("name", Value::Str(p.name.clone())),
                                            ("dispatches", Value::UInt(p.dispatches)),
                                            ("instrs", Value::UInt(p.stats.instrs_committed)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
            })
            .collect()
    }));

    let s = scale.clone();
    reg.add(JobSpec::new("env-faultmodels", &[], move |_| {
        let cfg = model_cfg(&s);
        ModelKind::ALL
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let s = s.clone();
                let cfg = cfg.clone();
                ShardSpec::new(i as u32, (0, u64::from(cfg.faults)), move |ctx| {
                    let profile = profiles::by_name("vortex").expect("vortex profile");
                    let program = generate_mimic_sized(profile, s.seed, MODEL_PROGRAM_INSTRS);
                    let plan = ModelPlan::new(&program, kind, &cfg);
                    let sound = plan.models().iter().all(FaultModel::active_recovery_sound);
                    let shard = plan.run_range(&program, &cfg, 0, cfg.faults, &|| ctx.cancelled());
                    let mut counts = [0u64; 10];
                    for rec in &shard.records {
                        let oi = Outcome::ALL
                            .iter()
                            .position(|o| *o == rec.outcome)
                            .expect("known outcome");
                        counts[oi] += 1;
                    }
                    obj(vec![
                        ("kind", Value::Str(kind.label().into())),
                        ("injected", Value::UInt(shard.records.len() as u64)),
                        ("sound", Value::Bool(sound)),
                        ("counts", Value::Array(counts.iter().map(|&c| Value::UInt(c)).collect())),
                    ])
                })
            })
            .collect()
    }));

    let s = scale.clone();
    reg.add(JobSpec::new("env-workloads", &[], move |_| {
        NEW_WORKLOADS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let s = s.clone();
                ShardSpec::new(i as u32, (0, s.instrs), move |_| {
                    let (program, expected) = assembled(name);
                    let mut sim = FuncSim::new(&program);
                    sim.run(1_000_000);
                    let stats = StreamStats::collect(TraceStream::new(&program, s.instrs));
                    obj(vec![
                        ("name", Value::Str((*name).into())),
                        ("output", Value::Str(sim.output().into())),
                        ("expected", Value::Str(expected.into())),
                        ("instrs", Value::UInt(sim.instr_count())),
                        ("static_traces", Value::UInt(stats.static_traces() as u64)),
                        ("top10_pct", Value::Float(stats.top_n_share_pct(10))),
                        ("within_4096_pct", Value::Float(stats.within_distance_pct(4096))),
                    ])
                })
            })
            .collect()
    }));

    let dir = out.to_path_buf();
    let s = scale.clone();
    reg.add(JobSpec::single(
        "env-report",
        &["env-interleave", "env-faultmodels", "env-workloads"],
        move |_, board| {
            let interleave: Vec<InterleaveRow> = board
                .expect("env-interleave")
                .data()
                .map(|d| InterleaveRow {
                    policy: get_str(d, "policy").to_string(),
                    sched: get_str(d, "sched").to_string(),
                    quantum: get_u64(d, "quantum"),
                    switches: get_u64(d, "switches"),
                    instrs: get_u64(d, "instrs"),
                    det_pct: super::get_f64(d, "det_pct"),
                    rec_pct: super::get_f64(d, "rec_pct"),
                    flush_unref_instrs: get_u64(d, "flush_unref_instrs"),
                    spc_violations: get_u64(d, "spc_violations"),
                    cold_miss_pct: super::get_f64(d, "cold_miss_pct"),
                    warm_miss_pct: super::get_f64(d, "warm_miss_pct"),
                })
                .collect();
            let models: Vec<(String, u64, [u64; 10], bool)> = board
                .expect("env-faultmodels")
                .data()
                .map(|d| {
                    let mut counts = [0u64; 10];
                    let arr = d.get("counts").and_then(Value::as_array).expect("counts");
                    for (e, c) in counts.iter_mut().zip(arr) {
                        *e = c.as_u64().expect("count");
                    }
                    (
                        get_str(d, "kind").to_string(),
                        get_u64(d, "injected"),
                        counts,
                        super::get_bool(d, "sound"),
                    )
                })
                .collect();
            let workloads: Vec<(String, String, String, u64, u64, f64, f64)> = board
                .expect("env-workloads")
                .data()
                .map(|d| {
                    (
                        get_str(d, "name").to_string(),
                        get_str(d, "output").to_string(),
                        get_str(d, "expected").to_string(),
                        get_u64(d, "instrs"),
                        get_u64(d, "static_traces"),
                        super::get_f64(d, "top10_pct"),
                        super::get_f64(d, "within_4096_pct"),
                    )
                })
                .collect();
            emit_payload(
                &dir,
                &render_env(
                    &interleave,
                    &models,
                    &workloads,
                    interleave_budget(&s),
                    model_cfg(&s).faults,
                ),
            )
        },
    ));
}
