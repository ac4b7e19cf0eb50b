//! The performance ledger: `BENCH_repro.json`.
//!
//! One shard times the simulators themselves (FuncSim and staged
//! pipeline MIPS on the same generated program) and races the sweep's
//! record/replay fan-out against the direct per-configuration
//! simulation it replaced; the emit side folds in the wall-clock every
//! compute job family spent this run (journaled shards contribute 0 —
//! the ledger describes fresh work, not resumed runs). The file is the
//! committed evidence for the sweep-speedup acceptance bar and is
//! uploaded as a CI artifact; being wall-clock, it is exempt from the
//! byte-identity checks the other artifacts must pass.

use super::{obj, sweep, Scale};
use itr_analyze::{gap_report, GapObservations};
use itr_core::{CoverageModel, ItrCacheConfig};
use itr_faults::{FaultModel, ModelKind};
use itr_fuzz::{FuzzConfig, Fuzzer, PowerSchedule};
use itr_harness::{JobSpec, Registry, ShardPayload};
use itr_isa::asm::assemble;
use itr_recover::{run_recovery, GoldenRun, RecoverConfig};
use itr_sim::{FuncSim, Pipeline, PipelineConfig, TraceStream};
use itr_stats::json::Value;
use itr_stats::SplitMix64;
use itr_workloads::{generate_mimic_sized, kernels, profiles};
use std::path::Path;
use std::time::Instant;

/// Compute job families whose wall-clock the ledger records.
pub const TIMED_FAMILIES: [&str; 19] = [
    "characterize",
    "coverage",
    "energy",
    "fig8-campaigns",
    "byfield-campaign",
    "window-sweep",
    "perf-ipc",
    "ablations-units",
    "fuzz-campaign",
    "fuzz-service",
    "analyze-suite",
    "sweep",
    "env-interleave",
    "env-faultmodels",
    "env-workloads",
    "recover-sweep",
    "gap-suite",
    "gap-adversarial",
    "gap-ab",
];

/// Direct-path sample: how many of the 1056 sweep geometries to
/// actually re-simulate when measuring the per-configuration cost the
/// replay fan-out avoids. Kept small — extrapolating the ≥5× headline
/// from 8 direct simulations is already conservative, since the replay
/// path amortises *one* simulation over all 1056.
const DIRECT_SAMPLE: usize = 8;

/// Fuzzing-throughput probe: iterations of the timed mini-campaign and
/// the weighted-pick sample used to price the power scheduler.
const FUZZ_PROBE_ITERS: u64 = 64;
const PICK_SAMPLE: u64 = 10_000;

/// Recovery-engine probe: end-to-end fault runs of the timed sample
/// (active pipeline + ground-truth classification + rollback replay).
/// Detection-and-rollback is a few percent of SEU placements on CRC32,
/// so the sample is sized to include actual rollbacks, not just the
/// active-run fast path.
const RECOVER_PROBE_RUNS: u64 = 480;

/// Gap-analysis probe: repetitions of the full static↔dynamic diff
/// (image + CFG + three trace universes + the coverage closure) and the
/// execution budget of the observation pass.
const GAP_PROBE_REPS: u64 = 32;
const GAP_PROBE_BUDGET: u64 = 60_000;

/// Times the simulators and the sweep's replay-vs-direct race; returns
/// the ledger body (everything except per-family wall-clock).
pub fn measure(scale: &Scale) -> Value {
    let profile = profiles::by_name("vortex").expect("vortex profile");
    let program = generate_mimic_sized(profile, scale.seed, scale.program_instrs);

    // Functional simulator throughput.
    let t = Instant::now();
    let mut func = FuncSim::new(&program);
    func.run(scale.program_instrs);
    let func_secs = t.elapsed().as_secs_f64();
    let func_instrs = func.instr_count();

    // Staged pipeline throughput (ITR on, the evaluated configuration).
    let t = Instant::now();
    let mut pipe = Pipeline::new(&program, PipelineConfig::with_itr());
    pipe.run(u64::MAX);
    let pipe_secs = t.elapsed().as_secs_f64();
    let (pipe_instrs, pipe_cycles) = (pipe.stats().committed, pipe.stats().cycles);

    // Sweep fan-out: one simulation drives all 1056 geometries...
    let configs = sweep::geometries();
    let t = Instant::now();
    let unit = sweep::sweep_unit(profile, scale.seed, scale.program_instrs);
    let replay_secs = t.elapsed().as_secs_f64();
    assert_eq!(unit.counts.len(), configs.len());
    let replay_cps = configs.len() as f64 / replay_secs;

    // ...versus one full functional re-simulation per geometry. Spread
    // the sample across the canonical order endpoints-inclusive so it
    // covers the trace-length, size and associativity axes.
    let sample: Vec<_> = (0..DIRECT_SAMPLE)
        .map(|k| configs[k * (configs.len() - 1) / (DIRECT_SAMPLE - 1)])
        .collect();
    let t = Instant::now();
    for g in &sample {
        let mut model = CoverageModel::new(
            ItrCacheConfig::new(g.entries, g.assoc).with_checked_bit_replacement(g.checked),
        );
        for rec in TraceStream::with_trace_len(&program, scale.program_instrs, g.trace_len) {
            model.observe(&rec);
        }
        std::hint::black_box(model.report());
    }
    let direct_secs = t.elapsed().as_secs_f64();
    let direct_cps = DIRECT_SAMPLE as f64 / direct_secs;

    // Fuzzing engine throughput: a timed mini-campaign at the quick
    // oracle budgets (seeding included — it is part of every real run).
    let fcfg = FuzzConfig::quick(scale.seed, FUZZ_PROBE_ITERS);
    let t = Instant::now();
    let mut fuzzer = Fuzzer::new(fcfg.clone());
    fuzzer.seed(&|| false);
    fuzzer.run_iters(fcfg.iters, &|| false);
    let fuzz_secs = t.elapsed().as_secs_f64();
    let fuzz_execs = fuzzer.execs();

    // Power-scheduler overhead: price the O(corpus) weighted pick alone
    // against the measured per-execution cost. The pick is integer
    // arithmetic over ≤ corpus_cap entries, so the fraction is the
    // evidence behind the "negligible next to one oracle evaluation"
    // claim in `itr_fuzz::schedule`.
    let mut power = PowerSchedule::new();
    for e in fuzzer.corpus().entries() {
        power.observe(&e.features);
    }
    let mut rng = SplitMix64::new(scale.seed);
    let t = Instant::now();
    for _ in 0..PICK_SAMPLE {
        std::hint::black_box(power.pick(fuzzer.corpus(), &mut rng));
    }
    let pick_secs = t.elapsed().as_secs_f64();
    let pick_cost = pick_secs / PICK_SAMPLE as f64;
    let exec_cost = fuzz_secs / fuzz_execs.max(1) as f64;

    // Recovery-engine throughput: one sampled fault taken end to end
    // through the ground-truth engine (active run, classification and —
    // when detection fires — the shadow-replay rollback).
    let crc = assemble(kernels::CRC32.source).expect("crc32 assembles");
    let golden = GoldenRun::capture(&crc, 400_000);
    let rcfg = RecoverConfig { checkpoint_min_gap: 0, ..RecoverConfig::default() };
    let mut rng = SplitMix64::new(scale.seed ^ 0x4EC0_7E4A);
    let t = Instant::now();
    let mut rollbacks = 0u64;
    for _ in 0..RECOVER_PROBE_RUNS {
        let model = FaultModel::sample(ModelKind::Seu, &mut rng, 10, 300);
        let run = run_recovery(&crc, &model, &golden, &rcfg);
        rollbacks += u64::from(run.rolled_back);
    }
    let recover_secs = t.elapsed().as_secs_f64();

    // Gap-analysis throughput: the static↔dynamic diff the directed
    // fuzzer and the gap repro family both lean on, priced as traces
    // diffed per second on a real kernel.
    let gap_lens = [4u32, 8, 16];
    let obs = GapObservations::from_program(&crc, GAP_PROBE_BUDGET, &gap_lens);
    let t = Instant::now();
    let mut gap_traces = 0u64;
    for _ in 0..GAP_PROBE_REPS {
        let report = gap_report("crc32", &crc, &gap_lens, &obs);
        gap_traces += report.lens.iter().map(|l| l.static_traces).sum::<u64>();
        std::hint::black_box(&report);
    }
    let gap_secs = t.elapsed().as_secs_f64();

    // Directed-mutation overhead: the same mini-campaign with the
    // analysis-directed stage on; the extra wall-clock over the blind
    // run prices the plan computation + targeted mutators per exec.
    let dcfg = FuzzConfig { directed: true, ..fcfg.clone() };
    let t = Instant::now();
    let mut directed = Fuzzer::new(dcfg);
    directed.seed(&|| false);
    directed.run_iters(fcfg.iters, &|| false);
    let directed_secs = t.elapsed().as_secs_f64();
    let directed_execs = directed.execs();
    let blind_per_exec = fuzz_secs / fuzz_execs.max(1) as f64;
    let directed_per_exec = directed_secs / directed_execs.max(1) as f64;

    obj(vec![
        ("schema", Value::Str("itr-bench/v1".into())),
        ("workload", Value::Str(profile.name.to_string())),
        (
            "funcsim",
            obj(vec![
                ("instrs", Value::UInt(func_instrs)),
                ("secs", Value::Float(func_secs)),
                ("mips", Value::Float(func_instrs as f64 / func_secs / 1e6)),
            ]),
        ),
        (
            "pipeline",
            obj(vec![
                ("instrs", Value::UInt(pipe_instrs)),
                ("cycles", Value::UInt(pipe_cycles)),
                ("secs", Value::Float(pipe_secs)),
                ("mips", Value::Float(pipe_instrs as f64 / pipe_secs / 1e6)),
            ]),
        ),
        (
            "sweep",
            obj(vec![
                ("configs", Value::UInt(configs.len() as u64)),
                ("replay_secs", Value::Float(replay_secs)),
                ("replay_configs_per_sec", Value::Float(replay_cps)),
                ("direct_configs_sampled", Value::UInt(DIRECT_SAMPLE as u64)),
                ("direct_secs", Value::Float(direct_secs)),
                ("direct_configs_per_sec", Value::Float(direct_cps)),
                ("replay_speedup", Value::Float(replay_cps / direct_cps)),
            ]),
        ),
        (
            "fuzz",
            obj(vec![
                ("iters", Value::UInt(fcfg.iters)),
                ("execs", Value::UInt(fuzz_execs)),
                ("secs", Value::Float(fuzz_secs)),
                ("execs_per_sec", Value::Float(fuzz_execs as f64 / fuzz_secs)),
                ("corpus_len", Value::UInt(fuzzer.corpus().entries().len() as u64)),
                ("pick_sample", Value::UInt(PICK_SAMPLE)),
                ("pick_usecs", Value::Float(pick_cost * 1e6)),
                ("exec_usecs", Value::Float(exec_cost * 1e6)),
                ("scheduler_overhead_frac", Value::Float(pick_cost / exec_cost)),
            ]),
        ),
        (
            "recover",
            obj(vec![
                ("runs", Value::UInt(RECOVER_PROBE_RUNS)),
                ("rollbacks", Value::UInt(rollbacks)),
                ("secs", Value::Float(recover_secs)),
                ("runs_per_sec", Value::Float(RECOVER_PROBE_RUNS as f64 / recover_secs)),
            ]),
        ),
        (
            "gap",
            obj(vec![
                ("reps", Value::UInt(GAP_PROBE_REPS)),
                ("traces_diffed", Value::UInt(gap_traces)),
                ("secs", Value::Float(gap_secs)),
                ("traces_per_sec", Value::Float(gap_traces as f64 / gap_secs)),
                ("directed_iters", Value::UInt(fcfg.iters)),
                ("directed_execs", Value::UInt(directed_execs)),
                ("directed_secs", Value::Float(directed_secs)),
                (
                    "directed_overhead_frac",
                    Value::Float((directed_per_exec - blind_per_exec) / blind_per_exec),
                ),
            ]),
        ),
    ])
}

/// Registers the ledger: a timed measurement shard, then an emit job
/// that appends the per-family wall-clock and writes
/// `BENCH_repro.json`.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let s = scale.clone();
    reg.add(JobSpec::single("bench-measure", &[], move |_, _| ShardPayload {
        data: Some(measure(&s)),
        ..ShardPayload::default()
    }));
    let dir = out.to_path_buf();
    let deps: Vec<&str> = {
        let mut d = TIMED_FAMILIES.to_vec();
        d.push("bench-measure");
        d
    };
    reg.add(JobSpec::single("bench", &deps, move |_, board| {
        let measured =
            board.expect("bench-measure").data().next().expect("bench-measure payload").clone();
        let families: Vec<(String, Value)> = TIMED_FAMILIES
            .iter()
            .map(|name| {
                let ms: u64 = board.expect(name).shards.iter().map(|sh| sh.elapsed_ms).sum();
                (name.to_string(), Value::UInt(ms))
            })
            .collect();
        let mut fields = match measured {
            Value::Object(fields) => fields,
            other => panic!("bench-measure payload is not an object: {other:?}"),
        };
        fields.push(("job_family_wall_ms".to_string(), Value::Object(families)));
        let text = Value::Object(fields).to_json();
        std::fs::create_dir_all(&dir).expect("create output dir");
        std::fs::write(dir.join("BENCH_repro.json"), &text).expect("write bench ledger");
        ShardPayload {
            data: Some(Value::Object(vec![(
                "artifacts".into(),
                Value::Array(vec![Value::Str("BENCH_repro.json".into())]),
            )])),
            ..ShardPayload::default()
        }
    }));
}
