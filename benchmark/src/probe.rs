//! The attribution phase of a traced run: after the traced loop, each
//! layer's public calls are driven one by one over the workload's own
//! inputs, inside spans, so that every per-layer metric is measured on
//! every workload. The calls a workload's loop makes through a higher
//! layer (the pipeline inside a fault campaign, the oracles inside a fuzz
//! step) are replayed here as the same public calls that layer makes.

use crate::metrics::{Measured, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer};
use crate::workload::{survive, Scale};
use itr_analyze::{cross_validate, enumerate, EnumOptions, ProgramImage};
use itr_core::{
    ItrCache, ItrCacheConfig, ItrConfig, ItrMode, ProbeResult, TraceBuilder, MAX_TRACE_LEN,
};
use itr_faults::{classify, observe_fault, CampaignConfig, FaultModel, ModelKind, ModelPlan};
use itr_fuzz::{
    directed, evaluate, mutate, FuzzCase, FuzzConfig, Fuzzer, OracleConfig, PowerSchedule,
    SyncRecord,
};
use itr_isa::Program;
use itr_recover::{run_recovery, GoldenRun, RecoverConfig};
use itr_sim::{
    CommitRecord, DecodeFault, FuncSim, Pipeline, PipelineConfig, RunExit, StopReason, TraceStream,
};
use itr_stats::{Report, SplitMix64};
use itr_workloads::{generate_mimic_sized, profiles};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

/// SEU faults observed per fault target.
pub const FAULTS_PER_TARGET: u32 = 12;
/// Of those, how many also run through active-mode recovery.
const RECOVERIES_PER_TARGET: usize = 6;
/// Corpus cases whose programs feed the simulator and fault probes of the
/// fuzz workload.
pub const PROGRAMS_FROM_CORPUS: usize = 8;
/// Of those, how many halting cases serve as fault targets.
pub const CASE_TARGETS: usize = 6;
/// Fuzz cases each oracle probe replays.
const CASE_SAMPLE: usize = 64;
/// Mutation steps of the short fuzz session that gives the non-fuzz
/// workloads a corpus built from their own programs.
const SESSION_STEPS: u64 = 32;
/// Repetitions of the micro-probes (fold, cache, mutate, pick), so each
/// span covers enough work to time.
const MICRO_REPS: u64 = 8;

/// One program the fault probes strike, with the references they need.
#[derive(Debug, Clone)]
pub struct FaultTarget {
    /// The program.
    pub program: Program,
    /// Campaign shape: `faults` SEUs in `[min_decode, max_decode)`.
    pub cfg: CampaignConfig,
    /// Instruction budget of the recovery engine's golden run.
    pub golden_budget: u64,
    /// Recovery-engine configuration.
    pub recover: RecoverConfig,
}

impl FaultTarget {
    /// A target over a mimic of `instrs` dynamic instructions, recovered
    /// with the engine's defaults.
    pub fn mimic(program: &Program, cfg: CampaignConfig, instrs: u64) -> FaultTarget {
        FaultTarget {
            program: program.clone(),
            cfg,
            golden_budget: instrs * 10,
            recover: RecoverConfig::default(),
        }
    }

    /// A target over a fuzz case, shaped like the fuzzer's own
    /// fault-consistency oracle, or `None` when the case does not halt
    /// within the oracle's budget (the oracle skips those too).
    pub fn case(program: &Program, oracle: &OracleConfig, seed: u64) -> Option<FaultTarget> {
        let mut sim = FuncSim::new(program);
        let (golden, stop) = sim.run_collect(oracle.max_instrs);
        if stop != StopReason::Halted || golden.len() < 20 {
            return None;
        }
        Some(FaultTarget {
            program: program.clone(),
            cfg: CampaignConfig {
                faults: 2,
                window_cycles: oracle.window_cycles,
                min_decode: 2,
                max_decode: golden.len() as u64,
                seed,
                threads: 1,
                itr: ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() },
            },
            golden_budget: oracle.max_instrs,
            recover: RecoverConfig {
                checkpoint_min_gap: 0,
                max_cycles: oracle.max_cycles(),
                ..RecoverConfig::default()
            },
        })
    }
}

/// What a workload hands the probes.
#[derive(Debug, Clone)]
pub struct ProbeInputs {
    /// SPEC profiles the workload generates mimics of.
    pub mimics: Vec<&'static str>,
    /// Their dynamic size.
    pub mimic_instrs: u64,
    /// Their generator seed.
    pub mimic_seed: u64,
    /// Programs for the simulator, signature, cache and stats probes.
    pub programs: Vec<Program>,
    /// Instructions those probes simulate of each program at most; a fuzz
    /// case need not halt.
    pub budget: u64,
    /// Programs for the fault and recovery probes.
    pub targets: Vec<FaultTarget>,
}

/// Outcome counts gathered by the probes, for the per-layer ratios.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    itr_hits: u64,
    itr_probes: u64,
    recoveries: u64,
    rollbacks: u64,
    /// Per fault: observation time minus the fault-free prefix, in ms.
    windows_ms: Vec<f64>,
    fuzz_inserts: u64,
    fuzz_execs: u64,
}

/// Runs every probe over `inputs`. `fuzzer` is the workload's own fuzzer;
/// workloads without one get a short session seeded with their programs.
pub fn attribute(
    tr: &mut Tracer,
    inputs: &ProbeInputs,
    fuzzer: Option<&Fuzzer>,
    seed: u64,
    scale: Scale,
) -> Counts {
    let mut counts = Counts::default();
    for &name in &inputs.mimics {
        let profile = profiles::by_name(name).expect("the profile is part of the suite");
        tr.span("workloads.generate_mimic_sized", |_| {
            black_box(generate_mimic_sized(profile, inputs.mimic_seed, inputs.mimic_instrs))
        });
    }
    for program in &inputs.programs {
        simulate(tr, program, inputs.budget, &mut counts);
    }
    for target in &inputs.targets {
        strike(tr, target, &mut counts);
    }
    let session;
    let fuzzer = match fuzzer {
        Some(f) => f,
        None => {
            session = fuzz_session(tr, &inputs.programs, seed, scale);
            &session
        }
    };
    fuzz(tr, fuzzer, seed, scale, &mut counts);
    counts
}

/// FuncSim, signature fold, ITR cache, both pipelines and the stats round
/// trip over one program, for at most `budget` instructions.
fn simulate(tr: &mut Tracer, program: &Program, budget: u64, counts: &mut Counts) {
    tr.counted("sim.funcsim_run", |_| {
        let mut sim = FuncSim::new(program);
        sim.run(budget);
        ((), sim.instr_count())
    });
    let mut sim = FuncSim::new(program);
    let mut stream = Vec::new();
    while (stream.len() as u64) < budget {
        let Some(step) = sim.step() else { break };
        stream.push((step.record.pc, step.signals));
    }
    let traces = tr.counted("core.signature_fold", |_| {
        let mut traces = Vec::new();
        for _ in 0..MICRO_REPS {
            traces.clear();
            let mut fold = TraceBuilder::new(MAX_TRACE_LEN);
            for (pc, signals) in &stream {
                if let Some(t) = fold.push(*pc, signals) {
                    traces.push(t);
                }
            }
        }
        (traces, MICRO_REPS * stream.len() as u64)
    });
    tr.counted("core.itr_cache_access", |_| {
        for _ in 0..MICRO_REPS {
            let mut cache = ItrCache::new(ItrCacheConfig::paper_default());
            for t in &traces {
                if cache.probe(t.start_pc) == ProbeResult::Miss {
                    cache.insert(t.start_pc, t.signature, t.len);
                }
            }
            black_box(cache.occupancy());
        }
        ((), MICRO_REPS * traces.len() as u64)
    });
    // The fuzz oracle's cycle budget: generous CPI headroom plus slack
    // for the deadlock watchdog.
    let max_cycles = budget * 12 + 12_000;
    for (cfg, span) in [
        (PipelineConfig::default(), "sim.pipeline_run_plain"),
        (PipelineConfig::with_itr(), "sim.pipeline_run_itr"),
    ] {
        let itr = cfg.itr.is_some();
        let mut pipe = tr.span("sim.pipeline_new", |_| Pipeline::new(program, cfg));
        tr.counted(span, |_| {
            pipe.run(max_cycles);
            ((), pipe.stats().committed)
        });
        if itr {
            let report = tr.span("stats.report_roundtrip", |_| {
                Report::from_json(&pipe.stats_json()).expect("the pipeline exports valid JSON")
            });
            counts.itr_hits += report.counter("itr_cache", "hits").unwrap_or(0);
            counts.itr_probes += report.counter("itr_cache", "reads").unwrap_or(0);
        }
    }
}

/// Drives a fault-free passive-ITR pipeline as a faulty observation's
/// first phase does, golden comparison included, until the fault's decode:
/// the part of a fault's host time that a fork from a shared prefix would
/// save. The observer checks for the strike every 10k cycles; this stops
/// within 100, so the overshoot is not counted as prefix.
fn drive_prefix(program: &Program, nth_decode: u64, golden: &[CommitRecord], itr: ItrConfig) {
    let cfg = PipelineConfig {
        itr: Some(ItrConfig { mode: ItrMode::Passive, ..itr }),
        spc_check: true,
        ..PipelineConfig::default()
    };
    let mut pipe = Pipeline::new(program, cfg);
    let mut idx = 0usize;
    let mut diverged = false;
    loop {
        let budget = pipe.cycle() + 100;
        let exit = pipe.run_with(budget, |r| {
            diverged |= idx >= golden.len() || golden[idx] != *r;
            idx += 1;
            true
        });
        if pipe.stats().decoded > nth_decode
            || exit != RunExit::CycleLimit
            || pipe.cycle() > 50_000_000
        {
            break;
        }
    }
    black_box(diverged);
}

/// Plans, observes, classifies and merges SEU faults on one target, times
/// their fault-free prefixes, and runs the first few through recovery.
fn strike(tr: &mut Tracer, target: &FaultTarget, counts: &mut Counts) {
    let program = &target.program;
    let cfg = &target.cfg;
    // An SEU model plan samples the same faults as a campaign plan with
    // the same seed, and also exposes the clean-signature map.
    let plan = tr.span("faults.plan", |_| ModelPlan::new(program, ModelKind::Seu, cfg));
    let golden =
        tr.span("recover.golden_capture", |_| GoldenRun::capture(program, target.golden_budget));
    let mut merged = Report::new();
    for (j, model) in plan.models().iter().enumerate() {
        let FaultModel::Seu(fault) = *model else { continue };
        let ((obs, report), observed) = tr.timed("faults.observe", |_| {
            observe_fault(program, fault, plan.golden(), cfg.itr, cfg.window_cycles)
        });
        tr.span("faults.classify", |_| black_box(classify(&obs, plan.clean_signatures())));
        tr.span("faults.report_merge", |_| merged.merge(&report));
        let ((), prefix) = tr.timed("faults.prefix", |_| {
            drive_prefix(program, fault.nth_decode, plan.golden(), cfg.itr)
        });
        counts.windows_ms.push(observed.saturating_sub(prefix).as_secs_f64() * 1e3);
        if j < RECOVERIES_PER_TARGET {
            let run = tr.span("recover.run_recovery", |_| {
                run_recovery(program, model, &golden, &target.recover)
            });
            counts.recoveries += 1;
            counts.rollbacks += u64::from(run.rolled_back);
        }
    }
}

/// A short fuzz session for workloads that do not fuzz: the default seed
/// corpus plus the workload's own programs, then a few mutation steps.
fn fuzz_session(tr: &mut Tracer, programs: &[Program], seed: u64, scale: Scale) -> Fuzzer {
    let cfg = match scale {
        Scale::Full => FuzzConfig { seed, ..FuzzConfig::default() },
        Scale::Tiny => FuzzConfig::quick(seed, 0),
    };
    let mut fuzzer = Fuzzer::new(cfg);
    tr.span("fuzz.seed", |_| fuzzer.seed(&|| false));
    let own: Vec<SyncRecord> = programs
        .iter()
        .filter_map(|p| FuzzCase::from_program(p).ok())
        .map(|case| SyncRecord { case, depth: 0 })
        .collect();
    tr.span("fuzz.import", |_| fuzzer.import(&own));
    for _ in 0..SESSION_STEPS {
        tr.span("fuzz.step", |_| survive(|| fuzzer.step()));
    }
    fuzzer
}

/// Evaluates a sample of the fuzzer's corpus whole and oracle by oracle,
/// and times mutation, scheduling and directed planning on it.
fn fuzz(tr: &mut Tracer, fuzzer: &Fuzzer, seed: u64, scale: Scale, counts: &mut Counts) {
    let entries = fuzzer.corpus().entries();
    let take = match scale {
        Scale::Full => CASE_SAMPLE,
        Scale::Tiny => 4,
    }
    .min(entries.len());
    let sample: Vec<&FuzzCase> =
        (0..take).map(|k| &entries[k * entries.len() / take].case).collect();
    let ocfg = fuzzer.config().oracle.clone();
    let mut rng = SplitMix64::new(seed ^ 0x0BE5);
    for (k, &case) in sample.iter().enumerate() {
        tr.span("fuzz.evaluate", |_| black_box(evaluate(case, &ocfg, false, &mut rng)));
        tr.span("fuzz.evaluate_faults", |_| {
            black_box(survive(|| evaluate(case, &ocfg, true, &mut rng)))
        });
        oracles(tr, &case.program(), &ocfg, seed ^ k as u64);
    }
    tr.counted("fuzz.mutate", |_| {
        for _ in 0..MICRO_REPS {
            for (k, &case) in sample.iter().enumerate() {
                let donor = sample[(k + 1) % sample.len()];
                black_box(mutate::mutate(&mut rng, case, Some(donor)));
            }
        }
        ((), MICRO_REPS * sample.len() as u64)
    });
    let mut schedule = PowerSchedule::new();
    for e in entries {
        schedule.observe(&e.features);
    }
    let picks = MICRO_REPS * entries.len() as u64;
    tr.counted("fuzz.pick", |_| {
        for _ in 0..picks {
            black_box(schedule.pick(fuzzer.corpus(), &mut rng).map(|e| e.fingerprint));
        }
        ((), picks)
    });
    let budget = ocfg.max_instrs.min(1200);
    for &case in &sample {
        tr.span("analyze.gap_plan", |_| {
            black_box(directed::plan(case, fuzzer.observed_edges(), budget))
        });
    }
    counts.fuzz_inserts = fuzzer.corpus().stats().inserts;
    counts.fuzz_execs = fuzzer.execs();
}

/// The public calls each of the five oracles makes on one case, each in
/// its own span, mirroring `itr_fuzz::evaluate`.
fn oracles(tr: &mut Tracer, program: &Program, ocfg: &OracleConfig, seed: u64) {
    let (golden, stop) =
        tr.span("fuzz.oracle.golden", |_| FuncSim::new(program).run_collect(ocfg.max_instrs));
    tr.span("fuzz.oracle.commit_equivalence", |_| {
        let cap = golden.len() + 8;
        for cfg in [PipelineConfig::default(), PipelineConfig::with_itr()] {
            let mut pipe = Pipeline::new(program, cfg);
            let mut records = Vec::new();
            pipe.run_with(ocfg.max_cycles(), |r| {
                records.push(*r);
                records.len() < cap
            });
            black_box(Report::from_json(&pipe.stats_json()).is_ok());
            black_box(records == golden);
        }
    });
    let budget = ocfg.max_instrs.min(1200);
    tr.span("fuzz.oracle.signature_determinism", |_| {
        for len in [4u32, 8, 16] {
            for _ in 0..2 {
                let mut map = BTreeMap::new();
                for t in TraceStream::with_trace_len(program, budget, len) {
                    map.entry(t.start_pc).or_insert((t.signature, t.len));
                }
                black_box(map);
            }
        }
    });
    tr.span("fuzz.oracle.static_subset", |_| {
        let image = ProgramImage::new(program);
        for len in [4u32, 8, 16] {
            let universe = enumerate(&image, len, &EnumOptions::default());
            let dynamic: Vec<_> = TraceStream::with_trace_len(program, budget, len).collect();
            black_box(cross_validate(&image, &universe, &dynamic));
        }
    });
    if stop != StopReason::Halted || golden.len() < 20 {
        return;
    }
    let mut rng = SplitMix64::new(seed);
    let faults: Vec<DecodeFault> = (0..ocfg.fault_count)
        .map(|_| DecodeFault {
            nth_decode: rng.gen_range(2..golden.len() as u64),
            bit: rng.gen_range(0u32..64),
        })
        .collect();
    let passive = ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() };
    tr.span("fuzz.oracle.fault_consistency", |_| {
        let mut clean = HashMap::new();
        for t in TraceStream::new(program, ocfg.max_instrs) {
            clean.entry(t.start_pc).or_insert(t.signature);
        }
        for &fault in &faults {
            let (obs, _) = observe_fault(program, fault, &golden, passive, ocfg.window_cycles);
            black_box(classify(&obs, &clean));
        }
    });
    tr.span("fuzz.oracle.recovery_ground_truth", |_| {
        let grun = GoldenRun::capture(program, ocfg.max_instrs);
        let rcfg = RecoverConfig {
            checkpoint_min_gap: 0,
            max_cycles: ocfg.max_cycles(),
            ..RecoverConfig::default()
        };
        for &fault in &faults {
            black_box(run_recovery(program, &FaultModel::Seu(fault), &grun, &rcfg));
        }
    });
}

/// Spans of one name: total duration in seconds, total work, and each
/// span's duration in milliseconds.
fn of(spans: &[Span], name: &str) -> (f64, u64, Vec<f64>) {
    let mut secs = 0.0;
    let mut work = 0;
    let mut each = Vec::new();
    for s in spans.iter().filter(|s| s.name == name) {
        secs += s.dur_ns as f64 / 1e9;
        work += s.work;
        each.push(s.dur_ns as f64 / 1e6);
    }
    (secs, work, each)
}

/// Every per-layer metric of [`PER_LAYER`], from the traced run's spans,
/// the probes' counts and the measured tracing overhead.
pub fn layer_metrics(spans: &[Span], counts: &Counts, trace_overhead: f64) -> Vec<Measured> {
    let mean_ms = |name: &str| {
        let (secs, _, each) = of(spans, name);
        secs * 1e3 / each.len() as f64
    };
    let p50_ms = |name: &str| percentile(&of(spans, name).2, 50.0);
    let per_work_ns = |name: &str| {
        let (secs, work, _) = of(spans, name);
        secs * 1e9 / work as f64
    };
    let minstr_per_s = |name: &str| {
        let (secs, work, _) = of(spans, name);
        work as f64 / secs / 1e6
    };
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    let plain = minstr_per_s("sim.pipeline_run_plain");
    let itr = minstr_per_s("sim.pipeline_run_itr");
    let value = |name: &str| -> f64 {
        match name {
            "workloads.generate_ms" => mean_ms("workloads.generate_mimic_sized"),
            "sim.funcsim_minstr_per_s" => minstr_per_s("sim.funcsim_run"),
            "sim.pipeline_plain_minstr_per_s" => plain,
            "sim.pipeline_itr_minstr_per_s" => itr,
            "core.itr_overhead_frac" => plain / itr - 1.0,
            "sim.pipeline_new_us" => mean_ms("sim.pipeline_new") * 1e3,
            "core.sig_fold_ns" => per_work_ns("core.signature_fold"),
            "core.cache_probe_ns" => per_work_ns("core.itr_cache_access"),
            "core.itr_hit_frac" => ratio(counts.itr_hits, counts.itr_probes),
            "stats.report_roundtrip_us" => mean_ms("stats.report_roundtrip") * 1e3,
            "faults.plan_ms" => mean_ms("faults.plan"),
            "faults.observe_ms_p50" => p50_ms("faults.observe"),
            "faults.prefix_share" => of(spans, "faults.prefix").0 / of(spans, "faults.observe").0,
            "faults.window_ms_p50" => median(&counts.windows_ms),
            "faults.classify_us" => mean_ms("faults.classify") * 1e3,
            "faults.report_merge_us" => mean_ms("faults.report_merge") * 1e3,
            "recover.golden_capture_ms" => mean_ms("recover.golden_capture"),
            "recover.run_ms_p50" => p50_ms("recover.run_recovery"),
            "recover.rollback_frac" => ratio(counts.rollbacks, counts.recoveries),
            "fuzz.seed_s" => mean_ms("fuzz.seed") / 1e3,
            "fuzz.evaluate_us" => mean_ms("fuzz.evaluate") * 1e3,
            "fuzz.evaluate_faults_us" => mean_ms("fuzz.evaluate_faults") * 1e3,
            "fuzz.mutate_us" => per_work_ns("fuzz.mutate") / 1e3,
            "fuzz.pick_us" => per_work_ns("fuzz.pick") / 1e3,
            "analyze.gap_plan_us" => mean_ms("analyze.gap_plan") * 1e3,
            "fuzz.novel_frac" => ratio(counts.fuzz_inserts, counts.fuzz_execs),
            "trace_overhead_frac" => trace_overhead,
            // fuzz.oracle.<name>_us: the mean of the fuzz.oracle.<name> spans.
            oracle => mean_ms(oracle.strip_suffix("_us").unwrap_or(oracle)) * 1e3,
        }
    };
    PER_LAYER
        .iter()
        .map(|m| Measured { name: m.name, unit: m.unit, value: value(m.name) })
        .collect()
}
