//! The four workloads: how each sets up, what one operation is, and the
//! independent reference every operation is checked against.
//!
//! Each workload is driven from one thread in a closed loop: the next
//! operation starts when the previous one has returned. An operation is
//! one call into a crate's public API (plus the check), and its result
//! folds into a digest of simulated outputs that carries no wall-clock
//! field, so two runs at one seed digest identically.

use crate::probe::{FaultTarget, ProbeInputs};
use crate::trace::Tracer;
use itr_core::{ItrConfig, ItrMode};
use itr_faults::{CampaignConfig, CampaignPlan, ModelKind, ModelPlan, Outcome};
use itr_fuzz::{FuzzConfig, Fuzzer};
use itr_isa::Program;
use itr_recover::{run_recovery, sound_violation, ActualOutcome, GoldenRun, RecoverConfig};
use itr_sim::{CommitRecord, FuncSim, Pipeline, PipelineConfig, RunExit, StopReason};
use itr_stats::SplitMix64;
use itr_workloads::{generate_mimic_sized, profiles, suite, SpecProfile};

/// The seed whose result digests are pinned in `pinned.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Input sizes: `Full` is what the benchmark measures; `Tiny` exercises
/// every code path in well under a second, for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Smoke-test sizes.
    Tiny,
}

impl Scale {
    /// The label used on the command line and in records.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }

    /// Inverse of [`Scale::label`].
    pub fn from_label(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    fn pick<T>(self, full: T, tiny: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Tiny => tiny,
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Kernels and SPEC mimics through the plain and the ITR pipeline.
    SimThroughput,
    /// SEU faults struck late in a mimic that overflows the ITR cache.
    CampaignLate,
    /// Every fault model struck early in a mimic that fits the cache,
    /// with active-mode recovery.
    CampaignEarly,
    /// The coverage-guided fuzzer's mutation loop.
    Fuzz,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::SimThroughput, Workload::CampaignLate, Workload::CampaignEarly, Workload::Fuzz];

    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimThroughput => "sim-throughput",
            Workload::CampaignLate => "campaign-late",
            Workload::CampaignEarly => "campaign-early",
            Workload::Fuzz => "fuzz",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's inputs and references from `seed`. This is
    /// what `setup_s` times.
    pub fn setup(self, seed: u64, scale: Scale, tr: &mut Tracer) -> Box<dyn Session> {
        match self {
            Workload::SimThroughput => Box::new(SimSession::new(seed, scale, tr)),
            Workload::CampaignLate => Box::new(LateSession::new(seed, scale, tr)),
            Workload::CampaignEarly => Box::new(EarlySession::new(seed, scale, tr)),
            Workload::Fuzz => Box::new(FuzzSession::new(seed, scale, tr)),
        }
    }
}

/// The checked result of one operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// The operation passed its check against the independent reference.
    pub ok: bool,
    /// Its simulated results, folded into the run's digest.
    pub words: Vec<u64>,
}

/// A set-up workload, ready to run operations.
///
/// A run repeats one pass of [`Session::pass_len`] operations: operation
/// `i` is the same work as operation `i + pass_len`, and must produce the
/// same results. Repeating the work lets the run time each operation by
/// its fastest repetition, which a shared host's slow spells do not reach.
pub trait Session {
    /// Operations per pass.
    fn pass_len(&self) -> u64;

    /// Untimed preparation before operation `i` (a fresh fuzzer at a
    /// campaign boundary).
    fn prepare(&mut self, _i: u64, _tr: &mut Tracer) {}

    /// Runs operation `i` and checks it.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Op;

    /// Exact model outputs over the first pass.
    fn exact(&self) -> Vec<(&'static str, f64)>;

    /// Inputs for the per-layer attribution probes.
    fn probe_inputs(&self) -> ProbeInputs;

    /// The fuzzer the workload drives, if any.
    fn fuzzer(&self) -> Option<&Fuzzer> {
        None
    }
}

/// FNV-1a over 64-bit words: the result digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one committed instruction's architectural effect.
    pub fn commit(&mut self, r: &CommitRecord) {
        self.word(r.pc);
        self.word(r.next_pc);
        match r.dst {
            Some((reg, v)) => self.word(u64::from(reg) << 32 | u64::from(v)),
            None => self.word(u64::MAX),
        }
        match r.store {
            Some((addr, size, v)) => {
                self.word(addr);
                self.word(u64::from(size) << 32 | u64::from(v));
            }
            None => self.word(u64::MAX),
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Runs `f`, returning `None` if it panics. Some fault-model instances
/// panic the pipeline (`itr_core::unit`: "traces must commit in order");
/// the fuzzer's oracles sample such models themselves.
pub(crate) fn survive<T>(f: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// The seed the SPEC mimics are generated with. Fixed, so a workload's
/// programs, and so its cost, are the same at every benchmark seed: the
/// benchmark seed draws the faults and the order of operations, which
/// average out within a run, while a different program would move every
/// time by up to a third.
const MIMIC_SEED: u64 = 1;

/// A seed derived from the run seed for one purpose (`salt`), so no two
/// inputs, and no two runs' inputs, share random draws.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt)).next_u64()
}

fn mimic(name: &str) -> SpecProfile {
    profiles::by_name(name).expect("the profile is part of the suite")
}

fn generate(tr: &mut Tracer, profile: SpecProfile, seed: u64, instrs: u64) -> Program {
    tr.span("workloads.generate_mimic_sized", |_| generate_mimic_sized(profile, seed, instrs))
}

fn passive_itr() -> ItrConfig {
    ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() }
}

fn outcome_index(o: Outcome) -> u64 {
    Outcome::ALL.iter().position(|&x| x == o).expect("outcome is in ALL") as u64
}

fn actual_index(a: ActualOutcome) -> u64 {
    ActualOutcome::ALL.iter().position(|&x| x == a).expect("outcome is in ALL") as u64
}

// ---------------------------------------------------------------- sim

/// Dynamic size of each SPEC mimic in `sim-throughput`: large enough for
/// the mimic's steady state to dominate, small enough that a pass over
/// every program takes about two seconds, so a run sees several.
const SIM_MIMIC_INSTRS: u64 = 100_000;

/// One program with its FuncSim reference: committed count, commit-stream
/// digest and output.
struct SimProgram {
    program: Program,
    commits: u64,
    digest: u64,
    output: String,
    expected: Option<&'static str>,
    max_cycles: u64,
}

impl SimProgram {
    fn new(
        tr: &mut Tracer,
        program: Program,
        expected: Option<&'static str>,
        budget: u64,
    ) -> SimProgram {
        let (commits, digest, output) = tr.counted("sim.funcsim_golden", |_| {
            let mut sim = FuncSim::new(&program);
            let mut d = Digest::default();
            let mut n = 0;
            while n < budget {
                let Some(step) = sim.step() else { break };
                d.commit(&step.record);
                n += 1;
            }
            assert_eq!(sim.stopped(), Some(StopReason::Halted), "benchmark programs halt");
            ((n, d.value(), sim.output().to_string()), n)
        });
        SimProgram {
            max_cycles: commits * 30 + 100_000,
            program,
            commits,
            digest,
            output,
            expected,
        }
    }

    /// Runs the program through a fresh pipeline and checks the commit
    /// stream and output against FuncSim's (and the kernel's expected
    /// output). Returns the verdict and the simulated counts.
    fn check(&self, itr: bool, tr: &mut Tracer) -> (bool, [u64; 3]) {
        let (cfg, span) = if itr {
            (PipelineConfig::with_itr(), "sim.pipeline_run_itr")
        } else {
            (PipelineConfig::default(), "sim.pipeline_run_plain")
        };
        let mut pipe = tr.span("sim.pipeline_new", |_| Pipeline::new(&self.program, cfg));
        let mut d = Digest::default();
        let exit = tr.counted(span, |_| {
            let mut n = 0u64;
            let exit = pipe.run_with(self.max_cycles, |r| {
                d.commit(r);
                n += 1;
                true
            });
            (exit, n)
        });
        let st = pipe.stats();
        let ok = exit == RunExit::Halted
            && st.committed == self.commits
            && d.value() == self.digest
            && pipe.output() == self.output
            && self.expected.is_none_or(|e| e == self.output);
        let hits = pipe.itr().map_or(0, |u| u.cache().stats().hits);
        (ok, [st.committed, st.cycles, hits])
    }
}

/// `sim-throughput`: every SPEC mimic, and the kernel suite, through
/// `Pipeline::new` + `run`, once plain and once with ITR. One operation
/// is one mimic on one configuration, or all kernels on one
/// configuration: the kernels are tiny, and as separate operations they
/// would put the median in the gap between kernel and mimic times.
struct SimSession {
    mimics: Vec<SimProgram>,
    kernels: Vec<SimProgram>,
    /// One pass, in a seed-drawn order: (mimic index or `None` for the
    /// kernel suite, ITR on).
    order: Vec<(Option<usize>, bool)>,
    mimic_instrs: u64,
    seed: u64,
    itr_committed: u64,
    itr_cycles: u64,
}

impl SimSession {
    fn new(seed: u64, scale: Scale, tr: &mut Tracer) -> SimSession {
        let mimic_instrs = scale.pick(SIM_MIMIC_INSTRS, 5_000);
        let budget = mimic_instrs * 4 + 100_000;
        let kernels = suite::all_kernels();
        let kernels = kernels[..scale.pick(kernels.len(), 4)]
            .iter()
            .map(|k| SimProgram::new(tr, k.program.clone(), k.expected_output, budget))
            .collect();
        let profiles = profiles::all();
        let mimics: Vec<SimProgram> = profiles[..scale.pick(profiles.len(), 2)]
            .iter()
            .map(|&p| {
                let program = generate(tr, p, MIMIC_SEED, mimic_instrs);
                SimProgram::new(tr, program, None, budget)
            })
            .collect();
        let mut order: Vec<(Option<usize>, bool)> = (0..mimics.len())
            .map(Some)
            .chain([None])
            .flat_map(|slot| [(slot, false), (slot, true)])
            .collect();
        let mut rng = SplitMix64::new(derive(seed, 0x0DE5));
        for k in (1..order.len()).rev() {
            order.swap(k, rng.gen_range(0..=k));
        }
        SimSession { mimics, kernels, order, mimic_instrs, seed, itr_committed: 0, itr_cycles: 0 }
    }
}

impl Session for SimSession {
    fn op(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let (slot, itr) = self.order[(i % self.pass_len()) as usize];
        let programs = match slot {
            Some(m) => std::slice::from_ref(&self.mimics[m]),
            None => &self.kernels[..],
        };
        let mut ok = true;
        let mut words = vec![i % self.pass_len()];
        for p in programs {
            let (good, counts) = p.check(itr, tr);
            ok &= good;
            words.extend(counts);
            if itr && i < self.pass_len() {
                self.itr_committed += counts[0];
                self.itr_cycles += counts[1];
            }
        }
        Op { ok, words }
    }

    fn pass_len(&self) -> u64 {
        self.order.len() as u64
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![("sim_ipc", self.itr_committed as f64 / self.itr_cycles.max(1) as f64)]
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let target = &self.mimics[0].program;
        ProbeInputs {
            mimics: profiles::all().into_iter().take(self.mimics.len()).map(|p| p.name).collect(),
            mimic_instrs: self.mimic_instrs,
            mimic_seed: MIMIC_SEED,
            budget: self.mimic_instrs * 2,
            programs: vec![
                self.kernels[0].program.clone(),
                self.kernels[1].program.clone(),
                target.clone(),
            ],
            targets: vec![FaultTarget::mimic(
                target,
                CampaignConfig {
                    faults: crate::probe::FAULTS_PER_TARGET,
                    window_cycles: 10_000,
                    min_decode: self.mimic_instrs / 50,
                    max_decode: self.mimic_instrs / 5,
                    seed: derive(self.seed, 0xFA17),
                    threads: 1,
                    itr: passive_itr(),
                },
                self.mimic_instrs,
            )],
        }
    }
}

// ----------------------------------------------------- campaign-late

/// `campaign-late`: single-bit upsets on the vortex mimic struck in the
/// second half of its run, observed for a short window. The vortex mimic
/// has more static traces than the ITR cache has lines, and the fault-free
/// prefix is most of each fault's host time. One operation classifies one
/// fault.
struct LateSession {
    program: Program,
    cfg: CampaignConfig,
    plan: CampaignPlan,
    instrs: u64,
    detected: u64,
}

impl LateSession {
    fn new(seed: u64, scale: Scale, tr: &mut Tracer) -> LateSession {
        let instrs = scale.pick(100_000, 4_000);
        let program = generate(tr, mimic("vortex"), MIMIC_SEED, instrs);
        let cfg = CampaignConfig {
            faults: scale.pick(32, 4),
            window_cycles: scale.pick(10_000, 2_000),
            min_decode: instrs / 2,
            max_decode: instrs,
            seed: derive(seed, 0xFA17),
            threads: 1,
            itr: passive_itr(),
        };
        let plan = tr.span("faults.plan", |_| CampaignPlan::new(&program, &cfg));
        LateSession { program, cfg, plan, instrs, detected: 0 }
    }
}

impl Session for LateSession {
    fn pass_len(&self) -> u64 {
        u64::from(self.cfg.faults)
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let j = (i % self.pass_len()) as u32;
        let fault = self.plan.faults()[j as usize];
        let shard = tr.span("faults.run_range", |_| {
            self.plan.run_range(&self.program, &self.cfg, j, j + 1, &|| false)
        });
        let decoded = shard.report.counter("pipeline", "decoded").unwrap_or(0);
        let cycles = shard.report.counter("pipeline", "cycles").unwrap_or(0);
        let Some(record) = shard.records.first() else {
            return Op { ok: false, words: vec![u64::MAX] };
        };
        if i < self.pass_len() && record.outcome.itr_detected() {
            self.detected += 1;
        }
        Op {
            // Every planned fault must strike: the run decoded past it.
            ok: shard.records.len() == 1 && decoded > fault.nth_decode,
            words: vec![
                fault.nth_decode,
                u64::from(fault.bit),
                outcome_index(record.outcome),
                cycles,
            ],
        }
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![("itr_detected_frac", self.detected as f64 / self.pass_len() as f64)]
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            mimics: vec!["vortex"],
            mimic_instrs: self.instrs,
            mimic_seed: MIMIC_SEED,
            budget: self.instrs * 2,
            programs: vec![self.program.clone()],
            targets: vec![FaultTarget::mimic(
                &self.program,
                CampaignConfig { faults: crate::probe::FAULTS_PER_TARGET, ..self.cfg.clone() },
                self.instrs,
            )],
        }
    }
}

// ---------------------------------------------------- campaign-early

/// The fault models of `campaign-early`: every kind but
/// [`ModelKind::MultiBitRandom`], some of whose instances crash the
/// pipeline (a four-bit flip on the gzip mimic trips "traces must commit
/// in order" in `itr_core::unit`); a benchmark operation must not fail.
const EARLY_KINDS: [ModelKind; 6] = [
    ModelKind::Seu,
    ModelKind::MultiBitAdjacent,
    ModelKind::StuckAt0,
    ModelKind::StuckAt1,
    ModelKind::Intermittent,
    ModelKind::BurstOnRetry,
];

/// `campaign-early`: fault models struck near the start of the gzip mimic
/// (whose traces fit the ITR cache), observed for a window that runs past
/// program end, each transient model also run through active-mode
/// recovery. The fault-free prefix is a sliver of each fault's host time.
/// One operation is one round: an instance of every model, classified
/// (and recovered). Single instances cost from a few to a hundred
/// milliseconds depending on the model, so a median over them would jump
/// between models; a round's cost has one mode.
struct EarlySession {
    program: Program,
    cfg: CampaignConfig,
    plans: Vec<ModelPlan>,
    golden: GoldenRun,
    recover: RecoverConfig,
    instrs: u64,
    detected: u64,
}

impl EarlySession {
    fn new(seed: u64, scale: Scale, tr: &mut Tracer) -> EarlySession {
        let instrs = scale.pick(60_000, 3_000);
        let program = generate(tr, mimic("gzip"), MIMIC_SEED, instrs);
        let cfg = CampaignConfig {
            faults: scale.pick(32, 2),
            window_cycles: scale.pick(100_000, 10_000),
            min_decode: scale.pick(200, 50),
            max_decode: scale.pick(2_000, 500),
            seed: derive(seed, 0xFA17),
            threads: 1,
            itr: passive_itr(),
        };
        let plans = EARLY_KINDS
            .iter()
            .map(|&kind| tr.span("faults.plan", |_| ModelPlan::new(&program, kind, &cfg)))
            .collect();
        let golden =
            tr.span("recover.golden_capture", |_| GoldenRun::capture(&program, instrs * 10));
        assert!(golden.halted, "the golden run covers the whole program");
        EarlySession {
            program,
            cfg,
            plans,
            golden,
            recover: RecoverConfig::default(),
            instrs,
            detected: 0,
        }
    }
}

impl Session for EarlySession {
    fn pass_len(&self) -> u64 {
        u64::from(self.cfg.faults)
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Op {
        let n = (i % self.pass_len()) as u32;
        let mut ok = true;
        let mut words = vec![u64::from(n)];
        for plan in &self.plans {
            let model = &plan.models()[n as usize];
            let shard = tr.span("faults.run_range", |_| {
                plan.run_range(&self.program, &self.cfg, n, n + 1, &|| false)
            });
            let decoded = shard.report.counter("pipeline", "decoded").unwrap_or(0);
            let Some(record) = shard.records.first() else {
                return Op { ok: false, words: vec![u64::MAX] };
            };
            ok &= shard.records.len() == 1 && decoded > model.first_strike();
            let mut actual = u64::MAX;
            if model.active_recovery_sound() {
                let run = tr.span("recover.run_recovery", |_| {
                    run_recovery(&self.program, model, &self.golden, &self.recover)
                });
                ok &= sound_violation(record.outcome, &run).is_none();
                actual = actual_index(run.actual);
            }
            if i < self.pass_len() && record.outcome.itr_detected() {
                self.detected += 1;
            }
            let cycles = shard.report.counter("pipeline", "cycles").unwrap_or(0);
            words.extend([outcome_index(record.outcome), cycles, actual]);
        }
        Op { ok, words }
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        let faults = self.pass_len() * self.plans.len() as u64;
        vec![("itr_detected_frac", self.detected as f64 / faults as f64)]
    }

    fn probe_inputs(&self) -> ProbeInputs {
        ProbeInputs {
            mimics: vec!["gzip"],
            mimic_instrs: self.instrs,
            mimic_seed: MIMIC_SEED,
            budget: self.instrs * 2,
            programs: vec![self.program.clone()],
            targets: vec![FaultTarget::mimic(
                &self.program,
                CampaignConfig { faults: crate::probe::FAULTS_PER_TARGET, ..self.cfg.clone() },
                self.instrs,
            )],
        }
    }
}

// --------------------------------------------------------------- fuzz

/// Campaigns per pass of the `fuzz` workload, and iterations per campaign.
const FUZZ_CAMPAIGNS: u64 = 6;
const FUZZ_ITERS: u64 = 400;

/// `fuzz`: fuzzing campaigns of the default configuration at fuzzer seeds
/// 1 to [`FUZZ_CAMPAIGNS`], one after another in an order the run seed
/// draws. One operation is one `Fuzzer::step`; seeding a campaign's fresh
/// fuzzer happens between operations. Cases are short and each is executed
/// many times by the oracles, so per-case fixed costs dominate.
///
/// The campaigns are fixed because a campaign's cost depends on its
/// trajectory: a 400-iteration campaign's time varies by a quarter from
/// fuzzer seed to fuzzer seed, and runs whose campaigns followed the run
/// seed spread by a quarter in throughput, wider than any usable bound.
struct FuzzSession {
    fuzzer: Fuzzer,
    /// The pass's campaigns, as fuzzer seeds, in run order.
    order: Vec<u64>,
    scale: Scale,
    findings: usize,
    features: u64,
    crashes: u64,
}

/// A seeded fuzzer of the default configuration at fuzzer seed `seed`.
fn fuzz_campaign(seed: u64, scale: Scale, tr: &mut Tracer) -> Fuzzer {
    let cfg = match scale {
        Scale::Full => FuzzConfig { seed, ..FuzzConfig::default() },
        Scale::Tiny => FuzzConfig::quick(seed, 0),
    };
    let mut fuzzer = Fuzzer::new(cfg);
    tr.span("fuzz.seed", |_| fuzzer.seed(&|| false));
    fuzzer
}

impl FuzzSession {
    fn new(seed: u64, scale: Scale, tr: &mut Tracer) -> FuzzSession {
        let mut order: Vec<u64> = (1..=scale.pick(FUZZ_CAMPAIGNS, 2)).collect();
        let mut rng = SplitMix64::new(derive(seed, 0xF022));
        for k in (1..order.len()).rev() {
            order.swap(k, rng.gen_range(0..=k));
        }
        let fuzzer = fuzz_campaign(order[0], scale, tr);
        FuzzSession { fuzzer, order, scale, findings: 0, features: 0, crashes: 0 }
    }

    fn iters(&self) -> u64 {
        self.scale.pick(FUZZ_ITERS, 4)
    }
}

impl Session for FuzzSession {
    fn pass_len(&self) -> u64 {
        self.order.len() as u64 * self.iters()
    }

    fn prepare(&mut self, i: u64, tr: &mut Tracer) {
        if i > 0 && i.is_multiple_of(self.iters()) {
            let k = (i % self.pass_len()) / self.iters();
            self.fuzzer = fuzz_campaign(self.order[k as usize], self.scale, tr);
            self.findings = 0;
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> Op {
        // A step whose fault-model oracle crashes the simulator is a crash
        // finding; like every result it must recur in each repetition.
        let crashed = tr.span("fuzz.step", |_| survive(|| self.fuzzer.step())).is_none();
        if crashed && i < self.pass_len() {
            self.crashes += 1;
        }
        // A finding is the fuzzer's correct output when it reproduces: the
        // recorded case, replayed through the oracles, fires again.
        let new = &self.fuzzer.findings()[self.findings..];
        let ok = new.iter().all(|f| f.reproduces().is_some());
        self.findings += new.len();
        let coverage = self.fuzzer.coverage() as u64;
        if i < self.pass_len() && (i + 1).is_multiple_of(self.iters()) {
            self.features += coverage;
        }
        let corpus = self.fuzzer.corpus();
        let words = vec![
            u64::from(crashed),
            self.fuzzer.execs(),
            coverage,
            corpus.len() as u64,
            corpus.digest(),
        ];
        Op { ok, words }
    }

    fn exact(&self) -> Vec<(&'static str, f64)> {
        vec![("fuzz_features", self.features as f64), ("fuzz_crashes", self.crashes as f64)]
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let cfg = self.fuzzer.config();
        let entries = self.fuzzer.corpus().entries();
        let take = crate::probe::PROGRAMS_FROM_CORPUS.min(entries.len());
        let programs: Vec<Program> =
            (0..take).map(|k| entries[k * entries.len() / take].case.program()).collect();
        let oracle = &cfg.oracle;
        let targets = programs
            .iter()
            .filter_map(|p| FaultTarget::case(p, oracle, derive(cfg.seed, 0xCA5E)))
            .take(crate::probe::CASE_TARGETS)
            .collect();
        ProbeInputs {
            mimics: profiles::all().into_iter().map(|p| p.name).collect(),
            mimic_instrs: cfg.mimic_seed_instrs,
            mimic_seed: cfg.seed,
            budget: oracle.max_instrs,
            programs,
            targets,
        }
    }

    fn fuzzer(&self) -> Option<&Fuzzer> {
        Some(&self.fuzzer)
    }
}
