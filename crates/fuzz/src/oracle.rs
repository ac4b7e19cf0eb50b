//! The five differential oracles run on every fuzz input.
//!
//! 1. **Commit-stream equivalence** — the functional reference and the
//!    cycle-level pipeline (plain and ITR-protected) must commit the
//!    same architectural stream. Divergences are rendered through
//!    [`crate::diag::first_divergence`].
//! 2. **Signature determinism** — within one trace-length configuration,
//!    every dynamic trace starting at a given PC has statically
//!    determined content, so its `(signature, len)` must be identical
//!    across occurrences and across runs; across configurations, equal
//!    start and equal length imply equal signature.
//! 3. **Fault consistency** — injecting a decode-signal fault through
//!    `itr-faults` and classifying it in passive mode must agree with
//!    architectural ground truth: a mask verdict cannot coexist with an
//!    observed SDC or deadlock.
//! 4. **Static subset** — every dynamically formed trace must belong to
//!    the static trace universe `itr-analyze` enumerates, with a
//!    matching signature and length. A violation means either the
//!    static enumerator or the decode-time trace formation is wrong.
//! 5. **Recovery ground truth** — the passive classification's
//!    active-mode prediction versus what the `itr-recover` engine
//!    actually did: the sound invariant subset
//!    ([`itr_recover::sound_violation`]) must hold for every injected
//!    transient fault. Instead of *predicting* recovery from passive
//!    bits, the engine runs active mode, rolls back and re-executes, so
//!    predicted-vs-actual is checkable without heuristics. It is the
//!    one active-mode run of a fault.
//!
//! Alongside verdicts the oracles emit the coverage features the engine
//! feeds its novelty map.
//!
//! Every oracle reads one recorded golden [`Execution`] of the case. The
//! one independent functional re-execution is the second pass of the
//! signature-determinism check, because run-to-run determinism is what
//! that oracle tests.

use crate::case::FuzzCase;
use crate::coverage;
use crate::diag;
use itr_core::{ItrConfig, ItrMode, TraceBuilder, TraceRecord};
use itr_faults::{classify, clean_signatures, observe_fault, FaultModel, ModelKind, Outcome};
use itr_isa::{Program, SignalFlags};
use itr_recover::{run_recovery, sound_violation, GoldenRun, RecoverConfig};
use itr_sim::{
    CommitRecord, DecodeFault, Execution, FuncSim, Pipeline, PipelineConfig, RunExit, StopReason,
};
use itr_stats::SplitMix64;
use std::collections::{BTreeMap, HashMap};

/// Trace-length configurations the signature and static-subset oracles
/// check.
const TRACE_LENS: [u32; 3] = [4, 8, 16];

/// Budgets and knobs of one oracle evaluation.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Committed-instruction budget of the golden reference run.
    pub max_instrs: u64,
    /// Faults injected per fault-consistency evaluation.
    pub fault_count: u32,
    /// Observation window of each injected fault, in cycles.
    pub window_cycles: u64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig { max_instrs: 1500, fault_count: 2, window_cycles: 4000 }
    }
}

impl OracleConfig {
    /// Cycle budget of the pipeline runs: generous CPI headroom over the
    /// instruction budget plus slack for the 10k-cycle deadlock
    /// watchdog, so only wedged or non-terminating programs hit the
    /// limit (and those fall back to prefix comparison, not a finding).
    pub fn max_cycles(&self) -> u64 {
        self.max_instrs * 12 + 12_000
    }
}

/// Which oracle flagged a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// FuncSim-vs-pipeline commit-stream divergence.
    CommitEquivalence,
    /// Trace signatures not a function of (start PC, length).
    SignatureDeterminism,
    /// Fault classifier verdict contradicts architectural ground truth.
    FaultConsistency,
    /// A dynamic trace is not a member of the static trace universe.
    StaticSubset,
    /// The recovery engine's actual outcome violates a sound invariant
    /// of the passive classification's active-mode prediction.
    RecoveryGroundTruth,
}

impl OracleKind {
    /// Stable label used in persisted regression cases.
    pub fn label(self) -> &'static str {
        match self {
            OracleKind::CommitEquivalence => "commit_equivalence",
            OracleKind::SignatureDeterminism => "signature_determinism",
            OracleKind::FaultConsistency => "fault_consistency",
            OracleKind::StaticSubset => "static_subset",
            OracleKind::RecoveryGroundTruth => "recovery_ground_truth",
        }
    }

    /// Inverse of [`OracleKind::label`].
    pub fn from_label(s: &str) -> Option<OracleKind> {
        match s {
            "commit_equivalence" => Some(OracleKind::CommitEquivalence),
            "signature_determinism" => Some(OracleKind::SignatureDeterminism),
            "fault_consistency" => Some(OracleKind::FaultConsistency),
            "static_subset" => Some(OracleKind::StaticSubset),
            "recovery_ground_truth" => Some(OracleKind::RecoveryGroundTruth),
            _ => None,
        }
    }
}

/// One oracle violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The oracle that fired.
    pub kind: OracleKind,
    /// Human-readable account of the violation.
    pub detail: String,
    /// The injected fault, for fault-consistency findings.
    pub fault: Option<DecodeFault>,
}

/// Everything one evaluation produced: verdicts plus coverage features.
#[derive(Debug, Clone, Default)]
pub struct Evaluation {
    /// Oracle violations (empty = the case passed).
    pub findings: Vec<Finding>,
    /// Coverage features for the novelty map.
    pub features: Vec<u32>,
    /// Instructions the golden reference committed.
    pub golden_len: usize,
    /// Observed control-flow edges `(branch_pc, destination_pc)` — one
    /// entry per executed trace-ending instruction outcome, sorted and
    /// deduplicated. This is the compact export the gap engine
    /// (`itr_analyze::gap`) diffs against the static CFG, so gap
    /// analysis never re-derives edges from replays.
    pub edges: Vec<(u64, u64)>,
}

/// Derives the golden run's control-flow coverage features and its
/// observed CFG edge set from the recording.
fn golden_features(exec: &Execution, out: &mut Evaluation) {
    let mut prev_op: Option<u8> = None;
    for (record, signals) in exec.records.iter().zip(&exec.signals) {
        let op = signals.opcode;
        if let Some(p) = prev_op {
            out.features.push(coverage::pair_feature(p, op));
        }
        if signals.flags.contains(SignalFlags::IS_BRANCH) {
            let taken = record.next_pc != record.pc + 4;
            out.features.push(coverage::branch_feature(op, taken));
            out.edges.push((record.pc, record.next_pc));
        }
        prev_op = Some(op);
    }
    out.features.push(coverage::stop_feature(exec.stop));
    out.edges.sort_unstable();
    out.edges.dedup();
}

/// Collects a pipeline run's commit stream, capped a little past the
/// golden length so runaway runs cannot flood memory. The finished
/// pipeline is returned for its ITR events and statistics.
fn pipeline_run(
    program: &Program,
    pipe_cfg: PipelineConfig,
    max_cycles: u64,
    cap: usize,
) -> (Vec<CommitRecord>, RunExit, Pipeline) {
    let mut pipe = Pipeline::new(program, pipe_cfg);
    let mut records = Vec::with_capacity(cap.min(4096));
    let exit = pipe.run_with(max_cycles, |r| {
        records.push(*r);
        records.len() < cap
    });
    (records, exit, pipe)
}

/// True when `exit` is the pipeline analogue of `stop`, for complete
/// golden runs.
fn exits_match(stop: StopReason, exit: RunExit) -> bool {
    matches!(
        (stop, exit),
        (StopReason::Halted, RunExit::Halted) | (StopReason::Aborted(_), RunExit::Aborted(_))
    )
}

/// Oracle 1 against one pipeline configuration.
#[allow(clippy::too_many_arguments)]
fn check_equivalence(
    program: &Program,
    label: &str,
    pipe_cfg: PipelineConfig,
    golden: &[CommitRecord],
    stop: StopReason,
    cfg: &OracleConfig,
    out: &mut Evaluation,
) {
    let is_itr = pipe_cfg.itr.is_some();
    let cap = golden.len() + 8;
    let (records, exit, pipe) = pipeline_run(program, pipe_cfg, cfg.max_cycles(), cap);
    out.features.push(coverage::exit_feature(exit));
    if is_itr {
        let mut counts: BTreeMap<u32, (itr_core::ItrEvent, u64)> = BTreeMap::new();
        for (_, ev) in pipe.itr_events() {
            let k = coverage::event_feature(ev, 1);
            let e = counts.entry(k).or_insert((*ev, 0));
            e.1 += 1;
        }
        for (ev, n) in counts.values() {
            out.features.push(coverage::event_feature(ev, *n));
        }
        coverage::counter_features(&pipe.stats_report(), &mut out.features);
    }
    let complete = matches!(stop, StopReason::Halted | StopReason::Aborted(_));
    if matches!(stop, StopReason::DecodeError(_)) {
        return;
    }
    // A truncated golden run compared against a cycle- or caller-limited
    // pipeline run can only be prefix-checked; every *conclusive* pipeline
    // exit (halt, abort, deadlock, machine check) is fully comparable.
    let conclusive = matches!(
        exit,
        RunExit::Halted | RunExit::Aborted(_) | RunExit::Deadlock | RunExit::MachineCheck { .. }
    );
    if matches!(exit, RunExit::Deadlock | RunExit::MachineCheck { .. }) {
        out.findings.push(Finding {
            kind: OracleKind::CommitEquivalence,
            detail: format!(
                "{label}: fault-free pipeline exited with {exit:?} after {} commits",
                records.len()
            ),
            fault: None,
        });
        return;
    }
    let divergence = if complete || (conclusive && records.len() < golden.len()) {
        // Both runs ran to completion, or the pipeline concluded before
        // the truncated golden stream ran out — either way the streams
        // are comparable in full and any difference is a divergence.
        diag::first_divergence(program, golden, &records)
    } else {
        // The golden run was truncated at the instruction budget; the
        // pipeline (bounded by cycles and a slightly larger commit cap)
        // may legitimately conclude a few commits past it. Only the
        // common prefix is comparable.
        let n = golden.len().min(records.len());
        diag::first_divergence(program, &golden[..n], &records[..n])
    };
    if let Some(d) = divergence {
        out.findings.push(Finding {
            kind: OracleKind::CommitEquivalence,
            detail: format!("{label}: golden stop {stop:?}, pipeline exit {exit:?}\n{d}"),
            fault: None,
        });
    } else if complete && !exits_match(stop, exit) && conclusive {
        out.findings.push(Finding {
            kind: OracleKind::CommitEquivalence,
            detail: format!("{label}: streams match but exits differ: {stop:?} vs {exit:?}"),
            fault: None,
        });
    }
}

/// Start PC -> `(signature, dynamic trace length)` of a trace stream's
/// first instance of each start.
type SignatureMap = BTreeMap<u64, (u64, u32)>;

/// The traces of every [`TRACE_LENS`] configuration formed within
/// `budget` instructions, derived from the recording.
fn derived_traces(exec: &Execution, budget: u64) -> [(u32, Vec<TraceRecord>); 3] {
    TRACE_LENS.map(|max_len| (max_len, exec.traces(budget, max_len)))
}

/// The run-to-run half of oracle 2: one independent functional
/// re-execution of `budget` instructions, folding the traces of every
/// [`TRACE_LENS`] configuration side by side.
fn rerun_signature_maps(program: &Program, budget: u64) -> [SignatureMap; 3] {
    let mut sim = FuncSim::new(program);
    let mut builders = TRACE_LENS.map(TraceBuilder::new);
    let mut maps = TRACE_LENS.map(|_| SignatureMap::new());
    for _ in 0..budget {
        let Some(step) = sim.step() else { break };
        for (builder, map) in builders.iter_mut().zip(&mut maps) {
            if let Some(t) = builder.push(step.record.pc, &step.signals) {
                map.entry(t.start_pc).or_insert((t.signature, t.len));
            }
        }
    }
    maps
}

/// Oracle 2: signature determinism within and across trace-length
/// configurations. Within a run it reads the traces derived from the
/// recording; across runs it compares them against one independent
/// re-execution.
fn check_signatures(
    program: &Program,
    derived: &[(u32, Vec<TraceRecord>); 3],
    budget: u64,
    out: &mut Evaluation,
) {
    // (trace_len_config, start_pc) -> (signature, dynamic trace length)
    let mut by_config: BTreeMap<u32, SignatureMap> = BTreeMap::new();
    let mut rerun: Option<[SignatureMap; 3]> = None;
    for (i, &(max_len, ref traces)) in derived.iter().enumerate() {
        let map = by_config.entry(max_len).or_default();
        for t in traces {
            out.features.push(coverage::trace_len_feature(t.len));
            match map.get(&t.start_pc) {
                None => {
                    map.insert(t.start_pc, (t.signature, t.len));
                }
                Some(&(sig, len)) if sig != t.signature || len != t.len => {
                    out.findings.push(Finding {
                        kind: OracleKind::SignatureDeterminism,
                        detail: format!(
                            "trace_len={max_len}: start_pc {:#010x} produced \
                             (sig {sig:#018x}, len {len}) then (sig {:#018x}, len {})",
                            t.start_pc, t.signature, t.len
                        ),
                        fault: None,
                    });
                    return;
                }
                Some(_) => {}
            }
        }
        // Re-run the identical stream: fold must be a pure function of
        // the trace content.
        let second = &rerun.get_or_insert_with(|| rerun_signature_maps(program, budget))[i];
        if second != map {
            out.findings.push(Finding {
                kind: OracleKind::SignatureDeterminism,
                detail: format!("trace_len={max_len}: signature map differs between two runs"),
                fault: None,
            });
            return;
        }
    }
    // Across configurations, equal (start_pc, len) must mean equal
    // signature — the fold sees the same instructions.
    let mut canonical: HashMap<(u64, u32), (u64, u32)> = HashMap::new();
    for (max_len, map) in &by_config {
        for (&start_pc, &(sig, len)) in map {
            match canonical.get(&(start_pc, len)) {
                None => {
                    canonical.insert((start_pc, len), (sig, *max_len));
                }
                Some(&(other_sig, other_cfg)) if other_sig != sig => {
                    out.findings.push(Finding {
                        kind: OracleKind::SignatureDeterminism,
                        detail: format!(
                            "start_pc {start_pc:#010x} len {len}: sig {other_sig:#018x} under \
                             trace_len={other_cfg} but {sig:#018x} under trace_len={max_len}"
                        ),
                        fault: None,
                    });
                    return;
                }
                Some(_) => {}
            }
        }
    }
}

/// Oracle 4: every dynamic trace must be a member of the static trace
/// universe, with matching signature and length, for every trace-length
/// configuration.
///
/// The two tolerated escape classes mirror `itr-analyze`'s
/// cross-validation semantics: starts outside the bounded analysis
/// region (runaway control flow deep into nop-space) and closure misses
/// in programs with register-indirect jumps (mutation can synthesize
/// `jr`/`jalr` with arbitrary register targets the conservative target
/// set cannot predict). Content mismatches are never excused — the
/// fuzz generator pins stores away from the text region, so the static
/// image is exactly what fetch sees.
fn check_static_subset(
    program: &Program,
    derived: &[(u32, Vec<TraceRecord>); 3],
    out: &mut Evaluation,
) {
    let image = itr_analyze::ProgramImage::new(program);
    for (max_len, dynamic) in derived {
        let universe =
            itr_analyze::enumerate(&image, *max_len, &itr_analyze::EnumOptions::default());
        let cv = itr_analyze::cross_validate(&image, &universe, dynamic);
        if let Some(v) = cv.violations.first() {
            out.findings.push(Finding {
                kind: OracleKind::StaticSubset,
                detail: format!(
                    "trace_len={max_len}: dynamic trace start {:#010x} (sig {:#018x}, len {}) \
                     vs static {} — {:?} check failed ({} static traces, {} region escapes, \
                     {} indirect escapes)",
                    v.dynamic.start_pc,
                    v.dynamic.signature,
                    v.dynamic.len,
                    v.static_record.map_or("<incomplete walk>".to_string(), |s| format!(
                        "(sig {:#018x}, len {})",
                        s.signature, s.len
                    )),
                    v.kind,
                    universe.traces.len(),
                    cv.region_escapes,
                    cv.indirect_escapes,
                ),
                fault: None,
            });
            return;
        }
    }
}

/// Checks one fault (an SEU or any extended model) against the
/// consistency oracle, returning the classified outcome and a finding
/// when the verdict contradicts the architectural ground truth.
///
/// One sound check: a mask-claiming verdict (`*Mask`) must not coexist
/// with an observed SDC or deadlock — the classifier derives the verdict
/// from exactly these observation bits, so a contradiction means the
/// taxonomy itself is broken, however many times the fault struck.
///
/// What the verdict predicts about active mode is oracle 5's to check,
/// on the recovery engine's run of the same fault
/// ([`itr_recover::sound_violation`]): an [`Outcome::ItrSdcR`] verdict
/// must finish clean (INV2). The remaining detected outcomes have no
/// sound active-mode prediction. `ItrMask` cannot see which side of the
/// mismatch was faulty: a masked fault whose faulty instance *recorded*
/// the signature machine-checks in active mode (a spurious DUE inherent
/// to the scheme, not a bug). `ItrSdcD`'s machine-check prediction can
/// be rescued by an eviction between the retry flush and the refetch
/// (miss → clean re-record → clean finish). `ItrWdogR` inherits both
/// ambiguities.
fn check_one_fault(
    program: &Program,
    golden: &[CommitRecord],
    clean_sigs: &HashMap<u64, u64>,
    model: &FaultModel,
    cfg: &OracleConfig,
) -> (Outcome, Option<Finding>) {
    let passive = ItrConfig { mode: ItrMode::Passive, ..ItrConfig::paper_default() };
    let (obs, _report) = observe_fault(program, model, golden, passive, cfg.window_cycles);
    let outcome = classify(&obs, clean_sigs);
    let claims_mask =
        matches!(outcome, Outcome::ItrMask | Outcome::MayItrMask | Outcome::UndetMask);
    if claims_mask && (obs.sdc || obs.deadlock) {
        let (sdc, deadlock) = (obs.sdc, obs.deadlock);
        let subject = match model {
            FaultModel::Seu(fault) => format!("fault {fault:?}"),
            model => format!("model {model:?}"),
        };
        let detail = format!(
            "{subject}: classified {outcome:?} but observation shows sdc={sdc} deadlock={deadlock}"
        );
        let finding =
            Finding { kind: OracleKind::FaultConsistency, detail, fault: replayable(model) };
        return (outcome, Some(finding));
    }
    (outcome, None)
}

/// The fault a finding carries for regression replay: the
/// persisted-regression replay path covers single SEUs only, so a
/// model's finding carries `None` and quotes the model in its detail.
fn replayable(model: &FaultModel) -> Option<DecodeFault> {
    match *model {
        FaultModel::Seu(fault) => Some(fault),
        _ => None,
    }
}

/// Oracles 3 and 5 on one fault: the passive verdict's consistency,
/// then — for a model with [`FaultModel::active_recovery_sound`] — the
/// checkpoint/rollback engine's *actual* outcome versus the sound
/// invariant subset of the verdict's active-mode prediction
/// ([`itr_recover::sound_violation`]). `salt` offsets the outcome
/// feature, so sampled models light features apart from plain SEUs.
///
/// Soundness preconditions (transient model, complete golden run, no
/// context switches) are the callers' responsibility: both only run on
/// halting cases.
fn check_fault(
    program: &Program,
    grun: &GoldenRun,
    clean_sigs: &HashMap<u64, u64>,
    model: &FaultModel,
    salt: u32,
    cfg: &OracleConfig,
    out: &mut Evaluation,
) {
    let (outcome, finding) = check_one_fault(program, &grun.records, clean_sigs, model, cfg);
    out.features.push(coverage::outcome_feature(outcome).wrapping_add(salt));
    out.findings.extend(finding);
    if !model.active_recovery_sound() {
        return;
    }
    let rcfg = RecoverConfig {
        checkpoint_min_gap: 0,
        max_cycles: cfg.max_cycles(),
        ..RecoverConfig::default()
    };
    let run = run_recovery(program, model, grun, &rcfg);
    out.features.push(coverage::recovery_feature(run.actual));
    if let Some(v) = sound_violation(outcome, &run) {
        out.findings.push(Finding {
            kind: OracleKind::RecoveryGroundTruth,
            detail: format!("model {model:?}: {v}"),
            fault: replayable(model),
        });
    }
}

/// Oracles 3 and 5: classifier verdicts versus architectural ground
/// truth, for `cfg.fault_count` randomly placed decode faults plus one
/// sampled extended fault model per evaluation (the kind rotates with
/// the RNG, so a long campaign exercises all seven). Each transient
/// fault additionally takes the full trip through the recovery engine.
fn check_faults(
    program: &Program,
    exec: Execution,
    cfg: &OracleConfig,
    rng: &mut SplitMix64,
    out: &mut Evaluation,
) {
    let clean_sigs = clean_signatures(&exec);
    let grun = GoldenRun::from(exec);
    let len = grun.records.len() as u64;
    for _ in 0..cfg.fault_count {
        let fault = DecodeFault { nth_decode: rng.gen_range(2..len), bit: rng.gen_range(0u32..64) };
        check_fault(program, &grun, &clean_sigs, &FaultModel::Seu(fault), 0, cfg, out);
    }
    let kind = ModelKind::ALL[rng.gen_range(0..ModelKind::ALL.len())];
    let model = FaultModel::sample(kind, rng, 2, len);
    check_fault(program, &grun, &clean_sigs, &model, kind as u32 + 1, cfg, out);
}

/// Oracles 3 and 5 on exactly one SEU of `case`: its passive check and
/// its one recovery run, recorded once. `None` when the fault-free
/// program does not halt within budget: a complete golden stream is the
/// architectural ground truth (commits past its end count as SDC) and
/// its trace stream enumerates every clean-path signature, so outside
/// that regime a verdict is unsound — which also keeps the shrinker from
/// minimizing a finding out of it.
fn evaluate_fault(case: &FuzzCase, fault: DecodeFault, cfg: &OracleConfig) -> Option<Evaluation> {
    let program = case.program();
    let exec = Execution::record(&program, cfg.max_instrs);
    if exec.stop != StopReason::Halted || exec.records.len() < 3 {
        return None;
    }
    let clean_sigs = clean_signatures(&exec);
    let grun = GoldenRun::from(exec);
    let mut out = Evaluation::default();
    check_fault(&program, &grun, &clean_sigs, &FaultModel::Seu(fault), 0, cfg, &mut out);
    Some(out)
}

/// Replays one persisted finding of oracle `kind` on `case` under `cfg`
/// — the path of regression replay and of the shrinker. Returns the
/// finding when it still reproduces, `None` once fixed.
///
/// A finding of either fault oracle that carries its SEU replays that
/// one fault: its passive check and its one recovery run, on a fresh
/// recording of the case. Every other finding replays through
/// [`evaluate`] without the fault oracles, so a fault-model finding
/// (`fault: None`, the model quoted only in its detail) never
/// reproduces: model findings are not replayable.
pub fn replay(
    case: &FuzzCase,
    kind: OracleKind,
    fault: Option<DecodeFault>,
    cfg: &OracleConfig,
) -> Option<Finding> {
    let findings = match replayed_fault(kind, fault) {
        Some(fault) => evaluate_fault(case, fault, cfg)?.findings,
        // Fault placement is irrelevant here; the RNG only drives the
        // fault oracles, which are disabled for this replay.
        None => evaluate(case, cfg, false, &mut SplitMix64::new(0)).findings,
    };
    findings.into_iter().find(|f| f.kind == kind)
}

/// The SEU a finding of oracle `kind` carrying `fault` replays on its
/// own: that of a fault-consistency or recovery-ground-truth finding.
fn replayed_fault(kind: OracleKind, fault: Option<DecodeFault>) -> Option<DecodeFault> {
    let fault_oracle =
        matches!(kind, OracleKind::FaultConsistency | OracleKind::RecoveryGroundTruth);
    fault.filter(|_| fault_oracle)
}

/// Evaluates one case against the oracles.
///
/// `with_faults` gates the (expensive) fault-consistency oracle; the
/// engine schedules it on a deterministic cadence. `rng` drives fault
/// placement only, so oracle verdicts for a fixed case and fixed RNG
/// state are deterministic.
pub fn evaluate(
    case: &FuzzCase,
    cfg: &OracleConfig,
    with_faults: bool,
    rng: &mut SplitMix64,
) -> Evaluation {
    let program = case.program();
    let exec = Execution::record(&program, cfg.max_instrs);
    let mut out = Evaluation { golden_len: exec.records.len(), ..Evaluation::default() };
    golden_features(&exec, &mut out);
    let (golden, stop) = (exec.records.as_slice(), exec.stop);
    check_equivalence(&program, "plain", PipelineConfig::default(), golden, stop, cfg, &mut out);
    check_equivalence(&program, "itr", PipelineConfig::with_itr(), golden, stop, cfg, &mut out);
    // Oracles 2 and 4 read the traces of the first 1200 instructions.
    let budget = cfg.max_instrs.min(1200);
    let derived = derived_traces(&exec, budget);
    check_signatures(&program, &derived, budget, &mut out);
    check_static_subset(&program, &derived, &mut out);
    if with_faults && stop == StopReason::Halted && golden.len() >= 20 {
        check_faults(&program, exec, cfg, rng, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn eval_seed(seed: u64, with_faults: bool) -> Evaluation {
        let case = gen::generate(&mut SplitMix64::new(seed), 48);
        let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
        evaluate(&case, &OracleConfig::default(), with_faults, &mut rng)
    }

    #[test]
    fn generated_cases_pass_all_oracles() {
        for seed in 0..6u64 {
            let e = eval_seed(seed, seed % 2 == 0);
            assert!(
                e.findings.is_empty(),
                "seed {seed} produced findings: {:?}",
                e.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
            );
            assert!(!e.features.is_empty());
            assert!(e.golden_len > 0);
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let a = eval_seed(3, true);
        let b = eval_seed(3, true);
        assert_eq!(a.features, b.features);
        assert_eq!(a.golden_len, b.golden_len);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn a_halt_just_past_the_instruction_budget_is_not_a_divergence() {
        // The golden run truncates at `max_instrs`; the pipeline, bounded
        // by cycles and a slightly larger commit cap, legitimately
        // commits the halt sitting one instruction past the budget. Only
        // the common prefix is comparable — this must not be a finding.
        let n = 40usize;
        let body: String = (0..n).map(|i| format!("    addi r8, r8, {}\n", i % 7)).collect();
        let src = format!(".text\nmain:\n{body}    halt\n");
        let program = itr_isa::asm::assemble(&src).expect("assembles");
        let case = FuzzCase::from_program(&program).expect("converts");
        let cfg = OracleConfig { max_instrs: n as u64, ..OracleConfig::default() };
        let mut rng = SplitMix64::new(0);
        let e = evaluate(&case, &cfg, false, &mut rng);
        assert_eq!(e.golden_len as u64, cfg.max_instrs, "golden truncated at the budget");
        assert!(
            e.findings.is_empty(),
            "budget-boundary halt flagged: {:?}",
            e.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_divergent_stream_is_reported_with_diagnostics() {
        // Simulate a pipeline bug by comparing golden against a tampered
        // copy through the same diagnostic path the oracle uses.
        let case = gen::generate(&mut SplitMix64::new(7), 32);
        let program = case.program();
        let mut sim = FuncSim::new(&program);
        let (golden, _) = sim.run_collect(2000);
        let mut actual = golden.clone();
        if let Some((_, v)) = &mut actual[golden.len() / 2].dst {
            *v ^= 1;
        } else {
            actual.truncate(golden.len() / 2);
        }
        let d = diag::first_divergence(&program, &golden, &actual).expect("tampered");
        assert!(d.to_string().contains("first divergent commit"));
    }

    #[test]
    fn every_fault_model_kind_is_oracle_sound() {
        // Each extended model kind, sampled over a halting generated
        // program, must classify without contradicting the architectural
        // observation — the consistency oracle — and, where the model is
        // transient, hold the recovery engine's sound invariants.
        let cfg = OracleConfig::default();
        let mut gen_rng = SplitMix64::new(11);
        let (program, exec) = loop {
            let program = gen::generate(&mut gen_rng, 48).program();
            let exec = Execution::record(&program, cfg.max_instrs);
            if exec.stop == StopReason::Halted && exec.records.len() >= 20 {
                break (program, exec);
            }
        };
        let clean_sigs = clean_signatures(&exec);
        let grun = GoldenRun::from(exec);
        let mut rng = SplitMix64::new(0xE21);
        for kind in ModelKind::ALL {
            for _ in 0..3 {
                let model = FaultModel::sample(kind, &mut rng, 2, grun.records.len() as u64);
                let mut out = Evaluation::default();
                check_fault(&program, &grun, &clean_sigs, &model, 0, &cfg, &mut out);
                let details: Vec<_> = out.findings.iter().map(|f| &f.detail).collect();
                assert!(details.is_empty(), "{}: {model:?}: {details:?}", kind.label());
            }
        }
    }

    #[test]
    fn seu_findings_of_both_fault_oracles_replay_through_the_recovery_run() {
        let fault = DecodeFault { nth_decode: 10, bit: 12 };
        for kind in [OracleKind::FaultConsistency, OracleKind::RecoveryGroundTruth] {
            assert_eq!(replayed_fault(kind, Some(fault)), Some(fault), "{}", kind.label());
            assert_eq!(replayed_fault(kind, None), None, "model findings are not replayable");
        }
        assert_eq!(replayed_fault(OracleKind::CommitEquivalence, Some(fault)), None);

        // The one-fault replay runs the passive check and the recovery
        // engine, exactly as `check_faults` does for that SEU.
        let cfg = OracleConfig::default();
        let mut gen_rng = SplitMix64::new(11);
        let case = loop {
            let case = gen::generate(&mut gen_rng, 48);
            let exec = Execution::record(&case.program(), cfg.max_instrs);
            if exec.stop == StopReason::Halted && exec.records.len() >= 20 {
                break case;
            }
        };
        let eval = evaluate_fault(&case, fault, &cfg).expect("the case halts");
        let recovery = itr_recover::ActualOutcome::ALL.map(coverage::recovery_feature);
        assert_eq!(eval.features.len(), 2, "one outcome and one recovery feature");
        assert!(recovery.contains(&eval.features[1]), "{:?}", eval.features);
        assert!(replay(&case, OracleKind::RecoveryGroundTruth, Some(fault), &cfg).is_none());
    }

    #[test]
    fn model_checks_are_deterministic() {
        let a = eval_seed(4, true);
        let b = eval_seed(4, true);
        assert_eq!(a.features, b.features);
        assert_eq!(a.findings.len(), b.findings.len());
    }

    #[test]
    fn oracle_kind_labels_round_trip() {
        for k in [
            OracleKind::CommitEquivalence,
            OracleKind::SignatureDeterminism,
            OracleKind::FaultConsistency,
            OracleKind::StaticSubset,
            OracleKind::RecoveryGroundTruth,
        ] {
            assert_eq!(OracleKind::from_label(k.label()), Some(k));
        }
        assert_eq!(OracleKind::from_label("nope"), None);
    }
}
