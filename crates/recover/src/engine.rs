//! The recovery engine: run a fault under full active-mode ITR, and when
//! detection fires after the faulty instance committed, roll back to the
//! last §2.3 checkpoint and re-execute — classifying the *actual*
//! outcome against the fault-free architectural golden run.
//!
//! ## Rollback protocol
//!
//! 1. The active pipeline runs with the [`itr_core::CoarseCheckpointer`]
//!    enabled; it keeps the last checkpoint it took as a
//!    [`CheckpointRecord`] (commit count + escaped-output length).
//! 2. On a machine check (or a watchdog deadlock), the engine picks
//!    that checkpoint. When the faulty run's commits up to it
//!    equal the golden run's (the [`itr_faults::Lockstep`] the run is
//!    driven by records its first divergence), it reconstructs the
//!    checkpoint's architectural snapshot by replaying that golden
//!    prefix ([`itr_sim::snapshot_at`]) and resumes a functional
//!    execution from it.
//! 3. The resumed run must reproduce the golden commit stream from the
//!    checkpoint onward, and the combined output (escaped prefix +
//!    re-executed suffix) must equal the golden output. Output that
//!    escaped *past* the checkpoint is re-emitted by the re-execution —
//!    recovery succeeded but is externally visible
//!    ([`ActualOutcome::RecoveredOutputLoss`]).
//!
//! ## Why checkpoints (mostly) predate the corruption
//!
//! A faulty *recorded* line sits unreferenced in the ITR cache from its
//! recording commit until the access that detects it, and
//! [`itr_core::CoarseCheckpointer::observe`] refuses to fire while any
//! unreferenced line is resident. Under the paper's *strict* condition
//! no checkpoint can therefore be taken between a faulty recording
//! commit and its machine check, so the rollback target predates the
//! corruption and re-execution is sound. But strict is also unavailable
//! in practice: any run-once trace (every program has a prologue) stays
//! unreferenced forever and blocks all checkpoints for the rest of the
//! run — measured zero opportunities on every workload in the suite.
//! The engine therefore defaults to *bounded wait*
//! ([`RecoverConfig::checkpoint_line_age`]): a line unreferenced for a
//! full age window stops blocking. A hot faulty line is still probed
//! (detected) long before it ages out, so the predate-the-corruption
//! property holds in the common case — and when it does not (the faulty
//! line itself ages out before a checkpoint and is only detected later),
//! the rollback target is corrupt and the engine reports the truth as
//! [`ActualOutcome::RollbackSdc`], measured — never silently. The
//! eviction path (the faulty line displaced unreferenced) likewise
//! surfaces as [`ActualOutcome::FinishedSdc`] or a measured
//! [`ActualOutcome::RollbackSdc`]. [`sound_violation`]'s INV1 is
//! conditioned on a golden-equal prefix, so it stays sound under both
//! policies.
//!
//! [`CheckpointRecord`]: itr_sim::CheckpointRecord

use crate::outcome::ActualOutcome;
use itr_core::{ItrConfig, ItrMode};
use itr_faults::{Fault, FaultModel, Lockstep, Outcome};
use itr_isa::Program;
use itr_sim::{
    snapshot_at, CommitRecord, Execution, FuncSim, Injection, Pipeline, PipelineConfig, RunExit,
    StopReason,
};

/// Commits a faulty run may make beyond the golden length before the
/// engine declares divergence and stops it.
const RECORD_SLACK: usize = 64;

/// Default bounded-wait age window, in ITR cache events (probes +
/// inserts). Hot-loop lines are re-referenced within one or two loop
/// iterations, so a line still unreferenced after this many trace
/// events has left the working set — a run-once prologue or epilogue —
/// and stops blocking checkpoints. Small enough that tiny kernels
/// regain availability; large enough that a faulty recorded line is
/// almost always probed (detected) before it ages out.
pub const BOUNDED_WAIT_AGE: u64 = 32;

/// The fault-free architectural reference a recovery run is judged
/// against.
#[derive(Debug, Clone)]
pub struct GoldenRun {
    /// The complete committed stream.
    pub records: Vec<CommitRecord>,
    /// The complete program output.
    pub output: String,
    /// The golden run committed `trap HALT` within its budget. Recovery
    /// classification is only meaningful when this holds (a truncated
    /// reference cannot distinguish recovery from divergence).
    pub halted: bool,
}

impl GoldenRun {
    /// Captures the golden run of `program` within `max_instrs`.
    pub fn capture(program: &Program, max_instrs: u64) -> GoldenRun {
        GoldenRun::from(Execution::record(program, max_instrs))
    }
}

impl From<Execution> for GoldenRun {
    /// The recovery reference of a recorded execution; its decode
    /// signals are dropped.
    fn from(exec: Execution) -> GoldenRun {
        let mut records = exec.records;
        // A golden run outlives its recording; drop the growth slack.
        records.shrink_to_fit();
        GoldenRun { records, output: exec.output, halted: exec.stop == StopReason::Halted }
    }
}

/// Parameters of one recovery-engine run.
#[derive(Debug, Clone)]
pub struct RecoverConfig {
    /// ITR configuration; the mode is forced to [`ItrMode::Active`].
    pub itr: ItrConfig,
    /// §2.3 checkpoint spacing in committed instructions
    /// (0 = checkpoint at every opportunity).
    pub checkpoint_min_gap: u64,
    /// Bounded-wait age window in ITR cache events, or `None` for the
    /// paper's strict no-unchecked-lines condition. Strict has zero
    /// availability on any program with a run-once trace (every real
    /// workload), so the engine defaults to [`BOUNDED_WAIT_AGE`] and
    /// the sweep measures both policies.
    pub checkpoint_line_age: Option<u64>,
    /// Cycle budget for the faulty run (rollback re-execution is
    /// functional and budgeted separately by the golden length).
    pub max_cycles: u64,
}

impl Default for RecoverConfig {
    fn default() -> RecoverConfig {
        RecoverConfig {
            itr: ItrConfig::paper_default(),
            checkpoint_min_gap: 1_024,
            checkpoint_line_age: Some(BOUNDED_WAIT_AGE),
            max_cycles: 2_000_000,
        }
    }
}

/// Everything the engine learned from one faulty run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryRun {
    /// The ground-truth outcome.
    pub actual: ActualOutcome,
    /// Detection fired (machine check or watchdog deadlock).
    pub detected: bool,
    /// A rollback was attempted.
    pub rolled_back: bool,
    /// Commit count of the rollback target, when one existed.
    pub checkpoint_at: Option<u64>,
    /// Committed instructions discarded by the rollback.
    pub rollback_distance: u64,
    /// Checkpoints the run actually took.
    pub checkpoints_taken: u64,
    /// Checkpoint opportunities the run saw (no unchecked lines).
    pub opportunities: u64,
    /// Instructions the faulty run committed before its terminal state.
    pub committed: u64,
    /// Whether the rolled-back-to prefix matched the golden prefix
    /// (`None` when no rollback happened).
    pub prefix_clean: Option<bool>,
}

fn active_config(cfg: &RecoverConfig) -> PipelineConfig {
    PipelineConfig {
        itr: Some(ItrConfig { mode: ItrMode::Active, ..cfg.itr }),
        checkpoint_min_gap: cfg.checkpoint_min_gap,
        checkpoint_line_age: cfg.checkpoint_line_age,
        spc_check: true,
        ..PipelineConfig::default()
    }
}

/// Runs `model` under full active-mode recovery and classifies the true
/// outcome against `golden`.
pub fn run_recovery(
    program: &Program,
    model: &FaultModel,
    golden: &GoldenRun,
    cfg: &RecoverConfig,
) -> RecoveryRun {
    drive(program, model, golden, cfg, None)
}

/// [`run_recovery`] under `itr-env`-style context switching: every
/// `switch_cycles` cycles the ITR cache is invalidated wholesale (the
/// incoming context evicts everything), including between a retry flush
/// and its machine check — the hostile window where a rollback target
/// may cover state the ITR cache can no longer vouch for.
pub fn run_recovery_with_switches(
    program: &Program,
    model: &FaultModel,
    golden: &GoldenRun,
    cfg: &RecoverConfig,
    switch_cycles: u64,
) -> RecoveryRun {
    assert!(switch_cycles > 0, "a zero switch quantum never runs");
    drive(program, model, golden, cfg, Some(switch_cycles))
}

/// Runs the faulty pipeline in lockstep with the golden stream to its
/// terminal state — in `switch_cycles` quanta with the ITR cache
/// invalidated between them when given, else in one stretch — and
/// classifies the true outcome.
fn drive(
    program: &Program,
    model: &FaultModel,
    golden: &GoldenRun,
    cfg: &RecoverConfig,
    switch_cycles: Option<u64>,
) -> RecoveryRun {
    let mut pipe = Pipeline::new(program, active_config(cfg));
    let mut injection = Injection::default();
    model.inject_into(&mut injection);
    pipe.arm(injection);
    let mut faulty = Lockstep::new(pipe, &golden.records);
    let cap = golden.records.len() + RECORD_SLACK;
    let exit = loop {
        let cycle = faulty.pipeline().cycle();
        let budget = switch_cycles.map_or(cfg.max_cycles, |q| (cycle + q).min(cfg.max_cycles));
        let exit = faulty.run_until(budget, cap);
        if exit != RunExit::CycleLimit || faulty.pipeline().cycle() >= cfg.max_cycles {
            break exit;
        }
        if let Some(unit) = faulty.pipeline_mut().itr_mut() {
            unit.cache_mut().invalidate_all();
        }
    };
    let pipe = faulty.pipeline();
    let mut run = RecoveryRun {
        actual: ActualOutcome::Hung,
        detected: false,
        rolled_back: false,
        checkpoint_at: None,
        rollback_distance: 0,
        checkpoints_taken: pipe.checkpointer().checkpoints_taken(),
        opportunities: pipe.checkpointer().opportunities(),
        committed: faulty.commits() as u64,
        prefix_clean: None,
    };
    match exit {
        RunExit::Halted | RunExit::Aborted(_) | RunExit::Stopped => {
            // `Stopped` means the commit cap fired: the run already
            // committed more than the golden run plus slack, which the
            // length check below classifies as divergence.
            let clean = exit == RunExit::Halted
                && golden.halted
                && faulty.first_divergence().is_none()
                && faulty.commits() == golden.records.len()
                && pipe.output() == golden.output;
            run.actual =
                if clean { ActualOutcome::FinishedClean } else { ActualOutcome::FinishedSdc };
        }
        RunExit::CycleLimit => run.actual = ActualOutcome::Hung,
        RunExit::MachineCheck { .. } | RunExit::Deadlock => {
            run.detected = true;
            run.actual = rollback(program, golden, &faulty, &mut run);
        }
    }
    run
}

/// Rolls back to the pipeline's last checkpoint and re-executes, returning
/// the ground-truth outcome.
fn rollback(
    program: &Program,
    golden: &GoldenRun,
    faulty: &Lockstep<'_>,
    run: &mut RecoveryRun,
) -> ActualOutcome {
    let pipe = faulty.pipeline();
    let Some(ck) = pipe.last_checkpoint() else {
        return ActualOutcome::Fatal;
    };
    let at = ck.committed as usize;
    assert!(at <= faulty.commits(), "checkpoints only cover committed records");
    run.rolled_back = true;
    run.checkpoint_at = Some(ck.committed);
    run.rollback_distance = (faulty.commits() - at) as u64;
    let prefix_clean =
        at <= golden.records.len() && faulty.first_divergence().is_none_or(|d| d >= at);
    run.prefix_clean = Some(prefix_clean);
    if !prefix_clean {
        return ActualOutcome::RollbackSdc;
    }

    // Re-execute from the checkpoint — whose committed prefix is the
    // golden one — and demand the exact golden suffix.
    let snap = snapshot_at(program, &golden.records[..at]);
    let mut resumed = FuncSim::from_snapshot(program, &snap);
    let need = (golden.records.len() - at) as u64;
    let (suffix, stop) = resumed.run_collect(need + RECORD_SLACK as u64);
    let output_ok = pipe.output().get(..ck.output_len).and_then(|e| golden.output.strip_prefix(e))
        == Some(resumed.output());
    let recovered = suffix == golden.records[at..]
        && (stop == StopReason::Halted) == golden.halted
        && output_ok;
    if !recovered {
        // A clean-prefix rollback that fails to recover would falsify
        // determinism; INV1 in `sound_violation` flags it.
        return ActualOutcome::RollbackSdc;
    }
    if pipe.output().len() > ck.output_len {
        ActualOutcome::RecoveredOutputLoss
    } else {
        ActualOutcome::Recovered
    }
}

/// The sound predicted-vs-actual invariants the re-widened fuzz oracle
/// asserts (DESIGN.md §14). Returns a description of the violation, or
/// `None` when every invariant holds.
///
/// Soundness is gated on the caller's side: `passive` must come from a
/// classification whose golden stream covered the whole halting run, and
/// `INV2`/`INV-D` only hold for models with
/// [`FaultModel::active_recovery_sound`] (a re-striking fault can defeat
/// the retry, and a second logical fault can corrupt the prefix).
pub fn sound_violation(passive: Outcome, run: &RecoveryRun) -> Option<String> {
    // INV1 — a rollback to a prefix that matches the golden run MUST
    // recover: the resumed execution is deterministic from identical
    // architectural state. Holds for every model, re-striking or not
    // (the re-execution is functional and fault-free by construction).
    if run.rolled_back
        && run.prefix_clean == Some(true)
        && !matches!(run.actual, ActualOutcome::Recovered | ActualOutcome::RecoveredOutputLoss)
    {
        return Some(format!(
            "INV1: rollback to a golden-equal prefix at commit {:?} must recover, got {}",
            run.checkpoint_at, run.actual
        ));
    }
    // INV2 — passive ITR+SDC+R means the accessing instance was faulty
    // and still uncommitted: the active-mode retry refetches clean, so
    // the run finishes with the golden stream.
    if passive == Outcome::ItrSdcR && run.actual != ActualOutcome::FinishedClean {
        return Some(format!(
            "INV2: passive {} predicts a clean active finish, got {}",
            passive, run.actual
        ));
    }
    // INV-D — passive ITR+SDC+D means a faulty instance already
    // committed a corrupt record; active mode commits the same prefix,
    // so the active run can never finish clean.
    if passive == Outcome::ItrSdcD && run.actual == ActualOutcome::FinishedClean {
        return Some(format!(
            "INV-D: passive {} predicts detection or divergence, got a clean finish",
            passive
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{confirms, prediction};
    use itr_faults::{CampaignConfig, ModelKind, ModelPlan};
    use itr_isa::asm::assemble;
    use itr_sim::DecodeFault;
    use itr_stats::SplitMix64;
    use itr_workloads::kernels;

    fn golden_for(p: &Program) -> GoldenRun {
        let g = GoldenRun::capture(p, 400_000);
        assert!(g.halted, "test kernels halt");
        g
    }

    fn small_cfg() -> RecoverConfig {
        RecoverConfig { checkpoint_min_gap: 256, max_cycles: 4_000_000, ..RecoverConfig::default() }
    }

    #[test]
    fn fault_free_run_finishes_clean_and_takes_checkpoints() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let golden = golden_for(&p);
        // A never-striking fault: the run is architecturally fault-free.
        let model = FaultModel::Seu(DecodeFault { nth_decode: u64::MAX - 1, bit: 0 });
        let run = run_recovery(&p, &model, &golden, &small_cfg());
        assert_eq!(run.actual, ActualOutcome::FinishedClean);
        assert!(!run.detected);
        assert!(run.checkpoints_taken > 0, "a hot loop offers checkpoint opportunities");
        assert!(run.opportunities >= run.checkpoints_taken);
    }

    #[test]
    fn campaign_faults_classify_with_ground_truth_and_hold_the_invariants() {
        // CRC32 is the detection-rich kernel: record instances of its
        // table loop commit corrupt signatures that machine-check later.
        // (SUM_LOOP has so few distinct traces that sampled SEUs only
        // mask or retry clean — it never exercises rollback.)
        let p = assemble(kernels::CRC32.source).unwrap();
        let ccfg = CampaignConfig {
            faults: 120,
            window_cycles: 20_000,
            min_decode: 10,
            max_decode: 300,
            seed: 9,
            ..CampaignConfig::default()
        };
        let golden = golden_for(&p);
        let rcfg = small_cfg();
        let plan = ModelPlan::new(&p, ModelKind::Seu, &ccfg);
        let mut rollbacks = 0;
        for r in plan.run_range(&p, &ccfg, 0, ccfg.faults, &|| false).records {
            let run = run_recovery(&p, &r.fault, &golden, &rcfg);
            if let Some(v) = sound_violation(r.outcome, &run) {
                panic!("{:?} (passive {}): {v}", r.fault, r.outcome);
            }
            rollbacks += u32::from(run.rolled_back);
        }
        // The invariants must have had real rollbacks to bite on.
        assert!(rollbacks > 0, "120 early SEUs on crc32 include committed detections");
    }

    #[test]
    fn active_mode_predictions_hold_for_every_itr_outcome() {
        // Every ITR-detected verdict of a small fib campaign predicts an
        // active-mode outcome; the engine's ground truth must confirm it.
        let p = assemble(kernels::FIB.source).unwrap();
        let ccfg = CampaignConfig {
            faults: 50,
            window_cycles: 20_000,
            min_decode: 20,
            max_decode: 2_000,
            seed: 1,
            ..CampaignConfig::default()
        };
        let golden = golden_for(&p);
        let rcfg = small_cfg();
        let plan = ModelPlan::new(&p, ModelKind::Seu, &ccfg);
        let mut confirmed = 0;
        for r in plan.run_range(&p, &ccfg, 0, ccfg.faults, &|| false).records {
            let Some(pred) = prediction(r.outcome) else { continue };
            let run = run_recovery(&p, &r.fault, &golden, &rcfg);
            assert!(confirms(pred, run.actual), "{:?} (passive {}): {run:?}", r.fault, r.outcome);
            confirmed += 1;
        }
        assert!(confirmed > 20, "only {confirmed} ITR-detected faults to confirm");
    }

    #[test]
    fn transient_recoverable_instances_validate_in_active_mode() {
        // A transient model's ITR+SDC+R verdict predicts that the retry
        // recovers: the engine's run must hold every sound invariant.
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let ccfg = CampaignConfig {
            faults: 30,
            window_cycles: 20_000,
            min_decode: 20,
            max_decode: 2_000,
            seed: 7,
            ..CampaignConfig::default()
        };
        let golden = golden_for(&p);
        let rcfg = small_cfg();
        let mut validated = 0;
        for kind in [ModelKind::Seu, ModelKind::MultiBitAdjacent, ModelKind::MultiBitRandom] {
            let plan = ModelPlan::new(&p, kind, &ccfg);
            for r in plan.run_range(&p, &ccfg, 0, ccfg.faults, &|| false).records {
                if r.outcome != Outcome::ItrSdcR {
                    continue;
                }
                let run = run_recovery(&p, &r.fault, &golden, &rcfg);
                if let Some(v) = sound_violation(r.outcome, &run) {
                    panic!("{}: {:?}: {v}", kind.label(), r.fault);
                }
                validated += 1;
            }
        }
        assert!(validated > 0, "no recoverable transient instances sampled");
    }

    #[test]
    fn detected_committed_fault_rolls_back_and_recovers() {
        // Find an SEU whose active run machine-checks, and verify the
        // engine turns the abort into a ground-truth recovery.
        let p = assemble(kernels::CRC32.source).unwrap();
        let golden = golden_for(&p);
        let cfg = RecoverConfig { checkpoint_min_gap: 0, ..small_cfg() };
        let mut rng = SplitMix64::new(0x1712);
        let mut seen_recovery = false;
        for _ in 0..200 {
            let model = FaultModel::sample(ModelKind::Seu, &mut rng, 10, 300);
            let run = run_recovery(&p, &model, &golden, &cfg);
            if run.rolled_back && run.actual.golden_equivalent() {
                assert!(run.detected);
                assert!(run.checkpoint_at.is_some());
                seen_recovery = true;
                break;
            }
        }
        assert!(seen_recovery, "no rolled-back recovery in 200 sampled SEUs");
    }

    #[test]
    fn fatal_appears_exactly_when_no_checkpoint_exists() {
        // Under bounded wait the first checkpoint can only fire after a
        // full age window of cache events, so a very early detection is
        // honestly Fatal; any later detection must find the rollback
        // target. Both directions: Fatal ⟺ detected with zero
        // checkpoints taken.
        let p = assemble(kernels::CRC32.source).unwrap();
        let golden = golden_for(&p);
        let cfg = RecoverConfig { checkpoint_min_gap: 0, ..small_cfg() };
        let mut rng = SplitMix64::new(0x2007);
        let (mut detections, mut rollbacks) = (0, 0);
        for _ in 0..200 {
            let model = FaultModel::sample(ModelKind::Seu, &mut rng, 10, 300);
            let run = run_recovery(&p, &model, &golden, &cfg);
            if run.actual == ActualOutcome::Fatal {
                assert_eq!(run.checkpoints_taken, 0, "{model:?} aborted past a checkpoint");
            }
            if run.detected && run.checkpoints_taken > 0 {
                assert!(run.rolled_back, "{model:?} detected but ignored its checkpoint");
            }
            detections += u32::from(run.detected);
            rollbacks += u32::from(run.rolled_back);
        }
        assert!(detections > 0, "sampled faults must include detections");
        assert!(rollbacks > 0, "sampled faults must include rollbacks");
    }

    #[test]
    fn context_switch_runs_classify_every_model_kind() {
        let p = assemble(kernels::CRC32.source).unwrap();
        let golden = golden_for(&p);
        let cfg = small_cfg();
        let mut rng = SplitMix64::new(7);
        for kind in [ModelKind::Seu, ModelKind::Intermittent, ModelKind::BurstOnRetry] {
            let model = FaultModel::sample(kind, &mut rng, 100, 1_500);
            let run = run_recovery_with_switches(&p, &model, &golden, &cfg, 2_500);
            // The taxonomy is total; context switches must not wedge the
            // engine into an unclassifiable state.
            assert!(ActualOutcome::ALL.contains(&run.actual), "{kind:?}: {run:?}");
            if run.rolled_back && run.prefix_clean == Some(true) {
                assert!(run.actual.golden_equivalent(), "INV1 under switches: {run:?}");
            }
        }
    }

    #[test]
    fn engine_is_deterministic() {
        let p = assemble(kernels::RLE_COMPRESS.source).unwrap();
        let golden = golden_for(&p);
        let cfg = small_cfg();
        let model = FaultModel::Seu(DecodeFault { nth_decode: 500, bit: 13 });
        let a = run_recovery(&p, &model, &golden, &cfg);
        let b = run_recovery(&p, &model, &golden, &cfg);
        assert_eq!(a, b);
    }
}
