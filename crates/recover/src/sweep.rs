//! Checkpoint-spacing design sweep: recovery coverage vs checkpoint
//! cost, with passive predictions confirmed or corrected per fault.
//!
//! One sweep point fixes (workload, fault-model kind) and samples a
//! pinned campaign of model instances; each instance is classified once
//! in passive mode (the Figure-8 heuristic prediction) and then run
//! through the recovery engine at every checkpoint spacing `min_gap` in
//! the grid. The output is one [`SweepCell`] per gap: ground-truth
//! outcome counts, confirmed/corrected prediction tallies, checkpoint
//! cost, and mean rollback distance.

use crate::engine::{
    run_recovery, run_recovery_with_switches, sound_violation, GoldenRun, RecoverConfig,
};
use crate::outcome::{confirms, prediction, ActualOutcome};
use itr_faults::{CampaignConfig, ModelKind, ModelPlan};
use itr_isa::Program;

/// Aggregated ground truth for one (workload, kind, gap) sweep point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepCell {
    /// Checkpoint spacing of this cell.
    pub gap: u64,
    /// Outcome counts, indexed like [`ActualOutcome::ALL`].
    pub counts: [u32; 7],
    /// Passive predictions the ground truth confirmed.
    pub confirmed: u32,
    /// Passive predictions the ground truth corrected.
    pub corrected: u32,
    /// Faults the passive taxonomy made no active-mode prediction for.
    pub unpredicted: u32,
    /// Sound-invariant violations among soundness-gated models
    /// (expected 0; a non-zero count is an engine or taxonomy bug).
    pub violations: u32,
    /// Checkpoints taken, summed over the cell's runs.
    pub checkpoints: u64,
    /// Checkpoint opportunities, summed over the cell's runs.
    pub opportunities: u64,
    /// Instructions committed by the faulty runs, summed.
    pub committed: u64,
    /// Rollbacks attempted.
    pub rollbacks: u32,
    /// Committed instructions discarded by rollbacks, summed.
    pub rollback_distance_sum: u64,
}

impl SweepCell {
    /// Faults classified into this cell.
    pub fn injected(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Count for one outcome.
    pub fn count(&self, outcome: ActualOutcome) -> u32 {
        let i = ActualOutcome::ALL.iter().position(|&o| o == outcome).expect("known outcome");
        self.counts[i]
    }

    /// Checkpoints taken per 1000 committed instructions — the
    /// checkpoint-cost axis of the coverage-vs-cost curve.
    pub fn checkpoints_per_kinstr(&self) -> f64 {
        self.checkpoints as f64 * 1000.0 / self.committed.max(1) as f64
    }

    /// Mean committed instructions discarded per rollback.
    pub fn mean_rollback_distance(&self) -> f64 {
        self.rollback_distance_sum as f64 / u64::from(self.rollbacks).max(1) as f64
    }

    /// Fraction of detected faults that ended golden-equivalent after
    /// rollback — the recovery-coverage axis.
    pub fn recovery_coverage_pct(&self) -> f64 {
        let recovered =
            self.count(ActualOutcome::Recovered) + self.count(ActualOutcome::RecoveredOutputLoss);
        let detected =
            recovered + self.count(ActualOutcome::RollbackSdc) + self.count(ActualOutcome::Fatal);
        recovered as f64 * 100.0 / detected.max(1) as f64
    }
}

/// Runs the sweep point (program, kind) over every gap in `gaps`.
///
/// The golden run is captured once with `golden_instrs` as budget and
/// must halt within it (a truncated reference cannot distinguish
/// recovery from divergence). `line_age` selects the checkpoint policy
/// for every cell: `None` sweeps the paper's strict condition (zero
/// availability on real programs — the baseline rows of the
/// coverage-vs-cost curve), `Some(age)` the bounded-wait policy. When
/// `switch_cycles` is set, every active run executes under that
/// context-switch quantum (the `itr-env` interaction scenario).
/// `cancelled` is polled between faults; a cancelled sweep returns the
/// cells accumulated so far.
#[allow(clippy::too_many_arguments)]
pub fn sweep_kind(
    program: &Program,
    kind: ModelKind,
    ccfg: &CampaignConfig,
    gaps: &[u64],
    line_age: Option<u64>,
    max_cycles: u64,
    golden_instrs: u64,
    switch_cycles: Option<u64>,
    cancelled: &dyn Fn() -> bool,
) -> Vec<SweepCell> {
    let golden = GoldenRun::capture(program, golden_instrs);
    assert!(golden.halted, "sweep workloads must halt within the golden budget");
    let plan = ModelPlan::new(program, kind, ccfg);
    let mut cells: Vec<SweepCell> =
        gaps.iter().map(|&gap| SweepCell { gap, ..SweepCell::default() }).collect();
    // Passive classification once per fault: the heuristic the ground
    // truth below confirms or corrects.
    let classified = plan.run_range(program, ccfg, 0, ccfg.faults, cancelled);
    for (model, passive) in classified.records.iter().map(|r| (&r.fault, r.outcome)) {
        if cancelled() {
            break;
        }
        for cell in cells.iter_mut() {
            let rcfg = RecoverConfig {
                itr: ccfg.itr,
                checkpoint_min_gap: cell.gap,
                checkpoint_line_age: line_age,
                max_cycles,
            };
            let run = match switch_cycles {
                Some(q) => run_recovery_with_switches(program, model, &golden, &rcfg, q),
                None => run_recovery(program, model, &golden, &rcfg),
            };
            let oi = ActualOutcome::ALL
                .iter()
                .position(|&o| o == run.actual)
                .expect("taxonomy is total");
            cell.counts[oi] += 1;
            match prediction(passive) {
                Some(p) if confirms(p, run.actual) => cell.confirmed += 1,
                Some(_) => cell.corrected += 1,
                None => cell.unpredicted += 1,
            }
            // The sound oracle invariants only apply to transient
            // models under uninterrupted execution; the sweep measures
            // (never asserts) the rest.
            if model.active_recovery_sound() && switch_cycles.is_none() {
                cell.violations += u32::from(sound_violation(passive, &run).is_some());
            }
            cell.checkpoints += run.checkpoints_taken;
            cell.opportunities += run.opportunities;
            cell.committed += run.committed;
            cell.rollbacks += u32::from(run.rolled_back);
            cell.rollback_distance_sum += run.rollback_distance;
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::asm::assemble;
    use itr_workloads::kernels;

    fn small_cfg() -> CampaignConfig {
        CampaignConfig {
            faults: 6,
            window_cycles: 15_000,
            min_decode: 50,
            max_decode: 1_500,
            seed: 11,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic_and_total() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let cfg = small_cfg();
        let gaps = [0u64, 1_024];
        let age = Some(crate::engine::BOUNDED_WAIT_AGE);
        let a =
            sweep_kind(&p, ModelKind::Seu, &cfg, &gaps, age, 3_000_000, 400_000, None, &|| false);
        let b =
            sweep_kind(&p, ModelKind::Seu, &cfg, &gaps, age, 3_000_000, 400_000, None, &|| false);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        for cell in &a {
            assert_eq!(cell.injected(), cfg.faults, "every fault lands in one outcome");
            assert_eq!(cell.confirmed + cell.corrected + cell.unpredicted, cfg.faults);
            assert_eq!(cell.violations, 0, "sound invariants must hold for SEUs: {cell:?}");
        }
    }

    #[test]
    fn tighter_gaps_never_take_fewer_checkpoints() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let cells = sweep_kind(
            &p,
            ModelKind::Seu,
            &small_cfg(),
            &[0, 4_096],
            Some(crate::engine::BOUNDED_WAIT_AGE),
            3_000_000,
            400_000,
            None,
            &|| false,
        );
        assert!(
            cells[0].checkpoints >= cells[1].checkpoints,
            "gap 0 takes at least as many checkpoints as gap 4096: {cells:?}"
        );
        assert!(cells[0].checkpoints_per_kinstr() >= cells[1].checkpoints_per_kinstr());
    }

    #[test]
    fn cancelled_sweep_returns_partial_cells() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let cells = sweep_kind(
            &p,
            ModelKind::Seu,
            &small_cfg(),
            &[0],
            Some(crate::engine::BOUNDED_WAIT_AGE),
            3_000_000,
            400_000,
            None,
            &|| true,
        );
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].injected(), 0);
    }

    #[test]
    fn strict_policy_has_zero_availability_on_real_kernels() {
        // The baseline rows of the coverage-vs-cost curve: the paper's
        // strict condition never fires once a run-once prologue trace
        // is resident, so every detection is fatal.
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let cells = sweep_kind(
            &p,
            ModelKind::Seu,
            &small_cfg(),
            &[0],
            None,
            3_000_000,
            400_000,
            None,
            &|| false,
        );
        assert_eq!(cells[0].checkpoints, 0);
        assert_eq!(cells[0].opportunities, 0);
        assert_eq!(
            cells[0].count(ActualOutcome::Recovered)
                + cells[0].count(ActualOutcome::RecoveredOutputLoss),
            0
        );
    }
}
