//! Ground-truth recovery outcomes and the passive-prediction mapping.
//!
//! The §4 campaigns classify faults from a *passive* run and predict
//! what active-mode recovery would do (recover, or abort). The recovery
//! engine replaces those predictions with what actually happened; this
//! module names the actual outcomes and the confirmed/corrected
//! bookkeeping between the two.

use itr_faults::Outcome;
use std::fmt;

/// What actually happened when a faulty run executed under full
/// active-mode ITR with checkpoint/rollback recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ActualOutcome {
    /// The run finished with the golden committed stream and output —
    /// the fault was masked or a retry flush absorbed it.
    FinishedClean,
    /// The run finished but its committed stream or output diverged
    /// from the golden run: silent data corruption escaped every check.
    FinishedSdc,
    /// Detection fired, rollback to the last checkpoint re-executed the
    /// golden suffix exactly, and no output had escaped past the
    /// checkpoint: full recovery, invisible to the outside world.
    Recovered,
    /// As above, but program output had already escaped past the
    /// checkpoint — re-execution re-emits it, so recovery is visible
    /// (the paper's "output committed" caveat for coarse checkpoints).
    RecoveredOutputLoss,
    /// Rollback happened but the checkpointed prefix itself had already
    /// diverged from the golden run: the checkpoint is corrupt and
    /// re-execution cannot restore the golden behaviour.
    RollbackSdc,
    /// Detection fired but no checkpoint had ever been taken: the only
    /// honest response is a machine-check abort.
    Fatal,
    /// The cycle budget ran out before the run reached any terminal
    /// state (commit deadlock escape hatch for the sweeps).
    Hung,
}

impl ActualOutcome {
    /// Every outcome, in report order.
    pub const ALL: [ActualOutcome; 7] = [
        ActualOutcome::FinishedClean,
        ActualOutcome::FinishedSdc,
        ActualOutcome::Recovered,
        ActualOutcome::RecoveredOutputLoss,
        ActualOutcome::RollbackSdc,
        ActualOutcome::Fatal,
        ActualOutcome::Hung,
    ];

    /// Stable label used in reports and CSVs.
    pub fn label(self) -> &'static str {
        match self {
            ActualOutcome::FinishedClean => "finished-clean",
            ActualOutcome::FinishedSdc => "finished-sdc",
            ActualOutcome::Recovered => "recovered",
            ActualOutcome::RecoveredOutputLoss => "recovered-output-loss",
            ActualOutcome::RollbackSdc => "rollback-sdc",
            ActualOutcome::Fatal => "fatal",
            ActualOutcome::Hung => "hung",
        }
    }

    /// `true` when the run ended architecturally equivalent to the
    /// golden run (possibly after rollback).
    pub fn golden_equivalent(self) -> bool {
        matches!(
            self,
            ActualOutcome::FinishedClean
                | ActualOutcome::Recovered
                | ActualOutcome::RecoveredOutputLoss
        )
    }
}

impl fmt::Display for ActualOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a passive Figure-8 classification predicts about the active run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// A retry flush absorbs the fault: the active run finishes clean.
    FinishesClean,
    /// The faulty instance already committed: the active run detects
    /// (machine check) and must fall back to rollback or abort.
    Detects,
}

/// The active-mode prediction the passive taxonomy makes for `outcome`,
/// if any. This is the heuristic the ground-truth engine confirms or
/// corrects: only `ItrSdcR` (for transient faults) is sound in every
/// corner case — [`crate::sound_violation`]'s INV2, gated on
/// [`itr_faults::FaultModel::active_recovery_sound`] because a fault
/// that re-strikes the retry can defeat it.
pub fn prediction(outcome: Outcome) -> Option<Prediction> {
    match outcome {
        Outcome::ItrSdcR | Outcome::ItrMask | Outcome::ItrWdogR => Some(Prediction::FinishesClean),
        Outcome::ItrSdcD => Some(Prediction::Detects),
        _ => None,
    }
}

/// `true` when the ground-truth outcome confirms the prediction.
pub fn confirms(pred: Prediction, actual: ActualOutcome) -> bool {
    match pred {
        Prediction::FinishesClean => actual == ActualOutcome::FinishedClean,
        // "Detects" predicts a machine check; with the recovery engine
        // attached a machine check becomes a rollback, so any rollback
        // outcome (or an honest abort) confirms it.
        Prediction::Detects => matches!(
            actual,
            ActualOutcome::Recovered
                | ActualOutcome::RecoveredOutputLoss
                | ActualOutcome::RollbackSdc
                | ActualOutcome::Fatal
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_stable() {
        let labels: Vec<_> = ActualOutcome::ALL.iter().map(|o| o.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(ActualOutcome::Recovered.label(), "recovered");
    }

    #[test]
    fn prediction_mapping_covers_exactly_the_itr_detected_outcomes() {
        for o in Outcome::ALL {
            assert_eq!(prediction(o).is_some(), o.itr_detected(), "{o}");
        }
    }

    #[test]
    fn detect_prediction_is_confirmed_by_any_rollback() {
        assert!(confirms(Prediction::Detects, ActualOutcome::Recovered));
        assert!(confirms(Prediction::Detects, ActualOutcome::Fatal));
        assert!(!confirms(Prediction::Detects, ActualOutcome::FinishedClean));
        assert!(confirms(Prediction::FinishesClean, ActualOutcome::FinishedClean));
        assert!(!confirms(Prediction::FinishesClean, ActualOutcome::Recovered));
    }
}
