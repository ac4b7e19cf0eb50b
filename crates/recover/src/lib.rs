//! # itr-recover — ground-truth checkpoint/rollback recovery (§2.3)
//!
//! The paper's recovery story rests on coarse-grain checkpoints taken
//! whenever the ITR cache holds no unchecked lines, plus retry-flush
//! re-execution. Since PR 1 the workspace has *predicted* active-mode
//! recovery from passive classifications (`itr-faults`), with the
//! predictions explicitly heuristic outside the `ITR+SDC+R` case. This
//! crate closes the gap with a real engine:
//!
//! * [`engine`] runs a fault under full active-mode ITR with the
//!   [`itr_core::CoarseCheckpointer`] logging every checkpoint taken;
//!   on a machine check (or watchdog deadlock) it rolls back to the
//!   last checkpoint, re-executes, and classifies the *actual* outcome
//!   ([`ActualOutcome`]) against the fault-free golden run. The
//!   checkpoint's architectural state is [`itr_sim::snapshot_at`] of the
//!   committed prefix it covers: the replay every snapshot is built by.
//! * [`outcome`] maps the passive Figure-8 taxonomy onto its
//!   active-mode predictions so ground truth can confirm or correct
//!   them fault by fault, and [`sound_violation`] states the invariant
//!   subset that is sound enough for the `itr-fuzz` oracle to assert.
//! * [`sweep`] drives the checkpoint-spacing design sweep behind the
//!   `recover` repro job family: recovery coverage vs checkpoint cost
//!   across `min_gap` × fault model × workload, including the
//!   `itr-env` interaction scenarios (burst-during-retry faults and
//!   context-switch windows striking mid-rollback).
//!
//! Everything here is deterministic: no clocks, no hashes, no thread
//!-count dependence — the artifacts the sweep feeds are byte-identical
//! across `--jobs`.

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod engine;
pub mod outcome;
pub mod sweep;

pub use engine::{
    run_recovery, run_recovery_with_switches, sound_violation, GoldenRun, RecoverConfig,
    RecoveryRun, BOUNDED_WAIT_AGE,
};
pub use outcome::{confirms, prediction, ActualOutcome, Prediction};
pub use sweep::{sweep_kind, SweepCell};
