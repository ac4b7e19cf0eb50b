//! # itr-fuzz — coverage-guided differential fuzzing of the simulator
//! and ITR detection stack
//!
//! The reproduction's correctness rests on five pillars this crate
//! attacks continuously, one oracle each:
//!
//! 1. the cycle-level pipeline commits the same architectural stream as
//!    the functional reference ([`oracle::OracleKind::CommitEquivalence`]),
//! 2. trace signatures are a pure function of trace identity
//!    ([`oracle::OracleKind::SignatureDeterminism`] — the invariant the
//!    whole ITR scheme stands on),
//! 3. the §4 fault classifier agrees with architectural ground truth
//!    ([`oracle::OracleKind::FaultConsistency`]),
//! 4. every dynamic trace belongs to the static trace universe
//!    ([`oracle::OracleKind::StaticSubset`]), and
//! 5. the recovery engine's actual outcome keeps the sound invariants of
//!    the passive verdict's prediction
//!    ([`oracle::OracleKind::RecoveryGroundTruth`]).
//!
//! The engine ([`engine::run`]) generates structure-aware `rISA`
//! programs ([`gen`]), mutates them ([`mutate`]), and retains any case
//! that lights a new feature in the novelty map ([`coverage`]) built
//! from opcode pairs, branch outcomes, `itr-stats` pipeline telemetry,
//! and ITR-unit events. Violations are delta-debugged to minimal
//! reproducers ([`mod@shrink`]) and persisted as replayable JSON documents
//! ([`corpus::RegressionCase`]) under `tests/fuzz_regressions/`. A
//! finding of a sampled extended fault model is the exception: it
//! carries no fault to replay ([`oracle::replay`]).
//!
//! Beyond batch runs, the crate is a *persistent fuzzing service*: an
//! energy-weighted power scheduler ([`schedule`]) replaces uniform
//! corpus selection, workers exchange novelty through the
//! `itr-fuzz-sync/v1` transport ([`sync`]), mid-execution simulator
//! snapshots are materialized into self-contained start-state cases
//! ([`snapshot`]), and `itr-fuzz serve` ([`server`]) runs a long-lived
//! campaign behind a small std-only HTTP status endpoint.
//!
//! The static analyzer closes the loop from the other side: in
//! `--directed` mode the coverage-gap report of `itr_analyze::gap`
//! plans branch flips and never-formed-trace synthesis ([`directed`]),
//! and gap closures feed the power scheduler as a high-weight energy
//! signal (`itr-fuzz gap-ab` races directed against blind mutation).
//!
//! Everything is deterministic per seed — `itr-fuzz run --seed 1
//! --iters 5000` twice yields byte-identical statistics and findings.

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod case;
pub mod corpus;
pub mod coverage;
pub mod diag;
pub mod directed;
pub mod engine;
pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod schedule;
pub mod server;
pub mod shrink;
pub mod snapshot;
pub mod sync;

pub use case::{FuzzCase, CASE_SCHEMA};
pub use corpus::{
    seed_corpus, Corpus, CorpusEntry, CorpusStats, FindingError, RegressionCase, FINDING_SCHEMA,
};
pub use coverage::{CoverageMap, MAP_SIZE};
pub use diag::{first_divergence, Divergence};
pub use directed::{directed_mutate, BranchGoal, DirectedPlan, GAP_LENS};
pub use engine::{
    gap_race, run, FuzzConfig, FuzzOutcome, FuzzStats, Fuzzer, GapRace, STATS_SCHEMA,
};
pub use oracle::{evaluate, replay, Evaluation, Finding, OracleConfig, OracleKind};
pub use schedule::{PowerSchedule, Schedule};
pub use server::{serve, ServeConfig, SERVE_SCHEMA};
pub use shrink::{shrink, DEFAULT_BUDGET};
pub use snapshot::{materialize, snapshot_cases, MAX_DELTA_WORDS};
pub use sync::{SyncRecord, SYNC_SCHEMA};
