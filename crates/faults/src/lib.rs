//! # itr-faults — the fault-injection study of §4
//!
//! Reproduces the paper's methodology: for each benchmark, inject
//! single-event upsets (random bit flips) on the decode signals of random
//! dynamic instructions, run the faulty processor alongside a golden
//! (fault-free) reference, and classify each fault by
//!
//! * **detection** — detected by an ITR signature mismatch (`ITR`),
//!   possibly detectable in the future because the faulty signature is
//!   still resident in the ITR cache (`MayITR`), caught only by the
//!   sequential-PC check (`spc`), or undetected (`Undet`); and
//! * **effect** — corrupts architectural state (`SDC`), causes a commit
//!   deadlock caught by the watchdog (`wdog`), or is masked (`Mask`); and
//! * for ITR-detected SDCs, **recoverability** — whether the *accessing*
//!   instance was the faulty one (retry recovers, `+R`) or the faulty
//!   instance already committed its signature on a miss (`+D`, abort).
//!
//! The faulty pipeline runs the ITR unit in *passive* mode (detect,
//! record, but commit anyway) so a single run observes both the would-be
//! detection and the would-be architectural outcome. What active mode
//! actually does with a fault — retry, roll back, or abort — is the
//! `itr-recover` engine's ground truth, which checks the passive
//! verdicts' predictions fault by fault.
//!
//! The SEU campaign is one fault model among several ([`FaultModel`]):
//! anything that implements [`Fault`] runs through the one campaign
//! [`Plan`] — [`CampaignPlan`] samples SEUs, [`ModelPlan`] instances of
//! one [`ModelKind`] — and the one passive entry point
//! ([`observe_fault`]). Every faulty run, passive here or active in
//! `itr-recover`, goes through one golden-vs-faulty driver,
//! [`Lockstep`]. A plan forks its faulty runs
//! from snapshots of one fault-free run instead of re-simulating each
//! fault's prefix, and stops a run once it rejoins that clean run: when
//! its fault can strike no more ([`Fault::strikes_end`]) and its state
//! equals the clean run's at a 10,000-cycle boundary
//! ([`itr_sim::Pipeline::same_state`]), the rest of every window is
//! derived from the clean run ([`Plan::rejoined_runs`] counts such runs).
//! A forked or cut run observes exactly what a fresh one simulated in
//! full does.
//! A plan's golden stream and clean-signature map ([`clean_signatures`])
//! derive from one recorded [`itr_sim::Execution`].

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod campaign;
mod classify;
mod lockstep;
mod models;

pub use campaign::{
    clean_signatures, observe_fault, run_campaign, shard_bounds, CampaignConfig, CampaignPlan,
    CampaignResult, CampaignShard, Fault, FaultRecord, Plan,
};
pub use classify::{classify, Observation, Outcome};
pub use lockstep::Lockstep;
pub use models::{FaultModel, FaultPersistence, ModelKind, ModelPlan};
