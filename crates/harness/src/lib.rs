//! # itr-harness — resumable, sharded experiment orchestration
//!
//! The paper's evaluation is a DAG of dependent experiments (golden
//! functional runs feed trace characterization, which feeds coverage,
//! injection and energy studies). This crate runs that DAG the way a
//! fleet-scale fault campaign does:
//!
//! * [`Registry`] / [`JobSpec`] — each figure/table registers as a job
//!   with explicit dependencies; jobs split into [`ShardSpec`]s, the
//!   independent units of scheduling;
//! * [`pool`] — a work-stealing thread pool; shards of *all* ready jobs
//!   interleave, so one slow campaign never idles the machine;
//! * [`journal`] — an append-only `journal.jsonl` (`itr-harness/v2`)
//!   recording each completed shard's seed range and JSON payload; an
//!   interrupted run resumes with zero recomputation;
//! * watchdogs — every shard carries a deadline; overdue shards are
//!   cancelled cooperatively or, if deaf, abandoned and quarantined
//!   while a replacement worker keeps the run alive;
//! * deterministic merge — [`JobResult`] hands dependent jobs the shard
//!   payloads in shard-index order, so what they render is byte-identical
//!   regardless of thread count or completion order;
//! * [`manifest`] — `MANIFEST.json` inventories the artifacts a run
//!   produced, with shard accounting for resume verification.
//!
//! The crate is experiment-agnostic: it depends only on `itr-stats`.
//! The experiment definitions live in `itr-bench::experiments`, and the
//! `itr-repro` binary drives the whole reproduction through [`runner::run`].

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod job;
pub mod journal;
pub mod manifest;
pub mod pool;
pub mod progress;
pub mod runner;

pub use job::{
    Blackboard, JobResult, JobSpec, QuarantineRecord, Registry, ShardCtx, ShardRecord, ShardSpec,
    DEFAULT_DEADLINE,
};
pub use journal::{Entry, Journal};
pub use manifest::{collect_artifacts, write_manifest, ManifestEntry, ShardCounts};
pub use pool::Pool;
pub use runner::{run, RunOptions, RunSummary};

/// FNV-1a over a canonical parameter string — the configuration
/// fingerprint that binds journals to the scale they were produced at.
pub fn fingerprint(canonical: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in canonical.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}
