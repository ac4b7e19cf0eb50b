//! The repository benchmark for the ITR reproduction.
//!
//! Four single-threaded workloads (`sim-throughput`, `campaign-late`,
//! `campaign-early`, `fuzz`), each run in its own process in a closed
//! loop over the crates' public API, every operation checked against an
//! independent reference. An untraced run reports the end-to-end metrics;
//! a traced run reports per-layer metrics from spans around each layer
//! call. See `README.md` beside this package for the metric dictionary.

pub mod compare;
pub mod heap;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
