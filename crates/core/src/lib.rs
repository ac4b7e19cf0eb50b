//! # itr-core — Inherent Time Redundancy
//!
//! The primary contribution of the DSN 2007 paper *"Inherent Time
//! Redundancy (ITR): Using Program Repetition for Low-Overhead Fault
//! Tolerance"* (Reddy & Rotenberg): detect transient faults in a
//! processor's fetch and decode units by recording and confirming
//! microarchitectural events that depend only on the program's
//! instructions.
//!
//! Programs re-execute the same static instruction *traces* (sequences
//! terminated by a branching instruction or a 16-instruction limit) at
//! short dynamic distances. The decode-unit output signals of a trace are
//! XOR-folded into a 64-bit *signature* ([`SignatureGen`]); signatures are
//! stored in a small PC-indexed [`ItrCache`] and compared each time the
//! trace recurs. A mismatch indicates a transient fault in the fetch or
//! decode unit of either the current or the recorded instance; a pipeline
//! flush and re-execution (*retry*) disambiguates the two and selects
//! between lightweight recovery and a machine-check abort.
//!
//! ## Components
//!
//! * [`SignatureGen`] / [`TraceBuilder`] — signature generation (§2.1),
//! * [`ItrRob`] — in-flight trace status with `chk`/`miss`/`retry` bits
//!   and the one-hot encoding of §2.4 (§2.2),
//! * [`ItrCache`] — the signature cache with LRU replacement, optional
//!   parity protection and optional checked-bit-aware replacement (§2.2,
//!   §2.3, §2.4),
//! * [`ItrUnit`] — the controller that a pipeline embeds: dispatch-side
//!   trace formation and cache probing, commit-side interlock, retry and
//!   machine-check decisions (§2.2),
//! * [`SequentialPcChecker`] — the retirement-PC (`spc`) check of §2.5,
//! * [`Watchdog`] — the deadlock watchdog (`wdog`) used in §4,
//! * [`CoverageModel`] — trace-stream evaluation of fault detection /
//!   recovery coverage loss (§3, Figs. 6 and 7),
//! * [`fan_out_records`] — one committed-trace stream observed by many
//!   coverage models in a single pass (the design-space sweeps),
//! * [`CoarseCheckpointer`] — the coarse-grain checkpointing hook of §2.3.
//!
//! ## Example
//!
//! ```
//! use itr_core::{ItrCacheConfig, Associativity, CoverageModel, TraceRecord};
//!
//! // Evaluate coverage loss of a 2-way, 1024-entry ITR cache over a tiny
//! // synthetic trace stream that alternates between two traces.
//! let config = ItrCacheConfig::new(1024, Associativity::Ways(2));
//! let mut model = CoverageModel::new(config);
//! for i in 0..100u64 {
//!     let start_pc = 0x400 + (i % 2) * 64;
//!     model.observe(&TraceRecord { start_pc, signature: start_pc * 7, len: 8 });
//! }
//! let report = model.report();
//! assert!(report.detection_loss_pct() < 1.0);
//! ```

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod checkpoint;
mod config;
mod coverage;
mod itr_cache;
mod itr_rob;
mod signature;
mod spc;
mod unit;
mod watchdog;

pub use checkpoint::CoarseCheckpointer;
pub use config::{Associativity, ItrCacheConfig, ItrConfig, ItrMode};
pub use coverage::{fan_out_records, CoverageModel, CoverageReport};
pub use itr_cache::{CacheStats, Eviction, FlushSummary, ItrCache, ProbeResult};
pub use itr_rob::{ControlState, ItrRob, ItrRobEntry, ItrRobFull, ItrRobIndex};
pub use signature::{FoldKind, SignatureGen, TraceBuilder, TraceRecord, MAX_TRACE_LEN};
pub use spc::SequentialPcChecker;
pub use unit::{CommitAction, DispatchResult, ItrEvent, ItrSnapshot, ItrUnit, UnitStats};
pub use watchdog::Watchdog;
