//! # itr-stats — the unified telemetry layer
//!
//! Every counter in the workspace is exported through this crate: the
//! pipeline's per-stage statistics, the ITR unit's chk/miss/retry
//! accounting, the coverage models, and the SRAM access counts behind the
//! §5 energy study. Each producer keeps its counters as plain `u64` fields
//! of its own stats struct and lists them, with their [`Unit`]s, when it
//! exports. Consumers (the fault-campaign runner, the figure binaries,
//! tests) read one JSON export instead of reaching into simulator
//! internals.
//!
//! ## Components
//!
//! * [`Unit`] — what a counter measures, carried into the export,
//! * [`Histogram`] — power-of-two-bucketed distribution, used for
//!   per-stage occupancy and width histograms,
//! * [`Report`] / [`Section`] — the export schema: named sections of
//!   counters and histograms with [`Report::to_json`] /
//!   [`Report::from_json`],
//! * [`json`] — the dependency-free JSON value model backing the export,
//! * [`rng`] — the deterministic SplitMix64/xorshift PRNG that replaces
//!   the external `rand` crate, keeping the workspace hermetic.
//!
//! ## Example
//!
//! ```
//! use itr_stats::{Report, Unit};
//!
//! let hits = 3;
//! let mut report = Report::new();
//! report.push_section("cache", &[("hits", Unit::Events, hits)], &[]);
//! let back = Report::from_json(&report.to_json()).unwrap();
//! assert_eq!(back.counter("cache", "hits"), Some(3));
//! ```

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod counter;
mod histogram;
pub mod json;
mod report;
pub mod rng;

pub use counter::Unit;
pub use histogram::{Histogram, HistogramSnapshot};
pub use report::{Report, Section};
pub use rng::SplitMix64;
