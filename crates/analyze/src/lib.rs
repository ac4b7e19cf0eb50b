//! # itr-analyze — static CFG / trace / signature-alias analysis
//!
//! Everything `itr-core` does with traces happens at decode time, which
//! means it is a function of the *static* instruction stream: trace
//! boundaries (`is_branch` or the length limit), trace identity (the
//! start PC), the XOR signature fold, and the ITR-cache set index are
//! all computable without running a single instruction. This crate
//! computes them:
//!
//! * [`image`] — a fetch-accurate static view of an assembled program,
//!   including the sparse-memory convention that unmapped words read as
//!   zero and decode as `nop`;
//! * [`mod@cfg`] — basic-block recovery, dominators, natural loops, and
//!   unreachable-code detection over the text segment;
//! * [`trace`] — enumeration of the complete static trace universe
//!   under the same formation rules the decode stage applies, driving
//!   `itr-core`'s own [`TraceBuilder`](itr_core::TraceBuilder) for the
//!   signature fold;
//! * [`report`] — signature-alias and cache set-conflict summaries,
//!   the `itr-analyze/v1` JSON document, and a regression baseline;
//! * [`oracle`] — the cross-validation oracle asserting that every
//!   dynamically observed trace is a member of the static universe with
//!   a matching signature. `itr-fuzz` runs this as its fourth
//!   differential oracle;
//! * [`gap`] — the inverse diff: which statically possible traces,
//!   CFG edges and loops were *never* observed dynamically, with
//!   dominator-path / branch-polarity feasibility metadata per gap.
//!   `itr-fuzz`'s directed mutation stage consumes this report.
//!
//! The analyses exist for two reasons. First, they answer static
//! questions the simulator cannot: how many distinct traces *can* a
//! program form, how many signature aliases exist (an alias is a missed
//! detection opportunity — two different instruction streams the checker
//! cannot tell apart), and which cache sets must thrash. Second, the
//! dynamic/static cross-check is a powerful consistency oracle over the
//! whole stack: a bug in either the enumerator or the decode-time trace
//! formation shows up as a subset violation.

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod cfg;
pub mod gap;
pub mod image;
pub mod oracle;
pub mod report;
pub mod trace;

pub use cfg::{BasicBlock, BlockExit, Cfg, NaturalLoop};
pub use gap::{
    gap_report, golden_document, BranchPolarity, EdgeGap, GapObservations, GapReport, LenGap,
    GAP_GOLDEN_BUDGET, GAP_GOLDEN_SCHEMA, GAP_SCHEMA,
};
pub use image::{ProgramImage, DEFAULT_REGION_PAD};
pub use oracle::{
    check_trace, cross_validate, dynamic_traces, CrossValidation, Violation, ViolationKind,
};
pub use report::{
    analyze_program, AliasSummary, AnalyzeConfig, AnalyzeReport, ConflictSummary, LenAnalysis,
    WorkloadAnalysis, BASELINE_SCHEMA, SCHEMA,
};
pub use trace::{enumerate, walk, EnumOptions, StaticTrace, Terminator, Universe};
