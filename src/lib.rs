//! # itr — Inherent Time Redundancy
//!
//! A full Rust reproduction of *"Inherent Time Redundancy (ITR): Using
//! Program Repetition for Low-Overhead Fault Tolerance"* (Reddy &
//! Rotenberg, DSN 2007): detect transient faults in a processor's fetch
//! and decode units by recording and confirming decode-signal signatures
//! of repeating instruction traces in a small, PC-indexed ITR cache.
//!
//! This façade crate re-exports the component crates:
//!
//! * [`isa`] — the `rISA` instruction set, Table-2 decode signals,
//!   assembler and program builder,
//! * [`core`] — the paper's contribution: signatures, ITR cache, ITR ROB,
//!   recovery controller, coverage models, `spc`/`wdog` checks,
//! * [`sim`] — the substrate: functional simulator and the cycle-level
//!   out-of-order pipeline with the ITR unit embedded,
//! * [`workloads`] — assembly kernels and SPEC2K-mimic workloads,
//! * [`faults`] — single-event-upset campaigns, the Figure-8 outcome
//!   taxonomy, and the extended fault-model library (multi-bit upsets,
//!   stuck-ats, intermittents, retry-window bursts),
//! * [`mod@env`] — hostile-environment scenarios: multi-program
//!   interleaving through one shared ITR cache under configurable
//!   context-switch policies,
//! * [`fuzz`] — coverage-guided differential fuzzing of the simulator
//!   and the ITR detection stack, with five oracles whose findings
//!   replay (all but those of sampled extended fault models),
//! * [`analyze`] — static CFG recovery, trace-universe enumeration,
//!   signature-alias and cache-conflict analysis, with a dynamic
//!   cross-validation oracle,
//! * [`power`] — CACTI-lite energy and the S/390 G5 area comparison,
//! * [`stats`] — the unified telemetry layer: typed counters, per-stage
//!   histograms, the post-mortem event ring, the `itr-stats/v1` JSON
//!   export, and the deterministic [`stats::SplitMix64`] PRNG.
//!
//! # Quick start
//!
//! ```
//! use itr::isa::asm::assemble;
//! use itr::sim::{Pipeline, PipelineConfig, RunExit};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     r#"
//!     main:
//!         li r8, 10
//!         li r9, 0
//!     top:
//!         add r9, r9, r8
//!         addi r8, r8, -1
//!         bgtz r8, top
//!         move r4, r9
//!         trap 1
//!         halt
//!     "#,
//! )?;
//! let mut cpu = Pipeline::new(&program, PipelineConfig::with_itr());
//! assert_eq!(cpu.run(100_000), RunExit::Halted);
//! assert_eq!(cpu.output(), "55");
//! let itr = cpu.itr().expect("ITR enabled");
//! assert_eq!(itr.stats().mismatches, 0, "fault-free runs never mismatch");
//! # Ok(())
//! # }
//! ```

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub use itr_analyze as analyze;
pub use itr_core as core;
pub use itr_env as env;
pub use itr_faults as faults;
pub use itr_fuzz as fuzz;
pub use itr_isa as isa;
pub use itr_power as power;
pub use itr_sim as sim;
pub use itr_stats as stats;
pub use itr_workloads as workloads;
