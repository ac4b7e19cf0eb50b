//! # itr-sim — the processor substrate
//!
//! A from-scratch execution substrate for the ITR reproduction, replacing
//! the SimpleScalar/PISA toolchain used by the paper:
//!
//! * [`Memory`] — sparse byte-addressable memory,
//! * [`TimingCache`] — a set-associative timing model used for the
//!   instruction and data caches (and access counting for the energy
//!   study of §5),
//! * [`semantics`] — instruction semantics driven entirely by the
//!   [`DecodeSignals`](itr_isa::DecodeSignals) vector, so injected decode
//!   faults corrupt execution exactly as a decode-unit upset would,
//! * [`FuncSim`] — a fast in-order functional simulator used for golden
//!   runs and trace-stream extraction,
//! * [`Execution`] — the one recorded golden run (commit stream, decode
//!   signals, stop reason, output) every fault-free reference derives
//!   from: the fault campaigns' golden stream and clean-signature map,
//!   the recovery engine's golden run, the fuzz oracles' traces,
//! * [`SimSnapshot`] — the architectural state after a commit prefix,
//!   built only by replaying a recorded commit prefix ([`snapshot_at`]) and
//!   resumed with [`FuncSim::from_snapshot`]: the fuzzer's start states
//!   and the recovery engine's checkpoints,
//! * [`Pipeline`] — a cycle-level out-of-order superscalar (MIPS-R10K
//!   style: rename map + physical register file, issue queue, ROB, store
//!   queue, BTB + gshare + RAS frontend) with the ITR unit of
//!   [`itr_core`] embedded per Figure 5 of the paper,
//! * [`Injection`] — a run's fault plan ([`Pipeline::arm`]), apart from
//!   the machine's [`PipelineConfig`]: the §4 single-event upset
//!   ([`DecodeFault`]) and every other planned strike.
//!
//! # Example: run a program functionally
//!
//! ```
//! use itr_isa::asm::assemble;
//! use itr_sim::FuncSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("main:\n li r8, 6\n li r9, 7\n mul r10, r8, r9\n halt\n")?;
//! let mut sim = FuncSim::new(&program);
//! sim.run(1_000_000);
//! assert_eq!(sim.arch().int_reg(10), 42);
//! # Ok(())
//! # }
//! ```

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod arch;
mod branch;
mod cache;
mod config;
mod execution;
mod func;
mod injection;
mod mem;
mod pipeline;
pub mod semantics;
mod snapshot;

pub use arch::{ArchState, CommitRecord, FCC_REG, NUM_ARCH_REGS};
pub use branch::{Btb, Gshare, ReturnStack};
pub use cache::{CacheGeometry, TimingCache};
pub use config::PipelineConfig;
pub use execution::Execution;
pub use func::{FuncSim, StopReason, TraceStream};
pub use injection::{
    BurstFault, DecodeFault, Injection, RenameFault, SchedulerFault, SignalFault, SignalOp,
};
pub use mem::Memory;
pub use pipeline::{CheckpointRecord, Pipeline, PipelineStats, RunExit, SpcViolation};
pub use snapshot::{snapshot_at, SimSnapshot};
