//! The one recorded golden execution every fault-free reference derives
//! from.
//!
//! A program's fault-free functional run is recorded once — the commit
//! stream, the `(pc, DecodeSignals)` decode stream, the stop reason and
//! the program output — and every consumer derives its reference from
//! the recording instead of running [`FuncSim`] itself: the fault
//! campaigns' golden stream and clean-signature map
//! (`itr_faults::clean_signatures`), the recovery engine's `GoldenRun`
//! (a `From` conversion in `itr-recover`), the fuzz oracles' trace
//! streams at any length, the coverage sweeps' traces per length limit
//! and the env scenarios' decode streams. It is the only recording of a
//! functional run.
//!
//! Every derivation consumes the decode stream exactly as the live
//! sources do ([`TraceStream`](crate::TraceStream),
//! [`FuncSim::run_collect`]), so a derived value equals its live
//! counterpart; `tests/record_equals_live.rs` holds them to it.

use crate::arch::CommitRecord;
use crate::func::{FuncSim, StopReason};
use itr_core::{TraceBuilder, TraceRecord};
use itr_isa::{DecodeSignals, Program};

/// The recorded golden execution of one program.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The committed stream, in order.
    pub records: Vec<CommitRecord>,
    /// Decode signals of each committed instruction, parallel to
    /// `records` (the decode stream pairs them with `records[i].pc`).
    pub signals: Vec<DecodeSignals>,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Text the program printed.
    pub output: String,
}

impl Execution {
    /// Runs `program` on [`FuncSim`] for at most `max_instrs` committed
    /// instructions, recording every reference its consumers derive.
    pub fn record(program: &Program, max_instrs: u64) -> Execution {
        let mut sim = FuncSim::new(program);
        let mut records = Vec::new();
        let mut signals = Vec::new();
        while (records.len() as u64) < max_instrs {
            let Some(step) = sim.step() else { break };
            records.push(step.record);
            signals.push(step.signals);
        }
        let stop = sim.stopped().unwrap_or(StopReason::InstrLimit);
        Execution { records, signals, stop, output: sim.output().to_string() }
    }

    /// The decode stream: each committed instruction's PC and signals.
    pub fn decodes(&self) -> impl Iterator<Item = (u64, DecodeSignals)> + '_ {
        self.records.iter().map(|r| r.pc).zip(self.signals.iter().copied())
    }

    /// The traces of length limit `max_len` formed within the first
    /// `budget` instructions — what
    /// `TraceStream::with_trace_len(program, budget, max_len)` yields.
    pub fn traces(&self, budget: u64, max_len: u32) -> Vec<TraceRecord> {
        let mut builder = TraceBuilder::new(max_len);
        let n = usize::try_from(budget).unwrap_or(usize::MAX);
        self.decodes().take(n).filter_map(|(pc, signals)| builder.push(pc, &signals)).collect()
    }
}
