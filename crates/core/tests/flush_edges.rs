//! [`ItrUnit`] edge cases around context-switch flush points.
//!
//! The hostile-environment scheduler (`itr-env`) flushes the unit at
//! context switches, so it sees orderings the single-program pipeline
//! never produces: retry flushes back-to-back, machine checks adjacent to
//! flush points, and a switch flush between two programs' traces. Each
//! test drives a unit directly, the way a host does, and checks its
//! counters and cache contents.

#![allow(clippy::unwrap_used)]

use itr_core::{Associativity, ItrCacheConfig, ItrConfig, ItrMode, ItrRobIndex, ItrUnit};
use itr_isa::{DecodeSignals, Instruction, Opcode};

fn sig(inst: &Instruction) -> DecodeSignals {
    DecodeSignals::from_instruction(inst)
}

fn add_sig() -> DecodeSignals {
    sig(&Instruction::rrr(Opcode::Add, 1, 2, 3))
}

fn branch_sig() -> DecodeSignals {
    sig(&Instruction::branch(Opcode::Bne, 1, 2, -2))
}

fn small_config() -> ItrConfig {
    ItrConfig {
        cache: ItrCacheConfig::new(64, Associativity::Ways(2)),
        max_trace_len: 16,
        rob_entries: 8,
        mode: ItrMode::Active,
        ..ItrConfig::paper_default()
    }
}

/// Direct-drive harness mirroring what the pipeline host does.
struct Host {
    unit: ItrUnit,
    window: Vec<(ItrRobIndex, bool)>,
}

impl Host {
    fn new() -> Host {
        Host { unit: ItrUnit::new(small_config()), window: Vec::new() }
    }

    fn dispatch(&mut self, pc: u64, s: &DecodeSignals) {
        let r = self.unit.on_dispatch(pc, s);
        self.window.push((r.trace_seq, r.trace_end));
    }

    /// Dispatches one three-instruction trace at `base` and commits it.
    fn run_trace(&mut self, base: u64) {
        self.dispatch(base, &add_sig());
        self.dispatch(base + 4, &add_sig());
        self.dispatch(base + 8, &branch_sig());
        for (seq, end) in self.window.drain(..) {
            if end {
                self.unit.on_trace_end_commit(seq);
            }
        }
    }

    fn full_flush(&mut self) {
        self.unit.on_full_flush();
        self.window.clear();
    }

    fn retry_flush(&mut self, start_pc: u64) {
        self.unit.on_retry_flush(start_pc);
        self.window.clear();
    }
}

#[test]
fn machine_check_ordering_around_flush_points() {
    // An abort raised at the switch boundary: machine check before the
    // flush (host aborts, OS flushes) and a later one with no flush
    // after it. Both count.
    let mut h = Host::new();
    h.run_trace(0x100);
    h.unit.on_machine_check(0x100);
    h.full_flush();
    h.run_trace(0x100);
    h.unit.on_machine_check(0x100);
    assert_eq!(h.unit.stats().machine_checks, 2);
}

#[test]
fn back_to_back_retry_flushes_count_twice() {
    // Two retries without a committed trace in between (the second
    // mismatch surfaces during the first retry's refetch): neither is
    // lost nor double-counted.
    let mut h = Host::new();
    h.run_trace(0x100);
    h.dispatch(0x100, &add_sig());
    h.retry_flush(0x100);
    h.retry_flush(0x100);
    h.run_trace(0x100);
    assert_eq!(h.unit.stats().retries, 2);
}

#[test]
fn switch_flush_between_programs_preserves_cache_contents() {
    // The defining property of pollute-on-switch interleaving: a full
    // flush clears in-flight state but NOT the ITR cache, so program A's
    // lines survive program B's quantum and still hit afterwards.
    let mut h = Host::new();
    h.run_trace(0x100); // program A: miss, insert
    h.full_flush(); // switch to B
    h.run_trace(0x8100); // program B: its own miss
    h.full_flush(); // switch back to A
    h.run_trace(0x100); // A's line still resident: hit
    assert!(h.unit.cache().peek(0x100).is_some());
    assert!(h.unit.cache().peek(0x8100).is_some());
    assert_eq!(h.unit.cache().stats().hits, 1);
}
