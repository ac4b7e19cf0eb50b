//! Mid-execution architectural snapshots, built by replaying a recorded
//! commit prefix.
//!
//! A [`SimSnapshot`] is the architectural effect of the first `n`
//! committed instructions of a run: registers, resume PC, and the memory
//! words the prefix stored to. A [`CommitRecord`] stream encodes that
//! effect completely (destination writes, stores, the next-PC chain), so
//! [`snapshot_at`] builds every snapshot by replaying a recorded prefix —
//! the fuzzer's start states cut from an [`Execution`](crate::Execution)
//! at trace boundaries, the recovery engine's §2.3 checkpoints cut from
//! the golden commit stream, and the two states a fuzz divergence report
//! diffs — instead of stepping a live simulator.
//!
//! Restoring a snapshot with [`FuncSim::from_snapshot`] reproduces the
//! original run's commit stream from the capture point onward. When the
//! prefix ends at a trace boundary, a fresh
//! [`TraceBuilder`](itr_core::TraceBuilder) started at the resume PC also
//! re-forms exactly the traces the original run formed after it, because
//! trace identity is a pure function of the committed PC/signal stream.

use crate::arch::{CommitRecord, NUM_ARCH_REGS};
use crate::func::FuncSim;
use crate::mem::Memory;
use itr_isa::Program;
use std::collections::BTreeSet;

/// Frozen architectural state after a committed prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    /// Resume PC (the first instruction *not* yet executed).
    pub pc: u64,
    /// All 65 architectural registers (32 int + 32 FP + FCC).
    pub regs: [u32; NUM_ARCH_REGS],
    /// Words the prefix stored to, with their current values:
    /// `(word-aligned address, value)`, sorted by address.
    pub mem_delta: Vec<(u64, u32)>,
    /// Instructions executed before the capture point.
    pub instrs: u64,
    /// `true` when the run stored into the text segment before the
    /// capture point (self-modifying code). Such snapshots restore
    /// correctly here, but cannot be materialized as fuzz start states
    /// (the store-safety invariant forbids text writes).
    pub touches_text: bool,
}

/// Replays `records` — a commit prefix of a run of `program` — from the
/// program's initial state and freezes the result: the architectural
/// snapshot covering exactly that prefix.
pub fn snapshot_at(program: &Program, records: &[CommitRecord]) -> SimSnapshot {
    // Seed from a fresh FuncSim so the ABI setup (stack pointer) is the
    // one every simulator starts from.
    let mut arch = FuncSim::new(program).arch().clone();
    let mut mem = Memory::with_program(program);
    let mut dirty = BTreeSet::new();
    let text_base = program.text_base();
    let text_end = text_base + program.text().len() as u64 * 4;
    let mut touches_text = false;
    for r in records {
        if let Some((reg, value)) = r.dst {
            // r0 stays zero even when a faulty record names it.
            arch.set_reg(reg, value);
        }
        if let Some((addr, size, value)) = r.store {
            let span = size.max(1) as u64;
            mem.write(addr, size, value);
            dirty.insert(addr & !3);
            dirty.insert((addr + span - 1) & !3);
            touches_text |= addr < text_end && addr + span > text_base;
        }
    }
    SimSnapshot {
        pc: records.last().map_or(program.entry(), |r| r.next_pc),
        regs: *arch.regs(),
        mem_delta: dirty.iter().map(|&a| (a, mem.read_u32(a))).collect(),
        instrs: records.len() as u64,
        touches_text,
    }
}

impl FuncSim {
    /// Reconstructs a simulator mid-execution from a snapshot of a run
    /// of the *same* `program`: fresh image, memory delta re-applied
    /// (invalidating any predecoded words it overwrites), registers and
    /// PC restored. The resumed run commits exactly what the original
    /// run committed after the capture point. Output text produced
    /// before the capture point is not part of the snapshot; the resumed
    /// run's output is the post-capture suffix only.
    pub fn from_snapshot(program: &Program, snap: &SimSnapshot) -> FuncSim {
        let mut sim = FuncSim::new(program);
        for &(addr, word) in &snap.mem_delta {
            sim.write_word(addr, word);
        }
        for (idx, &value) in snap.regs.iter().enumerate() {
            sim.arch_mut().set_reg(idx as u16, value);
        }
        sim.arch_mut().pc = snap.pc;
        sim.set_instr_count(snap.instrs);
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::StopReason;
    use crate::Execution;
    use itr_core::{TraceBuilder, TraceRecord, MAX_TRACE_LEN};
    use itr_isa::asm::assemble;
    use itr_workloads::kernels;

    fn looped_program() -> Program {
        assemble(
            r#"
            .data
            acc: .word 0
            .text
            main:
                li r8, 24
                la r9, acc
            top:
                lw r10, 0(r9)
                add r10, r10, r8
                sw r10, 0(r9)
                andi r11, r8, 3
                mtc1 r11, f2
                addi r8, r8, -1
                bgtz r8, top
                lw r4, 0(r9)
                trap 1
                halt
            "#,
        )
        .expect("assembles")
    }

    /// Resumes from `snap` and checks the resumed commit stream against
    /// `reference`, the original run's records from `snap.instrs` on.
    fn resumes_exactly(program: &Program, snap: &SimSnapshot, reference: &[CommitRecord]) -> bool {
        let mut sim = FuncSim::from_snapshot(program, snap);
        let (records, _) = sim.run_collect(reference.len() as u64);
        records == reference
    }

    /// The commit-prefix length that ends at the `n`-th formed trace.
    fn prefix_of_traces(traces: &[TraceRecord], n: u64) -> usize {
        traces[..n as usize].iter().map(|t| t.len as usize).sum()
    }

    #[test]
    fn roundtrip_matches_from_scratch_run() {
        let p = looped_program();
        let exec = Execution::record(&p, 100_000);
        assert_eq!(exec.stop, StopReason::Halted);
        let traces = exec.traces(100_000, MAX_TRACE_LEN);
        let total = traces.len() as u64;
        assert!(total > 6, "loop forms many traces, got {total}");

        for at in [2, total / 2, total - 1] {
            let cut = prefix_of_traces(&traces, at);
            let snap = snapshot_at(&p, &exec.records[..cut]);
            assert!(!snap.touches_text);
            assert!(
                resumes_exactly(&p, &snap, &exec.records[cut..]),
                "resume at trace {at} must replay the golden suffix"
            );
        }
    }

    #[test]
    fn resumed_trace_stream_matches_suffix() {
        let p = looped_program();
        let exec = Execution::record(&p, 100_000);
        let full = exec.traces(100_000, MAX_TRACE_LEN);
        let at = full.len() as u64 / 2;
        let snap = snapshot_at(&p, &exec.records[..prefix_of_traces(&full, at)]);

        // A fresh builder at the resume point re-forms the remaining
        // traces exactly (capture is at a formation boundary).
        let mut sim = FuncSim::from_snapshot(&p, &snap);
        let mut builder = TraceBuilder::new(MAX_TRACE_LEN);
        let mut resumed = Vec::new();
        while let Some(step) = sim.step() {
            if let Some(t) = builder.push(step.record.pc, &step.signals) {
                resumed.push(t);
            }
        }
        assert_eq!(&full[at as usize..], &resumed[..]);
    }

    #[test]
    fn mem_delta_is_sorted_and_minimal() {
        let p = looped_program();
        let exec = Execution::record(&p, 100_000);
        let traces = exec.traces(100_000, MAX_TRACE_LEN);
        let snap = snapshot_at(&p, &exec.records[..prefix_of_traces(&traces, 3)]);
        assert!(snap.mem_delta.windows(2).all(|w| w[0].0 < w[1].0), "sorted by address");
        for &(addr, _) in &snap.mem_delta {
            assert_eq!(addr & 3, 0, "word aligned");
        }
        assert!(!snap.mem_delta.is_empty(), "the accumulator store is visible");
    }

    #[test]
    fn self_modifying_run_is_flagged() {
        let p = assemble(
            r#"
            main:
                la r8, patch
                lw r9, 0(r8)
                sw r9, 4(r8)
            patch:
                addi r10, r10, 1
                addi r10, r10, 2
                halt
            "#,
        )
        .expect("assembles");
        let exec = Execution::record(&p, 1_000);
        let traces = exec.traces(1_000, MAX_TRACE_LEN);
        assert!(!traces.is_empty());
        let snap = snapshot_at(&p, &exec.records[..prefix_of_traces(&traces, 1)]);
        assert!(snap.touches_text, "text store must be flagged");
    }

    #[test]
    fn shadow_snapshot_resumes_exactly_at_arbitrary_prefixes() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let mut sim = FuncSim::new(&p);
        let (records, stop) = sim.run_collect(200_000);
        assert_eq!(stop, StopReason::Halted);
        for cut in [1usize, 7, records.len() / 2, records.len() - 1] {
            let snap = snapshot_at(&p, &records[..cut]);
            assert_eq!(snap.instrs, cut as u64);
            assert!(
                resumes_exactly(&p, &snap, &records[cut..]),
                "resume at commit {cut} must replay the suffix"
            );
        }
    }

    #[test]
    fn shadow_mem_delta_is_sorted_word_aligned() {
        let p = assemble(kernels::BUBBLE_SORT.source).unwrap();
        let mut sim = FuncSim::new(&p);
        let (records, _) = sim.run_collect(50_000);
        let snap = snapshot_at(&p, &records[..records.len() / 2]);
        assert!(snap.mem_delta.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(snap.mem_delta.iter().all(|&(a, _)| a & 3 == 0));
        assert!(!snap.mem_delta.is_empty(), "sorting stores are visible");
    }

    #[test]
    fn zero_register_writes_are_discarded() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        let write_r0 = CommitRecord {
            pc: p.entry(),
            dst: Some((0, 0xDEAD_BEEF)),
            store: None,
            next_pc: p.entry() + 4,
        };
        assert_eq!(snapshot_at(&p, &[write_r0]).regs[0], 0);
    }

    #[test]
    fn text_stores_are_flagged() {
        let p = assemble(kernels::SUM_LOOP.source).unwrap();
        assert!(!snapshot_at(&p, &[]).touches_text);
        let text_store = CommitRecord {
            pc: p.entry(),
            dst: None,
            store: Some((p.text_base(), 4, 0)),
            next_pc: p.entry() + 4,
        };
        assert!(snapshot_at(&p, &[text_store]).touches_text);
    }
}
