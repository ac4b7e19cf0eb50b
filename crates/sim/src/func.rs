//! Fast in-order functional simulator.
//!
//! Serves three roles in the reproduction:
//!
//! * **golden runs** for the fault-injection study (§4): the committed
//!   stream of a fault-free execution to compare the faulty pipeline
//!   against,
//! * **trace-stream extraction** for the repetition characterization
//!   (Figures 1–4) and the coverage design-space study (Figures 6–7),
//! * **workload validation** and pipeline equivalence testing.

use crate::arch::{ArchState, CommitRecord};
use crate::mem::Memory;
use crate::semantics::{execute, operand_plan, ExecInput, TrapAction};
use itr_core::{TraceBuilder, TraceRecord, MAX_TRACE_LEN};
use itr_isa::{decode, DecodeSignals, Instruction, Program};

/// Why a functional run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// `trap HALT` committed.
    Halted,
    /// `trap ABORT` committed, with the failure code.
    Aborted(u32),
    /// Fetched a word that does not decode (runaway control flow).
    DecodeError(u64),
    /// The instruction budget was exhausted.
    InstrLimit,
}

/// One architecturally executed instruction.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// The instruction's architectural effect.
    pub record: CommitRecord,
    /// Its decode signals (always fault-free here).
    pub signals: DecodeSignals,
}

/// One predecoded text word (see [`FuncSim::new`]).
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// The word was overwritten by a store; re-decode on next fetch.
    Stale,
    /// The word does not decode; fetching it stops the run.
    Undecodable,
    /// Cached decode result.
    Decoded(Instruction, DecodeSignals),
}

fn decode_slot(word: u32) -> Slot {
    match decode(word) {
        Ok(inst) => Slot::Decoded(inst, DecodeSignals::from_instruction(&inst)),
        Err(_) => Slot::Undecodable,
    }
}

/// The functional simulator.
#[derive(Debug, Clone)]
pub struct FuncSim {
    arch: ArchState,
    mem: Memory,
    output: String,
    stopped: Option<StopReason>,
    instrs: u64,
    /// Predecoded image of the text segment: decoding is a pure function
    /// of the word, so it is done once at load (mirroring `itr-analyze`'s
    /// `ProgramImage`) instead of on every fetch. Stores into the text
    /// segment mark the overwritten words [`Slot::Stale`].
    text_base: u64,
    decoded: Vec<Slot>,
}

impl FuncSim {
    /// Loads a program and prepares to execute from its entry point with
    /// the stack pointer at the conventional top of stack. The text
    /// segment is predecoded here, once.
    pub fn new(program: &Program) -> FuncSim {
        let mut arch = ArchState::new(program.entry());
        arch.set_int_reg(29, itr_isa::STACK_TOP as u32);
        FuncSim {
            arch,
            mem: Memory::with_program(program),
            output: String::new(),
            stopped: None,
            instrs: 0,
            text_base: program.text_base(),
            decoded: program.text().iter().map(|&word| decode_slot(word)).collect(),
        }
    }

    /// Current architectural state.
    pub fn arch(&self) -> &ArchState {
        &self.arch
    }

    /// Mutable architectural state (snapshot restore).
    pub(crate) fn arch_mut(&mut self) -> &mut ArchState {
        &mut self.arch
    }

    /// Writes one aligned word, invalidating any predecoded text word it
    /// overwrites (snapshot restore).
    pub(crate) fn write_word(&mut self, addr: u64, word: u32) {
        self.mem.write(addr, 4, word);
        self.invalidate(addr, 4);
    }

    /// Overrides the executed-instruction counter (snapshot restore).
    pub(crate) fn set_instr_count(&mut self, n: u64) {
        self.instrs = n;
    }

    /// Memory contents.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Text produced by `trap PUT_INT`/`PUT_CHAR`.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Instructions executed so far.
    pub fn instr_count(&self) -> u64 {
        self.instrs
    }

    /// The stop reason, once stopped.
    pub fn stopped(&self) -> Option<StopReason> {
        self.stopped
    }

    /// Fetches the decoded instruction at `pc`: from the predecoded image
    /// for aligned text-segment fetches (the overwhelmingly common case),
    /// decoding from memory otherwise (runaway control flow in the
    /// nop ribbon, unaligned `jr` targets, data-segment fetches).
    fn fetch(&mut self, pc: u64) -> Option<(Instruction, DecodeSignals)> {
        if pc >= self.text_base && (pc - self.text_base).is_multiple_of(4) {
            let index = ((pc - self.text_base) / 4) as usize;
            if index < self.decoded.len() {
                if matches!(self.decoded[index], Slot::Stale) {
                    self.decoded[index] = decode_slot(self.mem.read_u32(pc));
                }
                return match self.decoded[index] {
                    Slot::Decoded(inst, signals) => Some((inst, signals)),
                    _ => None,
                };
            }
        }
        let inst = decode(self.mem.read_u32(pc)).ok()?;
        let signals = DecodeSignals::from_instruction(&inst);
        Some((inst, signals))
    }

    /// Marks predecoded words overwritten by a store as stale
    /// (self-modifying code writes through the same [`Memory`] the
    /// predecoded image was built from).
    fn invalidate(&mut self, addr: u64, size: u8) {
        let text_end = self.text_base + self.decoded.len() as u64 * 4;
        let end = addr + size.min(4) as u64;
        if end <= self.text_base || addr >= text_end {
            return;
        }
        let first = (addr.max(self.text_base) - self.text_base) / 4;
        let last = ((end - 1).min(text_end - 1) - self.text_base) / 4;
        for index in first..=last {
            self.decoded[index as usize] = Slot::Stale;
        }
    }

    /// Executes one instruction; `None` once the simulator has stopped.
    // Inlined so the recording loop in `Execution::record`, which may sit
    // in another codegen unit, runs without a call per instruction.
    #[inline]
    pub fn step(&mut self) -> Option<Step> {
        if self.stopped.is_some() {
            return None;
        }
        let pc = self.arch.pc;
        let Some((inst, signals)) = self.fetch(pc) else {
            self.stopped = Some(StopReason::DecodeError(pc));
            return None;
        };
        let plan = operand_plan(&signals);
        let src = |o: Option<u16>| o.map_or(0, |r| self.arch.reg(r));
        let out = execute(
            ExecInput {
                sig: &signals,
                pc,
                raw_jump_target: inst.direct_target(pc),
                src1: src(plan.srcs[0]),
                src2: src(plan.srcs[1]),
            },
            &self.mem,
        );
        let mut record = CommitRecord { pc, dst: None, store: None, next_pc: out.next_pc };
        if let Some(dst) = plan.dst {
            self.arch.set_reg(dst, out.value);
            record.dst = Some((dst, out.value));
        }
        if let Some(store) = out.store {
            self.mem.write(store.addr, store.size, store.value);
            self.invalidate(store.addr, store.size);
            record.store = Some((store.addr, store.size, store.value));
        }
        if let Some(trap) = out.trap {
            match trap {
                TrapAction::Halt => self.stopped = Some(StopReason::Halted),
                TrapAction::Abort(code) => self.stopped = Some(StopReason::Aborted(code)),
                TrapAction::PutInt(v) => self.output.push_str(&(v as i32).to_string()),
                TrapAction::PutChar(c) => self.output.push(c as char),
                TrapAction::Nop => {}
            }
        }
        self.arch.pc = out.next_pc;
        self.instrs += 1;
        Some(Step { record, signals })
    }

    /// Runs until stop or until `max_instrs` more instructions execute.
    pub fn run(&mut self, max_instrs: u64) -> StopReason {
        for _ in 0..max_instrs {
            if self.step().is_none() {
                return self.stopped.expect("stopped set when step yields None");
            }
        }
        *self.stopped.get_or_insert(StopReason::InstrLimit)
    }

    /// Runs like [`run`](Self::run) while collecting every commit record
    /// (used to build golden streams).
    pub fn run_collect(&mut self, max_instrs: u64) -> (Vec<CommitRecord>, StopReason) {
        let mut records = Vec::new();
        for _ in 0..max_instrs {
            match self.step() {
                Some(step) => records.push(step.record),
                None => {
                    let reason = self.stopped.unwrap_or(StopReason::InstrLimit);
                    return (records, reason);
                }
            }
        }
        let reason = *self.stopped.get_or_insert(StopReason::InstrLimit);
        (records, reason)
    }
}

/// Streams committed [`TraceRecord`]s from a program execution — the raw
/// material of the paper's Figures 1–4 and the coverage studies.
#[derive(Debug, Clone)]
pub struct TraceStream {
    sim: FuncSim,
    builder: TraceBuilder,
    budget: u64,
}

impl TraceStream {
    /// Streams traces from `program` for at most `max_instrs` dynamic
    /// instructions, using the paper's 16-instruction trace limit.
    pub fn new(program: &Program, max_instrs: u64) -> TraceStream {
        TraceStream::with_trace_len(program, max_instrs, MAX_TRACE_LEN)
    }

    /// Streams traces with a non-default length limit (used by the
    /// trace-length ablation).
    pub fn with_trace_len(program: &Program, max_instrs: u64, max_len: u32) -> TraceStream {
        TraceStream {
            sim: FuncSim::new(program),
            builder: TraceBuilder::new(max_len),
            budget: max_instrs,
        }
    }

    /// The underlying simulator (e.g. for output inspection afterwards).
    pub fn sim(&self) -> &FuncSim {
        &self.sim
    }
}

impl Iterator for TraceStream {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        while self.budget > 0 {
            self.budget -= 1;
            let step = self.sim.step()?;
            if let Some(trace) = self.builder.push(step.record.pc, &step.signals) {
                return Some(trace);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::asm::assemble;

    fn run_program(src: &str) -> FuncSim {
        let p = assemble(src).expect("assembles");
        let mut sim = FuncSim::new(&p);
        let reason = sim.run(1_000_000);
        assert_eq!(reason, StopReason::Halted, "program must halt; output={}", sim.output());
        sim
    }

    #[test]
    fn arithmetic_loop_sums() {
        let sim = run_program(
            r#"
            main:
                li r8, 100
                li r9, 0
            top:
                add r9, r9, r8
                addi r8, r8, -1
                bgtz r8, top
                halt
            "#,
        );
        assert_eq!(sim.arch().int_reg(9), 5050);
    }

    #[test]
    fn memory_and_output() {
        let sim = run_program(
            r#"
            .data
            arr: .word 3, 1, 4, 1, 5
            .text
            main:
                la r8, arr
                li r9, 5
                li r10, 0
            loop:
                lw r11, 0(r8)
                add r10, r10, r11
                addi r8, r8, 4
                addi r9, r9, -1
                bgtz r9, loop
                move r4, r10
                trap 1
                halt
            "#,
        );
        assert_eq!(sim.output(), "14");
    }

    #[test]
    fn function_call_and_return() {
        let sim = run_program(
            r#"
            main:
                li r4, 10
                jal square
                move r9, r2
                halt
            square:
                mul r2, r4, r4
                jr ra
            "#,
        );
        assert_eq!(sim.arch().int_reg(9), 100);
    }

    #[test]
    fn fp_computation() {
        let sim = run_program(
            r#"
            main:
                li r8, 3
                mtc1 r8, f0
                cvt.s.w f0, f0
                li r8, 4
                mtc1 r8, f1
                cvt.s.w f1, f1
                mul.s f2, f0, f0
                mul.s f3, f1, f1
                add.s f4, f2, f3
                sqrt.s f5, f4
                cvt.w.s f6, f5
                mfc1 r9, f6
                halt
            "#,
        );
        assert_eq!(sim.arch().int_reg(9), 5, "3-4-5 triangle");
    }

    #[test]
    fn abort_is_reported() {
        let p = assemble("main:\n li r4, 7\n trap 3\n").unwrap();
        let mut sim = FuncSim::new(&p);
        assert_eq!(sim.run(100), StopReason::Aborted(7));
    }

    #[test]
    fn decode_error_stops_cleanly() {
        // Jump into the data segment (zeros decode as nop/sll, so jump to
        // an undefined-major word instead).
        let p =
            assemble(".data\nbad: .word 0xF8000000\n.text\nmain:\n la r8, bad\n jr r8\n").unwrap();
        let mut sim = FuncSim::new(&p);
        match sim.run(100) {
            StopReason::DecodeError(_) => {}
            other => panic!("expected decode error, got {other:?}"),
        }
    }

    #[test]
    fn instruction_budget_limits_run() {
        let p = assemble("main:\n j main\n").unwrap();
        let mut sim = FuncSim::new(&p);
        assert_eq!(sim.run(500), StopReason::InstrLimit);
        assert_eq!(sim.instr_count(), 500);
    }

    #[test]
    fn trace_stream_yields_expected_traces() {
        let p = assemble(
            r#"
            main:
                li r8, 3
            top:
                addi r8, r8, -1
                bgtz r8, top
                halt
            "#,
        )
        .unwrap();
        let traces: Vec<_> = TraceStream::new(&p, 10_000).collect();
        // Trace 1: li + addi + bgtz (starts at main). Traces 2..: the loop
        // body (addi+bgtz) twice more, then the halt trap trace.
        assert_eq!(traces.len(), 4);
        assert_eq!(traces[0].len, 3);
        assert_eq!(traces[1].len, 2);
        assert_eq!(traces[1].start_pc, traces[2].start_pc);
        assert_eq!(traces[1].signature, traces[2].signature);
        assert_eq!(traces[3].len, 1, "halt trap is its own trace");
    }

    #[test]
    fn self_modifying_store_invalidates_predecoded_word() {
        // Overwrite the `addi r9, r9, 1` at `patch:` with the (never
        // executed) `addi r9, r9, 7` at `donor:`, then run through it:
        // the predecoded image must serve the *new* instruction.
        let sim = run_program(
            r#"
            main:
                li r9, 0
                la r8, donor
                lw r10, 0(r8)
                la r11, patch
                sw r10, 0(r11)
            patch:
                addi r9, r9, 1
                halt
            donor:
                addi r9, r9, 7
            "#,
        );
        assert_eq!(sim.arch().int_reg(9), 7, "patched instruction must execute");
    }

    #[test]
    fn trace_identity_is_start_pc() {
        // Same start PC must always produce the same signature in a
        // fault-free run (static trace property from §1 of the paper).
        let p = assemble(
            r#"
            main:
                li r8, 50
                li r9, 0
            top:
                andi r10, r8, 1
                beq r10, r0, even
                addi r9, r9, 3
                j next
            even:
                addi r9, r9, 5
            next:
                addi r8, r8, -1
                bgtz r8, top
                halt
            "#,
        )
        .unwrap();
        use std::collections::BTreeMap;
        let mut sigs: BTreeMap<u64, u64> = BTreeMap::new();
        for t in TraceStream::new(&p, 100_000) {
            let prev = sigs.insert(t.start_pc, t.signature);
            if let Some(prev) = prev {
                assert_eq!(prev, t.signature, "trace at {:#x} changed signature", t.start_pc);
            }
        }
        assert!(sigs.len() >= 4, "several static traces exist");
    }
}
