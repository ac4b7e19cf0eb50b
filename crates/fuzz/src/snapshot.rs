//! Snapshot start-states: materializing a mid-execution [`SimSnapshot`]
//! into a plain, self-contained [`FuzzCase`].
//!
//! Whole-program mutants spend most of their budget re-executing warm-up
//! code before reaching the loop bodies where the ITR machinery actually
//! works. A snapshot case skips the warm-up: the original text is kept
//! at its original addresses and a **restore prologue** is appended
//! after it, with the entry point moved to the prologue:
//!
//! ```text
//! [ original text … ][ restore prologue … j <snapshot pc> ]
//!                     ^ entry
//! ```
//!
//! The prologue rebuilds the captured architectural state in an order
//! that never reads a register before restoring it:
//!
//! 1. **FCC** via `c.eq.s f0, f0` while `f0` is still zero (`0.0 == 0.0`
//!    is true regardless of later FP restores — and doing it first avoids
//!    comparing restored registers that may hold NaN bits);
//! 2. **memory delta** — each word that differs from the fresh program
//!    image is stored through scratch registers `r9` (address) and `r8`
//!    (value);
//! 3. **FP registers** — bits loaded into `r8`, then `mtc1`;
//! 4. **integer registers** — each restored self-contained via
//!    `lui`+`addi` (always including `r29`, which the simulators
//!    initialize to the stack top, so a snapshot value of zero is
//!    restored too);
//! 5. a direct `j` to the snapshot PC.
//!
//! Because the original instructions keep their addresses, the resumed
//! execution commits exactly the original run's post-capture suffix, and
//! re-forms its traces — the materialized case is an ordinary `FuzzCase`
//! that every oracle, the shrinker and the JSON codec handle unchanged.
//!
//! The result deliberately does **not** go through [`crate::gen::sanitize`]:
//! the prologue's absolute-address stores replay only words the original
//! run itself wrote (and text-dirty snapshots are rejected), so the
//! store-safety invariant holds in spirit; sanitizing would repoint the
//! stores at the data-pointer register and break the restore. Mutants
//! *derived* from a snapshot case are sanitized as usual by the mutators.

use crate::case::FuzzCase;
use crate::mutate::MAX_TEXT;
use itr_core::MAX_TRACE_LEN;
use itr_isa::{Instruction, Opcode, TEXT_BASE};
use itr_sim::{snapshot_at, Execution, Memory, SimSnapshot};

/// Memory-delta budget: a snapshot dirtier than this many words would
/// blow the prologue (5 instructions per word) past what tight oracle
/// budgets can execute before reaching the interesting code.
pub const MAX_DELTA_WORDS: usize = 48;

/// Scratch registers the prologue loads through (restored afterwards by
/// the integer phase).
const SCRATCH_VAL: u8 = 8;
const SCRATCH_ADDR: u8 = 9;

/// Emits `dst = value` as `lui dst, hi'` + `addi dst, dst, lo`, where
/// `hi'` pre-compensates for `addi`'s sign-extending add when the low
/// half is ≥ 0x8000 (`ori` cannot be used: it ORs the *sign-extended*
/// immediate).
fn load_imm(dst: u8, value: u32, out: &mut Vec<Instruction>) {
    let lo = value & 0xFFFF;
    let mut hi = value >> 16;
    if lo >= 0x8000 {
        hi = (hi + 1) & 0xFFFF;
    }
    out.push(Instruction::rri(Opcode::Lui, dst, 0, hi as i32));
    out.push(Instruction::rri(Opcode::Addi, dst, dst, lo as i32));
}

/// Materializes `snap` (captured from a run of `case`) as a new
/// self-contained case entering at the restore prologue. Returns `None`
/// when the snapshot cannot be expressed safely: the run stored into its
/// own text, the resume PC falls outside the text segment, the memory
/// delta exceeds [`MAX_DELTA_WORDS`], or the combined case would exceed
/// the mutation engine's [`MAX_TEXT`].
pub fn materialize(case: &FuzzCase, snap: &SimSnapshot) -> Option<FuzzCase> {
    if snap.touches_text {
        return None;
    }
    let off = snap.pc.checked_sub(TEXT_BASE)?;
    if off % 4 != 0 || off / 4 >= case.text.len() as u64 {
        return None;
    }
    let resume_index = (off / 4) as u32;

    let mut pro = Vec::new();
    // 1. FCC first, while every FP register is still zero.
    if snap.regs[64] != 0 {
        pro.push(Instruction { op: Opcode::CEqS, rs: 0, rt: 0, rd: 0, shamt: 0, imm: 0 });
    }
    // 2. Memory delta, minus words that match the fresh image anyway.
    let image = Memory::with_program(&case.program());
    let dirty: Vec<(u64, u32)> =
        snap.mem_delta.iter().copied().filter(|&(a, w)| image.read_u32(a) != w).collect();
    if dirty.len() > MAX_DELTA_WORDS {
        return None;
    }
    for (addr, word) in dirty {
        let addr = u32::try_from(addr).ok()?;
        load_imm(SCRATCH_ADDR, addr, &mut pro);
        load_imm(SCRATCH_VAL, word, &mut pro);
        pro.push(Instruction::mem(Opcode::Sw, SCRATCH_VAL, SCRATCH_ADDR, 0));
    }
    // 3. FP registers (raw bits through mtc1; `mtc1 rt, fs` carries the
    //    integer source in `rt` and the FP destination in `rs`).
    for n in 0..32u8 {
        let bits = snap.regs[32 + n as usize];
        if bits != 0 {
            load_imm(SCRATCH_VAL, bits, &mut pro);
            pro.push(Instruction {
                op: Opcode::Mtc1,
                rs: n,
                rt: SCRATCH_VAL,
                rd: 0,
                shamt: 0,
                imm: 0,
            });
        }
    }
    // 4. Integer registers, ascending; r29 unconditionally (the
    //    simulators preset it to STACK_TOP, so even zero must be
    //    restored explicitly).
    for n in 1..32u8 {
        let v = snap.regs[n as usize];
        if v != 0 || n == 29 {
            load_imm(n, v, &mut pro);
        }
    }
    // 5. Jump into the original text at the resume point.
    pro.push(Instruction::jump(Opcode::J, ((TEXT_BASE >> 2) as u32) + resume_index));

    let entry = case.text.len() as u32;
    if case.text.len() + pro.len() > MAX_TEXT {
        return None;
    }
    let mut text = case.text.clone();
    text.append(&mut pro);
    let draft = FuzzCase { text, data: case.data.clone(), entry };
    // Normalize through the word codec so instruction fields are in
    // decode-canonical form (sign-extended immediates) — the form every
    // other case in the corpus uses, keeping equality and JSON
    // round-trips exact.
    FuzzCase::from_words(&draft.words(), &draft.data, entry).ok()
}

/// Captures up to `max_snaps` snapshots of `case` at evenly spaced
/// trace-formation points and materializes each. Short or snapshot-
/// hostile runs yield an empty vector. Fully deterministic: no RNG, and
/// capture points derive only from the case's own trace count.
///
/// The case runs once: its recorded [`Execution`] gives the trace count,
/// and each snapshot replays the commit prefix ending at its trace.
pub fn snapshot_cases(case: &FuzzCase, max_instrs: u64, max_snaps: usize) -> Vec<FuzzCase> {
    if max_snaps == 0 || case.text.is_empty() {
        return Vec::new();
    }
    let program = case.program();
    let exec = Execution::record(&program, max_instrs);
    let traces = exec.traces(max_instrs, MAX_TRACE_LEN);
    let total = traces.len() as u64;
    if total < 4 {
        return Vec::new();
    }
    let mut ordinals: Vec<u64> = (1..=max_snaps as u64)
        .map(|k| k * total / (max_snaps as u64 + 1))
        .filter(|&o| o >= 1 && o < total)
        .collect();
    ordinals.dedup();
    let snaps: Vec<SimSnapshot> = ordinals
        .iter()
        .map(|&n| {
            let prefix: usize = traces[..n as usize].iter().map(|t| t.len as usize).sum();
            snapshot_at(&program, &exec.records[..prefix])
        })
        .collect();
    drop(exec); // freed before the materialized cases are built
    snaps.iter().filter_map(|s| materialize(case, s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle::{self, OracleConfig};
    use itr_isa::Program;
    use itr_sim::FuncSim;
    use itr_stats::SplitMix64;

    /// A deterministic case with a real loop, FP state, stores and a
    /// halt — rich enough that snapshots carry every state class.
    fn loopy_case() -> FuzzCase {
        let src = r#"
            .data
            acc: .word 0
            .text
            main:
                li r8, 20
                la r9, acc
                li r29, 4096
            top:
                lw r10, 0(r9)
                add r10, r10, r8
                sw r10, 0(r9)
                andi r11, r8, 7
                mtc1 r11, f3
                cvt.s.w f3, f3
                c.lt.s f0, f3
                addi r8, r8, -1
                bgtz r8, top
                lw r4, 0(r9)
                trap 1
                halt
        "#;
        let p = itr_isa::asm::assemble(src).expect("assembles");
        FuzzCase::from_program(&p).expect("converts")
    }

    /// Snapshot of `program` at the trace boundary `pick(total traces)`.
    fn capture(program: &Program, pick: impl FnOnce(u64) -> u64) -> SimSnapshot {
        let exec = Execution::record(program, 100_000);
        let traces = exec.traces(100_000, MAX_TRACE_LEN);
        let n = pick(traces.len() as u64) as usize;
        let prefix: usize = traces[..n].iter().map(|t| t.len as usize).sum();
        snapshot_at(program, &exec.records[..prefix])
    }

    #[test]
    fn materialized_case_replays_the_suffix_exactly() {
        let case = loopy_case();
        let program = case.program();
        let snap = &capture(&program, |total| {
            assert!(total > 6);
            total / 2
        });
        let mat = materialize(&case, snap).expect("materializes");
        assert_eq!(mat.entry as usize, case.text.len());

        // Golden suffix: the original run's commits after the capture.
        let mut golden = FuncSim::new(&program);
        let (all, _) = golden.run_collect(100_000);
        let suffix = &all[snap.instrs as usize..];

        // The materialized run: prologue commits, then the suffix.
        let mut sim = FuncSim::new(&mat.program());
        let (records, stop) = sim.run_collect(100_000);
        let prologue_len = mat.text.len() - case.text.len();
        assert_eq!(&records[prologue_len..], suffix, "suffix must replay exactly");
        assert_eq!(stop, itr_sim::StopReason::Halted);
    }

    #[test]
    fn materialized_case_passes_every_oracle() {
        let case = loopy_case();
        let mats = snapshot_cases(&case, 100_000, 2);
        assert!(!mats.is_empty(), "loopy case must materialize");
        let cfg = OracleConfig::default();
        for m in &mats {
            let mut rng = SplitMix64::new(1);
            let eval = oracle::evaluate(m, &cfg, false, &mut rng);
            assert!(
                eval.findings.is_empty(),
                "materialized case must be oracle-clean: {:?}",
                eval.findings.iter().map(|f| &f.detail).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn materialization_is_deterministic_and_canonical() {
        let case = loopy_case();
        let a = snapshot_cases(&case, 100_000, 2);
        let b = snapshot_cases(&case, 100_000, 2);
        assert_eq!(a, b, "no RNG in the snapshot path");
        for m in &a {
            // Canonical form: the JSON round trip is exact.
            let v = m.to_value();
            let back = FuzzCase::from_value(&v).expect("parses");
            assert_eq!(&back, m);
        }
    }

    #[test]
    fn generated_cases_materialize_or_decline_gracefully() {
        let mut rng = SplitMix64::new(9);
        let mut materialized = 0;
        for _ in 0..12 {
            let case = gen::generate(&mut rng, 48);
            materialized += snapshot_cases(&case, 50_000, 1).len();
        }
        // Most generated cases contain counted loops; at least some must
        // materialize (the rest may be too short or trace-poor).
        assert!(materialized > 0, "no generated case materialized");
    }

    #[test]
    fn hostile_snapshots_are_rejected() {
        let case = loopy_case();
        let program = case.program();
        let snap = &capture(&program, |_| 2);
        // Text-dirty.
        let mut dirty = snap.clone();
        dirty.touches_text = true;
        assert!(materialize(&case, &dirty).is_none());
        // Resume PC outside text.
        let mut wild = snap.clone();
        wild.pc = TEXT_BASE + case.text.len() as u64 * 4 + 64;
        assert!(materialize(&case, &wild).is_none());
        // Oversized delta.
        let mut fat = snap.clone();
        fat.mem_delta = (0..MAX_DELTA_WORDS as u64 + 1)
            .map(|i| (itr_isa::DATA_BASE + 4096 + i * 4, 0xDEAD_0000 + i as u32))
            .collect();
        assert!(materialize(&case, &fat).is_none());
    }
}
