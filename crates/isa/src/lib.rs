//! # itr-isa — the `rISA` instruction set
//!
//! A 32-bit, MIPS/PISA-like RISC instruction set used as the substrate for
//! the ITR (Inherent Time Redundancy) reproduction. The crate provides:
//!
//! * [`Opcode`] — the full operation list with static properties
//!   (latency class, operand counts, control flags),
//! * [`Instruction`] — a decoded instruction record,
//! * binary [`encode`]/[`decode`] to/from 32-bit words,
//! * [`DecodeSignals`] — the 64-bit decode-unit output vector replicated
//!   field-for-field from Table 2 of the DSN 2007 ITR paper; this is the
//!   value that ITR signatures are folded over and that transient faults
//!   are injected into,
//! * a two-pass [assembler](asm) and a [disassembler](disasm),
//! * [`Program`] — an assembled memory image plus a programmatic
//!   [`ProgramBuilder`] used by workload
//!   generators.
//!
//! # Example
//!
//! ```
//! use itr_isa::{asm::assemble, DecodeSignals};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble(
//!     r#"
//!     .text
//!     main:
//!         li   r8, 5
//!         addi r9, r8, 37
//!         halt
//!     "#,
//! )?;
//! let first = program.instruction_at(program.entry()).unwrap();
//! let signals = DecodeSignals::from_instruction(&first);
//! assert_eq!(signals.pack().count_ones() > 0, true);
//! # Ok(())
//! # }
//! ```

// Tests opt back out of the workspace `unwrap_used` deny: panicking on
// a broken expectation is exactly what a test should do.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod asm;
pub mod disasm;
mod encode;
mod instruction;
mod opcode;
mod program;
mod reg;
mod signals;

pub use encode::{decode, encode, DecodeError};
pub use instruction::Instruction;
pub use opcode::{Format, LatClass, Opcode, Syntax};
pub use program::{
    BuildError, Program, ProgramBuilder, SegmentKind, DATA_BASE, STACK_TOP, TEXT_BASE,
};
pub use reg::Reg;
pub use signals::{
    BitOutOfRange, DecodeSignals, SignalField, SignalFlags, SIGNAL_FIELDS, TOTAL_SIGNAL_BITS,
};

/// Size of one instruction word in bytes.
pub const INSTRUCTION_BYTES: u64 = 4;

/// Number of architectural integer registers (`r0` is hardwired to zero).
pub const NUM_INT_REGS: usize = 32;

/// Number of architectural floating-point registers.
pub const NUM_FP_REGS: usize = 32;

/// Trap codes carried in the immediate field of [`Opcode::Trap`].
pub mod trap {
    /// Terminate the program successfully.
    pub const HALT: u16 = 0;
    /// Print the integer in `r4` (a simulator service, not a fault).
    pub const PUT_INT: u16 = 1;
    /// Print the low byte of `r4` as a character.
    pub const PUT_CHAR: u16 = 2;
    /// Abort the program with the failure code in `r4`.
    pub const ABORT: u16 = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over little-endian `u64`s.
    struct Fnv(u64);

    impl Fnv {
        fn u64(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }

        fn str(&mut self, s: &str) {
            self.u64(s.len() as u64);
            s.bytes().for_each(|b| self.u64(u64::from(b)));
        }
    }

    /// Pins everything decoding derives from an instruction word: for
    /// every `(major, funct)` pair under a fixed set of `rs/rt/rd/shamt`
    /// (and so `imm`) bit patterns, `decode`'s result, the packed
    /// decode signals, the re-encoded word, the direct target, every
    /// opcode predicate and every [`Opcode::props`] field. The constant
    /// was generated before the opcode table was restructured and must
    /// never change.
    #[test]
    fn decode_table_is_pinned() {
        const FIELDS: [u32; 8] =
            [0, 0xF_FFFF, 0x5_5555, 0xA_AAAA, 0x0_0001, 0x8_0000, 0x1_2345, 0xF_0F0F];
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        for major in 0..64u32 {
            for funct in 0..64u32 {
                for fields in FIELDS {
                    let word = (major << 26) | (fields << 6) | funct;
                    let Ok(inst) = decode(word) else {
                        h.u64(u64::from(word) | 1 << 40);
                        continue;
                    };
                    let op = inst.op;
                    let p = op.props();
                    h.u64(u64::from(op.id()));
                    for v in [inst.rs, inst.rt, inst.rd, inst.shamt] {
                        h.u64(u64::from(v));
                    }
                    h.u64(inst.imm as u64);
                    h.u64(DecodeSignals::from_instruction(&inst).pack());
                    h.u64(u64::from(encode(&inst)));
                    h.u64(inst.direct_target(0x0040_1000).unwrap_or(u64::MAX));
                    for b in [op.ends_trace(), op.is_cond_branch(), op.is_load(), op.is_store()] {
                        h.u64(u64::from(b));
                    }
                    h.str(op.mnemonic());
                    h.str(p.mnemonic);
                    h.u64(u64::from(p.major));
                    h.u64(p.funct.map_or(u64::MAX, u64::from));
                    h.str(&format!("{:?} {:?}", p.format, p.syntax));
                    h.u64(u64::from(p.flags.bits()));
                    h.u64(u64::from(p.lat.encode()));
                    for v in [p.num_rsrc, p.num_rdst, p.mem_size] {
                        h.u64(u64::from(v));
                    }
                }
            }
        }
        assert_eq!(h.0, 0xa75a_019c_259a_e694, "decode digest moved: {:#018x}", h.0);
    }
}
