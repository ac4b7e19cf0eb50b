//! Decoded instruction record and convenience constructors.

use crate::opcode::Opcode;
use std::fmt;

/// A decoded `rISA` instruction.
///
/// Field meanings follow the MIPS convention (`rs`, `rt`, `rd`, `shamt`,
/// `imm`); which fields are live depends on [`Opcode::props`]. For J-format
/// instructions the 26-bit word target lives in `imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Operation.
    pub op: Opcode,
    /// `rs` field (5 bits) — usually the first source / base register.
    pub rs: u8,
    /// `rt` field (5 bits) — second source, store data, or I-format dest.
    pub rt: u8,
    /// `rd` field (5 bits) — R-format destination.
    pub rd: u8,
    /// Shift amount (5 bits).
    pub shamt: u8,
    /// Immediate: sign-extended I-format value, or 26-bit J-format word
    /// target (non-negative).
    pub imm: i32,
}

impl Instruction {
    /// Three-register ALU operation: `op rd, rs, rt`.
    pub fn rrr(op: Opcode, rd: u8, rs: u8, rt: u8) -> Instruction {
        Instruction { op, rs, rt, rd, shamt: 0, imm: 0 }
    }

    /// Register-immediate operation: `op rt, rs, imm`.
    pub fn rri(op: Opcode, rt: u8, rs: u8, imm: i32) -> Instruction {
        Instruction { op, rs, rt, rd: 0, shamt: 0, imm }
    }

    /// Memory access: `op rt, imm(rs)`.
    pub fn mem(op: Opcode, rt: u8, base: u8, offset: i32) -> Instruction {
        Instruction { op, rs: base, rt, rd: 0, shamt: 0, imm: offset }
    }

    /// Immediate shift: `op rd, rt, shamt`.
    pub fn shift(op: Opcode, rd: u8, rt: u8, shamt: u8) -> Instruction {
        Instruction { op, rs: 0, rt, rd, shamt: shamt & 0x1F, imm: 0 }
    }

    /// Conditional branch: `op rs, rt, word_offset` (offset relative to the
    /// instruction after the branch, in words).
    pub fn branch(op: Opcode, rs: u8, rt: u8, word_offset: i32) -> Instruction {
        Instruction { op, rs, rt, rd: 0, shamt: 0, imm: word_offset }
    }

    /// Absolute jump: `op word_target` (26-bit word address).
    pub fn jump(op: Opcode, word_target: u32) -> Instruction {
        Instruction { op, rs: 0, rt: 0, rd: 0, shamt: 0, imm: (word_target & 0x03FF_FFFF) as i32 }
    }

    /// Trap: `trap code`.
    pub fn trap(code: u16) -> Instruction {
        Instruction { op: Opcode::Trap, rs: 4, rt: 0, rd: 0, shamt: 0, imm: code as i32 }
    }

    /// `nop` — encoded as `sll r0, r0, 0`.
    pub fn nop() -> Instruction {
        Instruction::shift(Opcode::Sll, 0, 0, 0)
    }

    /// The raw 16-bit immediate field as carried in the decode signals.
    ///
    /// For J-format instructions only the low 16 bits of the 26-bit target
    /// enter the signal vector (Table 2 fixes `imm` at 16 bits); the full
    /// target still flows to the fetch unit through the instruction word.
    #[inline]
    pub fn imm_bits(&self) -> u16 {
        (self.imm as u32 & 0xFFFF) as u16
    }

    /// `true` if this instruction terminates an ITR trace.
    #[inline]
    pub fn ends_trace(&self) -> bool {
        self.op.ends_trace()
    }

    /// Branch target for direct branches, given the branch's own PC.
    ///
    /// Conditional branches are PC-relative (`pc + 4 + imm*4`); J-format
    /// jumps are absolute within the current 256 MiB segment.
    #[inline]
    pub fn direct_target(&self, pc: u64) -> Option<u64> {
        self.op.direct_target(self.imm, pc)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::disasm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_target_is_pc_relative() {
        let b = Instruction::branch(Opcode::Beq, 1, 2, 3);
        assert_eq!(b.direct_target(0x1000), Some(0x1000 + 4 + 12));
        let b = Instruction::branch(Opcode::Bne, 1, 2, -2);
        assert_eq!(b.direct_target(0x1000), Some(0x1000 + 4 - 8));
    }

    #[test]
    fn jump_target_is_segment_absolute() {
        let j = Instruction::jump(Opcode::J, 0x100);
        assert_eq!(j.direct_target(0x0040_0000), Some(0x400));
    }

    #[test]
    fn alu_has_no_direct_target() {
        assert_eq!(Instruction::rrr(Opcode::Add, 1, 2, 3).direct_target(0), None);
    }

    #[test]
    fn nop_is_sll_zero() {
        let n = Instruction::nop();
        assert_eq!(n.op, Opcode::Sll);
        assert_eq!((n.rd, n.rt, n.shamt), (0, 0, 0));
    }

    #[test]
    fn imm_bits_truncates_to_16() {
        let j = Instruction::jump(Opcode::J, 0x3FF_FFFF);
        assert_eq!(j.imm_bits(), 0xFFFF);
        let a = Instruction::rri(Opcode::Addi, 1, 2, -1);
        assert_eq!(a.imm_bits(), 0xFFFF);
    }
}
