//! Binary encoding and decoding of 32-bit instruction words.

use crate::instruction::Instruction;
use crate::opcode::{Format, Opcode};
use std::fmt;

/// Error returned by [`decode`] for words that do not name a defined
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending instruction word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undefined instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// Encodes an instruction into its 32-bit word.
///
/// Layouts:
/// * R/Fp: `major[31:26] rs[25:21] rt[20:16] rd[15:11] shamt[10:6] funct[5:0]`
/// * I:    `major[31:26] rs[25:21] rt[20:16] imm[15:0]`
/// * J:    `major[31:26] target[25:0]`
pub fn encode(inst: &Instruction) -> u32 {
    let p = inst.op.props();
    let major = (p.major as u32) << 26;
    match p.format {
        Format::R | Format::Fp => {
            major
                | ((inst.rs as u32 & 0x1F) << 21)
                | ((inst.rt as u32 & 0x1F) << 16)
                | ((inst.rd as u32 & 0x1F) << 11)
                | ((inst.shamt as u32 & 0x1F) << 6)
                | (p.funct.unwrap_or(0) as u32 & 0x3F)
        }
        Format::I => {
            major
                | ((inst.rs as u32 & 0x1F) << 21)
                | ((inst.rt as u32 & 0x1F) << 16)
                | (inst.imm as u32 & 0xFFFF)
        }
        Format::J => major | (inst.imm as u32 & 0x03FF_FFFF),
    }
}

/// Decodes a 32-bit word back into an [`Instruction`].
///
/// # Errors
///
/// Returns [`DecodeError`] if the word's `(major, funct)` pair does not name
/// a defined operation.
#[inline]
pub fn decode(word: u32) -> Result<Instruction, DecodeError> {
    let major = (word >> 26) as u8;
    let funct = (word & 0x3F) as u8;
    let op = Opcode::from_encoding(major, funct).ok_or(DecodeError { word })?;
    let p = op.props();
    let rs = ((word >> 21) & 0x1F) as u8;
    let rt = ((word >> 16) & 0x1F) as u8;
    Ok(match p.format {
        Format::R | Format::Fp => Instruction {
            op,
            rs,
            rt,
            rd: ((word >> 11) & 0x1F) as u8,
            shamt: ((word >> 6) & 0x1F) as u8,
            imm: 0,
        },
        Format::I => {
            Instruction { op, rs, rt, rd: 0, shamt: 0, imm: (word & 0xFFFF) as u16 as i16 as i32 }
        }
        Format::J => {
            Instruction { op, rs: 0, rt: 0, rd: 0, shamt: 0, imm: (word & 0x03FF_FFFF) as i32 }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Syntax;

    /// A representative instruction for each opcode, with distinctive field
    /// values so encode/decode mix-ups are caught.
    fn sample(op: Opcode) -> Instruction {
        match op.props().syntax {
            Syntax::ThreeReg | Syntax::FpThree => Instruction::rrr(op, 5, 9, 17),
            Syntax::Shift => Instruction::shift(op, 5, 9, 13),
            Syntax::ShiftV => Instruction { op, rs: 9, rt: 17, rd: 5, shamt: 0, imm: 0 },
            Syntax::Mem | Syntax::FpMem => Instruction::mem(op, 5, 9, -44),
            Syntax::Branch2 => Instruction::branch(op, 5, 9, -3),
            Syntax::Branch1 | Syntax::FpBranch => Instruction::branch(op, 5, 0, 7),
            Syntax::Jump => Instruction::jump(op, 0x123456),
            Syntax::OneReg => Instruction { op, rs: 9, rt: 0, rd: 0, shamt: 0, imm: 0 },
            Syntax::TwoReg | Syntax::FpTwo | Syntax::FpMove => {
                Instruction { op, rs: 9, rt: 5, rd: 5, shamt: 0, imm: 0 }
            }
            Syntax::FpCmp => Instruction { op, rs: 9, rt: 17, rd: 0, shamt: 0, imm: 0 },
            Syntax::TwoRegImm => Instruction::rri(op, 5, 9, -100),
            Syntax::RegImm16 => Instruction::rri(op, 5, 0, 0x7abc),
            Syntax::TrapCode => Instruction::trap(1),
        }
    }

    #[test]
    fn encode_decode_round_trips_every_opcode() {
        for &op in Opcode::ALL {
            let inst = sample(op);
            let word = encode(&inst);
            let back = decode(word).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert_eq!(back, inst, "round trip failed for {op} (word {word:#010x})");
        }
    }

    #[test]
    fn negative_immediates_sign_extend() {
        let inst = Instruction::rri(Opcode::Addi, 1, 2, -1);
        let back = decode(encode(&inst)).unwrap();
        assert_eq!(back.imm, -1);
    }

    #[test]
    fn undefined_word_is_an_error() {
        // Major 0x3E is unassigned.
        assert!(decode(0x3E << 26).is_err());
        let msg = decode(0xF800_0000).unwrap_err().to_string();
        assert!(msg.contains("undefined instruction"));
    }

    #[test]
    fn every_word_either_decodes_or_errors_without_panicking() {
        // Sweep a structured sample of the word space: all majors × a few
        // funct/field patterns.
        for major in 0..64u32 {
            for pattern in [0x0000_0000, 0x03FF_FFFF, 0x0155_5555, 0x02AA_AAAA] {
                let word = (major << 26) | pattern;
                let _ = decode(word); // must not panic
            }
        }
    }

    #[test]
    fn decode_rejects_unassigned_functs() {
        // major 0x00, funct 0x3F is unassigned.
        assert!(decode(0x0000_003F).is_err());
        // major 0x11 (FP), funct 0x1F is unassigned.
        assert!(decode((0x11 << 26) | 0x1F).is_err());
    }

    #[test]
    fn nop_encodes_as_zero() {
        assert_eq!(encode(&Instruction::nop()), 0);
        assert_eq!(decode(0).unwrap(), Instruction::nop());
    }
}
