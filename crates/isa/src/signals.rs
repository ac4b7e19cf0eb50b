//! The decode-unit output vector — Table 2 of the ITR paper, bit for bit.
//!
//! `DecodeSignals` is the value the ITR signature folds over and the value
//! transient faults are injected into. Field widths reproduce Table 2
//! exactly and sum to 64 bits:
//!
//! | field      | width | description                          |
//! |------------|-------|--------------------------------------|
//! | `opcode`   | 8     | canonical instruction opcode          |
//! | `flags`    | 12    | decoded control flags                 |
//! | `shamt`    | 5     | shift amount                          |
//! | `rsrc1`    | 5     | source register operand               |
//! | `rsrc2`    | 5     | source register operand               |
//! | `rdst`     | 5     | destination register operand          |
//! | `lat`      | 2     | execution latency class               |
//! | `imm`      | 16    | immediate                             |
//! | `num_rsrc` | 2     | number of source operands             |
//! | `num_rdst` | 1     | number of destination operands        |
//! | `mem_size` | 3     | size of memory word                   |

use crate::instruction::Instruction;
use crate::opcode::{LatClass, Opcode, Syntax};
use std::fmt;

/// The 12 decoded control flags of Table 2.
///
/// `is_signed/unsigned` and `mem_left/right` are each a single bit, matching
/// the paper's field list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct SignalFlags(u16);

impl SignalFlags {
    /// Integer-unit instruction.
    pub const IS_INT: SignalFlags = SignalFlags(1 << 0);
    /// Floating-point-unit instruction.
    pub const IS_FP: SignalFlags = SignalFlags(1 << 1);
    /// Signed (vs. unsigned) semantics.
    pub const IS_SIGNED: SignalFlags = SignalFlags(1 << 2);
    /// Branching instruction (terminates an ITR trace).
    pub const IS_BRANCH: SignalFlags = SignalFlags(1 << 3);
    /// Unconditional control transfer.
    pub const IS_UNCOND: SignalFlags = SignalFlags(1 << 4);
    /// Memory load.
    pub const IS_LD: SignalFlags = SignalFlags(1 << 5);
    /// Memory store.
    pub const IS_ST: SignalFlags = SignalFlags(1 << 6);
    /// Unaligned left/right memory variant (`lwl`/`lwr`/`swl`/`swr`).
    pub const MEM_LR: SignalFlags = SignalFlags(1 << 7);
    /// Register-register format.
    pub const IS_RR: SignalFlags = SignalFlags(1 << 8);
    /// Uses a displacement/immediate operand.
    pub const IS_DISP: SignalFlags = SignalFlags(1 << 9);
    /// Direct (PC-relative or absolute) control-transfer target.
    pub const IS_DIRECT: SignalFlags = SignalFlags(1 << 10);
    /// Trap/system instruction.
    pub const IS_TRAP: SignalFlags = SignalFlags(1 << 11);

    /// Number of defined flag bits (the Table 2 `flags` width).
    pub const WIDTH: u32 = 12;

    /// No flags set.
    pub const fn empty() -> SignalFlags {
        SignalFlags(0)
    }

    /// Union of two flag sets (usable in `const` context).
    pub const fn union(self, other: SignalFlags) -> SignalFlags {
        SignalFlags(self.0 | other.0)
    }

    /// `true` if every flag in `other` is set in `self`.
    pub const fn contains(self, other: SignalFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Raw 12-bit value.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Reconstructs flags from raw bits; bits above the field width are
    /// discarded (mirrors a hardware latch of fixed width).
    pub const fn from_bits_truncate(bits: u16) -> SignalFlags {
        SignalFlags(bits & ((1 << Self::WIDTH) - 1))
    }
}

impl std::ops::BitOr for SignalFlags {
    type Output = SignalFlags;
    fn bitor(self, rhs: SignalFlags) -> SignalFlags {
        self.union(rhs)
    }
}

impl fmt::Display for SignalFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [(u16, &str); 12] = [
            (1 << 0, "int"),
            (1 << 1, "fp"),
            (1 << 2, "signed"),
            (1 << 3, "branch"),
            (1 << 4, "uncond"),
            (1 << 5, "ld"),
            (1 << 6, "st"),
            (1 << 7, "mem_lr"),
            (1 << 8, "rr"),
            (1 << 9, "disp"),
            (1 << 10, "direct"),
            (1 << 11, "trap"),
        ];
        let mut first = true;
        for (bit, name) in NAMES {
            if self.0 & bit != 0 {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// One row of Table 2: a named signal field and its bit range within the
/// packed 64-bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalField {
    /// Field name as printed in Table 2.
    pub name: &'static str,
    /// Description from Table 2.
    pub description: &'static str,
    /// Least-significant bit position in the packed vector.
    pub lsb: u32,
    /// Field width in bits.
    pub width: u32,
}

/// Field layout of the packed decode-signal vector (Table 2 order).
pub const SIGNAL_FIELDS: [SignalField; 11] = [
    SignalField { name: "opcode", description: "instruction opcode", lsb: 0, width: 8 },
    SignalField { name: "flags", description: "decoded control flags", lsb: 8, width: 12 },
    SignalField { name: "shamt", description: "shift amount", lsb: 20, width: 5 },
    SignalField { name: "rsrc1", description: "source register operand", lsb: 25, width: 5 },
    SignalField { name: "rsrc2", description: "source register operand", lsb: 30, width: 5 },
    SignalField { name: "rdst", description: "destination register operand", lsb: 35, width: 5 },
    SignalField { name: "lat", description: "execution latency", lsb: 40, width: 2 },
    SignalField { name: "imm", description: "immediate", lsb: 42, width: 16 },
    SignalField { name: "num_rsrc", description: "number of source operands", lsb: 58, width: 2 },
    SignalField {
        name: "num_rdst",
        description: "number of destination operands",
        lsb: 60,
        width: 1,
    },
    SignalField { name: "mem_size", description: "size of memory word", lsb: 61, width: 3 },
];

/// Total width of the decode-signal vector: 64 bits, as in Table 2.
pub const TOTAL_SIGNAL_BITS: u32 = 64;

/// A signal bit index, read from outside input, that is not below
/// [`TOTAL_SIGNAL_BITS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitOutOfRange(pub u64);

impl fmt::Display for BitOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signal bit {} is out of range (0..{TOTAL_SIGNAL_BITS})", self.0)
    }
}

impl std::error::Error for BitOutOfRange {}

/// The decode unit's output for one instruction.
///
/// `itr-sim`'s pipeline executes this record, not the original
/// instruction word, so a fault injected here corrupts execution the way
/// a decode-unit upset would. Two reads past decode use the fetched word
/// instead, as predecode hardware beside the decoder would: a direct
/// jump's 26-bit target, which no signal carries, and the BTB training
/// of a taken `Jr`/`Jalr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DecodeSignals {
    /// Canonical 8-bit opcode identifier ([`Opcode::id`]).
    pub opcode: u8,
    /// Control flags.
    pub flags: SignalFlags,
    /// Shift amount (5 bits).
    pub shamt: u8,
    /// First source register index (5 bits).
    pub rsrc1: u8,
    /// Second source register index (5 bits).
    pub rsrc2: u8,
    /// Destination register index (5 bits).
    pub rdst: u8,
    /// Execution latency class (2 bits).
    pub lat: u8,
    /// Immediate (16 bits, raw; sign extension is an opcode property).
    pub imm: u16,
    /// Number of source register operands (2 bits).
    pub num_rsrc: u8,
    /// Number of destination register operands (1 bit).
    pub num_rdst: u8,
    /// Memory access size in bytes (3 bits).
    pub mem_size: u8,
}

impl DecodeSignals {
    /// Derives the decode signals for an instruction, as the decode unit
    /// would produce them.
    ///
    /// Register-operand conventions:
    /// * first source (`rsrc1`) — `rs` for most formats, `rt` for shifts
    ///   and FP stores' data operand base ordering, `fs` for FP,
    /// * second source (`rsrc2`) — `rt` (store data, second ALU operand,
    ///   `ft` for FP three-operand forms),
    /// * destination (`rdst`) — `rd` for R-format, `rt` for immediates and
    ///   loads, `fd` for FP.
    #[inline]
    pub fn from_instruction(inst: &Instruction) -> DecodeSignals {
        let p = inst.op.props();
        let (rsrc1, rsrc2) = match p.syntax {
            Syntax::ThreeReg | Syntax::FpThree | Syntax::FpCmp => (inst.rs, inst.rt),
            Syntax::Shift => (inst.rt, 0),
            Syntax::ShiftV => (inst.rt, inst.rs),
            Syntax::Mem | Syntax::FpMem => {
                if p.flags.contains(SignalFlags::IS_ST) || p.flags.contains(SignalFlags::MEM_LR) {
                    (inst.rs, inst.rt) // base, data (LR loads also read old dst)
                } else {
                    (inst.rs, 0)
                }
            }
            Syntax::Branch2 => (inst.rs, inst.rt),
            Syntax::Branch1 | Syntax::OneReg => (inst.rs, 0),
            Syntax::TwoReg | Syntax::FpTwo | Syntax::TwoRegImm => (inst.rs, 0),
            Syntax::FpMove => {
                // mfc1 rt, fs reads the FP fs; mtc1 rt, fs reads the integer rt.
                if inst.op == Opcode::Mtc1 {
                    (inst.rt, 0)
                } else {
                    (inst.rs, 0)
                }
            }
            Syntax::FpBranch => (0, 0), // reads FCC, not a GPR
            Syntax::Jump | Syntax::RegImm16 => (0, 0),
            Syntax::TrapCode => (4, 0), // traps read the r4 argument register
        };
        let rdst = match p.syntax {
            Syntax::ThreeReg | Syntax::Shift | Syntax::ShiftV | Syntax::TwoReg => inst.rd,
            Syntax::FpThree | Syntax::FpTwo => inst.rd,
            Syntax::FpCmp => 0, // writes FCC
            Syntax::TwoRegImm | Syntax::RegImm16 | Syntax::Mem | Syntax::FpMem => inst.rt,
            Syntax::FpMove => {
                // mfc1 rt, fs writes the integer rt; mtc1 rt, fs writes fs.
                if inst.op == Opcode::Mtc1 {
                    inst.rs
                } else {
                    inst.rt
                }
            }
            Syntax::Jump => 31, // jal link register
            Syntax::Branch1
            | Syntax::Branch2
            | Syntax::OneReg
            | Syntax::FpBranch
            | Syntax::TrapCode => 0,
        };
        DecodeSignals {
            opcode: inst.op.id(),
            flags: p.flags,
            shamt: inst.shamt & 0x1F,
            rsrc1: rsrc1 & 0x1F,
            rsrc2: rsrc2 & 0x1F,
            rdst: rdst & 0x1F,
            lat: p.lat.encode(),
            imm: inst.imm_bits(),
            num_rsrc: p.num_rsrc,
            num_rdst: p.num_rdst,
            mem_size: p.mem_size,
        }
    }

    /// Packs the signals into the 64-bit vector per [`SIGNAL_FIELDS`].
    ///
    /// This is the value the ITR signature generator XOR-folds (§2.1 of the
    /// paper).
    #[inline]
    pub fn pack(&self) -> u64 {
        (self.opcode as u64)
            | ((self.flags.bits() as u64 & 0xFFF) << 8)
            | ((self.shamt as u64 & 0x1F) << 20)
            | ((self.rsrc1 as u64 & 0x1F) << 25)
            | ((self.rsrc2 as u64 & 0x1F) << 30)
            | ((self.rdst as u64 & 0x1F) << 35)
            | ((self.lat as u64 & 0x3) << 40)
            | ((self.imm as u64) << 42)
            | ((self.num_rsrc as u64 & 0x3) << 58)
            | ((self.num_rdst as u64 & 0x1) << 60)
            | ((self.mem_size as u64 & 0x7) << 61)
    }

    /// Inverse of [`DecodeSignals::pack`].
    #[inline]
    pub fn unpack(bits: u64) -> DecodeSignals {
        DecodeSignals {
            opcode: (bits & 0xFF) as u8,
            flags: DecodeSignals::packed_flags(bits),
            shamt: ((bits >> 20) & 0x1F) as u8,
            rsrc1: ((bits >> 25) & 0x1F) as u8,
            rsrc2: ((bits >> 30) & 0x1F) as u8,
            rdst: ((bits >> 35) & 0x1F) as u8,
            lat: ((bits >> 40) & 0x3) as u8,
            imm: ((bits >> 42) & 0xFFFF) as u16,
            num_rsrc: ((bits >> 58) & 0x3) as u8,
            num_rdst: ((bits >> 60) & 0x1) as u8,
            mem_size: ((bits >> 61) & 0x7) as u8,
        }
    }

    /// The `flags` field of a packed vector: `unpack(bits).flags`
    /// without unpacking the other fields.
    #[inline]
    pub const fn packed_flags(bits: u64) -> SignalFlags {
        SignalFlags::from_bits_truncate(((bits >> 8) & 0xFFF) as u16)
    }

    /// Flips one bit of the packed vector — the single-event-upset fault
    /// model of §4 of the paper.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[inline]
    pub fn with_bit_flipped(&self, bit: u32) -> DecodeSignals {
        assert!(bit < TOTAL_SIGNAL_BITS, "bit index out of range");
        DecodeSignals::unpack(self.pack() ^ (1u64 << bit))
    }

    /// `bit`, read from outside input, as an index into the packed vector.
    ///
    /// # Errors
    ///
    /// Returns [`BitOutOfRange`] when `bit` is [`TOTAL_SIGNAL_BITS`] or more.
    pub fn checked_bit(bit: u64) -> Result<u32, BitOutOfRange> {
        u32::try_from(bit).ok().filter(|&b| b < TOTAL_SIGNAL_BITS).ok_or(BitOutOfRange(bit))
    }

    /// Name of the Table-2 field containing `bit`.
    pub fn field_of_bit(bit: u32) -> &'static str {
        SIGNAL_FIELDS
            .iter()
            .find(|f| bit >= f.lsb && bit < f.lsb + f.width)
            .map(|f| f.name)
            .unwrap_or("?")
    }

    /// The opcode named by the `opcode` field, if the 8-bit value is a
    /// defined operation (it may not be after a fault).
    #[inline]
    pub fn opcode_enum(&self) -> Option<Opcode> {
        Opcode::from_id(self.opcode)
    }

    /// Sign- or zero-extends the immediate per the (possibly faulty) signed
    /// flag.
    #[inline]
    pub fn imm_extended(&self) -> i64 {
        if self.flags.contains(SignalFlags::IS_SIGNED)
            || self.flags.contains(SignalFlags::IS_BRANCH)
        {
            self.imm as i16 as i64
        } else {
            self.imm as i64
        }
    }

    /// Latency class decoded from the 2-bit `lat` field.
    #[inline]
    pub fn lat_class(&self) -> LatClass {
        LatClass::from_bits(self.lat)
    }
}

impl fmt::Display for DecodeSignals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op={:#04x} flags=[{}] shamt={} rs1={} rs2={} rd={} lat={} imm={:#06x} nsrc={} ndst={} msz={}",
            self.opcode, self.flags, self.shamt, self.rsrc1, self.rsrc2, self.rdst,
            self.lat, self.imm, self.num_rsrc, self.num_rdst, self.mem_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::Instruction;

    #[test]
    fn table2_field_widths_sum_to_64() {
        let total: u32 = SIGNAL_FIELDS.iter().map(|f| f.width).sum();
        assert_eq!(total, TOTAL_SIGNAL_BITS);
    }

    #[test]
    fn table2_fields_are_contiguous_and_disjoint() {
        let mut next = 0;
        for f in SIGNAL_FIELDS {
            assert_eq!(f.lsb, next, "field {} misplaced", f.name);
            next += f.width;
        }
        assert_eq!(next, 64);
    }

    #[test]
    fn pack_unpack_round_trip_for_all_opcodes() {
        for &op in Opcode::ALL {
            let inst = Instruction { op, rs: 3, rt: 7, rd: 12, shamt: 5, imm: 0x1234 };
            let s = DecodeSignals::from_instruction(&inst);
            assert_eq!(DecodeSignals::unpack(s.pack()), s, "round trip for {op}");
        }
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let inst = Instruction::rrr(Opcode::Add, 1, 2, 3);
        let s = DecodeSignals::from_instruction(&inst);
        for bit in 0..64 {
            let flipped = s.with_bit_flipped(bit);
            assert_eq!((flipped.pack() ^ s.pack()).count_ones(), 1);
            assert_eq!(flipped.pack() ^ s.pack(), 1u64 << bit);
            assert_eq!(DecodeSignals::checked_bit(u64::from(bit)), Ok(bit));
        }
        for bit in [64, (1 << 32) + 17, u64::MAX] {
            assert_eq!(DecodeSignals::checked_bit(bit), Err(BitOutOfRange(bit)), "never truncated");
        }
    }

    #[test]
    fn field_of_bit_matches_layout() {
        assert_eq!(DecodeSignals::field_of_bit(0), "opcode");
        assert_eq!(DecodeSignals::field_of_bit(7), "opcode");
        assert_eq!(DecodeSignals::field_of_bit(8), "flags");
        assert_eq!(DecodeSignals::field_of_bit(19), "flags");
        assert_eq!(DecodeSignals::field_of_bit(20), "shamt");
        assert_eq!(DecodeSignals::field_of_bit(42), "imm");
        assert_eq!(DecodeSignals::field_of_bit(57), "imm");
        assert_eq!(DecodeSignals::field_of_bit(63), "mem_size");
    }

    #[test]
    fn store_reads_base_and_data() {
        let sw = Instruction::mem(Opcode::Sw, 9, 29, -8);
        let s = DecodeSignals::from_instruction(&sw);
        assert_eq!(s.rsrc1, 29, "store base register");
        assert_eq!(s.rsrc2, 9, "store data register");
        assert_eq!(s.num_rsrc, 2);
        assert_eq!(s.num_rdst, 0);
        assert_eq!(s.mem_size, 4);
    }

    #[test]
    fn load_writes_rt() {
        let lw = Instruction::mem(Opcode::Lw, 9, 29, 16);
        let s = DecodeSignals::from_instruction(&lw);
        assert_eq!(s.rdst, 9);
        assert_eq!(s.rsrc1, 29);
        assert_eq!(s.num_rsrc, 1);
        assert_eq!(s.num_rdst, 1);
    }

    #[test]
    fn jal_links_r31() {
        let jal = Instruction::jump(Opcode::Jal, 0x400);
        let s = DecodeSignals::from_instruction(&jal);
        assert_eq!(s.rdst, 31);
        assert_eq!(s.num_rdst, 1);
        assert!(s.flags.contains(SignalFlags::IS_UNCOND));
    }

    #[test]
    fn signed_immediate_extension_follows_flag() {
        let addi = Instruction::rri(Opcode::Addi, 8, 9, -4);
        let s = DecodeSignals::from_instruction(&addi);
        assert_eq!(s.imm_extended(), -4);
        let ori = Instruction::rri(Opcode::Ori, 8, 9, 0xFFFC_u16 as i32);
        let s = DecodeSignals::from_instruction(&ori);
        assert_eq!(s.imm_extended(), 0xFFFC);
    }

    #[test]
    fn flags_display_is_never_empty() {
        assert_eq!(SignalFlags::empty().to_string(), "none");
        let f = SignalFlags::IS_LD | SignalFlags::IS_INT;
        assert_eq!(f.to_string(), "int|ld");
    }
}
