//! The `rISA` operation list and its static properties.
//!
//! Every opcode carries the metadata the decode unit needs to produce the
//! Table-2 [`DecodeSignals`](crate::DecodeSignals) vector: control flags,
//! execution-latency class, operand counts and memory access size.

use crate::signals::SignalFlags;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Binary encoding format of an instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `major=0x00`, funct-selected register-register operation.
    R,
    /// `major=0x11`, funct-selected floating-point operation.
    Fp,
    /// Immediate format: `major | rs | rt | imm16`.
    I,
    /// Jump format: `major | target26`.
    J,
}

/// Assembly-syntax class; drives operand parsing and printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syntax {
    /// `op rd, rs, rt`
    ThreeReg,
    /// `op rt, rs, imm`
    TwoRegImm,
    /// `op rd, rt, shamt`
    Shift,
    /// `op rd, rt, rs` (variable shift)
    ShiftV,
    /// `op rt, imm(rs)`
    Mem,
    /// `op rs, rt, label`
    Branch2,
    /// `op rs, label`
    Branch1,
    /// `op label` (absolute jump)
    Jump,
    /// `op rs`
    OneReg,
    /// `op rd, rs`
    TwoReg,
    /// `op rt, imm`
    RegImm16,
    /// `op fd, fs, ft`
    FpThree,
    /// `op fd, fs`
    FpTwo,
    /// `op fs, ft` (FP compare, writes FCC)
    FpCmp,
    /// `op label` (branch on FCC)
    FpBranch,
    /// `op rt, fs` (int/fp move)
    FpMove,
    /// `op ft, imm(rs)`
    FpMem,
    /// `op imm` (trap code)
    TrapCode,
}

/// Execution latency class, 2 bits wide as in Table 2 of the paper.
///
/// The scheduler maps a class to a pipeline latency via [`LatClass::cycles`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LatClass {
    /// Single-cycle (ALU, branches).
    L1,
    /// Two cycles (cache-hit loads, FP moves).
    L2,
    /// Four cycles (integer multiply, FP arithmetic).
    L4,
    /// Twelve cycles (divide, square root).
    L12,
}

impl LatClass {
    /// Pipeline latency in cycles for this class.
    #[inline]
    pub fn cycles(self) -> u64 {
        match self {
            LatClass::L1 => 1,
            LatClass::L2 => 2,
            LatClass::L4 => 4,
            LatClass::L12 => 12,
        }
    }

    /// 2-bit encoding used inside [`DecodeSignals`](crate::DecodeSignals).
    #[inline]
    pub fn encode(self) -> u8 {
        match self {
            LatClass::L1 => 0,
            LatClass::L2 => 1,
            LatClass::L4 => 2,
            LatClass::L12 => 3,
        }
    }

    /// Inverse of [`LatClass::encode`] (only the low 2 bits are observed).
    #[inline]
    pub fn from_bits(bits: u8) -> LatClass {
        match bits & 0b11 {
            0 => LatClass::L1,
            1 => LatClass::L2,
            2 => LatClass::L4,
            _ => LatClass::L12,
        }
    }
}

/// Static per-opcode properties.
#[derive(Debug, Clone, Copy)]
pub struct OpProperties {
    /// Mnemonic as written in assembly source.
    pub mnemonic: &'static str,
    /// 6-bit major opcode field.
    pub major: u8,
    /// 6-bit funct field for [`Format::R`]/[`Format::Fp`] encodings.
    pub funct: Option<u8>,
    /// Binary format.
    pub format: Format,
    /// Assembly syntax class.
    pub syntax: Syntax,
    /// Decode control flags (Table 2 `flags` field).
    pub flags: SignalFlags,
    /// Execution latency class (Table 2 `lat` field).
    pub lat: LatClass,
    /// Number of source register operands (Table 2 `num_rsrc`).
    pub num_rsrc: u8,
    /// Number of destination register operands (Table 2 `num_rdst`).
    pub num_rdst: u8,
    /// Memory access size in bytes (Table 2 `mem_size`), 0 for non-memory ops.
    pub mem_size: u8,
}

macro_rules! opcodes {
    ($(
        $name:ident {
            $mnem:literal, $major:literal, $funct:expr, $fmt:ident, $syn:ident,
            $lat:ident, nsrc: $nsrc:literal, ndst: $ndst:literal, msize: $msize:literal,
            [$($flag:ident)|*]
        }
    ),* $(,)?) => {
        /// Every operation in the `rISA` instruction set.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum Opcode {
            $($name),*
        }

        /// Static properties of every opcode, indexed by [`Opcode::id`].
        static PROPS: [OpProperties; Opcode::ALL.len()] = [$(
            OpProperties {
                mnemonic: $mnem,
                major: $major,
                funct: $funct,
                format: Format::$fmt,
                syntax: Syntax::$syn,
                flags: SignalFlags::empty()$(.union(SignalFlags::$flag))*,
                lat: LatClass::$lat,
                num_rsrc: $nsrc,
                num_rdst: $ndst,
                mem_size: $msize,
            }
        ),*];

        impl Opcode {
            /// All opcodes, in declaration order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$name),*];

            /// Static properties of this opcode.
            #[inline]
            pub fn props(self) -> &'static OpProperties {
                &PROPS[self as usize]
            }
        }
    };
}

opcodes! {
    // ---- integer register-register (major 0x00, funct-selected) ----
    Sll   { "sll",   0x00, Some(0x00), R, Shift,    L1,  nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Srl   { "srl",   0x00, Some(0x02), R, Shift,    L1,  nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Sra   { "sra",   0x00, Some(0x03), R, Shift,    L1,  nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Sllv  { "sllv",  0x00, Some(0x04), R, ShiftV,   L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Srlv  { "srlv",  0x00, Some(0x06), R, ShiftV,   L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Srav  { "srav",  0x00, Some(0x07), R, ShiftV,   L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Jr    { "jr",    0x00, Some(0x08), R, OneReg,   L1,  nsrc: 1, ndst: 0, msize: 0, [IS_INT | IS_RR | IS_BRANCH | IS_UNCOND] },
    Jalr  { "jalr",  0x00, Some(0x09), R, TwoReg,   L1,  nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_BRANCH | IS_UNCOND] },
    Mul   { "mul",   0x00, Some(0x18), R, ThreeReg, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Div   { "div",   0x00, Some(0x1A), R, ThreeReg, L12, nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Rem   { "rem",   0x00, Some(0x1B), R, ThreeReg, L12, nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Add   { "add",   0x00, Some(0x20), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Sub   { "sub",   0x00, Some(0x22), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    And   { "and",   0x00, Some(0x24), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Or    { "or",    0x00, Some(0x25), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Xor   { "xor",   0x00, Some(0x26), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Nor   { "nor",   0x00, Some(0x27), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },
    Slt   { "slt",   0x00, Some(0x2A), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR | IS_SIGNED] },
    Sltu  { "sltu",  0x00, Some(0x2B), R, ThreeReg, L1,  nsrc: 2, ndst: 1, msize: 0, [IS_INT | IS_RR] },

    // ---- jumps ----
    J     { "j",     0x02, None, J, Jump, L1, nsrc: 0, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_UNCOND | IS_DIRECT] },
    Jal   { "jal",   0x03, None, J, Jump, L1, nsrc: 0, ndst: 1, msize: 0, [IS_INT | IS_BRANCH | IS_UNCOND | IS_DIRECT] },

    // ---- conditional branches ----
    Beq   { "beq",   0x04, None, I, Branch2, L1, nsrc: 2, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_DISP | IS_DIRECT] },
    Bne   { "bne",   0x05, None, I, Branch2, L1, nsrc: 2, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_DISP | IS_DIRECT] },
    Blez  { "blez",  0x06, None, I, Branch1, L1, nsrc: 1, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_DISP | IS_DIRECT | IS_SIGNED] },
    Bgtz  { "bgtz",  0x07, None, I, Branch1, L1, nsrc: 1, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_DISP | IS_DIRECT | IS_SIGNED] },
    Bltz  { "bltz",  0x10, None, I, Branch1, L1, nsrc: 1, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_DISP | IS_DIRECT | IS_SIGNED] },
    Bgez  { "bgez",  0x12, None, I, Branch1, L1, nsrc: 1, ndst: 0, msize: 0, [IS_INT | IS_BRANCH | IS_DISP | IS_DIRECT | IS_SIGNED] },

    // ---- integer immediates ----
    Addi  { "addi",  0x08, None, I, TwoRegImm, L1, nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_DISP | IS_SIGNED] },
    Slti  { "slti",  0x0A, None, I, TwoRegImm, L1, nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_DISP | IS_SIGNED] },
    Sltiu { "sltiu", 0x0B, None, I, TwoRegImm, L1, nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_DISP] },
    Andi  { "andi",  0x0C, None, I, TwoRegImm, L1, nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_DISP] },
    Ori   { "ori",   0x0D, None, I, TwoRegImm, L1, nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_DISP] },
    Xori  { "xori",  0x0E, None, I, TwoRegImm, L1, nsrc: 1, ndst: 1, msize: 0, [IS_INT | IS_DISP] },
    Lui   { "lui",   0x0F, None, I, RegImm16,  L1, nsrc: 0, ndst: 1, msize: 0, [IS_INT | IS_DISP] },

    // ---- loads ----
    Lb    { "lb",    0x20, None, I, Mem, L2, nsrc: 1, ndst: 1, msize: 1, [IS_INT | IS_LD | IS_DISP | IS_SIGNED] },
    Lh    { "lh",    0x21, None, I, Mem, L2, nsrc: 1, ndst: 1, msize: 2, [IS_INT | IS_LD | IS_DISP | IS_SIGNED] },
    Lwl   { "lwl",   0x22, None, I, Mem, L2, nsrc: 2, ndst: 1, msize: 4, [IS_INT | IS_LD | IS_DISP | MEM_LR] },
    Lw    { "lw",    0x23, None, I, Mem, L2, nsrc: 1, ndst: 1, msize: 4, [IS_INT | IS_LD | IS_DISP | IS_SIGNED] },
    Lbu   { "lbu",   0x24, None, I, Mem, L2, nsrc: 1, ndst: 1, msize: 1, [IS_INT | IS_LD | IS_DISP] },
    Lhu   { "lhu",   0x25, None, I, Mem, L2, nsrc: 1, ndst: 1, msize: 2, [IS_INT | IS_LD | IS_DISP] },
    Lwr   { "lwr",   0x26, None, I, Mem, L2, nsrc: 2, ndst: 1, msize: 4, [IS_INT | IS_LD | IS_DISP | MEM_LR] },

    // ---- stores ----
    Sb    { "sb",    0x28, None, I, Mem, L1, nsrc: 2, ndst: 0, msize: 1, [IS_INT | IS_ST | IS_DISP] },
    Sh    { "sh",    0x29, None, I, Mem, L1, nsrc: 2, ndst: 0, msize: 2, [IS_INT | IS_ST | IS_DISP] },
    Swl   { "swl",   0x2A, None, I, Mem, L1, nsrc: 2, ndst: 0, msize: 4, [IS_INT | IS_ST | IS_DISP | MEM_LR] },
    Sw    { "sw",    0x2B, None, I, Mem, L1, nsrc: 2, ndst: 0, msize: 4, [IS_INT | IS_ST | IS_DISP] },
    Swr   { "swr",   0x2E, None, I, Mem, L1, nsrc: 2, ndst: 0, msize: 4, [IS_INT | IS_ST | IS_DISP | MEM_LR] },

    // ---- floating point (major 0x11, funct-selected) ----
    AddS  { "add.s", 0x11, Some(0x00), Fp, FpThree, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    SubS  { "sub.s", 0x11, Some(0x01), Fp, FpThree, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    MulS  { "mul.s", 0x11, Some(0x02), Fp, FpThree, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    DivS  { "div.s", 0x11, Some(0x03), Fp, FpThree, L12, nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    SqrtS { "sqrt.s",0x11, Some(0x04), Fp, FpTwo,   L12, nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    AbsS  { "abs.s", 0x11, Some(0x05), Fp, FpTwo,   L1,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    MovS  { "mov.s", 0x11, Some(0x06), Fp, FpTwo,   L1,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR] },
    NegS  { "neg.s", 0x11, Some(0x07), Fp, FpTwo,   L1,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    Mfc1  { "mfc1",  0x11, Some(0x08), Fp, FpMove,  L2,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR] },
    Mtc1  { "mtc1",  0x11, Some(0x09), Fp, FpMove,  L2,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR] },
    CvtSW { "cvt.s.w", 0x11, Some(0x20), Fp, FpTwo, L4,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    CvtWS { "cvt.w.s", 0x11, Some(0x24), Fp, FpTwo, L4,  nsrc: 1, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    CEqS  { "c.eq.s",  0x11, Some(0x32), Fp, FpCmp, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    CLtS  { "c.lt.s",  0x11, Some(0x3C), Fp, FpCmp, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },
    CLeS  { "c.le.s",  0x11, Some(0x3E), Fp, FpCmp, L4,  nsrc: 2, ndst: 1, msize: 0, [IS_FP | IS_RR | IS_SIGNED] },

    // ---- FP branches on the condition flag ----
    Bc1t  { "bc1t",  0x13, None, I, FpBranch, L1, nsrc: 1, ndst: 0, msize: 0, [IS_FP | IS_BRANCH | IS_DISP | IS_DIRECT] },
    Bc1f  { "bc1f",  0x14, None, I, FpBranch, L1, nsrc: 1, ndst: 0, msize: 0, [IS_FP | IS_BRANCH | IS_DISP | IS_DIRECT] },

    // ---- FP memory ----
    Lwc1  { "lwc1",  0x31, None, I, FpMem, L2, nsrc: 1, ndst: 1, msize: 4, [IS_FP | IS_LD | IS_DISP] },
    Swc1  { "swc1",  0x39, None, I, FpMem, L1, nsrc: 2, ndst: 0, msize: 4, [IS_FP | IS_ST | IS_DISP] },

    // ---- traps ----
    Trap  { "trap",  0x3F, None, I, TrapCode, L1, nsrc: 1, ndst: 0, msize: 0, [IS_INT | IS_TRAP | IS_BRANCH | IS_UNCOND] },
}

impl Opcode {
    /// Opcode mnemonic, e.g. `"add.s"`.
    pub fn mnemonic(self) -> &'static str {
        self.props().mnemonic
    }

    /// `true` if this opcode terminates an ITR trace (any branching
    /// instruction per §2.1 of the paper; traps serialize and also
    /// terminate).
    #[inline]
    pub fn ends_trace(self) -> bool {
        self.props().flags.contains(SignalFlags::IS_BRANCH)
    }

    /// `true` for conditional branches (branching but not unconditional).
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        let f = self.props().flags;
        f.contains(SignalFlags::IS_BRANCH) && !f.contains(SignalFlags::IS_UNCOND)
    }

    /// Target of a direct branch or jump of this opcode at `pc`, whose
    /// instruction has immediate `imm` ([`Instruction::imm`]); `None`
    /// for every other opcode.
    ///
    /// Conditional branches are PC-relative (`pc + 4 + imm*4`); J-format
    /// jumps are absolute within the current 256 MiB segment.
    ///
    /// [`Instruction::imm`]: crate::Instruction::imm
    #[inline]
    pub fn direct_target(self, imm: i32, pc: u64) -> Option<u64> {
        match self.props().syntax {
            Syntax::Branch2 | Syntax::Branch1 | Syntax::FpBranch => {
                Some((pc as i64 + 4 + (imm as i64) * 4) as u64)
            }
            Syntax::Jump => {
                let seg = pc & 0xFFFF_FFFF_F000_0000;
                Some(seg | ((imm as u64 & 0x03FF_FFFF) << 2))
            }
            _ => None,
        }
    }

    /// `true` for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        self.props().flags.contains(SignalFlags::IS_LD)
    }

    /// `true` for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        self.props().flags.contains(SignalFlags::IS_ST)
    }

    /// 8-bit canonical opcode identifier carried in the decode signals.
    #[inline]
    pub fn id(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Opcode::id`]; `None` when the 8-bit value does not name
    /// an opcode (possible after a fault flips opcode bits).
    #[inline]
    pub fn from_id(id: u8) -> Option<Opcode> {
        Opcode::ALL.get(id as usize).copied()
    }

    /// Looks up an opcode by mnemonic.
    pub fn from_mnemonic(m: &str) -> Option<Opcode> {
        static TABLE: OnceLock<HashMap<&'static str, Opcode>> = OnceLock::new();
        TABLE
            .get_or_init(|| Opcode::ALL.iter().map(|&op| (op.mnemonic(), op)).collect())
            .get(m)
            .copied()
    }

    /// Looks up an opcode from its binary `(major, funct)` encoding.
    #[inline]
    pub fn from_encoding(major: u8, funct: u8) -> Option<Opcode> {
        if major >= 64 || funct >= 64 {
            return None;
        }
        ENCODINGS[major as usize][funct as usize]
    }
}

/// `(major, funct)` → opcode, built at compile time from [`PROPS`].
/// Major-only opcodes occupy their whole funct row so decode never
/// needs to know the format first.
static ENCODINGS: [[Option<Opcode>; 64]; 64] = {
    let mut t = [[None; 64]; 64];
    let mut i = 0;
    while i < Opcode::ALL.len() {
        let p = &PROPS[i];
        let row = &mut t[p.major as usize];
        match p.funct {
            Some(f) => row[f as usize] = Some(Opcode::ALL[i]),
            None => {
                let mut f = 0;
                while f < 64 {
                    row[f] = Some(Opcode::ALL[i]);
                    f += 1;
                }
            }
        }
        i += 1;
    }
    t
};

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_round_trips_through_encoding() {
        for &op in Opcode::ALL {
            let p = op.props();
            let funct = p.funct.unwrap_or(0);
            assert_eq!(
                Opcode::from_encoding(p.major, funct),
                Some(op),
                "encoding round trip failed for {op}"
            );
        }
    }

    #[test]
    fn every_opcode_round_trips_through_mnemonic() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
    }

    #[test]
    fn every_opcode_round_trips_through_id() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_id(op.id()), Some(op));
        }
    }

    #[test]
    fn encodings_are_unique() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for &op in Opcode::ALL {
            let p = op.props();
            assert!(seen.insert((p.major, p.funct)), "duplicate encoding for {op}");
            assert!(p.major < 64, "major out of range for {op}");
            if let Some(f) = p.funct {
                assert!(f < 64, "funct out of range for {op}");
            }
        }
    }

    #[test]
    fn branch_classification() {
        assert!(Opcode::Beq.ends_trace());
        assert!(Opcode::Beq.is_cond_branch());
        assert!(Opcode::J.ends_trace());
        assert!(!Opcode::J.is_cond_branch());
        assert!(Opcode::Jr.ends_trace());
        assert!(Opcode::Trap.ends_trace());
        assert!(!Opcode::Add.ends_trace());
        assert!(!Opcode::Lw.ends_trace());
    }

    #[test]
    fn memory_classification() {
        assert!(Opcode::Lw.is_load());
        assert!(!Opcode::Lw.is_store());
        assert!(Opcode::Sw.is_store());
        assert_eq!(Opcode::Lw.props().mem_size, 4);
        assert_eq!(Opcode::Lh.props().mem_size, 2);
        assert_eq!(Opcode::Sb.props().mem_size, 1);
        assert_eq!(Opcode::Add.props().mem_size, 0);
    }

    #[test]
    fn operand_counts_within_signal_widths() {
        for &op in Opcode::ALL {
            let p = op.props();
            assert!(p.num_rsrc <= 2, "{op}: num_rsrc exceeds 2-bit field");
            assert!(p.num_rdst <= 1, "{op}: num_rdst exceeds 1-bit field");
            assert!(p.mem_size <= 7, "{op}: mem_size exceeds 3-bit field");
        }
    }

    #[test]
    fn lat_class_round_trips() {
        for lat in [LatClass::L1, LatClass::L2, LatClass::L4, LatClass::L12] {
            assert_eq!(LatClass::from_bits(lat.encode()), lat);
        }
    }
}
