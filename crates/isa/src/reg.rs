//! Architectural register names.

use std::fmt;
use std::str::FromStr;

/// An architectural register operand: either an integer register `r0..r31`
/// or a floating-point register `f0..f31`.
///
/// The 5-bit index is what appears in instruction encodings and in the
/// `rsrc1`/`rsrc2`/`rdst` decode-signal fields; whether it names the integer
/// or FP file is a property of the consuming opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// Integer register `rN`.
    Int(u8),
    /// Floating-point register `fN`.
    Fp(u8),
}

impl Reg {
    /// The always-zero integer register.
    pub const ZERO: Reg = Reg::Int(0);
    /// Conventional return-address register (`r31`).
    pub const RA: Reg = Reg::Int(31);
    /// Conventional stack pointer (`r29`).
    pub const SP: Reg = Reg::Int(29);

    /// 5-bit register index within its file.
    ///
    /// ```
    /// use itr_isa::Reg;
    /// assert_eq!(Reg::Int(7).index(), 7);
    /// assert_eq!(Reg::Fp(3).index(), 3);
    /// ```
    pub fn index(self) -> u8 {
        match self {
            Reg::Int(i) | Reg::Fp(i) => i,
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Int(i) => write!(f, "r{i}"),
            Reg::Fp(i) => write!(f, "f{i}"),
        }
    }
}

/// Error returned when parsing a register name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError(pub String);

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid register name `{}`", self.0)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    /// Parses `rN`, `fN`, and the conventional aliases `zero`, `ra`, `sp`,
    /// `gp`, `fp`, `at`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseRegError(s.to_string());
        match s {
            "zero" => return Ok(Reg::Int(0)),
            "at" => return Ok(Reg::Int(1)),
            "gp" => return Ok(Reg::Int(28)),
            "sp" => return Ok(Reg::Int(29)),
            "fp" => return Ok(Reg::Int(30)),
            "ra" => return Ok(Reg::Int(31)),
            _ => {}
        }
        let (kind, num) = s.split_at(1);
        let idx: u8 = num.parse().map_err(|_| err())?;
        if idx >= 32 {
            return Err(err());
        }
        match kind {
            "r" | "R" => Ok(Reg::Int(idx)),
            "f" | "F" => Ok(Reg::Fp(idx)),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_registers() {
        assert_eq!("r0".parse::<Reg>().unwrap(), Reg::Int(0));
        assert_eq!("r31".parse::<Reg>().unwrap(), Reg::Int(31));
        assert_eq!("f15".parse::<Reg>().unwrap(), Reg::Fp(15));
    }

    #[test]
    fn parse_aliases() {
        assert_eq!("zero".parse::<Reg>().unwrap(), Reg::Int(0));
        assert_eq!("sp".parse::<Reg>().unwrap(), Reg::SP);
        assert_eq!("ra".parse::<Reg>().unwrap(), Reg::RA);
    }

    #[test]
    fn reject_out_of_range() {
        assert!("r32".parse::<Reg>().is_err());
        assert!("f99".parse::<Reg>().is_err());
        assert!("x3".parse::<Reg>().is_err());
        assert!("r".parse::<Reg>().is_err());
    }

    #[test]
    fn display_round_trips() {
        for i in 0..32u8 {
            let r = Reg::Int(i);
            assert_eq!(r.to_string().parse::<Reg>().unwrap(), r);
            let f = Reg::Fp(i);
            assert_eq!(f.to_string().parse::<Reg>().unwrap(), f);
        }
    }
}
