//! Divergence diagnostics for FuncSim-vs-pipeline comparison.
//!
//! The equivalence oracle (and the `tests/equivalence.rs` guard) used to
//! assert bare stream equality, which on failure printed two opaque
//! `CommitRecord`s. This module locates the first divergent commit and
//! renders everything a human needs to debug it: the commit index, the
//! PC and disassembly on both sides, both commit records, and the two
//! architectural states — each the [`snapshot_at`] replay of its
//! stream through the divergent commit — with a register-level diff.

use itr_isa::Program;
use itr_sim::{snapshot_at, CommitRecord, SimSnapshot};
use std::fmt;

/// The first point where two committed streams disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index of the first divergent commit.
    pub index: usize,
    /// The golden (functional-simulator) record, if the golden stream
    /// reaches this index.
    pub golden: Option<CommitRecord>,
    /// The other (pipeline) record, if its stream reaches this index.
    pub actual: Option<CommitRecord>,
    /// Golden architectural state immediately *after* the divergent
    /// commit (at the stream's end when the golden stream is the shorter
    /// one).
    pub golden_state: SimSnapshot,
    /// Actual architectural state immediately after the divergent commit
    /// (at the stream's end when the actual stream is the shorter one).
    pub actual_state: SimSnapshot,
    /// Disassembly of the instruction at the golden record's PC.
    pub golden_disasm: String,
    /// Disassembly of the instruction at the actual record's PC.
    pub actual_disasm: String,
}

fn disasm_at(program: &Program, record: Option<&CommitRecord>) -> String {
    match record {
        None => "<stream ended>".to_string(),
        Some(r) => match program.instruction_at(r.pc) {
            Some(inst) => inst.to_string(),
            None => "<outside text segment>".to_string(),
        },
    }
}

/// Locates the first divergent commit between `golden` and `actual`, or
/// `None` when the streams are identical (same records, same length).
pub fn first_divergence(
    program: &Program,
    golden: &[CommitRecord],
    actual: &[CommitRecord],
) -> Option<Divergence> {
    let index = golden
        .iter()
        .zip(actual.iter())
        .position(|(g, a)| g != a)
        .or_else(|| (golden.len() != actual.len()).then(|| golden.len().min(actual.len())))?;
    // Up to the divergent commit both streams are equal, so each state
    // includes that commit on the side that has it.
    let through =
        |stream: &[CommitRecord]| snapshot_at(program, &stream[..stream.len().min(index + 1)]);
    Some(Divergence {
        index,
        golden: golden.get(index).copied(),
        actual: actual.get(index).copied(),
        golden_state: through(golden),
        actual_state: through(actual),
        golden_disasm: disasm_at(program, golden.get(index)),
        actual_disasm: disasm_at(program, actual.get(index)),
    })
}

fn reg_name(idx: usize) -> String {
    match idx {
        0..=31 => format!("r{idx}"),
        32..=63 => format!("f{}", idx - 32),
        _ => "fcc".to_string(),
    }
}

fn fmt_record(r: Option<&CommitRecord>) -> String {
    r.map(|r| r.to_string()).unwrap_or_else(|| "<stream ended>".to_string())
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "first divergent commit: #{}", self.index)?;
        writeln!(f, "  golden: {}  [{}]", fmt_record(self.golden.as_ref()), self.golden_disasm)?;
        writeln!(f, "  actual: {}  [{}]", fmt_record(self.actual.as_ref()), self.actual_disasm)?;
        writeln!(
            f,
            "  arch state after the commit (golden pc={:#010x}, actual pc={:#010x}):",
            self.golden_state.pc, self.actual_state.pc
        )?;
        let mut differing = 0;
        for (idx, (g, a)) in self.golden_state.regs.iter().zip(&self.actual_state.regs).enumerate()
        {
            if g != a {
                writeln!(f, "    {:<4} golden={g:#010x} actual={a:#010x}", reg_name(idx))?;
                differing += 1;
            }
        }
        if differing == 0 {
            writeln!(f, "    registers identical — the commits differ in memory or control flow")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_isa::asm::assemble;
    use itr_sim::FuncSim;

    fn stream(src: &str, n: u64) -> (Program, Vec<CommitRecord>) {
        let p = assemble(src).unwrap();
        let mut sim = FuncSim::new(&p);
        let (records, _) = sim.run_collect(n);
        (p, records)
    }

    const SRC: &str = "main:\n li r8, 3\n add r9, r8, r8\n add r10, r9, r8\n halt\n";

    #[test]
    fn identical_streams_have_no_divergence() {
        let (p, s) = stream(SRC, 100);
        assert!(first_divergence(&p, &s, &s).is_none());
    }

    #[test]
    fn record_level_divergence_is_located_and_rendered() {
        let (p, golden) = stream(SRC, 100);
        let mut actual = golden.clone();
        let i = actual.len() - 2;
        if let Some((_, v)) = &mut actual[i].dst {
            *v ^= 0x40;
        }
        let d = first_divergence(&p, &golden, &actual).expect("diverges");
        assert_eq!(d.index, i);
        let text = d.to_string();
        assert!(text.contains("first divergent commit"), "{text}");
        assert!(text.contains("golden:") && text.contains("actual:"), "{text}");
        assert!(text.contains("add "), "disassembly missing: {text}");
    }

    #[test]
    fn length_divergence_reports_the_truncated_side() {
        let (p, golden) = stream(SRC, 100);
        let actual = golden[..golden.len() - 1].to_vec();
        let d = first_divergence(&p, &golden, &actual).expect("diverges");
        assert_eq!(d.index, actual.len());
        assert!(d.actual.is_none());
        assert!(d.to_string().contains("<stream ended>"));
    }

    #[test]
    fn state_diff_shows_the_poisoned_register() {
        let (p, golden) = stream(SRC, 100);
        let mut actual = golden.clone();
        let Some((r, v)) = &mut actual[1].dst else { panic!("second commit writes") };
        assert_eq!(*r, 9, "second commit writes r9");
        let clean = *v;
        *v = 0xDEAD;
        let d = first_divergence(&p, &golden, &actual).expect("diverges");
        assert_eq!(d.index, 1, "divergence at the poisoned commit");
        let text = d.to_string();
        assert!(
            text.contains(&format!("r9   golden={clean:#010x} actual={:#010x}", 0xDEAD)),
            "{text}"
        );
        assert!(!text.contains("registers identical"), "{text}");
    }
}
