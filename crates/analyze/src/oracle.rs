//! Cross-validation oracle: dynamic traces ⊆ static universe.
//!
//! Every trace the decode stage actually forms must be explainable by
//! the static enumeration, in two parts:
//!
//! 1. **Content** — the static walk from the trace's start PC (the
//!    universe's stored walk, or a fresh one for a start outside it)
//!    must reproduce the observed `(signature, length)`. This is
//!    sound whenever the fetched bytes cannot have been modified at run
//!    time; rISA programs have no self-modifying stores into text (the
//!    fuzz generator pins stores to the data segment and low scratch
//!    addresses, both disjoint from the analysis region).
//! 2. **Closure** — the start PC must be a member of the enumerated
//!    universe, i.e. the worklist closure actually predicted a trace
//!    could begin there.
//!
//! Two escape hatches keep the oracle sound rather than noisy:
//! dynamic starts outside the analysis region are counted as *region
//! escapes* (runaway control flow beyond the enumerator's bounded
//! nop-space pad), and closure misses in programs containing `jr`/`jalr`
//! are counted as *indirect escapes* (a register-computed target the
//! conservative set did not cover). Both are tolerated and reported;
//! genuine mismatches — a wrong signature, a wrong length, or a missing
//! universe member in a program with only direct control flow — are
//! violations.

use crate::image::ProgramImage;
use crate::trace::{walk, Universe};
use itr_core::{FoldKind, TraceRecord};
use itr_isa::Program;
use itr_sim::TraceStream;

/// What a dynamic trace disagreed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The static walk at this start PC produced a different signature
    /// or length than the dynamic trace.
    Content,
    /// The start PC is inside the region but the enumeration closure
    /// never reached it (and the program has no indirect jumps that
    /// could excuse the miss).
    Closure,
}

/// One dynamic trace the static analysis cannot explain.
#[derive(Debug, Clone, Copy)]
pub struct Violation {
    /// Which check failed.
    pub kind: ViolationKind,
    /// The dynamic trace.
    pub dynamic: TraceRecord,
    /// What the static walk produced at the same start PC, if it
    /// completed.
    pub static_record: Option<TraceRecord>,
}

/// Outcome of cross-validating one dynamic trace set against one
/// universe.
#[derive(Debug, Clone, Default)]
pub struct CrossValidation {
    /// Dynamic traces examined.
    pub checked: u64,
    /// Traces fully explained (content and closure both hold).
    pub matched: u64,
    /// Starts outside the analysis region (tolerated).
    pub region_escapes: u64,
    /// Closure misses excused by the presence of indirect jumps
    /// (tolerated).
    pub indirect_escapes: u64,
    /// Genuine disagreements.
    pub violations: Vec<Violation>,
}

impl CrossValidation {
    /// `true` when no genuine violations were found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Checks one dynamic trace against the universe, updating `cv`.
///
/// A start the universe holds is checked against its stored trace:
/// [`enumerate`](crate::enumerate) walked it with the same
/// `walk(image, start, max_len, FoldKind::Xor)` a fresh check would
/// run. Only starts outside the universe are walked here.
pub fn check_trace(
    image: &ProgramImage,
    universe: &Universe,
    record: &TraceRecord,
    cv: &mut CrossValidation,
) {
    cv.checked += 1;
    if !image.in_region(record.start_pc) {
        cv.region_escapes += 1;
        return;
    }
    let stored = universe.traces.get(&record.start_pc);
    let static_record = match stored {
        Some(t) => t.record,
        None => walk(image, record.start_pc, universe.max_len, FoldKind::Xor).record,
    };
    let content_ok =
        static_record.is_some_and(|s| s.signature == record.signature && s.len == record.len);
    if !content_ok {
        cv.violations.push(Violation {
            kind: ViolationKind::Content,
            dynamic: *record,
            static_record,
        });
        return;
    }
    if stored.is_none() {
        if image.has_indirect_jumps() {
            cv.indirect_escapes += 1;
        } else {
            cv.violations.push(Violation {
                kind: ViolationKind::Closure,
                dynamic: *record,
                static_record,
            });
        }
        return;
    }
    cv.matched += 1;
}

/// Cross-validates a whole dynamic trace set.
pub fn cross_validate(
    image: &ProgramImage,
    universe: &Universe,
    dynamic: &[TraceRecord],
) -> CrossValidation {
    let mut cv = CrossValidation::default();
    for record in dynamic {
        check_trace(image, universe, record, &mut cv);
    }
    cv
}

/// Collects the dynamic trace set of `program` by running the
/// functional simulator for up to `max_instrs` instructions under
/// trace-length limit `max_len`.
pub fn dynamic_traces(program: &Program, max_instrs: u64, max_len: u32) -> Vec<TraceRecord> {
    TraceStream::with_trace_len(program, max_instrs, max_len).collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use crate::trace::{enumerate, EnumOptions};
    use itr_isa::asm::assemble;

    const LOOP_SRC: &str = r#"
        main:
            li r8, 6
            li r9, 0
        top:
            add r9, r9, r8
            addi r8, r8, -1
            bgtz r8, top
            halt
    "#;

    #[test]
    fn dynamic_traces_are_subset_of_static_universe() {
        let p = assemble(LOOP_SRC).unwrap();
        let image = ProgramImage::new(&p);
        for max_len in [4u32, 8, 16] {
            let universe = enumerate(&image, max_len, &EnumOptions::default());
            let dynamic = dynamic_traces(&p, 10_000, max_len);
            assert!(!dynamic.is_empty());
            let cv = cross_validate(&image, &universe, &dynamic);
            assert!(cv.passed(), "max_len {max_len}: {:?}", cv.violations);
            assert_eq!(cv.matched, cv.checked, "no escapes in a direct-flow program");
        }
    }

    #[test]
    fn dropped_fallthrough_edge_is_caught_as_closure_violation() {
        let p = assemble(LOOP_SRC).unwrap();
        let image = ProgramImage::new(&p);
        let crippled = enumerate(
            &image,
            16,
            &EnumOptions { follow_fallthrough: false, ..EnumOptions::default() },
        );
        let dynamic = dynamic_traces(&p, 10_000, 16);
        let cv = cross_validate(&image, &crippled, &dynamic);
        assert!(!cv.passed(), "a broken enumerator must be caught");
        assert!(cv.violations.iter().any(|v| v.kind == ViolationKind::Closure));
    }

    #[test]
    fn wrong_signature_is_a_content_violation() {
        let p = assemble(LOOP_SRC).unwrap();
        let image = ProgramImage::new(&p);
        let universe = enumerate(&image, 16, &EnumOptions::default());
        let mut dynamic = dynamic_traces(&p, 10_000, 16);
        dynamic[0].signature ^= 0xDEAD_BEEF;
        let cv = cross_validate(&image, &universe, &dynamic);
        assert!(cv.violations.iter().any(|v| v.kind == ViolationKind::Content));
    }

    #[test]
    fn indirect_program_tolerates_unpredicted_targets() {
        let p = assemble(
            r#"
            main:
                jal callee
                halt
            callee:
                jr ra
            "#,
        )
        .unwrap();
        let image = ProgramImage::new(&p);
        let universe = enumerate(&image, 16, &EnumOptions::default());
        let dynamic = dynamic_traces(&p, 1_000, 16);
        let cv = cross_validate(&image, &universe, &dynamic);
        assert!(cv.passed(), "{:?}", cv.violations);
    }
}
