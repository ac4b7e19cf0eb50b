//! Analysis-directed mutation: the gap engine's report turned into
//! mutation targets.
//!
//! The undirected mutators grow coverage by chance; this stage closes
//! the static↔dynamic loop instead. For a corpus entry it asks
//! `itr_analyze::gap` which statically possible CFG edges and trace
//! starts the entry's own execution (plus the campaign's aggregate
//! observed-edge set) never reached, then:
//!
//! * **branch flipping** — each uncovered edge carries the dominator
//!   chain to its controlling conditional branches and the polarity each
//!   must take ([`itr_analyze::BranchPolarity`]). The mutator targets
//!   exactly those branches: it swaps the opcode for its polarity
//!   complement (`beq`↔`bne`, `blez`↔`bgtz`, `bltz`↔`bgez`,
//!   `bc1t`↔`bc1f`), grounds one compare operand to `r0`, or perturbs
//!   the immediate of the nearest preceding writer of a compare
//!   register — all far more likely to flip the branch than a random
//!   operand tweak somewhere in the program;
//! * **never-formed-trace synthesis** — a static trace start that never
//!   formed dynamically is usually a phase-alignment problem (execution
//!   passes the PC mid-trace, never at a boundary). Replacing the
//!   preceding instruction with an always-taken branch-to-next
//!   (`beq r0, r0, +0` — architecturally a nop, but a trace terminator)
//!   forces a trace boundary exactly there while every other address in
//!   the program stays put.
//!
//! All randomness flows from the engine's single `SplitMix64` stream and
//! the plan for a fixed `(case, observations)` pair is deterministic, so
//! directed campaigns replay byte-identically per seed.

use crate::case::FuzzCase;
use crate::gen;
use itr_analyze::{gap_report, GapObservations};
use itr_isa::{Instruction, Opcode, Program};
use itr_stats::SplitMix64;
use std::collections::BTreeSet;

/// Trace-length configurations the directed stage diffs against — the
/// paper's evaluated set, matching the signature-determinism oracle.
pub const GAP_LENS: [u32; 3] = [4, 8, 16];

/// One actionable branch-polarity goal, in case coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchGoal {
    /// Index of the controlling conditional branch in `case.text`.
    pub branch_index: usize,
    /// The polarity the uncovered edge requires.
    pub want_taken: bool,
}

/// The directed plan for one case: where its coverage gaps are and
/// which instructions control them.
#[derive(Debug, Clone, Default)]
pub struct DirectedPlan {
    /// Deduplicated branch goals from every uncovered edge's dominator
    /// chain (the "walk the dominator chain to the controlling branch"
    /// step, precomputed by the gap engine's polarity metadata).
    pub goals: Vec<BranchGoal>,
    /// Text indices whose static trace start never formed dynamically.
    pub never_formed: Vec<usize>,
    /// Uncovered static CFG edges in PC space — the closure ledger the
    /// engine checks children against.
    pub uncovered_edges: BTreeSet<(u64, u64)>,
    /// Total open gaps (edges + loops + never-formed traces).
    pub open_gaps: u64,
}

impl DirectedPlan {
    /// `true` when the plan offers at least one directed move.
    pub fn actionable(&self) -> bool {
        !self.goals.is_empty() || !self.never_formed.is_empty()
    }
}

/// Computes the directed plan for `case`: runs its own golden execution
/// (bounded by `budget` instructions), folds in the campaign's
/// aggregate `observed` edges, and diffs against the static universe
/// and CFG.
///
/// Only aggregate edges whose source lies in the case's text are
/// folded in: the CFG covers the text alone, so the gap report drops
/// every other edge unread.
pub fn plan(case: &FuzzCase, observed: &BTreeSet<(u64, u64)>, budget: u64) -> DirectedPlan {
    let program = case.program();
    let text_base = program.text_base();
    let text_end = text_base + 4 * program.text().len() as u64;
    let mut obs = GapObservations::from_program(&program, budget, &GAP_LENS);
    obs.edges.extend(observed.range((text_base, 0)..(text_end, 0)).copied());
    plan_from(case, &program, &obs)
}

/// The directed plan for `case` (assembled as `program`) under `obs`.
fn plan_from(case: &FuzzCase, program: &Program, obs: &GapObservations) -> DirectedPlan {
    let text_base = program.text_base();
    let report = gap_report("case", program, &GAP_LENS, obs);

    let index_of = |pc: u64| -> Option<usize> {
        if pc < text_base || !pc.is_multiple_of(4) {
            return None;
        }
        let i = ((pc - text_base) / 4) as usize;
        (i < case.text.len()).then_some(i)
    };

    let mut goals: Vec<BranchGoal> = Vec::new();
    let mut uncovered_edges = BTreeSet::new();
    for g in &report.uncovered {
        uncovered_edges.insert((g.from_pc, g.to_pc));
        for p in &g.polarities {
            let Some(branch_index) = index_of(p.branch_pc) else { continue };
            if !case.text[branch_index].op.is_cond_branch() {
                continue;
            }
            let goal = BranchGoal { branch_index, want_taken: p.taken };
            if !goals.contains(&goal) {
                goals.push(goal);
            }
        }
    }
    let mut never_formed: Vec<usize> = Vec::new();
    for l in &report.lens {
        for &pc in &l.never_formed {
            // Index 0 has no preceding instruction to turn into a trace
            // boundary, and out-of-text starts are not addressable.
            let Some(i) = index_of(pc) else { continue };
            if i > 0 && !never_formed.contains(&i) {
                never_formed.push(i);
            }
        }
    }
    never_formed.sort_unstable();

    DirectedPlan { goals, never_formed, uncovered_edges, open_gaps: report.open_gaps() }
}

/// The polarity complement of a conditional-branch opcode.
fn complement(op: Opcode) -> Option<Opcode> {
    Some(match op {
        Opcode::Beq => Opcode::Bne,
        Opcode::Bne => Opcode::Beq,
        Opcode::Blez => Opcode::Bgtz,
        Opcode::Bgtz => Opcode::Blez,
        Opcode::Bltz => Opcode::Bgez,
        Opcode::Bgez => Opcode::Bltz,
        Opcode::Bc1t => Opcode::Bc1f,
        Opcode::Bc1f => Opcode::Bc1t,
        _ => return None,
    })
}

/// Flips the polarity of the goal branch: opcode complement, grounding
/// a compare operand, or perturbing the nearest preceding writer of a
/// compare register.
fn flip_branch(rng: &mut SplitMix64, case: &mut FuzzCase, goal: BranchGoal) {
    let i = goal.branch_index;
    let branch = case.text[i];
    match rng.gen_range(0u32..4) {
        0 => {
            if let Some(op) = complement(branch.op) {
                case.text[i].op = op;
                return;
            }
            case.text[i].rt = 0;
        }
        1 => {
            // Ground one compare operand: equality against r0 (or a
            // sign test of r0) takes the opposite arm for most live
            // register values.
            if rng.gen_bool(0.5) {
                case.text[i].rs = 0;
            } else {
                case.text[i].rt = 0;
            }
        }
        _ => {
            // Walk back to the instruction that computes the compare
            // input and perturb it — the concolic-lite move: mutate the
            // *operands feeding* the branch rather than the branch.
            let reg = if rng.gen_bool(0.5) && branch.rt != 0 { branch.rt } else { branch.rs };
            let writer = (0..i).rev().find(|&k| gen::writes_int_reg(&case.text[k], reg));
            match writer {
                Some(k) => {
                    let inst = &mut case.text[k];
                    inst.imm = match rng.gen_range(0u32..3) {
                        0 => 0,
                        1 => inst.imm.wrapping_neg(),
                        _ => rng.gen_range(0u64..0x1_0000) as i32 - 0x8000,
                    };
                }
                // No writer in range: seed one right before the branch.
                None => {
                    let imm = rng.gen_range(0u64..255) as i32 - 127;
                    case.text[i - i.min(1)] = Instruction::rri(Opcode::Addi, reg, 0, imm);
                }
            }
        }
    }
}

/// Forces a trace boundary immediately before text index `i` by
/// replacing the preceding instruction with an always-taken
/// branch-to-next (`beq r0, r0, +0`): any execution reaching `i` now
/// starts a trace there, while every other program address stays put.
fn force_trace_start(case: &mut FuzzCase, i: usize) {
    debug_assert!(i > 0);
    case.text[i - 1] = Instruction::branch(Opcode::Beq, 0, 0, 0);
}

/// One directed mutation of `base` under `plan`. Returns `None` when
/// the plan has nothing actionable (the engine falls back to the
/// undirected mutators).
pub fn directed_mutate(
    rng: &mut SplitMix64,
    base: &FuzzCase,
    plan: &DirectedPlan,
) -> Option<FuzzCase> {
    if !plan.actionable() {
        return None;
    }
    let mut case = base.clone();
    // Prefer branch flips (they chase uncovered edges); synthesize
    // never-formed trace starts on a minority of draws or when no
    // branch goal exists.
    let synthesize = plan.goals.is_empty() || (!plan.never_formed.is_empty() && rng.gen_bool(0.3));
    if synthesize {
        let i = plan.never_formed[rng.gen_range(0..plan.never_formed.len() as u64) as usize];
        if i < case.text.len() {
            force_trace_start(&mut case, i);
        }
    } else {
        let goal = plan.goals[rng.gen_range(0..plan.goals.len() as u64) as usize];
        if goal.branch_index < case.text.len() {
            flip_branch(rng, &mut case, goal);
        }
    }
    if !case.text.iter().any(|t| t.op == Opcode::Trap) {
        case.text.push(Instruction::trap(itr_isa::trap::HALT));
    }
    gen::sanitize(&mut case);
    Some(case)
}

#[cfg(test)]
mod tests {
    use super::*;
    use itr_sim::{FuncSim, StopReason};

    /// A case whose `beq r8, r0` guard never takes: li r8, 7 keeps the
    /// taken edge uncovered.
    fn guarded_case() -> FuzzCase {
        FuzzCase {
            text: vec![
                Instruction::rri(Opcode::Addi, 8, 0, 7),
                Instruction::branch(Opcode::Beq, 8, 0, 1),
                Instruction::rri(Opcode::Addi, 9, 9, 1),
                Instruction::trap(itr_isa::trap::HALT),
            ],
            data: Vec::new(),
            entry: 0,
        }
    }

    #[test]
    fn plan_finds_the_untaken_guard() {
        let case = guarded_case();
        let p = plan(&case, &BTreeSet::new(), 1000);
        assert!(p.actionable(), "plan: {p:?}");
        assert!(
            p.goals.contains(&BranchGoal { branch_index: 1, want_taken: true }),
            "goals: {:?}",
            p.goals
        );
        assert!(!p.uncovered_edges.is_empty());
    }

    #[test]
    fn ranged_edges_plan_like_the_whole_aggregate() {
        let mut rng = SplitMix64::new(11);
        let cases: Vec<FuzzCase> =
            (0..12).map(|i| gen::generate(&mut rng, 24 + 8 * i)).chain([guarded_case()]).collect();
        // An aggregate like the engine's: every case's own transfers,
        // plus transfers out of low memory, the nop ribbon past the
        // text, the data segment and the top of the address space.
        let mut observed = BTreeSet::new();
        for c in &cases {
            observed.extend(GapObservations::from_program(&c.program(), 1200, &GAP_LENS).edges);
        }
        let base = itr_isa::TEXT_BASE;
        observed.extend([
            (0x40, base),
            (base - 4, base + 8),
            (base + 0x10_0000, base + 4),
            (itr_isa::DATA_BASE + 8, base),
            (u64::MAX, 0),
        ]);
        let mut actionable = 0;
        for case in &cases {
            let program = case.program();
            let text_end = base + 4 * program.text().len() as u64;
            observed.insert((text_end, base));
            let mut whole = GapObservations::from_program(&program, 1200, &GAP_LENS);
            whole.edges.extend(observed.iter().copied());
            let want = plan_from(case, &program, &whole);
            let got = plan(case, &observed, 1200);
            assert_eq!(got.goals, want.goals);
            assert_eq!(got.never_formed, want.never_formed);
            assert_eq!(got.uncovered_edges, want.uncovered_edges);
            assert_eq!(got.open_gaps, want.open_gaps);
            actionable += usize::from(got.actionable());
        }
        assert!(actionable > cases.len() / 2, "only {actionable} plans have a move");
    }

    #[test]
    fn plan_is_deterministic() {
        let case = guarded_case();
        let a = plan(&case, &BTreeSet::new(), 1000);
        let b = plan(&case, &BTreeSet::new(), 1000);
        assert_eq!(a.goals, b.goals);
        assert_eq!(a.uncovered_edges, b.uncovered_edges);
        assert_eq!(a.never_formed, b.never_formed);
    }

    #[test]
    fn directed_mutation_closes_the_guard_gap_quickly() {
        // Within a small number of directed tries, some child must
        // actually take the guarded branch — the edge the plan targets.
        let case = guarded_case();
        let p = plan(&case, &BTreeSet::new(), 1000);
        let want: Vec<(u64, u64)> = p.uncovered_edges.iter().copied().collect();
        let mut rng = SplitMix64::new(7);
        let mut closed = false;
        for _ in 0..16 {
            let Some(child) = directed_mutate(&mut rng, &case, &p) else { break };
            let program = child.program();
            let obs = GapObservations::from_program(&program, 1000, &GAP_LENS);
            if want.iter().any(|e| obs.edges.contains(e)) {
                closed = true;
                break;
            }
        }
        assert!(closed, "no directed child took the guarded edge; targets: {want:?}");
    }

    #[test]
    fn directed_children_still_halt() {
        let case = guarded_case();
        let p = plan(&case, &BTreeSet::new(), 1000);
        let mut rng = SplitMix64::new(3);
        for _ in 0..8 {
            let child = directed_mutate(&mut rng, &case, &p).expect("actionable");
            let mut sim = FuncSim::new(&child.program());
            let stop = sim.run(5_000);
            assert!(
                !matches!(stop, StopReason::DecodeError(_)),
                "directed mutation produced undecodable text"
            );
        }
    }

    #[test]
    fn forced_trace_start_preserves_layout_and_execution() {
        let mut case = guarded_case();
        force_trace_start(&mut case, 2);
        assert_eq!(case.text.len(), 4, "no instruction inserted or removed");
        assert_eq!(case.text[1].op, Opcode::Beq);
        assert_eq!((case.text[1].rs, case.text[1].rt, case.text[1].imm), (0, 0, 0));
        let mut sim = FuncSim::new(&case.program());
        assert_eq!(sim.run(100), StopReason::Halted, "beq r0,r0,+0 is a semantic nop");
    }

    #[test]
    fn fully_covered_case_has_no_plan() {
        let case = FuzzCase {
            text: vec![
                Instruction::rri(Opcode::Addi, 8, 0, 1),
                Instruction::trap(itr_isa::trap::HALT),
            ],
            data: Vec::new(),
            entry: 0,
        };
        let p = plan(&case, &BTreeSet::new(), 1000);
        assert!(!p.actionable(), "plan: {p:?}");
        let mut rng = SplitMix64::new(1);
        assert!(directed_mutate(&mut rng, &case, &p).is_none());
    }
}
