//! Coverage-gap analysis: the static universe diffed against dynamic
//! observation.
//!
//! [`crate::trace`] enumerates every trace a program *can* form and
//! [`crate::cfg`] recovers every control-flow edge it *can* take; this
//! module answers the complementary dynamic question — which of those
//! were actually seen. The diff drives the analysis-directed fuzzing
//! stage in `itr-fuzz`: never-formed traces and uncovered CFG edges
//! become mutation targets, and for each uncovered edge the report
//! carries static *feasibility metadata* — the dominator path from the
//! entry to the edge's source block and the branch polarities that path
//! requires — so a mutator can walk straight to the controlling branch
//! instead of flipping bits blindly.
//!
//! Observations are deliberately compact: a set of `(branch_pc,
//! destination_pc)` control transfers plus known entry PCs is enough to
//! reconstruct the executed block set, because a basic block that is
//! entered runs to its end and unconditional continuations (fall-through
//! splits, direct jumps and calls, non-stopping traps) are implied by
//! the CFG. The one over-approximation: a run cut mid-block by an
//! instruction budget still marks the whole block executed. Soundness
//! caveats in the other direction are inherited from the CFG itself —
//! the indirect-target set is conservative, so an "uncovered" indirect
//! edge may be dynamically infeasible; the report therefore separates
//! edge kinds and never claims feasibility, only static reachability
//! (unreachable-source edges are excluded from gaps outright and
//! counted as `static_only_edges`).

use crate::cfg::{BlockExit, Cfg};
use crate::image::ProgramImage;
use crate::trace::{enumerate, EnumOptions, Universe};
use itr_core::TraceBuilder;
use itr_isa::{Program, SignalFlags, INSTRUCTION_BYTES};
use itr_sim::Execution;
use itr_stats::json::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Schema tag of the JSON gap report.
pub const GAP_SCHEMA: &str = "itr-gap/v1";

/// Cap on per-list detail in the JSON rendering. Counts stay exact;
/// only the enumerated PC / edge listings are truncated, so the golden
/// baseline stays reviewable for workloads with thousands of traces.
pub const GAP_DETAIL_CAP: usize = 32;

/// Schema tag of the multi-workload golden document
/// (`tests/golden_gap.json`).
pub const GAP_GOLDEN_SCHEMA: &str = "itr-gap-golden/v1";

/// Functional-simulation instruction budget used when self-observing a
/// program for the golden baseline. Shared by the `itr-analyze
/// --write-gap` regeneration path and the `gap_golden` test so the two
/// can never drift apart.
pub const GAP_GOLDEN_BUDGET: u64 = 60_000;

/// Dynamically observed control-flow facts, in the compact form the
/// fuzzer's observed-edges accessor exports.
#[derive(Debug, Clone, Default)]
pub struct GapObservations {
    /// Observed control transfers `(branch_pc, destination_pc)`: one
    /// entry per executed trace-ending instruction outcome, taken
    /// targets and not-taken `pc + 4` fall-throughs alike.
    pub edges: BTreeSet<(u64, u64)>,
    /// PCs where execution is known to have entered (program entry,
    /// recorded start states). Seeds the executed-block closure.
    pub entry_pcs: BTreeSet<u64>,
    /// Observed trace start PCs per trace-length configuration.
    pub trace_starts: BTreeMap<u32, BTreeSet<u64>>,
}

impl GapObservations {
    /// Records `program`'s functional run of up to `max_instrs`
    /// instructions and collects its edges plus the trace starts for
    /// every length in `lens`, formed by [`TraceBuilder`]. The start of a
    /// trace the budget cuts off counts too: that trace was entered.
    pub fn from_program(program: &Program, max_instrs: u64, lens: &[u32]) -> GapObservations {
        let exec = Execution::record(program, max_instrs);
        let mut obs = GapObservations::default();
        obs.entry_pcs.insert(program.entry());
        for (r, signals) in exec.records.iter().zip(&exec.signals) {
            if signals.flags.contains(SignalFlags::IS_BRANCH) {
                obs.edges.insert((r.pc, r.next_pc));
            }
        }
        for &len in lens {
            let mut builder = TraceBuilder::new(len);
            let starts = obs.trace_starts.entry(len).or_default();
            for (pc, signals) in exec.decodes() {
                if let Some(trace) = builder.push(pc, &signals) {
                    starts.insert(trace.start_pc);
                }
            }
            if builder.pending_len() > 0 {
                starts.insert(builder.pending_start_pc());
            }
        }
        obs
    }

    /// Folds another observation set into this one.
    pub fn merge(&mut self, other: &GapObservations) {
        self.edges.extend(other.edges.iter().copied());
        self.entry_pcs.extend(other.entry_pcs.iter().copied());
        for (len, starts) in &other.trace_starts {
            self.trace_starts.entry(*len).or_default().extend(starts.iter().copied());
        }
    }
}

/// Required polarity at one conditional branch along a dominator path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchPolarity {
    /// PC of the conditional branch.
    pub branch_pc: u64,
    /// `true` when the branch must be taken to continue along the path.
    pub taken: bool,
    /// Destination this polarity selects.
    pub target: u64,
}

/// One uncovered CFG edge with static feasibility metadata.
#[derive(Debug, Clone)]
pub struct EdgeGap {
    /// PC of the source block's terminating instruction.
    pub from_pc: u64,
    /// Start PC of the destination block.
    pub to_pc: u64,
    /// How the source block exits.
    pub kind: BlockExit,
    /// For conditional-branch sources: the polarity that selects this
    /// edge. `None` for other exit kinds.
    pub taken: Option<bool>,
    /// Start PCs of the dominator chain entry → source block. Every
    /// path to the edge passes through these blocks, in this order.
    pub dominator_path: Vec<u64>,
    /// Branch polarities required where consecutive dominators are
    /// directly connected by a conditional branch, plus this edge's own
    /// polarity when the source is a conditional branch. Dominator-tree
    /// edges that are not CFG edges contribute nothing (the path there
    /// is not unique), so this list is a sound but incomplete
    /// constraint set.
    pub polarities: Vec<BranchPolarity>,
}

/// Never-formed trace summary for one trace-length configuration.
#[derive(Debug, Clone)]
pub struct LenGap {
    /// Trace-length limit of this universe.
    pub max_len: u32,
    /// Statically enumerable traces (completed records only).
    pub static_traces: u64,
    /// Static traces whose start PC was dynamically observed.
    pub formed: u64,
    /// Start PCs of traces that never formed, sorted.
    pub never_formed: Vec<u64>,
}

/// The static↔dynamic coverage diff for one program.
#[derive(Debug, Clone)]
pub struct GapReport {
    /// Workload name.
    pub name: String,
    /// CFG edges out of entry-reachable blocks.
    pub static_edges: u64,
    /// Of those, edges observed or implied by the executed-block
    /// closure.
    pub covered_edges: u64,
    /// Edges out of unreachable blocks — static artifacts that no
    /// execution can cover; excluded from the gap list.
    pub static_only_edges: u64,
    /// Reachable-but-uncovered edges with feasibility metadata.
    pub uncovered: Vec<EdgeGap>,
    /// Natural loops in the CFG.
    pub loops_total: u64,
    /// Loops whose header block executed.
    pub loops_entered: u64,
    /// Header start PCs of loops never entered, sorted.
    pub unentered_loops: Vec<u64>,
    /// Per-trace-length never-formed summaries.
    pub lens: Vec<LenGap>,
}

/// Builds the image, CFG and universes for `program` and diffs them
/// against `obs` — the one-call entry point used by the binary, the
/// repro family and the directed fuzzer.
pub fn gap_report(
    name: &str,
    program: &Program,
    trace_lens: &[u32],
    obs: &GapObservations,
) -> GapReport {
    let image = ProgramImage::new(program);
    let cfg = Cfg::build(&image);
    let opts = EnumOptions::default();
    let universes: Vec<Universe> =
        trace_lens.iter().map(|&len| enumerate(&image, len, &opts)).collect();
    GapReport::diff(name, &image, &cfg, &universes, obs)
}

/// Builds the `itr-gap-golden/v1` document: one self-observed gap
/// report per named program, each formed by running the program for
/// `budget` instructions under [`GapObservations::from_program`] and
/// diffing against its own static structure at every length in `lens`.
/// This is the exact document `itr-analyze --write-gap` regenerates and
/// `tests/gap_golden.rs` pins byte-for-byte.
pub fn golden_document(programs: &[(&str, &Program)], budget: u64, lens: &[u32]) -> Value {
    let reports = programs
        .iter()
        .map(|&(name, program)| {
            let obs = GapObservations::from_program(program, budget, lens);
            gap_report(name, program, lens, &obs).to_value()
        })
        .collect();
    Value::Object(vec![
        ("schema".to_string(), Value::Str(GAP_GOLDEN_SCHEMA.to_string())),
        ("budget".to_string(), Value::UInt(budget)),
        (
            "lens".to_string(),
            Value::Array(lens.iter().map(|&l| Value::UInt(u64::from(l))).collect()),
        ),
        ("reports".to_string(), Value::Array(reports)),
    ])
}

impl GapReport {
    /// Diffs static structure against dynamic observation.
    pub fn diff(
        name: &str,
        image: &ProgramImage,
        cfg: &Cfg,
        universes: &[Universe],
        obs: &GapObservations,
    ) -> GapReport {
        let (covered, executed) = covered_and_executed(image, cfg, obs);

        let mut static_edges = 0u64;
        let mut static_only_edges = 0u64;
        let mut covered_edges = 0u64;
        let mut uncovered = Vec::new();
        for (i, block) in cfg.blocks.iter().enumerate() {
            if !cfg.reachable[i] {
                static_only_edges += block.succs.len() as u64;
                continue;
            }
            static_edges += block.succs.len() as u64;
            for &j in &block.succs {
                if covered.contains(&(i, j)) {
                    covered_edges += 1;
                } else {
                    uncovered.push(edge_gap(image, cfg, i, j));
                }
            }
        }

        let mut unentered_loops = Vec::new();
        for l in &cfg.loops {
            if !executed[l.header] {
                unentered_loops.push(cfg.blocks[l.header].start);
            }
        }
        let loops_total = cfg.loops.len() as u64;
        let loops_entered = loops_total - unentered_loops.len() as u64;

        let empty = BTreeSet::new();
        let lens = universes
            .iter()
            .map(|u| {
                let seen = obs.trace_starts.get(&u.max_len).unwrap_or(&empty);
                let mut never_formed = Vec::new();
                let mut static_traces = 0u64;
                for (start, t) in &u.traces {
                    if t.record.is_none() {
                        continue;
                    }
                    static_traces += 1;
                    if !seen.contains(start) {
                        never_formed.push(*start);
                    }
                }
                let formed = static_traces - never_formed.len() as u64;
                LenGap { max_len: u.max_len, static_traces, formed, never_formed }
            })
            .collect();

        GapReport {
            name: name.to_string(),
            static_edges,
            covered_edges,
            static_only_edges,
            uncovered,
            loops_total,
            loops_entered,
            unentered_loops,
            lens,
        }
    }

    /// `true` when nothing statically possible went unobserved.
    pub fn is_closed(&self) -> bool {
        self.uncovered.is_empty()
            && self.unentered_loops.is_empty()
            && self.lens.iter().all(|l| l.never_formed.is_empty())
    }

    /// Total gap count: uncovered edges plus never-formed traces across
    /// all length configs plus unentered loops.
    pub fn open_gaps(&self) -> u64 {
        self.uncovered.len() as u64
            + self.unentered_loops.len() as u64
            + self.lens.iter().map(|l| l.never_formed.len() as u64).sum::<u64>()
    }

    /// The `itr-gap/v1` JSON document for this program. Listings are
    /// capped at [`GAP_DETAIL_CAP`]; counts are always exact.
    pub fn to_value(&self) -> Value {
        let pcs = |v: &[u64]| {
            Value::Array(
                v.iter().take(GAP_DETAIL_CAP).map(|pc| Value::Str(format!("{pc:#010x}"))).collect(),
            )
        };
        let uncovered = self
            .uncovered
            .iter()
            .take(GAP_DETAIL_CAP)
            .map(|g| {
                let polarities = g
                    .polarities
                    .iter()
                    .map(|p| {
                        Value::Object(vec![
                            ("branch".to_string(), Value::Str(format!("{:#010x}", p.branch_pc))),
                            ("taken".to_string(), Value::Bool(p.taken)),
                            ("target".to_string(), Value::Str(format!("{:#010x}", p.target))),
                        ])
                    })
                    .collect();
                let mut fields = vec![
                    ("from".to_string(), Value::Str(format!("{:#010x}", g.from_pc))),
                    ("to".to_string(), Value::Str(format!("{:#010x}", g.to_pc))),
                    ("kind".to_string(), Value::Str(exit_label(g.kind).to_string())),
                ];
                if let Some(taken) = g.taken {
                    fields.push(("taken".to_string(), Value::Bool(taken)));
                }
                fields.push(("dominator_path".to_string(), pcs(&g.dominator_path)));
                fields.push(("polarities".to_string(), Value::Array(polarities)));
                Value::Object(fields)
            })
            .collect();
        let lens = self
            .lens
            .iter()
            .map(|l| {
                Value::Object(vec![
                    ("max_len".to_string(), Value::UInt(u64::from(l.max_len))),
                    ("static_traces".to_string(), Value::UInt(l.static_traces)),
                    ("formed".to_string(), Value::UInt(l.formed)),
                    ("never_formed".to_string(), Value::UInt(l.never_formed.len() as u64)),
                    ("never_formed_pcs".to_string(), pcs(&l.never_formed)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("schema".to_string(), Value::Str(GAP_SCHEMA.to_string())),
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "edges".to_string(),
                Value::Object(vec![
                    ("static".to_string(), Value::UInt(self.static_edges)),
                    ("covered".to_string(), Value::UInt(self.covered_edges)),
                    ("uncovered".to_string(), Value::UInt(self.uncovered.len() as u64)),
                    ("static_only".to_string(), Value::UInt(self.static_only_edges)),
                ]),
            ),
            (
                "loops".to_string(),
                Value::Object(vec![
                    ("total".to_string(), Value::UInt(self.loops_total)),
                    ("entered".to_string(), Value::UInt(self.loops_entered)),
                    ("unentered_pcs".to_string(), pcs(&self.unentered_loops)),
                ]),
            ),
            ("uncovered".to_string(), Value::Array(uncovered)),
            ("lens".to_string(), Value::Array(lens)),
        ])
    }
}

fn exit_label(exit: BlockExit) -> &'static str {
    match exit {
        BlockExit::FallThrough => "fall-through",
        BlockExit::CondBranch => "cond-branch",
        BlockExit::Jump => "jump",
        BlockExit::Call => "call",
        BlockExit::Indirect => "indirect",
        BlockExit::Stop => "stop",
        BlockExit::Trap => "trap",
        BlockExit::Undecodable => "undecodable",
    }
}

/// Reconstructs covered block-edge pairs and the executed block set
/// from compact observations: observed transfers are mapped onto CFG
/// edges, then execution propagates through unconditional continuations
/// (fall-through splits, direct jumps/calls, non-stopping traps) whose
/// edges the observation stream never records explicitly.
fn covered_and_executed(
    image: &ProgramImage,
    cfg: &Cfg,
    obs: &GapObservations,
) -> (BTreeSet<(usize, usize)>, Vec<bool>) {
    let mut executed = vec![false; cfg.blocks.len()];
    let mut covered = BTreeSet::new();
    let mut queue = Vec::new();

    for &pc in &obs.entry_pcs {
        if let Some(i) = cfg.block_at(pc) {
            if !executed[i] {
                executed[i] = true;
                queue.push(i);
            }
        }
    }
    for &(from, to) in &obs.edges {
        let Some(i) = cfg.block_at(from) else { continue };
        // The transfer must come from the block's terminating
        // instruction — anything else is an observation from a
        // different program layout and is ignored.
        if from != cfg.blocks[i].end - INSTRUCTION_BYTES {
            continue;
        }
        if !executed[i] {
            executed[i] = true;
            queue.push(i);
        }
        let Some(j) = cfg.block_at(to) else { continue };
        if cfg.blocks[j].start != to || !cfg.blocks[i].succs.contains(&j) {
            continue;
        }
        covered.insert((i, j));
        if !executed[j] {
            executed[j] = true;
            queue.push(j);
        }
    }
    while let Some(i) = queue.pop() {
        let block = &cfg.blocks[i];
        let last_pc = block.end - INSTRUCTION_BYTES;
        let implied = match block.exit {
            BlockExit::FallThrough | BlockExit::Trap => Some(block.end),
            BlockExit::Jump | BlockExit::Call => {
                image.fetch(last_pc).and_then(|(inst, _)| inst.direct_target(last_pc))
            }
            _ => None,
        };
        let Some(target) = implied else { continue };
        let Some(j) = cfg.block_at(target) else { continue };
        if cfg.blocks[j].start != target || !block.succs.contains(&j) {
            continue;
        }
        covered.insert((i, j));
        if !executed[j] {
            executed[j] = true;
            queue.push(j);
        }
    }
    (covered, executed)
}

/// Builds the feasibility metadata for the uncovered edge `i → j`.
fn edge_gap(image: &ProgramImage, cfg: &Cfg, i: usize, j: usize) -> EdgeGap {
    let block = &cfg.blocks[i];
    let from_pc = block.end - INSTRUCTION_BYTES;
    let to_pc = cfg.blocks[j].start;
    let branch_target = |pc: u64| image.fetch(pc).and_then(|(inst, _)| inst.direct_target(pc));
    let taken = match block.exit {
        BlockExit::CondBranch => Some(branch_target(from_pc) == Some(to_pc)),
        _ => None,
    };

    let mut chain = vec![i];
    let mut cur = i;
    while let Some(d) = cfg.idom[cur] {
        if d == cur {
            break;
        }
        chain.push(d);
        cur = d;
    }
    chain.reverse();
    let dominator_path: Vec<u64> = chain.iter().map(|&k| cfg.blocks[k].start).collect();

    let mut polarities = Vec::new();
    for w in chain.windows(2) {
        let (d, n) = (w[0], w[1]);
        let db = &cfg.blocks[d];
        if db.exit != BlockExit::CondBranch || !db.succs.contains(&n) {
            continue;
        }
        let branch_pc = db.end - INSTRUCTION_BYTES;
        let target = cfg.blocks[n].start;
        polarities.push(BranchPolarity {
            branch_pc,
            taken: branch_target(branch_pc) == Some(target),
            target,
        });
    }
    if let Some(taken) = taken {
        polarities.push(BranchPolarity { branch_pc: from_pc, taken, target: to_pc });
    }

    EdgeGap { from_pc, to_pc, kind: block.exit, taken, dominator_path, polarities }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;
    use itr_isa::asm::assemble;

    const LENS: [u32; 3] = [4, 8, 16];

    fn gaps(src: &str, max_instrs: u64) -> GapReport {
        let p = assemble(src).unwrap();
        let obs = GapObservations::from_program(&p, max_instrs, &LENS);
        gap_report("t", &p, &LENS, &obs)
    }

    #[test]
    fn fully_covered_program_yields_empty_report() {
        // Straight-line code plus a loop that executes both branch
        // polarities: every edge, loop and static trace is observed.
        let report = gaps(
            r#"
            main:
                li r8, 3
            top:
                addi r8, r8, -1
                bgtz r8, top
                halt
            "#,
            10_000,
        );
        assert!(report.is_closed(), "open gaps: {report:?}");
        assert_eq!(report.open_gaps(), 0);
        assert_eq!(report.covered_edges, report.static_edges);
        assert_eq!(report.loops_entered, report.loops_total);
        assert_eq!(report.loops_total, 1);
        for l in &report.lens {
            assert_eq!(l.formed, l.static_traces);
        }
    }

    #[test]
    fn unreachable_block_edges_are_static_only_not_gaps() {
        let report = gaps(
            r#"
            main:
                j done
            dead:
                add r8, r8, r8
                beq r8, r9, done
            done:
                halt
            "#,
            100,
        );
        // The dead block's two branch edges exist statically but are
        // excluded from the gap list.
        assert!(report.static_only_edges >= 1, "report: {report:?}");
        assert!(report.is_closed(), "unreachable edges must not open gaps: {report:?}");
    }

    #[test]
    fn uncovered_branch_polarity_is_reported_with_dominator_path() {
        // r8 is never 0 at run time, so `beq` always falls through: the
        // taken edge to `skip` is an uncovered gap with taken=true.
        let p = assemble(
            r#"
            main:
                li r8, 7
                beq r8, r0, skip
                addi r9, r9, 1
            skip:
                halt
            "#,
        )
        .unwrap();
        let obs = GapObservations::from_program(&p, 100, &LENS);
        let report = gap_report("t", &p, &LENS, &obs);
        assert_eq!(report.uncovered.len(), 1, "report: {report:?}");
        let gap = &report.uncovered[0];
        assert_eq!(gap.kind, BlockExit::CondBranch);
        assert_eq!(gap.taken, Some(true));
        assert_eq!(gap.to_pc, p.symbol("skip").unwrap());
        // The dominator path starts at the entry block and ends at the
        // branch's own block; the final polarity entry is the gap edge.
        assert_eq!(gap.dominator_path.first(), Some(&p.entry()));
        let last = gap.polarities.last().unwrap();
        assert_eq!((last.branch_pc, last.taken, last.target), (gap.from_pc, true, gap.to_pc));
        // The fall-through trace formed, the taken-path start did not
        // appear as a never-formed trace (skip is also the fall-through
        // continuation target of the post-branch block, which executed).
        assert!(report.lens.iter().all(|l| l.formed >= 1));
    }

    #[test]
    fn indirect_branch_target_set_gaps_are_per_target() {
        // `jr ra` closes over the conservative indirect-target set;
        // only the actual return site is covered, the remaining
        // targets stay listed as indirect gaps.
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
        let obs = GapObservations::from_program(&p, 100, &LENS);
        let report = gap_report("t", &p, &LENS, &obs);
        let indirect: Vec<_> =
            report.uncovered.iter().filter(|g| g.kind == BlockExit::Indirect).collect();
        assert!(!indirect.is_empty(), "conservative jr targets beyond the return site: {report:?}");
        for g in &indirect {
            assert_eq!(g.taken, None);
            assert_ne!(g.to_pc, p.entry() + 4, "the dynamic return edge is covered");
        }
    }

    #[test]
    fn trace_exactly_at_max_length_is_formed_not_a_gap() {
        // Four non-branch instructions then halt: at max_len 4 the
        // first trace is cut exactly at the limit and a second trace
        // starts at the halt. Both must register as formed.
        let p = assemble(
            r#"
            main:
                addi r8, r8, 1
                addi r8, r8, 2
                addi r8, r8, 3
                addi r8, r8, 4
                halt
            "#,
        )
        .unwrap();
        let obs = GapObservations::from_program(&p, 100, &[4]);
        let starts = &obs.trace_starts[&4];
        assert!(starts.contains(&p.entry()));
        assert!(starts.contains(&(p.entry() + 16)), "length-cut continuation start");
        let report = gap_report("t", &p, &[4], &obs);
        let l4 = &report.lens[0];
        assert_eq!(l4.never_formed, Vec::<u64>::new(), "report: {report:?}");
        assert_eq!(l4.formed, l4.static_traces);
    }

    #[test]
    fn unentered_loop_is_reported() {
        // The loop body is guarded by a branch that never takes.
        let p = assemble(
            r#"
            main:
                li r8, 0
                bgtz r8, top
                halt
            top:
                addi r8, r8, -1
                bgtz r8, top
                halt
            "#,
        )
        .unwrap();
        let obs = GapObservations::from_program(&p, 100, &LENS);
        let report = gap_report("t", &p, &LENS, &obs);
        assert_eq!(report.loops_total, 1);
        assert_eq!(report.loops_entered, 0);
        assert_eq!(report.unentered_loops, vec![p.symbol("top").unwrap()]);
        // And the never-taken guard edge is an uncovered gap.
        assert!(report.uncovered.iter().any(|g| g.to_pc == p.symbol("top").unwrap()));
    }

    #[test]
    fn merge_folds_observation_sets() {
        let p = assemble("main:\n li r8, 1\n halt\n").unwrap();
        let mut a = GapObservations::from_program(&p, 1, &[4]);
        let b = GapObservations::from_program(&p, 100, &[4]);
        a.merge(&b);
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.trace_starts, b.trace_starts);
    }

    #[test]
    fn json_document_carries_schema_and_exact_counts() {
        let report = gaps("main:\n li r8, 7\n beq r8, r0, 1\n halt\n", 100);
        let v = report.to_value();
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(GAP_SCHEMA));
        let edges = v.get("edges").unwrap();
        assert_eq!(
            edges.get("uncovered").and_then(Value::as_u64),
            Some(report.uncovered.len() as u64)
        );
        // Round-trips through the JSON codec.
        let parsed = Value::parse(&v.to_json()).unwrap();
        assert_eq!(parsed.to_json(), v.to_json());
    }
}
