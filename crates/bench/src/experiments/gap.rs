//! The static↔dynamic coverage-gap loop as a harness job family.
//!
//! Three compute families feed one emit job:
//!
//! * `gap-suite` — the workload suite splits round-robin across fixed
//!   shards; each workload's own bounded execution is diffed against its
//!   static CFG and trace universes (`itr_analyze::gap`), yielding
//!   never-formed traces, uncovered edges and unentered loops per
//!   trace-length config;
//! * `gap-adversarial` — the alias/set-conflict analysis turned
//!   offensive: generated workloads that maximize ITR-cache set
//!   conflicts (every trace start indexes one set, overflowing its
//!   ways) and dangerous content-alias groups (permuted twin blocks
//!   whose XOR fold collides), run through the fault campaign against a
//!   layout-identical benign control. The *only* difference between the
//!   benign and set-conflict programs is block padding — same
//!   instruction stream, different set mapping — so the detection-
//!   coverage delta isolates cache thrash;
//! * `gap-ab` — the pinned directed-vs-blind races: for each fixed-seed
//!   config the blind engine runs the budget and the analysis-directed
//!   engine must reach 95% of its final gap-closure count in no more
//!   oracle executions (the `itr-fuzz gap-ab` contract).
//!
//! The emit job renders `gap.txt` / `gap.csv` in suite order; both are
//! byte-identical across `--jobs` counts like every other artifact.

use super::{emit_payload, get_bool, get_f64, get_str, get_u64, obj, Csv, Emitted, Scale};
use itr_analyze::{gap_report, GapObservations};
use itr_core::{Associativity, ItrCacheConfig, ItrConfig, ItrMode};
use itr_faults::{run_campaign, CampaignConfig};
use itr_fuzz::{gap_race, FuzzConfig};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_isa::asm::assemble;
use itr_isa::Program;
use itr_stats::json::Value;
use itr_workloads::suite;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Fixed shard count of the suite diff — part of the decomposition.
pub const GAP_SHARDS: u32 = 4;

/// Mimic dynamic-instruction target, pinned to the analyze family so
/// the same suite is being diffed.
pub const GAP_MIMIC_INSTRS: u64 = 30_000;

/// Per-workload execution budget of the dynamic observation pass.
pub const GAP_EXEC_BUDGET: u64 = 60_000;

/// Trace-length configs diffed per workload (the paper's sweep).
pub const GAP_LENS: [u32; 3] = [4, 8, 16];

/// Pinned `(seed, iters)` configs of the directed-vs-blind race. Every
/// config must pass; CI asserts the `all_pass` bit in `gap.txt`.
pub const GAP_AB_CONFIGS: [(u64, u64); 3] = [(2, 150), (5, 150), (7, 150)];

/// Adversarial cache geometry the generator is tuned against: 64
/// entries, 2-way — 32 sets, so trace starts 32 words apart collide.
const ADV_CACHE_ENTRIES: u32 = 64;
/// Conflicting trace-start blocks chained per loop (> ways, so the set
/// thrashes; benign layout spreads the same blocks across sets).
const ADV_BLOCKS: u32 = 6;
/// Loop iterations — sized so the fault-injection window of decoded
/// instructions is fully inside the loop.
const ADV_ITERS: u32 = 2000;
/// Block stride in words under the conflicting layout (= the set
/// count, so every block start indexes set 0).
const ADV_STRIDE: u32 = ADV_CACHE_ENTRIES / 2;
/// Twin-block pairs of the content-alias adversary.
const ALIAS_PAIRS: u32 = 8;

fn adv_cache() -> ItrCacheConfig {
    ItrCacheConfig::new(ADV_CACHE_ENTRIES, Associativity::Ways(2))
}

/// The set-conflict adversary (and its benign control): `ADV_BLOCKS`
/// blocks chained by jumps inside a counted loop, each block one trace.
/// With `conflict`, blocks are padded to the set-count stride so every
/// trace start indexes the same set and the ways overflow; otherwise
/// the stride is one word longer and the same instruction stream spreads
/// across sets. Identical decode stream either way — padding after an
/// unconditional jump never executes.
fn conflict_source(conflict: bool) -> String {
    let stride = if conflict { ADV_STRIDE } else { ADV_STRIDE + 1 };
    let mut s = String::from("main:\n");
    s.push_str(&format!("    li r20, {ADV_ITERS}\n"));
    s.push_str("    li r8, 0\n    li r9, 0\n    j b0\n");
    // Header is 4 instructions; pad so b0 lands exactly on the stride.
    for _ in 4..stride {
        s.push_str("    nop\n");
    }
    for b in 0..ADV_BLOCKS {
        s.push_str(&format!("b{b}:\n"));
        let used = if b + 1 < ADV_BLOCKS {
            s.push_str("    addi r8, r8, 1\n    xor r9, r9, r8\n    add r10, r9, r8\n");
            s.push_str(&format!("    j b{}\n", b + 1));
            4
        } else {
            s.push_str("    xor r9, r9, r8\n    addi r20, r20, -1\n");
            s.push_str("    bgtz r20, b0\n");
            s.push_str("    move r4, r9\n    trap 1\n    halt\n");
            6
        };
        for _ in used..stride {
            s.push_str("    nop\n");
        }
    }
    s
}

/// The content-alias adversary: `ALIAS_PAIRS` twin-block pairs whose
/// two leading instructions are swapped between twins. Every block ends
/// with the same-shaped always-taken branch at the same intra-block
/// offset, so twin traces carry identical word *multisets* in different
/// order — the XOR fold cannot tell them apart (a content alias group
/// per pair, the exact collision class `itr-analyze` flags as a missed
/// detection opportunity).
fn alias_source() -> String {
    let mut s = String::from("main:\n");
    s.push_str(&format!("    li r20, {ADV_ITERS}\n"));
    s.push_str("    li r8, 0\n    li r9, 0\n    j p0\n");
    for p in 0..ALIAS_PAIRS {
        // Twin A: addi then xor; twin B: xor then addi — the same two
        // words in swapped order. Each pair gets its own immediate so
        // every pair is a *distinct* content-alias group rather than one
        // merged collision class.
        s.push_str(&format!("p{p}:\n"));
        s.push_str(&format!("    addi r8, r8, {}\n    xor r9, r9, r8\n", p + 1));
        s.push_str(&format!("    beq r0, r0, q{p}\n"));
        s.push_str(&format!("q{p}:\n"));
        s.push_str(&format!("    xor r9, r9, r8\n    addi r8, r8, {}\n", p + 1));
        if p + 1 < ALIAS_PAIRS {
            s.push_str(&format!("    beq r0, r0, p{}\n", p + 1));
        } else {
            s.push_str("    beq r0, r0, tail\n");
        }
    }
    s.push_str("tail:\n    addi r20, r20, -1\n    bgtz r20, p0\n");
    s.push_str("    move r4, r9\n    trap 1\n    halt\n");
    s
}

/// Dynamically observed trace starts (length-16 config) that overflow
/// their ITR-cache set under `cache` — the offensive metric the
/// conflict adversary maximizes.
fn overfull_sets(program: &Program, cache: &ItrCacheConfig) -> (u64, u64) {
    let obs = GapObservations::from_program(program, GAP_EXEC_BUDGET, &[16]);
    let mut per_set: BTreeMap<u32, u32> = BTreeMap::new();
    if let Some(starts) = obs.trace_starts.get(&16) {
        for &pc in starts {
            *per_set.entry(cache.set_index(pc)).or_insert(0) += 1;
        }
    }
    let ways = cache.ways();
    let overfull = per_set.values().filter(|&&n| n > ways).count() as u64;
    let worst = per_set.values().copied().max().unwrap_or(0) as u64;
    (overfull, worst)
}

/// One adversarial-campaign shard: assemble, measure the set pressure,
/// run the fault campaign under the adversary-tuned cache.
fn adversarial_value(scale: &Scale, index: u64, name: &str, source: &str) -> Value {
    let program = assemble(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let cache = adv_cache();
    let (overfull, worst_set) = overfull_sets(&program, &cache);
    let cfg = CampaignConfig {
        faults: scale.faults,
        window_cycles: scale.window_cycles,
        seed: scale.seed ^ 0x3000 ^ index,
        threads: 1,
        itr: ItrConfig { cache, mode: ItrMode::Passive, ..ItrConfig::paper_default() },
        ..CampaignConfig::default()
    };
    let result = run_campaign(&program, &cfg);
    obj(vec![
        ("index", Value::UInt(index)),
        ("name", Value::Str(name.to_string())),
        ("text_instrs", Value::UInt(program.text().len() as u64)),
        ("overfull_sets", Value::UInt(overfull)),
        ("worst_set_traces", Value::UInt(worst_set)),
        ("faults", Value::UInt(result.records.len() as u64)),
        ("itr_detected", Value::Float(result.itr_detected_fraction())),
    ])
}

/// One pinned directed-vs-blind race ([`gap_race`], the `itr-fuzz
/// gap-ab` contract), encoded so the repro artifact carries the evidence.
fn gap_ab_value(seed: u64, iters: u64) -> Value {
    let race = gap_race(&FuzzConfig { skip_seeding: true, ..FuzzConfig::quick(seed, iters) });
    let pass = race.target > 0
        && race.directed_closures >= race.target
        && race.directed_execs <= race.blind_execs;
    obj(vec![
        ("seed", Value::UInt(seed)),
        ("iters", Value::UInt(iters)),
        ("blind_closures", Value::UInt(race.blind_closures)),
        ("target", Value::UInt(race.target)),
        ("blind_execs", Value::UInt(race.blind_execs)),
        ("directed_closures", Value::UInt(race.directed_closures)),
        ("directed_execs", Value::UInt(race.directed_execs)),
        ("pass", Value::Bool(pass)),
    ])
}

/// Renders `gap.txt` / `gap.csv`; shard payloads merge back into suite
/// order via the recorded indices.
pub fn render_gap(suite: &[Value], adversarial: &[Value], ab: &[Value]) -> Emitted {
    let mut units: Vec<&Value> = suite
        .iter()
        .filter_map(|v| v.get("workloads").and_then(Value::as_array))
        .flatten()
        .collect();
    units.sort_by_key(|v| get_u64(v, "index"));

    let mut text = String::new();
    let _ = writeln!(text, "=== itr-gap: static\u{2194}dynamic coverage gaps per workload ===");
    let _ = writeln!(
        text,
        "{:<10} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "bench",
        "edges",
        "covered",
        "open",
        "loops",
        "enter",
        "never4",
        "never8",
        "never16",
        "closed"
    );
    let mut rows = Vec::new();
    let mut total_open = 0u64;
    for v in &units {
        let name = get_str(v, "name");
        let nev = v.get("never_formed").and_then(Value::as_array).unwrap_or(&[]);
        let n = |i: usize| nev.get(i).and_then(Value::as_u64).unwrap_or(0);
        let open = get_u64(v, "open_edge_gaps");
        let closed = get_bool(v, "closed");
        total_open += get_u64(v, "open_gaps");
        let _ = writeln!(
            text,
            "{name:<10} {:>6} {:>7} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            get_u64(v, "static_edges"),
            get_u64(v, "covered_edges"),
            open,
            get_u64(v, "loops"),
            get_u64(v, "loops_entered"),
            n(0),
            n(1),
            n(2),
            if closed { "yes" } else { "no" },
        );
        rows.push(format!(
            "{name},{},{},{},{},{},{},{},{},{},{}",
            get_u64(v, "static_edges"),
            get_u64(v, "covered_edges"),
            get_u64(v, "static_only"),
            open,
            get_u64(v, "loops"),
            get_u64(v, "loops_entered"),
            n(0),
            n(1),
            n(2),
            closed,
        ));
    }
    let _ = writeln!(
        text,
        "\n{total_open} open gap(s) across the suite under its own bounded execution\n\
         (uncovered reachable edges + unentered loops + never-formed traces;\n\
         unreachable-block edges are excluded — no execution can cover them)."
    );

    // Adversarial alias/set-conflict campaigns vs the benign control.
    let mut adv: Vec<&Value> = adversarial.iter().collect();
    adv.sort_by_key(|v| get_u64(v, "index"));
    let _ = writeln!(
        text,
        "\n=== adversarial alias/set-conflict workloads (cache {}x{}-way) ===",
        ADV_CACHE_ENTRIES, 2
    );
    let _ = writeln!(
        text,
        "{:<14} {:>6} {:>9} {:>9} {:>7} {:>9} {:>11}",
        "workload", "text", "overfull", "worst-set", "faults", "detected", "degradation"
    );
    let benign = adv.first().map_or(0.0, |v| get_f64(v, "itr_detected"));
    let mut max_degradation = 0.0f64;
    for v in &adv {
        let det = get_f64(v, "itr_detected");
        let degradation = benign - det;
        if get_u64(v, "index") > 0 {
            max_degradation = max_degradation.max(degradation);
        }
        let _ = writeln!(
            text,
            "{:<14} {:>6} {:>9} {:>9} {:>7} {:>8.1}% {:>10.1}%",
            get_str(v, "name"),
            get_u64(v, "text_instrs"),
            get_u64(v, "overfull_sets"),
            get_u64(v, "worst_set_traces"),
            get_u64(v, "faults"),
            det * 100.0,
            degradation * 100.0,
        );
    }
    let _ = writeln!(
        text,
        "\nmax detection-coverage degradation vs benign control: {:.1}% \
         (adversarial_degradation_ok={})",
        max_degradation * 100.0,
        max_degradation > 0.0,
    );

    // Pinned directed-vs-blind races.
    let mut races: Vec<&Value> = ab.iter().collect();
    races.sort_by_key(|v| (get_u64(v, "seed"), get_u64(v, "iters")));
    let _ = writeln!(text, "\n=== directed vs blind gap closure (95% race, fewer execs wins) ===");
    let _ = writeln!(
        text,
        "{:>6} {:>6} {:>7} {:>11} {:>14} {:>6}",
        "seed", "iters", "target", "blind-execs", "directed-execs", "pass"
    );
    let mut all_pass = true;
    for v in &races {
        let pass = get_bool(v, "pass");
        all_pass &= pass;
        let _ = writeln!(
            text,
            "{:>6} {:>6} {:>7} {:>11} {:>14} {:>6}",
            get_u64(v, "seed"),
            get_u64(v, "iters"),
            get_u64(v, "target"),
            get_u64(v, "blind_execs"),
            get_u64(v, "directed_execs"),
            if pass { "yes" } else { "NO" },
        );
    }
    let _ = writeln!(text, "\ngap_ab_all_pass={all_pass}");

    Emitted {
        txt_name: "gap.txt",
        text,
        csv: Some(Csv {
            name: "gap.csv",
            header: "bench,static_edges,covered_edges,static_only,open_edge_gaps,\
                     loops,loops_entered,never4,never8,never16,closed"
                .to_string(),
            rows,
        }),
    }
}

/// Registers the three compute families and the emit job.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let seed = scale.seed;
    reg.add(JobSpec::new("gap-suite", &[], move |_| {
        let total = suite::everything(seed, GAP_MIMIC_INSTRS).len() as u64;
        (0..GAP_SHARDS)
            .map(|shard| {
                ShardSpec::new(shard, (shard as u64, total), move |ctx| {
                    let workloads = suite::everything(seed, GAP_MIMIC_INSTRS);
                    let mut values = Vec::new();
                    for (index, w) in workloads.iter().enumerate() {
                        if index as u32 % GAP_SHARDS != shard || ctx.cancelled() {
                            continue;
                        }
                        let obs =
                            GapObservations::from_program(&w.program, GAP_EXEC_BUDGET, &GAP_LENS);
                        let report = gap_report(&w.name, &w.program, &GAP_LENS, &obs);
                        values.push(obj(vec![
                            ("index", Value::UInt(index as u64)),
                            ("name", Value::Str(report.name.clone())),
                            ("static_edges", Value::UInt(report.static_edges)),
                            ("covered_edges", Value::UInt(report.covered_edges)),
                            ("static_only", Value::UInt(report.static_only_edges)),
                            ("open_edge_gaps", Value::UInt(report.uncovered.len() as u64)),
                            ("loops", Value::UInt(report.loops_total)),
                            ("loops_entered", Value::UInt(report.loops_entered)),
                            (
                                "never_formed",
                                Value::Array(
                                    report
                                        .lens
                                        .iter()
                                        .map(|l| Value::UInt(l.never_formed.len() as u64))
                                        .collect(),
                                ),
                            ),
                            ("open_gaps", Value::UInt(report.open_gaps())),
                            ("closed", Value::Bool(report.is_closed())),
                        ]));
                    }
                    obj(vec![
                        ("shard", Value::UInt(shard as u64)),
                        ("workloads", Value::Array(values)),
                    ])
                })
            })
            .collect()
    }));

    let s = scale.clone();
    reg.add(JobSpec::new("gap-adversarial", &[], move |_| {
        type AdversarySpec = (&'static str, fn() -> String);
        let specs: [AdversarySpec; 3] = [
            ("benign", || conflict_source(false)),
            ("set-conflict", || conflict_source(true)),
            ("content-alias", alias_source),
        ];
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (name, source))| {
                let s = s.clone();
                ShardSpec::new(i as u32, (i as u64, specs.len() as u64), move |_| {
                    adversarial_value(&s, i as u64, name, &source())
                })
            })
            .collect()
    }));

    reg.add(JobSpec::new("gap-ab", &[], move |_| {
        GAP_AB_CONFIGS
            .into_iter()
            .enumerate()
            .map(|(i, (seed, iters))| {
                ShardSpec::new(i as u32, (i as u64, GAP_AB_CONFIGS.len() as u64), move |_| {
                    gap_ab_value(seed, iters)
                })
            })
            .collect()
    }));

    let dir = out.to_path_buf();
    reg.add(JobSpec::single(
        "gap",
        &["gap-suite", "gap-adversarial", "gap-ab"],
        move |_, board| {
            let suite: Vec<Value> = board.expect("gap-suite").data().cloned().collect();
            let adversarial: Vec<Value> = board.expect("gap-adversarial").data().cloned().collect();
            let ab: Vec<Value> = board.expect("gap-ab").data().cloned().collect();
            emit_payload(&dir, &render_gap(&suite, &adversarial, &ab))
        },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adversarial_sources_assemble_and_halt() {
        for (name, src) in [
            ("benign", conflict_source(false)),
            ("conflict", conflict_source(true)),
            ("alias", alias_source()),
        ] {
            let p = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut sim = itr_sim::FuncSim::new(&p);
            let stop = sim.run(2_000_000);
            assert_eq!(stop, itr_sim::StopReason::Halted, "{name} must halt, got {stop:?}");
        }
    }

    #[test]
    fn conflict_layout_overflows_one_set_and_benign_does_not() {
        let cache = adv_cache();
        let conflict = assemble(&conflict_source(true)).expect("assembles");
        let benign = assemble(&conflict_source(false)).expect("assembles");
        let (over_c, worst_c) = overfull_sets(&conflict, &cache);
        let (over_b, _) = overfull_sets(&benign, &cache);
        assert!(over_c >= 1, "conflict layout must overflow a set");
        assert!(worst_c > u64::from(cache.ways()), "worst set exceeds the ways");
        assert_eq!(over_b, 0, "benign layout spreads across sets");
    }

    #[test]
    fn conflict_and_benign_share_the_instruction_stream() {
        // The layouts differ only in padding after unconditional jumps,
        // so the executed streams are identical — the degradation A/B
        // isolates the set mapping.
        let run = |src: &str| {
            let p = assemble(src).expect("assembles");
            let mut sim = itr_sim::FuncSim::new(&p);
            sim.run(2_000_000);
            sim.instr_count()
        };
        assert_eq!(run(&conflict_source(true)), run(&conflict_source(false)));
    }

    #[test]
    fn alias_adversary_carries_content_alias_twins() {
        // Twin blocks hold the same instruction words in swapped order;
        // their XOR folds collide while the content differs.
        let p = assemble(&alias_source()).expect("assembles");
        let a = itr_analyze::analyze_program(
            "alias",
            "adversarial",
            &p,
            &itr_analyze::AnalyzeConfig::default(),
        );
        let l16 = a.lens.iter().find(|l| l.max_len == 16).expect("len 16");
        assert!(
            l16.alias.content_groups >= u64::from(ALIAS_PAIRS) / 2,
            "expected content-alias groups, got {}",
            l16.alias.content_groups
        );
    }
}
