//! Figure 8 and its by-field supplement: fault-injection campaigns,
//! sharded by (benchmark, fault range).
//!
//! Each shard classifies a contiguous slice of a campaign's planned
//! fault list via [`CampaignPlan::run_range`], so the fleet interleaves
//! slices of every benchmark's campaign at once. The expensive golden
//! reference behind each campaign is built once per process and shared
//! through an in-process cache — resumed runs whose shards all replay
//! from the journal never build it at all.

use super::{emit_payload, get_str, obj, Csv, Emitted, Scale};
use itr_faults::{shard_bounds, CampaignConfig, CampaignPlan, FaultRecord, Outcome};
use itr_harness::{JobSpec, Registry, ShardSpec};
use itr_isa::{DecodeSignals, Program};
use itr_stats::json::Value;
use itr_workloads::{generate_mimic_sized, profiles, SpecProfile};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// Target faults per campaign shard (the unit of resume/steal).
pub const FAULTS_PER_SHARD: u32 = 50;

/// The generated-program size the by-field study runs at (fixed in both
/// modes).
pub const BYFIELD_PROGRAM_INSTRS: u64 = 100_000;

/// A campaign ready to shard: program, configuration and plan.
pub struct Planned {
    /// The benchmark's generated mimic program.
    pub program: Program,
    /// Campaign parameters.
    pub cfg: CampaignConfig,
    /// Golden references and the planned fault list.
    pub plan: CampaignPlan,
}

static PLANS: OnceLock<Mutex<HashMap<String, Arc<Planned>>>> = OnceLock::new();

/// Builds (or fetches from the in-process cache) the plan for one
/// campaign. Keyed by every parameter that shapes the fault list, so two
/// experiments over the same benchmark at different windows don't
/// collide.
pub fn planned_campaign(
    profile: SpecProfile,
    program_seed: u64,
    program_instrs: u64,
    cfg: &CampaignConfig,
) -> Arc<Planned> {
    let key = format!(
        "{}:{program_seed:x}:{program_instrs}:{:x}:{}:{}:{}:{}",
        profile.name, cfg.seed, cfg.faults, cfg.window_cycles, cfg.min_decode, cfg.max_decode
    );
    let cache = PLANS.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(hit) = cache.lock().expect("plan cache poisoned").get(&key) {
        return Arc::clone(hit);
    }
    // Build outside the lock: plans are expensive and shards for other
    // benchmarks shouldn't serialize behind this one. A racing duplicate
    // build is possible and harmless (identical plans; last one wins).
    let program = generate_mimic_sized(profile, program_seed, program_instrs);
    let plan = CampaignPlan::new(&program, cfg);
    let planned = Arc::new(Planned { program, cfg: cfg.clone(), plan });
    cache.lock().expect("plan cache poisoned").insert(key, Arc::clone(&planned));
    planned
}

/// The Figure 8 campaign configuration.
pub fn fig8_cfg(base_seed: u64, faults: u32, window: u64, program_instrs: u64) -> CampaignConfig {
    CampaignConfig {
        faults,
        window_cycles: window,
        min_decode: 200,
        max_decode: program_instrs,
        seed: base_seed ^ 0xF8,
        threads: 0,
        ..CampaignConfig::default()
    }
}

/// The by-field campaign configuration.
pub fn byfield_cfg(
    base_seed: u64,
    faults: u32,
    window: u64,
    program_instrs: u64,
) -> CampaignConfig {
    CampaignConfig {
        faults,
        window_cycles: window,
        min_decode: 200,
        max_decode: program_instrs,
        seed: base_seed ^ 0xF1E1D,
        threads: 0,
        ..CampaignConfig::default()
    }
}

/// Outcome tallies in [`Outcome::ALL`] order.
pub type OutcomeCounts = [u64; 10];

/// Tallies records into [`Outcome::ALL`] order.
pub fn tally(records: &[FaultRecord]) -> OutcomeCounts {
    let mut counts = [0u64; 10];
    for r in records {
        let i = Outcome::ALL.iter().position(|o| *o == r.outcome).expect("known outcome");
        counts[i] += 1;
    }
    counts
}

fn counts_value(counts: &OutcomeCounts) -> Value {
    Value::Array(counts.iter().map(|&n| Value::UInt(n)).collect())
}

fn counts_from(v: &Value) -> OutcomeCounts {
    let arr = v.as_array().expect("counts array");
    let mut counts = [0u64; 10];
    for (i, n) in arr.iter().enumerate().take(10) {
        counts[i] = n.as_u64().expect("count");
    }
    counts
}

/// One benchmark's Figure 8 tallies.
#[derive(Debug, Clone)]
pub struct Fig8Unit {
    /// Benchmark name.
    pub name: String,
    /// Outcome tallies in [`Outcome::ALL`] order.
    pub counts: OutcomeCounts,
}

/// Renders Figure 8 (`fig8.txt` / `fig8_injection.csv`).
pub fn render_fig8(units: &[Fig8Unit], faults: u32, window: u64) -> Emitted {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "=== Figure 8: outcome of {faults} injected faults per benchmark (window {window} cycles) ==="
    );
    let _ = write!(text, "{:<10}", "bench");
    for o in Outcome::ALL {
        let _ = write!(text, "{:>12}", o.label());
    }
    let _ = writeln!(text);

    let mut rows = Vec::new();
    let mut totals = vec![0.0f64; Outcome::ALL.len()];
    for u in units {
        let n: u64 = u.counts.iter().sum();
        let _ = write!(text, "{:<10}", u.name);
        let mut row = u.name.clone();
        for (i, _) in Outcome::ALL.into_iter().enumerate() {
            let f = u.counts[i] as f64 * 100.0 / n.max(1) as f64;
            totals[i] += f;
            let _ = write!(text, "{f:>11.1}%");
            row.push_str(&format!(",{f:.2}"));
        }
        let _ = writeln!(text);
        rows.push(row);
    }
    let _ = write!(text, "{:<10}", "Avg");
    let mut avg_row = "Avg".to_string();
    for t in &totals {
        let f = t / units.len() as f64;
        let _ = write!(text, "{f:>11.1}%");
        avg_row.push_str(&format!(",{f:.2}"));
    }
    let _ = writeln!(text);
    rows.push(avg_row);

    let itr_avg: f64 = totals
        .iter()
        .zip(Outcome::ALL)
        .filter(|(_, o)| o.itr_detected())
        .map(|(t, _)| t)
        .sum::<f64>()
        / units.len() as f64;
    let _ =
        writeln!(text, "\nAverage detected through the ITR cache: {itr_avg:.1}% (paper: 95.4%)");

    let header = {
        let mut h = "bench".to_string();
        for o in Outcome::ALL {
            h.push(',');
            h.push_str(o.label());
        }
        h
    };
    Emitted {
        txt_name: "fig8.txt",
        text,
        csv: Some(Csv { name: "fig8_injection.csv", header, rows }),
    }
}

/// By-field tallies: field name → outcome counts.
pub type FieldCounts = BTreeMap<String, OutcomeCounts>;

/// Tallies records per Table-2 field.
pub fn tally_by_field(records: &[FaultRecord]) -> FieldCounts {
    let mut fields = FieldCounts::new();
    for r in records {
        let i = Outcome::ALL.iter().position(|o| *o == r.outcome).expect("known outcome");
        let field = DecodeSignals::field_of_bit(r.fault.bit);
        fields.entry(field.to_string()).or_insert([0u64; 10])[i] += 1;
    }
    fields
}

/// Renders the by-field supplement (`fig8_by_field.txt` and its CSV).
pub fn render_byfield(fields: &FieldCounts, faults: u32, bench: &str) -> Emitted {
    let mut text = String::new();
    let _ =
        writeln!(text, "=== Figure 8 supplement: {faults} faults on `{bench}` by signal field ===");
    let _ = write!(text, "{:<10} {:>6}", "field", "n");
    for o in Outcome::ALL {
        let _ = write!(text, "{:>12}", o.label());
    }
    let _ = writeln!(text);
    let mut rows = Vec::new();
    for (field, counts) in fields {
        let n: u64 = counts.iter().sum();
        let _ = write!(text, "{field:<10} {n:>6}");
        let mut row = format!("{field},{n}");
        for (i, _) in Outcome::ALL.into_iter().enumerate() {
            let f = counts[i] as f64 * 100.0 / n as f64;
            let _ = write!(text, "{f:>11.1}%");
            row.push_str(&format!(",{f:.2}"));
        }
        let _ = writeln!(text);
        rows.push(row);
    }
    let _ =
        writeln!(text, "\nExpected: lat flips nearly all ITR+Mask; rsrc/rdst/opcode/imm carry the");
    let _ = writeln!(text, "SDC mass; num_rsrc contributes the deadlock rescues (ITR+wdog+R).");

    let mut header = "field,n".to_string();
    for o in Outcome::ALL {
        header.push(',');
        header.push_str(o.label());
    }
    Emitted {
        txt_name: "fig8_by_field.txt",
        text,
        csv: Some(Csv { name: "fig8_by_field.csv", header, rows }),
    }
}

/// Registers the two campaign jobs and their emit jobs.
pub fn register(reg: &mut Registry, scale: &Scale, out: &Path) {
    let suite = profiles::coverage_figure_set();
    let ranges = shard_bounds(scale.faults, scale.faults.div_ceil(FAULTS_PER_SHARD));

    // -- Figure 8: every benchmark's campaign, sliced into fault ranges --
    let s = scale.clone();
    let shard_ranges = ranges.clone();
    reg.add(JobSpec::new("fig8-campaigns", &[], move |_| {
        let mut shards = Vec::new();
        for (bi, profile) in profiles::coverage_figure_set().into_iter().enumerate() {
            for (ri, &(lo, hi)) in shard_ranges.iter().enumerate() {
                let s = s.clone();
                let index = (bi * shard_ranges.len() + ri) as u32;
                let global_lo = bi as u64 * s.faults as u64 + lo as u64;
                let global_hi = bi as u64 * s.faults as u64 + hi as u64;
                shards.push(ShardSpec::new(index, (global_lo, global_hi), move |ctx| {
                    let cfg = fig8_cfg(s.seed, s.faults, s.window_cycles, s.program_instrs);
                    let planned = planned_campaign(profile, s.seed, s.program_instrs, &cfg);
                    let shard =
                        planned
                            .plan
                            .run_range(&planned.program, &planned.cfg, lo, hi, &|| ctx.cancelled());
                    obj(vec![
                        ("bench", Value::Str(profile.name.to_string())),
                        ("lo", Value::UInt(lo as u64)),
                        ("hi", Value::UInt(hi as u64)),
                        ("counts", counts_value(&tally(&shard.records))),
                    ])
                }));
            }
        }
        shards
    }));
    let dir = out.to_path_buf();
    let s = scale.clone();
    let suite_names: Vec<String> = suite.iter().map(|p| p.name.to_string()).collect();
    reg.add(JobSpec::single("fig8", &["fig8-campaigns"], move |_, board| {
        let mut by_bench: BTreeMap<String, OutcomeCounts> = BTreeMap::new();
        for data in board.expect("fig8-campaigns").data() {
            let counts = counts_from(data.get("counts").expect("counts"));
            let entry = by_bench.entry(get_str(data, "bench").to_string()).or_insert([0u64; 10]);
            for (e, c) in entry.iter_mut().zip(counts) {
                *e += c;
            }
        }
        let units: Vec<Fig8Unit> = suite_names
            .iter()
            .map(|name| Fig8Unit {
                name: name.clone(),
                counts: by_bench.get(name).copied().unwrap_or([0u64; 10]),
            })
            .collect();
        emit_payload(&dir, &render_fig8(&units, s.faults, s.window_cycles))
    }));

    // -- by-field supplement: one deep campaign on `gap` --
    let s = scale.clone();
    let shard_ranges = ranges;
    reg.add(JobSpec::new("byfield-campaign", &[], move |_| {
        let profile = profiles::by_name("gap").expect("known benchmark");
        shard_ranges
            .iter()
            .enumerate()
            .map(|(ri, &(lo, hi))| {
                let s = s.clone();
                ShardSpec::new(ri as u32, (lo as u64, hi as u64), move |ctx| {
                    let cfg =
                        byfield_cfg(s.seed, s.faults, s.window_cycles, BYFIELD_PROGRAM_INSTRS);
                    let planned = planned_campaign(profile, s.seed, BYFIELD_PROGRAM_INSTRS, &cfg);
                    let shard =
                        planned
                            .plan
                            .run_range(&planned.program, &planned.cfg, lo, hi, &|| ctx.cancelled());
                    let fields = tally_by_field(&shard.records);
                    obj(vec![
                        ("lo", Value::UInt(lo as u64)),
                        ("hi", Value::UInt(hi as u64)),
                        (
                            "fields",
                            Value::Object(
                                fields.iter().map(|(f, c)| (f.clone(), counts_value(c))).collect(),
                            ),
                        ),
                    ])
                })
            })
            .collect()
    }));
    let dir = out.to_path_buf();
    let s = scale.clone();
    reg.add(JobSpec::single("fig8-by-field", &["byfield-campaign"], move |_, board| {
        let mut fields = FieldCounts::new();
        for data in board.expect("byfield-campaign").data() {
            let Some(Value::Object(obj)) = data.get("fields").cloned() else { continue };
            for (field, counts) in &obj {
                let entry = fields.entry(field.clone()).or_insert([0u64; 10]);
                for (e, c) in entry.iter_mut().zip(counts_from(counts)) {
                    *e += c;
                }
            }
        }
        emit_payload(&dir, &render_byfield(&fields, s.faults, "gap"))
    }));
}
