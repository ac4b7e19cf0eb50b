//! The declarative experiment registry behind `itr-repro`.
//!
//! Every figure and table of the paper registers here as an
//! `itr-harness` job, and `itr-repro --only JOB` is the one way to
//! produce any artifact. Expensive measurement work (trace
//! characterization, coverage sweeps, fault campaigns, pipeline runs)
//! lives in *compute* jobs whose shards carry structured JSON payloads;
//! cheap *emit* jobs depend on them and render the text/CSV artifacts.
//! A replayed journal feeds the same render functions, so a resumed run
//! writes the same bytes as an uninterrupted one.
//!
//! Dataflow:
//!
//! ```text
//! characterize ──► table1, fig1_2, fig3_4
//! coverage     ──► fig6_7
//! energy       ──► fig9
//! fig8-campaigns (bench × fault-range shards) ──► fig8
//! byfield-campaign (fault-range shards)       ──► fig8-by-field
//! window-sweep (one shard per window)         ──► window-sensitivity
//! perf-ipc (one shard per workload)           ──► perf-overhead
//! ablations-units                             ──► ablations
//! fuzz-campaign (seed-derived shards)         ──► fuzz
//! fuzz-service (one shard per worker)         ──► fuzz-service-report
//! analyze-suite (workload shards)             ──► analyze
//! gap-suite, gap-adversarial, gap-ab          ──► gap
//! sweep (one shard per workload)              ──► sweep-pareto
//! env-interleave, env-faultmodels,
//! env-workloads (hostile environments)        ──► env-report
//! table2, area, width-sweep, signature-fold (leaf emit jobs)
//! ```

pub mod ablations;
pub mod analyze;
pub mod characterize;
pub mod coverage;
pub mod energy;
pub mod env;
pub mod fold;
pub mod fuzz;
pub mod gap;
pub mod injection;
pub mod perf;
pub mod recover;
pub mod statics;
pub mod sweep;
pub mod width;
pub mod window;

use itr_harness::Registry;
use itr_stats::json::Value;
use std::path::Path;

/// Scale parameters of one reproduction run. `quick` and `full` mirror
/// the two modes `scripts/reproduce_all.sh` has always offered.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Faults per injection campaign (`--faults`).
    pub faults: u32,
    /// Observation window in cycles (`--window`).
    pub window_cycles: u64,
    /// Dynamic-instruction budget for trace-stream studies (`--instrs`).
    pub instrs: u64,
    /// Generated-program size for pipeline studies (`--program-instrs`).
    pub program_instrs: u64,
    /// Base RNG seed (each experiment derives its own from it).
    pub seed: u64,
    /// Drive characterization from generated programs instead of the
    /// statistical stream model.
    pub from_programs: bool,
    /// Iteration budget of the `itr-fuzz` differential campaign
    /// (`--fuzz-budget`), split across its shards.
    pub fuzz_iters: u64,
}

impl Scale {
    /// Minutes-scale defaults.
    pub fn quick() -> Scale {
        Scale {
            faults: 200,
            window_cycles: 100_000,
            instrs: 4_000_000,
            program_instrs: 150_000,
            seed: 0x1712_2007,
            from_programs: false,
            fuzz_iters: 160,
        }
    }

    /// Paper-scale campaigns (1000 faults, 1M-cycle windows): the whole
    /// `itr-repro --mode full --jobs 2` took 354 s on 2 vCPUs.
    pub fn full() -> Scale {
        Scale {
            faults: 1000,
            window_cycles: 1_000_000,
            instrs: 8_000_000,
            program_instrs: 400_000,
            fuzz_iters: 5000,
            ..Scale::quick()
        }
    }

    /// Canonical parameter string fed to [`itr_harness::fingerprint`]; a
    /// journal written under one scale refuses to resume under another.
    pub fn canonical(&self) -> String {
        format!(
            "itr-repro/v1 faults={} window={} instrs={} program_instrs={} seed={} \
             from_programs={} fuzz_iters={}",
            self.faults,
            self.window_cycles,
            self.instrs,
            self.program_instrs,
            self.seed,
            self.from_programs,
            self.fuzz_iters
        )
    }
}

/// A rendered experiment: its text table plus its CSV artifact (if any).
pub struct Emitted {
    /// Artifact file name for the text (e.g. `fig8.txt`).
    pub txt_name: &'static str,
    /// The text table, *before* the final `[wrote …]` line
    /// [`Emitted::write`] appends when there is a CSV.
    pub text: String,
    /// CSV artifact, if any.
    pub csv: Option<Csv>,
}

/// One CSV artifact.
pub struct Csv {
    /// File name under the output directory.
    pub name: &'static str,
    /// Header row.
    pub header: String,
    /// Data rows.
    pub rows: Vec<String>,
}

impl Emitted {
    /// Writes the CSV (if any) and the text artifact, which ends with a
    /// `[wrote <csv path>]` line naming the CSV. Returns the artifact
    /// file names.
    pub fn write(&self, out: &Path) -> Vec<String> {
        std::fs::create_dir_all(out).expect("create output dir");
        let mut artifacts = Vec::new();
        let mut text = self.text.clone();
        if let Some(csv) = &self.csv {
            let path = out.join(csv.name);
            let mut body = String::with_capacity(csv.rows.len() * 32);
            body.push_str(&csv.header);
            body.push('\n');
            for r in &csv.rows {
                body.push_str(r);
                body.push('\n');
            }
            std::fs::write(&path, body).expect("write CSV");
            text.push_str(&format!("\n[wrote {}]\n", path.display()));
            artifacts.push(csv.name.to_string());
        }
        std::fs::write(out.join(self.txt_name), text).expect("write text artifact");
        artifacts.push(self.txt_name.to_string());
        artifacts
    }
}

/// Shard payload for an emit job: writes the artifacts and advertises
/// them for `MANIFEST.json`.
pub(crate) fn emit_payload(out: &Path, emitted: &Emitted) -> Value {
    let artifacts = emitted.write(out).into_iter().map(Value::Str).collect();
    Value::Object(vec![("artifacts".into(), Value::Array(artifacts))])
}

// -- small Value accessors (decode side of the journal round-trip) --

pub(crate) fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub(crate) fn get_u64(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or_else(|| panic!("missing u64 field `{key}`"))
}

pub(crate) fn get_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or_else(|| panic!("missing f64 field `{key}`"))
}

pub(crate) fn get_str<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("missing str field `{key}`"))
}

pub(crate) fn get_arr<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or_else(|| panic!("missing array field `{key}`"))
}

pub(crate) fn get_bool(v: &Value, key: &str) -> bool {
    match v.get(key) {
        Some(Value::Bool(b)) => *b,
        _ => panic!("missing bool field `{key}`"),
    }
}

/// Registers the whole reproduction DAG against `reg`.
pub fn register_all(reg: &mut Registry, scale: &Scale, out: &Path) {
    statics::register(reg, out);
    characterize::register(reg, scale, out);
    coverage::register(reg, scale, out);
    energy::register(reg, scale, out);
    injection::register(reg, scale, out);
    window::register(reg, scale, out);
    perf::register(reg, scale, out);
    ablations::register(reg, scale, out);
    fuzz::register(reg, scale, out);
    analyze::register(reg, scale, out);
    gap::register(reg, scale, out);
    sweep::register(reg, scale, out);
    env::register(reg, scale, out);
    recover::register(reg, scale, out);
    width::register(reg, scale, out);
    fold::register(reg, scale, out);
}
