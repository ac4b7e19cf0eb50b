//! Corpus management: workload seeding, retention, and the persisted
//! regression-case format.
//!
//! The corpus starts from the `itr-workloads` suite — every hand-written
//! kernel plus a small mimic per SPEC2K profile — so the first mutants
//! already exercise realistic control flow, then grows by novelty (the
//! engine adds any case that lights a new coverage feature).
//!
//! Findings are persisted as `itr-fuzz-finding/v1` JSON documents:
//! the shrunken case, the oracle that fired, the budgets it ran under,
//! and (for fault-consistency findings) the exact injected fault.
//! Documents checked into `tests/fuzz_regressions/` are replayed by the
//! `fuzz_replay` integration test and by `itr-fuzz replay` in CI.

use crate::case::FuzzCase;
use crate::oracle::{self, Finding, OracleConfig, OracleKind};
use itr_isa::{BitOutOfRange, DecodeSignals};
use itr_sim::DecodeFault;
use itr_stats::json::Value;
use itr_stats::SplitMix64;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Schema tag of the persisted finding format.
pub const FINDING_SCHEMA: &str = "itr-fuzz-finding/v1";

/// Builds the seed corpus from the workload suite: every kernel, plus
/// one small mimic per SPEC2K profile (sized so a seed evaluation stays
/// within the oracle's instruction budget).
pub fn seed_corpus(seed: u64, mimic_instrs: u64) -> Vec<FuzzCase> {
    let mut seeds = Vec::new();
    for w in itr_workloads::suite::everything(seed, mimic_instrs) {
        if let Ok(case) = FuzzCase::from_program(&w.program) {
            seeds.push(case);
        }
    }
    seeds
}

/// One retained case together with the scheduling metadata the power
/// scheduler and the eviction policy consume.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The case itself.
    pub case: FuzzCase,
    /// `case.fingerprint()`, computed once at insertion —
    /// [`FuzzCase::fingerprint`] re-encodes the whole text and hashes
    /// the data image, far too expensive for the per-pick probing the
    /// power scheduler does.
    pub fingerprint: u64,
    /// Every coverage feature the case's evaluation lit (sorted,
    /// deduplicated) — the eviction policy's cover sets.
    pub features: Vec<u32>,
    /// The subset of `features` this entry was the *first* to light —
    /// its novelty claim, which the power scheduler weighs by rarity.
    pub novel: Vec<u32>,
    /// Mutation-chain depth: workload seeds and fresh cases are 0, a
    /// mutant is its parent's depth + 1.
    pub depth: u32,
    /// Insertion ordinal (for age accounting).
    pub inserted_at: u64,
}

/// Growth/retention accounting, exported with the run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Cases currently retained.
    pub len: usize,
    /// Total successful inserts (including later-evicted cases).
    pub inserts: u64,
    /// Entries displaced by the ring-replacement policy.
    pub evictions: u64,
    /// Evictions where every candidate was the sole cover of some
    /// feature, so protection had to be overridden.
    pub forced_evictions: u64,
    /// Pushes rejected as fingerprint duplicates.
    pub duplicates: u64,
    /// Features currently covered by exactly one retained entry (the
    /// entries the eviction policy protects).
    pub sole_cover_features: usize,
    /// Mean age of retained entries, in inserts since insertion.
    pub mean_age: u64,
    /// Age of the oldest retained entry, in inserts since insertion.
    pub max_age: u64,
}

/// The retained corpus: deduplicated by fingerprint, bounded, replaced
/// ring-wise once full so late novelty still lands — except that an
/// entry which is the only retained cover of some coverage feature is
/// skipped over (evicting it would forget the only witness of that
/// behaviour; see [`CorpusStats::forced_evictions`] for the fallback).
#[derive(Debug, Clone)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: HashSet<u64>,
    /// feature → number of retained entries whose `features` contain it.
    cover: BTreeMap<u32, u32>,
    cap: usize,
    inserts: u64,
    evictions: u64,
    forced_evictions: u64,
    duplicates: u64,
}

impl Corpus {
    /// An empty corpus holding at most `cap` cases.
    pub fn new(cap: usize) -> Corpus {
        Corpus {
            entries: Vec::new(),
            seen: HashSet::new(),
            cover: BTreeMap::new(),
            cap: cap.max(1),
            inserts: 0,
            evictions: 0,
            forced_evictions: 0,
            duplicates: 0,
        }
    }

    /// Adds `case` with empty scheduling metadata (tests and legacy
    /// paths). Returns whether the corpus changed.
    pub fn push(&mut self, case: FuzzCase) -> bool {
        self.push_with(case, Vec::new(), Vec::new(), 0)
    }

    /// Adds `case` with its lit features, its first-lit (novel) features
    /// and its mutation depth, unless an identical case is already
    /// present. Returns whether the corpus changed.
    pub fn push_with(
        &mut self,
        case: FuzzCase,
        mut features: Vec<u32>,
        mut novel: Vec<u32>,
        depth: u32,
    ) -> bool {
        let fingerprint = case.fingerprint();
        if !self.seen.insert(fingerprint) {
            self.duplicates += 1;
            return false;
        }
        features.sort_unstable();
        features.dedup();
        novel.sort_unstable();
        novel.dedup();
        let entry =
            CorpusEntry { case, fingerprint, features, novel, depth, inserted_at: self.inserts };
        if self.entries.len() < self.cap {
            self.add_cover(&entry);
            self.entries.push(entry);
        } else {
            let victim = self.pick_victim();
            self.remove_cover(victim);
            self.seen.remove(&self.entries[victim].fingerprint);
            self.add_cover(&entry);
            self.entries[victim] = entry;
            self.evictions += 1;
        }
        self.inserts += 1;
        true
    }

    /// The ring slot to displace: the first candidate at or after the
    /// ring cursor that is not the sole cover of any feature. When every
    /// entry is protected, the cursor slot is sacrificed anyway (counted
    /// as a forced eviction) so the corpus keeps accepting novelty.
    fn pick_victim(&mut self) -> usize {
        let start = (self.inserts % self.cap as u64) as usize;
        for i in 0..self.entries.len() {
            let idx = (start + i) % self.entries.len();
            if !self.is_sole_cover(idx) {
                return idx;
            }
        }
        self.forced_evictions += 1;
        start
    }

    fn is_sole_cover(&self, idx: usize) -> bool {
        self.entries[idx].features.iter().any(|f| self.cover.get(f).copied().unwrap_or(0) == 1)
    }

    fn add_cover(&mut self, entry: &CorpusEntry) {
        for &f in &entry.features {
            *self.cover.entry(f).or_insert(0) += 1;
        }
    }

    fn remove_cover(&mut self, idx: usize) {
        for f in &self.entries[idx].features {
            if let Some(n) = self.cover.get_mut(f) {
                *n -= 1;
                if *n == 0 {
                    self.cover.remove(f);
                }
            }
        }
    }

    /// Number of retained cases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when an identical case is already retained.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.seen.contains(&fingerprint)
    }

    /// The retained entries, in slot order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// A deterministic uniform random pick, or `None` when empty (the
    /// baseline the power scheduler is measured against).
    pub fn pick<'a>(&'a self, rng: &mut SplitMix64) -> Option<&'a FuzzCase> {
        if self.entries.is_empty() {
            None
        } else {
            Some(&self.entries[rng.gen_range(0..self.entries.len())].case)
        }
    }

    /// XOR-fold over the retained fingerprints — a cheap order-insensitive
    /// digest for the deterministic stats export.
    pub fn digest(&self) -> u64 {
        self.entries.iter().fold(0u64, |h, e| h ^ e.fingerprint)
    }

    /// Growth/retention accounting.
    pub fn stats(&self) -> CorpusStats {
        let ages: Vec<u64> = self.entries.iter().map(|e| self.inserts - e.inserted_at).collect();
        CorpusStats {
            len: self.entries.len(),
            inserts: self.inserts,
            evictions: self.evictions,
            forced_evictions: self.forced_evictions,
            duplicates: self.duplicates,
            sole_cover_features: self.cover.values().filter(|&&n| n == 1).count(),
            mean_age: if ages.is_empty() {
                0
            } else {
                ages.iter().sum::<u64>() / ages.len() as u64
            },
            max_age: ages.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Why [`RegressionCase::from_json`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FindingError {
    /// A field is missing or malformed.
    Malformed(String),
    /// `config.fault_count` does not fit in 32 bits.
    FaultCount(u64),
    /// `fault.bit` lies outside the decode-signal vector.
    Bit(BitOutOfRange),
}

impl fmt::Display for FindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FindingError::Malformed(what) => f.write_str(what),
            FindingError::FaultCount(n) => write!(f, "fault_count {n} does not fit in 32 bits"),
            FindingError::Bit(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FindingError {}

impl From<String> for FindingError {
    fn from(what: String) -> FindingError {
        FindingError::Malformed(what)
    }
}

impl From<&str> for FindingError {
    fn from(what: &str) -> FindingError {
        FindingError::Malformed(what.to_string())
    }
}

/// A persisted finding: the case, the oracle that fired, and enough
/// context to replay it byte-for-byte.
#[derive(Debug, Clone)]
pub struct RegressionCase {
    /// The (shrunken) reproducer.
    pub case: FuzzCase,
    /// The oracle that fired.
    pub kind: OracleKind,
    /// Human-readable account captured at discovery time.
    pub detail: String,
    /// The injected fault, for fault-consistency findings.
    pub fault: Option<DecodeFault>,
    /// Budgets the finding was observed under.
    pub config: OracleConfig,
}

impl RegressionCase {
    /// Packages a finding for persistence.
    pub fn new(case: FuzzCase, finding: &Finding, config: OracleConfig) -> RegressionCase {
        RegressionCase {
            case,
            kind: finding.kind,
            detail: finding.detail.clone(),
            fault: finding.fault,
            config,
        }
    }

    /// Serializes to the `itr-fuzz-finding/v1` JSON document.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema".to_string(), Value::Str(FINDING_SCHEMA.to_string())),
            ("oracle".to_string(), Value::Str(self.kind.label().to_string())),
            ("detail".to_string(), Value::Str(self.detail.clone())),
            (
                "config".to_string(),
                Value::Object(vec![
                    ("max_instrs".to_string(), Value::UInt(self.config.max_instrs)),
                    ("fault_count".to_string(), Value::UInt(u64::from(self.config.fault_count))),
                    ("window_cycles".to_string(), Value::UInt(self.config.window_cycles)),
                ]),
            ),
        ];
        if let Some(f) = self.fault {
            fields.push((
                "fault".to_string(),
                Value::Object(vec![
                    ("nth_decode".to_string(), Value::UInt(f.nth_decode)),
                    ("bit".to_string(), Value::UInt(u64::from(f.bit))),
                ]),
            ));
        }
        fields.push(("case".to_string(), self.case.to_value()));
        Value::Object(fields)
    }

    /// Serialized document text.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Parses a persisted document.
    ///
    /// # Errors
    ///
    /// Returns the first malformed field, or a fault count or signal
    /// bit out of its range.
    pub fn from_json(text: &str) -> Result<RegressionCase, FindingError> {
        let v = Value::parse(text).map_err(|e| format!("malformed JSON: {e:?}"))?;
        match v.get("schema").and_then(Value::as_str) {
            Some(FINDING_SCHEMA) => {}
            other => return Err(format!("unsupported finding schema {other:?}").into()),
        }
        let kind = v
            .get("oracle")
            .and_then(Value::as_str)
            .and_then(OracleKind::from_label)
            .ok_or("missing or unknown oracle label")?;
        let detail = v.get("detail").and_then(Value::as_str).unwrap_or("").to_string();
        let cfg = v.get("config").ok_or("missing config")?;
        let fault_count =
            cfg.get("fault_count").and_then(Value::as_u64).ok_or("missing fault_count")?;
        let config = OracleConfig {
            max_instrs: cfg
                .get("max_instrs")
                .and_then(Value::as_u64)
                .ok_or("missing max_instrs")?,
            fault_count: u32::try_from(fault_count)
                .map_err(|_| FindingError::FaultCount(fault_count))?,
            window_cycles: cfg
                .get("window_cycles")
                .and_then(Value::as_u64)
                .ok_or("missing window_cycles")?,
        };
        let fault = match v.get("fault") {
            None => None,
            Some(f) => Some(DecodeFault {
                nth_decode: f
                    .get("nth_decode")
                    .and_then(Value::as_u64)
                    .ok_or("missing nth_decode")?,
                bit: DecodeSignals::checked_bit(
                    f.get("bit").and_then(Value::as_u64).ok_or("missing bit")?,
                )
                .map_err(FindingError::Bit)?,
            }),
        };
        let case = FuzzCase::from_value(v.get("case").ok_or("missing case")?)?;
        Ok(RegressionCase { case, kind, detail, fault, config })
    }

    /// Replays the case under its recorded budgets. Returns the finding
    /// when the failure still reproduces, `None` once fixed.
    pub fn reproduces(&self) -> Option<Finding> {
        oracle::replay(&self.case, self.kind, self.fault, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn seeds_cover_kernels_and_mimics() {
        let seeds = seed_corpus(1, 1500);
        assert!(seeds.len() >= 8, "suite should yield a healthy seed set, got {}", seeds.len());
        for s in &seeds {
            assert!(!s.text.is_empty());
        }
    }

    #[test]
    fn corpus_dedups_and_bounds() {
        let mut c = Corpus::new(3);
        let a = gen::generate(&mut SplitMix64::new(1), 20);
        assert!(c.push(a.clone()));
        assert!(!c.push(a.clone()), "identical case rejected");
        for seed in 2..6u64 {
            c.push(gen::generate(&mut SplitMix64::new(seed), 20));
        }
        assert_eq!(c.len(), 3, "capped");
        let mut rng = SplitMix64::new(7);
        assert!(c.pick(&mut rng).is_some());
    }

    #[test]
    fn eviction_spares_sole_covers() {
        let mut c = Corpus::new(2);
        // Entry A is the only cover of feature 7; entry B covers only
        // common features.
        let a = gen::generate(&mut SplitMix64::new(1), 20);
        let b = gen::generate(&mut SplitMix64::new(2), 20);
        assert!(c.push_with(a.clone(), vec![7, 100], vec![7], 0));
        assert!(c.push_with(b, vec![100], vec![], 1));
        // Pushing two more cases forces two evictions; A must survive
        // both because nothing else covers feature 7.
        for seed in 3..5u64 {
            let n = gen::generate(&mut SplitMix64::new(seed), 20);
            assert!(c.push_with(n, vec![100], vec![], 1));
        }
        let kept: Vec<u64> = c.entries().iter().map(|e| e.case.fingerprint()).collect();
        assert!(kept.contains(&a.fingerprint()), "sole cover of feature 7 evicted");
        let stats = c.stats();
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.forced_evictions, 0);
        assert_eq!(stats.sole_cover_features, 1, "feature 7 is sole-covered");
    }

    #[test]
    fn forced_eviction_when_everything_is_protected() {
        let mut c = Corpus::new(2);
        // Every entry is the sole cover of its own private feature.
        for seed in 1..4u64 {
            let n = gen::generate(&mut SplitMix64::new(seed), 20);
            assert!(c.push_with(n, vec![seed as u32], vec![seed as u32], 0));
        }
        let stats = c.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.forced_evictions, 1, "protection must yield, not wedge");
    }

    #[test]
    fn stats_track_growth_and_age() {
        let mut c = Corpus::new(8);
        let a = gen::generate(&mut SplitMix64::new(1), 20);
        c.push(a.clone());
        c.push(a); // duplicate
        c.push(gen::generate(&mut SplitMix64::new(2), 20));
        let stats = c.stats();
        assert_eq!(stats.inserts, 2);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.max_age, 2, "first entry is two inserts old");
        assert!(c.contains(c.entries()[0].case.fingerprint()));
    }

    #[test]
    fn regression_documents_round_trip() {
        let case = gen::generate(&mut SplitMix64::new(3), 24);
        let finding = Finding {
            kind: OracleKind::FaultConsistency,
            detail: "demo".to_string(),
            fault: Some(DecodeFault { nth_decode: 9, bit: 17 }),
        };
        let rc = RegressionCase::new(case, &finding, OracleConfig::default());
        let back = RegressionCase::from_json(&rc.to_json()).unwrap();
        assert_eq!(back.kind, OracleKind::FaultConsistency);
        assert_eq!(back.fault, Some(DecodeFault { nth_decode: 9, bit: 17 }));
        assert_eq!(back.case, rc.case);
        assert_eq!(back.config.max_instrs, rc.config.max_instrs);

        // Out-of-range numbers are rejected, never truncated.
        let json = rc.to_json();
        let bad = |from: &str, to: &str| {
            assert!(json.contains(from), "{from} in {json}");
            RegressionCase::from_json(&json.replace(from, to)).unwrap_err()
        };
        assert_eq!(bad("\"bit\":17", "\"bit\":64"), FindingError::Bit(BitOutOfRange(64)));
        let wide = (1u64 << 32) + 17;
        let wide_bit = format!("\"bit\":{wide}");
        assert_eq!(bad("\"bit\":17", &wide_bit), FindingError::Bit(BitOutOfRange(wide)));
        let fault_count = format!("\"fault_count\":{}", rc.config.fault_count);
        let wide_count = format!("\"fault_count\":{}", 1u64 << 32);
        assert_eq!(bad(&fault_count, &wide_count), FindingError::FaultCount(1 << 32));
    }

    #[test]
    fn healthy_cases_do_not_reproduce_any_finding() {
        let case = gen::generate(&mut SplitMix64::new(4), 24);
        let rc = RegressionCase {
            case,
            kind: OracleKind::CommitEquivalence,
            detail: String::new(),
            fault: None,
            config: OracleConfig { max_instrs: 600, ..OracleConfig::default() },
        };
        assert!(rc.reproduces().is_none());
    }
}
