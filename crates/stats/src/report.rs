//! The JSON export schema: named sections of counters and histograms.
//!
//! Shape (`schema` pins the version so consumers can detect drift):
//!
//! ```json
//! {
//!   "schema": "itr-stats/v1",
//!   "sections": {
//!     "pipeline": {
//!       "counters": { "cycles": { "value": 1200, "unit": "cycles" }, ... },
//!       "histograms": {
//!         "commit_width": { "buckets": [3, 10, 7], "count": 20,
//!                           "sum": 41, "max": 4 }
//!       }
//!     },
//!     ...
//!   }
//! }
//! ```

use crate::counter::Unit;
use crate::histogram::HistogramSnapshot;
use crate::json::{ParseError, Value};

/// Schema identifier written into every export.
pub const SCHEMA: &str = "itr-stats/v1";

/// One exported counter: value plus its unit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CounterEntry {
    name: String,
    value: u64,
    unit: Option<Unit>,
}

/// A named group of counters and histograms (one per producer: the
/// pipeline, the ITR unit, the coverage model, ...).
#[derive(Debug, Clone, Default)]
pub struct Section {
    name: String,
    counters: Vec<CounterEntry>,
    histograms: Vec<HistogramSnapshot>,
}

impl Section {
    /// The section's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Iterates `(name, value)` in export order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|c| (c.name.as_str(), c.value))
    }

    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Iterates the section's histograms in export order.
    pub fn histograms(&self) -> impl Iterator<Item = &HistogramSnapshot> {
        self.histograms.iter()
    }
}

/// A full stats export: an ordered collection of [`Section`]s.
#[derive(Debug, Clone, Default)]
pub struct Report {
    sections: Vec<Section>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends a section of `(name, unit, value)` counters, in the
    /// given order, and histogram snapshots. Replaces any earlier section
    /// with the same name so producers can re-export without duplicating.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate counter name: counter names are JSON keys
    /// and must be unique within a section.
    pub fn push_section(
        &mut self,
        name: &str,
        counters: &[(&str, Unit, u64)],
        histograms: &[HistogramSnapshot],
    ) {
        for (i, (counter, ..)) in counters.iter().enumerate() {
            assert!(
                counters[..i].iter().all(|(earlier, ..)| earlier != counter),
                "duplicate counter `{counter}`"
            );
        }
        self.sections.retain(|s| s.name != name);
        self.sections.push(Section {
            name: name.to_string(),
            counters: counters
                .iter()
                .map(|&(name, unit, value)| CounterEntry {
                    name: name.to_string(),
                    value,
                    unit: Some(unit),
                })
                .collect(),
            histograms: histograms.to_vec(),
        });
    }

    /// Looks up a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Iterates the sections in export order.
    pub fn sections(&self) -> impl Iterator<Item = &Section> {
        self.sections.iter()
    }

    /// Convenience: `section(...)` then `counter(...)`.
    pub fn counter(&self, section: &str, name: &str) -> Option<u64> {
        self.section(section)?.counter(name)
    }

    /// Convenience: `section(...)` then `histogram(...)`.
    pub fn histogram(&self, section: &str, name: &str) -> Option<&HistogramSnapshot> {
        self.section(section)?.histogram(name)
    }

    /// Folds another report into this one, section by section.
    ///
    /// Sections, counters and histograms are matched by name: counter
    /// values add, histograms merge per [`HistogramSnapshot::merge`],
    /// and names present only in `other` are appended in `other`'s
    /// order. Merging the per-shard reports of N disjoint shards thus
    /// equals the report of one combined run, and — because addition
    /// and max are commutative and associative — the aggregate is the
    /// same regardless of shard completion order or thread count, as
    /// long as every producer exports the same counter set (all our
    /// producers do: each lists its counters in a fixed order).
    /// Only counters and histograms are exported, so events a consumer
    /// needs totalled across shards must be counted, not listed.
    pub fn merge(&mut self, other: &Report) {
        for os in &other.sections {
            let section = match self.sections.iter_mut().find(|s| s.name == os.name) {
                Some(s) => s,
                None => {
                    self.sections.push(Section { name: os.name.clone(), ..Section::default() });
                    self.sections.last_mut().expect("just pushed")
                }
            };
            for oc in &os.counters {
                match section.counters.iter_mut().find(|c| c.name == oc.name) {
                    Some(c) => c.value += oc.value,
                    None => section.counters.push(oc.clone()),
                }
            }
            for oh in &os.histograms {
                match section.histograms.iter_mut().find(|h| h.name == oh.name) {
                    Some(h) => h.merge(oh),
                    None => section.histograms.push(oh.clone()),
                }
            }
        }
    }

    /// This report, taken at some point of one run, advanced by what a
    /// second run in the same state recorded between its reports `before`
    /// and `after`: counters add the second run's change, histograms
    /// advance per [`HistogramSnapshot::advanced_by`]. The three reports
    /// must export the same sections, counters and histograms in the same
    /// order, and every counter must only grow from `before` to `after`;
    /// otherwise, or when a histogram's max cannot be derived, the result
    /// is `None`.
    pub fn advanced_by(&self, before: &Report, after: &Report) -> Option<Report> {
        let same_len = |a: usize, b: usize, c: usize| a == b && b == c;
        if !same_len(self.sections.len(), before.sections.len(), after.sections.len()) {
            return None;
        }
        let mut out = self.clone();
        for ((s, b), a) in out.sections.iter_mut().zip(&before.sections).zip(&after.sections) {
            if s.name != b.name
                || b.name != a.name
                || !same_len(s.counters.len(), b.counters.len(), a.counters.len())
                || !same_len(s.histograms.len(), b.histograms.len(), a.histograms.len())
            {
                return None;
            }
            for ((c, bc), ac) in s.counters.iter_mut().zip(&b.counters).zip(&a.counters) {
                if c.name != bc.name || bc.name != ac.name {
                    return None;
                }
                c.value += ac.value.checked_sub(bc.value)?;
            }
            for ((h, bh), ah) in s.histograms.iter_mut().zip(&b.histograms).zip(&a.histograms) {
                if h.name != bh.name || bh.name != ah.name {
                    return None;
                }
                *h = h.advanced_by(bh, ah)?;
            }
        }
        Some(out)
    }

    /// Serializes to the compact `itr-stats/v1` JSON document.
    pub fn to_json(&self) -> String {
        let sections = self
            .sections
            .iter()
            .map(|s| {
                let counters = s
                    .counters
                    .iter()
                    .map(|c| {
                        let mut fields = vec![("value".to_string(), Value::UInt(c.value))];
                        if let Some(u) = c.unit {
                            fields.push(("unit".to_string(), Value::Str(u.name().to_string())));
                        }
                        (c.name.clone(), Value::Object(fields))
                    })
                    .collect();
                let histograms = s
                    .histograms
                    .iter()
                    .map(|h| {
                        (
                            h.name.clone(),
                            Value::Object(vec![
                                (
                                    "buckets".to_string(),
                                    Value::Array(
                                        h.buckets.iter().map(|&b| Value::UInt(b)).collect(),
                                    ),
                                ),
                                ("count".to_string(), Value::UInt(h.count)),
                                ("sum".to_string(), Value::UInt(h.sum)),
                                ("max".to_string(), Value::UInt(h.max)),
                            ]),
                        )
                    })
                    .collect();
                (
                    s.name.clone(),
                    Value::Object(vec![
                        ("counters".to_string(), Value::Object(counters)),
                        ("histograms".to_string(), Value::Object(histograms)),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("sections".to_string(), Value::Object(sections)),
        ])
        .to_json()
    }

    /// Parses an `itr-stats/v1` JSON document.
    pub fn from_json(text: &str) -> Result<Report, ParseError> {
        let bad = |message| ParseError { offset: 0, message };
        let doc = Value::parse(text)?;
        match doc.get("schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            _ => return Err(bad("missing or unsupported `schema`")),
        }
        let sections_obj = doc
            .get("sections")
            .and_then(Value::as_object)
            .ok_or_else(|| bad("missing `sections` object"))?;
        let mut sections = Vec::with_capacity(sections_obj.len());
        for (name, body) in sections_obj {
            let mut section = Section { name: name.clone(), ..Section::default() };
            if let Some(counters) = body.get("counters").and_then(Value::as_object) {
                for (cname, centry) in counters {
                    let value = centry
                        .get("value")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| bad("counter missing `value`"))?;
                    let unit = centry.get("unit").and_then(Value::as_str).and_then(Unit::parse);
                    section.counters.push(CounterEntry { name: cname.clone(), value, unit });
                }
            }
            if let Some(histograms) = body.get("histograms").and_then(Value::as_object) {
                for (hname, hentry) in histograms {
                    let buckets = hentry
                        .get("buckets")
                        .and_then(Value::as_array)
                        .ok_or_else(|| bad("histogram missing `buckets`"))?
                        .iter()
                        .map(|b| b.as_u64().ok_or_else(|| bad("non-integer bucket")))
                        .collect::<Result<Vec<u64>, ParseError>>()?;
                    let field = |key| {
                        hentry
                            .get(key)
                            .and_then(Value::as_u64)
                            .ok_or_else(|| bad("histogram missing a field"))
                    };
                    section.histograms.push(HistogramSnapshot {
                        name: hname.clone(),
                        buckets,
                        count: field("count")?,
                        sum: field("sum")?,
                        max: field("max")?,
                    });
                }
            }
            sections.push(section);
        }
        Ok(Report { sections })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_report() -> Report {
        let c = [("cycles", Unit::Cycles, 1200), ("committed", Unit::Instructions, 900)];
        let mut h = Histogram::new("commit_width");
        for w in [0u64, 1, 2, 4, 4, 3] {
            h.record(w);
        }
        let mut r = Report::new();
        r.push_section("pipeline", &c, &[h.snapshot()]);
        r
    }

    #[test]
    fn advancing_adds_counters_and_checks_the_shape() {
        let cut = sample_report();
        let before = sample_report();
        let mut after = sample_report();
        after.merge(&sample_report());
        let advanced = cut.advanced_by(&before, &after).expect("same shape");
        assert_eq!(advanced.to_json(), after.to_json(), "cut equals before: the result is after");
        assert!(cut.advanced_by(&after, &before).is_none(), "counters never shrink");
        let mut renamed = Report::new();
        renamed.push_section("other", &[], &[]);
        assert!(cut.advanced_by(&renamed, &renamed).is_none(), "sections must match");
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let r = sample_report();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back.counter("pipeline", "cycles"), Some(1200));
        assert_eq!(back.counter("pipeline", "committed"), Some(900));
        let h = back.histogram("pipeline", "commit_width").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 14);
        assert_eq!(h.max, 4);
        assert_eq!(h, r.histogram("pipeline", "commit_width").unwrap());
    }

    #[test]
    fn missing_lookups_return_none() {
        let r = sample_report();
        assert_eq!(r.counter("pipeline", "nope"), None);
        assert_eq!(r.counter("nope", "cycles"), None);
        assert!(r.histogram("pipeline", "nope").is_none());
    }

    #[test]
    fn push_section_replaces_same_name() {
        let mut r = sample_report();
        r.push_section("pipeline", &[("cycles", Unit::Cycles, 7)], &[]);
        assert_eq!(r.sections().count(), 1);
        assert_eq!(r.counter("pipeline", "cycles"), Some(7));
    }

    #[test]
    #[should_panic(expected = "duplicate counter `x`")]
    fn duplicate_names_are_rejected() {
        let mut r = Report::new();
        r.push_section(
            "s",
            &[("x", Unit::Events, 1), ("y", Unit::Events, 2), ("x", Unit::Cycles, 3)],
            &[],
        );
    }

    #[test]
    fn merging_shard_reports_equals_combined_run() {
        // Simulate one "combined" run and the same samples split across
        // three shards; the merged shard reports must match exactly.
        let samples: Vec<u64> = (0..30).map(|i| (i * 7) % 23).collect();
        let report_of = |chunk: &[u64]| {
            let mut h = Histogram::new("widths");
            for &s in chunk {
                h.record(s);
            }
            let mut r = Report::new();
            r.push_section(
                "pipeline",
                &[("events", Unit::Events, chunk.len() as u64)],
                &[h.snapshot()],
            );
            r
        };
        let combined = report_of(&samples);
        let mut merged = Report::new();
        for chunk in samples.chunks(11) {
            merged.merge(&report_of(chunk));
        }
        assert_eq!(merged.to_json(), combined.to_json());
    }

    #[test]
    fn merge_is_order_independent() {
        let a = sample_report();
        let mut b = Report::new();
        let c = [("cycles", Unit::Cycles, 7)];
        b.push_section("pipeline", &c, &[]);
        b.push_section("extra", &c, &[]);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counter("pipeline", "cycles"), Some(1207));
        assert_eq!(ba.counter("pipeline", "cycles"), Some(1207));
        assert_eq!(ab.counter("extra", "cycles"), ba.counter("extra", "cycles"));
        assert_eq!(
            ab.histogram("pipeline", "commit_width"),
            ba.histogram("pipeline", "commit_width")
        );
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let r = sample_report();
        let mut m = Report::new();
        m.merge(&r);
        assert_eq!(m.to_json(), r.to_json());
    }

    #[test]
    fn schema_is_checked() {
        assert!(Report::from_json("{\"schema\":\"other/v9\",\"sections\":{}}").is_err());
        assert!(Report::from_json("{\"sections\":{}}").is_err());
        assert!(Report::from_json("not json").is_err());
    }
}
