//! Corpus sync across fuzz workers: the `itr-fuzz-sync/v1` JSONL format.
//!
//! Each worker periodically exports the novelty-bearing cases it has
//! retained as one JSON document per line:
//!
//! ```json
//! {"schema":"itr-fuzz-sync/v1","fingerprint":"0x…","depth":N,"case":{…}}
//! ```
//!
//! and, at generation boundaries, imports its peers' exports. Two
//! properties make the merge safe in any order:
//!
//! * **idempotence** — an imported case is admitted through the same
//!   fingerprint-dedup path as local novelty, so re-importing the same
//!   export is a no-op;
//! * **commutativity** — the corpus digest is an XOR fold over retained
//!   fingerprints, so merging A's cases into B and B's into A yield
//!   corpora with equal digests (capacity permitting).
//!
//! Two transports share the format: the harness's `fuzz-service` family
//! passes export *payloads* through the job blackboard (deterministic
//! generation barriers), while `itr-fuzz serve` workers exchange
//! `shard-N.jsonl` files in a `--sync-dir` (written atomically via
//! rename so a reader never sees a torn file).

use crate::case::FuzzCase;
use itr_stats::json::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Schema tag of the sync line format.
pub const SYNC_SCHEMA: &str = "itr-fuzz-sync/v1";

/// One exported case with the metadata its importer needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRecord {
    /// The novelty-bearing case.
    pub case: FuzzCase,
    /// The exporter's mutation depth for the case (so the importer's
    /// scheduler sees the same frontier position).
    pub depth: u32,
}

impl SyncRecord {
    /// Serializes to one `itr-fuzz-sync/v1` JSONL line (no newline).
    pub fn to_line(&self) -> String {
        Value::Object(vec![
            ("schema".to_string(), Value::Str(SYNC_SCHEMA.to_string())),
            ("fingerprint".to_string(), Value::Str(format!("{:#018x}", self.case.fingerprint()))),
            ("depth".to_string(), Value::UInt(u64::from(self.depth))),
            ("case".to_string(), self.case.to_value()),
        ])
        .to_json()
    }

    /// Parses one line, verifying the embedded fingerprint against the
    /// reconstructed case (an integrity check across transports).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field, unsupported
    /// schema, or fingerprint mismatch. A missing `depth` is malformed:
    /// [`SyncRecord::to_line`] always writes one, so a line without it
    /// did not come from an exporter. So is a `depth` past `u32::MAX`.
    pub fn from_line(line: &str) -> Result<SyncRecord, String> {
        let v = Value::parse(line).map_err(|e| format!("malformed JSON: {e:?}"))?;
        match v.get("schema").and_then(Value::as_str) {
            Some(SYNC_SCHEMA) => {}
            other => return Err(format!("unsupported sync schema {other:?}")),
        }
        let depth = v.get("depth").and_then(Value::as_u64).ok_or("missing depth")?;
        let depth = u32::try_from(depth).map_err(|_| format!("depth {depth} is out of range"))?;
        let case = FuzzCase::from_value(v.get("case").ok_or("missing case")?)?;
        let want = v.get("fingerprint").and_then(Value::as_str).ok_or("missing fingerprint")?;
        let got = format!("{:#018x}", case.fingerprint());
        if want != got {
            return Err(format!("fingerprint mismatch: document says {want}, case is {got}"));
        }
        Ok(SyncRecord { case, depth })
    }
}

/// Renders records as a JSONL document (one line each, trailing newline).
pub fn render(records: &[SyncRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

/// Parses a JSONL document.
///
/// # Errors
///
/// Returns the first malformed line's index and error.
pub fn parse(text: &str) -> Result<Vec<SyncRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| SyncRecord::from_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// The export file a worker owns inside a sync directory.
pub fn export_path(dir: &Path, worker: u32) -> PathBuf {
    dir.join(format!("shard-{worker}.jsonl"))
}

/// Atomically (write + rename) replaces worker `worker`'s export with
/// `records`. Peers reading concurrently see either the old or the new
/// file, never a torn one.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_export(dir: &Path, worker: u32, records: &[SyncRecord]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".shard-{worker}.tmp"));
    fs::write(&tmp, render(records))?;
    fs::rename(&tmp, export_path(dir, worker))
}

/// Reads every peer export in `dir` (all `shard-*.jsonl` except worker
/// `own`'s), in filename order for determinism. Unparseable files or
/// lines are skipped — a peer on a newer schema must not wedge the
/// campaign.
///
/// # Errors
///
/// Propagates directory-read errors; a missing directory reads as empty.
pub fn read_peers(dir: &Path, own: u32) -> io::Result<Vec<SyncRecord>> {
    let mut names: Vec<String> = match fs::read_dir(dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
            .collect(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    names.sort();
    let own_name = format!("shard-{own}.jsonl");
    let mut out = Vec::new();
    for name in names {
        if name == own_name {
            continue;
        }
        let Ok(text) = fs::read_to_string(dir.join(&name)) else { continue };
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            if let Ok(rec) = SyncRecord::from_line(line) {
                out.push(rec);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use itr_stats::SplitMix64;

    fn records(seeds: &[u64]) -> Vec<SyncRecord> {
        seeds
            .iter()
            .map(|&s| SyncRecord {
                case: gen::generate(&mut SplitMix64::new(s), 24),
                depth: (s % 5) as u32,
            })
            .collect()
    }

    #[test]
    fn lines_round_trip() {
        for rec in records(&[1, 2, 3]) {
            let back = SyncRecord::from_line(&rec.to_line()).unwrap();
            assert_eq!(back, rec);
        }
        let recs = records(&[4, 5]);
        assert_eq!(parse(&render(&recs)).unwrap(), recs);

        // A depth past `u32::MAX` and a missing depth are errors, not a
        // truncated depth or depth 0.
        let rec = &records(&[1])[0];
        let line = rec.to_line();
        let depth = format!("\"depth\":{}", rec.depth);
        assert!(line.contains(&depth), "{line}");
        let err = SyncRecord::from_line(&line.replace(&depth, "\"depth\":4294967297")).unwrap_err();
        assert!(err.contains("depth 4294967297 is out of range"), "{err}");
        let err = SyncRecord::from_line(&line.replace(&format!("{depth},"), "")).unwrap_err();
        assert!(err.contains("missing depth"), "{err}");
    }

    #[test]
    fn tampered_documents_are_rejected() {
        let rec = &records(&[1])[0];
        let tampered = rec
            .to_line()
            .replace(&format!("{:#018x}", rec.case.fingerprint()), "0x0000000000000bad");
        assert!(SyncRecord::from_line(&tampered).is_err(), "fingerprint mismatch must fail");
        assert!(SyncRecord::from_line("{}").is_err());
        assert!(SyncRecord::from_line("not json").is_err());
    }

    #[test]
    fn filesystem_exports_round_trip_and_skip_own() {
        let dir = std::env::temp_dir().join(format!("itr-fuzz-sync-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let a = records(&[1, 2]);
        let b = records(&[3]);
        write_export(&dir, 0, &a).unwrap();
        write_export(&dir, 1, &b).unwrap();
        // Worker 0 sees only worker 1's records and vice versa.
        assert_eq!(read_peers(&dir, 0).unwrap(), b);
        assert_eq!(read_peers(&dir, 1).unwrap(), a);
        // Rewriting an export replaces it (no duplication on disk).
        write_export(&dir, 1, &records(&[3, 4])).unwrap();
        assert_eq!(read_peers(&dir, 0).unwrap().len(), 2);
        // A missing dir reads as empty.
        let _ = fs::remove_dir_all(&dir);
        assert!(read_peers(&dir, 0).unwrap().is_empty());
    }
}
