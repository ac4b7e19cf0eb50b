//! The append-only run journal (`results/journal.jsonl`).
//!
//! One JSON object per line, schema-tagged `itr-harness/v2`:
//!
//! ```json
//! {"schema":"itr-harness/v2","kind":"run","fingerprint":123,"mode":"quick"}
//! {"schema":"itr-harness/v2","kind":"shard","job":"fig8:bzip","shard":2,
//!  "seed_lo":50,"seed_hi":75,"elapsed_ms":810,"payload":{...}}
//! {"schema":"itr-harness/v2","kind":"quarantine","job":"fig8:gcc","shard":1,
//!  "seed_lo":25,"seed_hi":50,"reason":"deadline 30s exceeded"}
//! ```
//!
//! A shard's `payload` is the JSON value its closure returned, stored
//! verbatim. A journal of another schema does not load: its first line
//! is not a valid entry.
//!
//! Crash safety: every line is flushed before the shard counts as
//! journaled, the loader tolerates a torn final line (a crash mid-write
//! loses at most the in-flight shard), and resumption rewrites the file
//! from its valid entries via a temp-file rename so a torn tail can never
//! corrupt the lines appended after it. The `run` header pins the
//! configuration fingerprint; resuming under different scale parameters
//! is refused rather than silently mixing incompatible shards.

use itr_stats::json::Value;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// Journal schema identifier.
pub const SCHEMA: &str = "itr-harness/v2";

/// One parsed journal line.
#[derive(Debug, Clone)]
pub enum Entry {
    /// The run header.
    Run {
        /// Configuration fingerprint the journal was written under.
        fingerprint: u64,
        /// Mode label (`quick`/`full`), informational.
        mode: String,
    },
    /// A completed shard with its payload.
    Shard {
        /// Owning job.
        job: String,
        /// Shard index within the job.
        index: u32,
        /// Covered seed range.
        seed_lo: u64,
        /// Exclusive upper bound of the range.
        seed_hi: u64,
        /// Wall-clock milliseconds the shard took.
        elapsed_ms: u64,
        /// The shard's output.
        payload: Value,
    },
    /// A shard the watchdog (or a panic) removed from the run.
    Quarantine {
        /// Owning job.
        job: String,
        /// Shard index within the job.
        index: u32,
        /// Covered seed range.
        seed_lo: u64,
        /// Exclusive upper bound of the range.
        seed_hi: u64,
        /// Why it was quarantined.
        reason: String,
    },
}

/// Append handle for a live run.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Starts a fresh journal (truncating any previous one) and writes
    /// the run header.
    pub fn create(path: &Path, fingerprint: u64, mode: &str) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::create(path)?;
        let mut journal = Journal { file, path: path.to_path_buf() };
        journal.append_entry(&Entry::Run { fingerprint, mode: mode.to_string() }).map(|_| journal)
    }

    /// Loads an existing journal for resumption. Fails if the header's
    /// fingerprint does not match the current configuration. The file is
    /// rewritten from its valid entries (dropping any torn tail) through
    /// a temp-file rename, then reopened for appending.
    pub fn resume(path: &Path, fingerprint: u64) -> Result<(Journal, Vec<Entry>), String> {
        let entries = load(path)?;
        match entries.first() {
            Some(Entry::Run { fingerprint: f, .. }) if *f == fingerprint => {}
            Some(Entry::Run { fingerprint: f, .. }) => {
                return Err(format!(
                    "journal {} was written for a different configuration \
                     (fingerprint {f:#x}, current {fingerprint:#x}); \
                     rerun without --resume to start fresh",
                    path.display()
                ));
            }
            _ => return Err(format!("journal {} has no run header", path.display())),
        }
        let tmp = path.with_extension("jsonl.tmp");
        let io = |e: std::io::Error| format!("rewrite journal {}: {e}", path.display());
        let mut journal = Journal { file: File::create(&tmp).map_err(io)?, path: tmp.clone() };
        for entry in &entries {
            journal.append_entry(entry).map_err(io)?;
        }
        std::fs::rename(&tmp, path).map_err(io)?;
        journal.path = path.to_path_buf();
        Ok((journal, entries))
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records a completed shard. The line is flushed before returning,
    /// so once this succeeds the shard survives a crash.
    pub fn append_shard(
        &mut self,
        job: &str,
        index: u32,
        (seed_lo, seed_hi): (u64, u64),
        elapsed_ms: u64,
        payload: &Value,
    ) -> std::io::Result<()> {
        self.append_entry(&Entry::Shard {
            job: job.to_string(),
            index,
            seed_lo,
            seed_hi,
            elapsed_ms,
            payload: payload.clone(),
        })
    }

    /// Records a quarantined shard.
    pub fn append_quarantine(
        &mut self,
        job: &str,
        index: u32,
        (seed_lo, seed_hi): (u64, u64),
        reason: &str,
    ) -> std::io::Result<()> {
        self.append_entry(&Entry::Quarantine {
            job: job.to_string(),
            index,
            seed_lo,
            seed_hi,
            reason: reason.to_string(),
        })
    }

    fn append_entry(&mut self, entry: &Entry) -> std::io::Result<()> {
        let mut line = entry_to_value(entry).to_json();
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// Parses a journal file, skipping a torn final line.
pub fn load(path: &Path) -> Result<Vec<Entry>, String> {
    let file = File::open(path).map_err(|e| format!("open journal {}: {e}", path.display()))?;
    let reader = BufReader::new(file);
    let lines: Vec<String> = reader
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read journal {}: {e}", path.display()))?;
    let mut entries = Vec::with_capacity(lines.len());
    let last = lines.len().saturating_sub(1);
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Value::parse(line).ok().and_then(|v| entry_from_value(&v)) {
            Some(entry) => entries.push(entry),
            // A torn *final* line is the expected crash artifact; a
            // malformed line elsewhere means the file is not a journal.
            None if i == last => break,
            None => {
                return Err(format!(
                    "journal {} line {} is not a valid {SCHEMA} entry",
                    path.display(),
                    i + 1
                ));
            }
        }
    }
    Ok(entries)
}

fn entry_to_value(entry: &Entry) -> Value {
    let base = |kind: &str| {
        vec![
            ("schema".to_string(), Value::Str(SCHEMA.to_string())),
            ("kind".to_string(), Value::Str(kind.to_string())),
        ]
    };
    match entry {
        Entry::Run { fingerprint, mode } => {
            let mut fields = base("run");
            fields.push(("fingerprint".into(), Value::UInt(*fingerprint)));
            fields.push(("mode".into(), Value::Str(mode.clone())));
            Value::Object(fields)
        }
        Entry::Shard { job, index, seed_lo, seed_hi, elapsed_ms, payload } => {
            let mut fields = base("shard");
            fields.push(("job".into(), Value::Str(job.clone())));
            fields.push(("shard".into(), Value::UInt(*index as u64)));
            fields.push(("seed_lo".into(), Value::UInt(*seed_lo)));
            fields.push(("seed_hi".into(), Value::UInt(*seed_hi)));
            fields.push(("elapsed_ms".into(), Value::UInt(*elapsed_ms)));
            fields.push(("payload".into(), payload.clone()));
            Value::Object(fields)
        }
        Entry::Quarantine { job, index, seed_lo, seed_hi, reason } => {
            let mut fields = base("quarantine");
            fields.push(("job".into(), Value::Str(job.clone())));
            fields.push(("shard".into(), Value::UInt(*index as u64)));
            fields.push(("seed_lo".into(), Value::UInt(*seed_lo)));
            fields.push(("seed_hi".into(), Value::UInt(*seed_hi)));
            fields.push(("reason".into(), Value::Str(reason.clone())));
            Value::Object(fields)
        }
    }
}

fn entry_from_value(v: &Value) -> Option<Entry> {
    if v.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    let str_field = |key: &str| v.get(key)?.as_str().map(str::to_string);
    let u64_field = |key: &str| v.get(key)?.as_u64();
    match v.get("kind")?.as_str()? {
        "run" => {
            Some(Entry::Run { fingerprint: u64_field("fingerprint")?, mode: str_field("mode")? })
        }
        "shard" => Some(Entry::Shard {
            job: str_field("job")?,
            index: u64_field("shard")? as u32,
            seed_lo: u64_field("seed_lo")?,
            seed_hi: u64_field("seed_hi")?,
            elapsed_ms: u64_field("elapsed_ms")?,
            payload: v.get("payload")?.clone(),
        }),
        "quarantine" => Some(Entry::Quarantine {
            job: str_field("job")?,
            index: u64_field("shard")? as u32,
            seed_lo: u64_field("seed_lo")?,
            seed_hi: u64_field("seed_hi")?,
            reason: str_field("reason")?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("itr-harness-journal-{}-{name}", std::process::id()));
        let _ignored = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("journal.jsonl")
    }

    fn payload() -> Value {
        Value::Object(vec![
            ("k".into(), Value::UInt(7)),
            ("rows".into(), Value::Array(vec![Value::Str("a,1".into())])),
        ])
    }

    #[test]
    fn roundtrip_shard_and_quarantine() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path, 42, "quick").expect("create");
        j.append_shard("fig8:bzip", 3, (75, 100), 1200, &payload()).expect("shard");
        j.append_quarantine("fig8:gcc", 1, (25, 50), "deadline exceeded").expect("quarantine");

        let (_j2, entries) = Journal::resume(&path, 42).expect("resume");
        assert_eq!(entries.len(), 3);
        match &entries[1] {
            Entry::Shard { job, index, seed_lo, seed_hi, elapsed_ms, payload: p } => {
                assert_eq!((job.as_str(), *index), ("fig8:bzip", 3));
                assert_eq!((*seed_lo, *seed_hi, *elapsed_ms), (75, 100, 1200));
                assert_eq!(p.to_json(), payload().to_json(), "payload stored verbatim");
            }
            other => panic!("expected shard entry, got {other:?}"),
        }
        match &entries[2] {
            Entry::Quarantine { job, index, reason, .. } => {
                assert_eq!((job.as_str(), *index), ("fig8:gcc", 1));
                assert!(reason.contains("deadline"));
            }
            other => panic!("expected quarantine entry, got {other:?}"),
        }
    }

    #[test]
    fn torn_final_line_is_dropped_and_repaired() {
        let path = tmp("torn");
        let mut j = Journal::create(&path, 7, "quick").expect("create");
        j.append_shard("a", 0, (0, 1), 5, &Value::Null).expect("shard");
        drop(j);
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new().append(true).open(&path).expect("reopen");
        let torn = format!("{{\"schema\":\"{SCHEMA}\",\"kind\":\"shard\",\"jo");
        f.write_all(torn.as_bytes()).expect("tear");
        drop(f);
        let (mut j, entries) = Journal::resume(&path, 7).expect("resume");
        assert_eq!(entries.len(), 2, "header + whole shard; torn line dropped");
        // Appending after the repair produces a journal with no trace of
        // the torn fragment.
        j.append_shard("a", 1, (1, 2), 6, &Value::Null).expect("append");
        drop(j);
        let reloaded = load(&path).expect("reload");
        assert_eq!(reloaded.len(), 3);
        assert!(matches!(&reloaded[2], Entry::Shard { index: 1, .. }));
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = tmp("fingerprint");
        Journal::create(&path, 1, "quick").expect("create");
        let err = Journal::resume(&path, 2).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = tmp("corrupt");
        let mut j = Journal::create(&path, 7, "quick").expect("create");
        j.append_shard("a", 0, (0, 1), 5, &Value::Null).expect("shard");
        drop(j);
        let body = std::fs::read_to_string(&path).expect("read");
        std::fs::write(&path, body.replacen(SCHEMA, "bogus/v0", 1)).expect("write");
        assert!(load(&path).is_err());
    }

    #[test]
    fn v1_journal_is_refused_on_resume() {
        let path = tmp("v1");
        let v1 = "{\"schema\":\"itr-harness/v1\",\"kind\":\"run\",\"fingerprint\":7,\"mode\":\"quick\"}\n\
                  {\"schema\":\"itr-harness/v1\",\"kind\":\"shard\",\"job\":\"a\",\"shard\":0,\
                  \"seed_lo\":0,\"seed_hi\":1,\"elapsed_ms\":5,\
                  \"payload\":{\"rows\":[],\"text\":\"\",\"data\":{\"k\":7}}}\n";
        std::fs::write(&path, v1).expect("write");
        let err = Journal::resume(&path, 7).unwrap_err();
        assert!(err.contains("line 1 is not a valid itr-harness/v2 entry"), "{err}");
    }

    /// A valid three-line journal: header, shard, quarantine.
    fn three_line_journal(path: &Path) -> Vec<u8> {
        let mut j = Journal::create(path, 9, "quick").expect("create");
        j.append_shard("fig8:bzip", 3, (75, 100), 1200, &payload()).expect("shard");
        j.append_quarantine("fig8:gcc", 1, (25, 50), "deadline exceeded").expect("quarantine");
        drop(j);
        std::fs::read(path).expect("read")
    }

    #[test]
    fn every_truncation_loads_the_whole_lines() {
        let path = tmp("truncate");
        let body = three_line_journal(&path);
        let line_ends: Vec<usize> =
            body.iter().enumerate().filter(|(_, &b)| b == b'\n').map(|(i, _)| i).collect();
        assert_eq!(line_ends.len(), 3);
        for cut in 0..=body.len() {
            std::fs::write(&path, &body[..cut]).expect("write");
            // A line is whole once every byte before its newline is kept.
            let whole = line_ends.iter().filter(|&&end| cut >= end).count();
            match load(&path) {
                Ok(entries) => assert_eq!(entries.len(), whole, "cut at {cut}"),
                Err(e) => panic!("cut at {cut}: a truncated journal must load: {e}"),
            }
        }
    }

    #[test]
    fn every_byte_flip_loads_or_errors_without_panicking() {
        let path = tmp("flip");
        let body = three_line_journal(&path);
        for i in 0..body.len() {
            for mask in [0x01u8, 0x20, 0x80] {
                let mut flipped = body.clone();
                flipped[i] ^= mask;
                std::fs::write(&path, &flipped).expect("write");
                if let Ok(entries) = load(&path) {
                    assert!(entries.len() <= 3, "byte {i} mask {mask:#x}");
                }
            }
        }
    }
}
