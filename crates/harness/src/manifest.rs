//! The artifact manifest (`results/MANIFEST.json`).
//!
//! Emit jobs advertise the files they wrote through their shard
//! payload (`{"artifacts": ["fig8_injection.csv", ...]}`, paths relative
//! to the output directory); the manifest collects them with sizes and
//! provenance so a consumer can tell a complete reproduction from a
//! partial one without diffing directories.

use crate::job::Blackboard;
use itr_stats::json::Value;
use std::path::Path;

/// One manifest row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Path relative to the output directory.
    pub path: String,
    /// File size in bytes (0 when missing on disk).
    pub bytes: u64,
    /// Job that produced the artifact.
    pub job: String,
}

/// Scans the blackboard for advertised artifacts, in job-name order.
pub fn collect_artifacts(board: &Blackboard, out_dir: &Path) -> Vec<ManifestEntry> {
    let mut entries = Vec::new();
    for (job, result) in board.iter() {
        for data in result.data() {
            let Some(list) = data.get("artifacts").and_then(Value::as_array) else { continue };
            for artifact in list {
                let Some(rel) = artifact.as_str() else { continue };
                let bytes = std::fs::metadata(out_dir.join(rel)).map(|m| m.len()).unwrap_or(0);
                entries.push(ManifestEntry { path: rel.to_string(), bytes, job: job.to_string() });
            }
        }
    }
    entries
}

/// Shard accounting recorded alongside the artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardCounts {
    /// Shards executed this run.
    pub executed: u32,
    /// Shards replayed from the journal.
    pub journaled: u32,
    /// Shards quarantined.
    pub quarantined: u32,
}

/// Writes `MANIFEST.json` into `out_dir`.
pub fn write_manifest(
    out_dir: &Path,
    mode: &str,
    fingerprint: u64,
    counts: ShardCounts,
    artifacts: &[ManifestEntry],
) -> std::io::Result<()> {
    let entries = artifacts
        .iter()
        .map(|a| {
            Value::Object(vec![
                ("path".into(), Value::Str(a.path.clone())),
                ("bytes".into(), Value::UInt(a.bytes)),
                ("job".into(), Value::Str(a.job.clone())),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("schema".into(), Value::Str(crate::journal::SCHEMA.into())),
        ("mode".into(), Value::Str(mode.into())),
        ("fingerprint".into(), Value::UInt(fingerprint)),
        (
            "shards".into(),
            Value::Object(vec![
                ("executed".into(), Value::UInt(counts.executed as u64)),
                ("journaled".into(), Value::UInt(counts.journaled as u64)),
                ("quarantined".into(), Value::UInt(counts.quarantined as u64)),
            ]),
        ),
        ("artifacts".into(), Value::Array(entries)),
    ]);
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join("MANIFEST.json"), doc.to_json() + "\n")
}
