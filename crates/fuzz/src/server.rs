//! `itr-fuzz serve`: a long-running fuzzing campaign behind a tiny
//! std-only HTTP status endpoint.
//!
//! The server interleaves fuzzing batches with a non-blocking accept
//! loop on a local `TcpListener` — no threads, no async runtime, no
//! dependencies. Between batches it answers:
//!
//! * `GET /stats` — a live `itr-fuzz-serve/v1` JSON document
//!   (executions per second, coverage, corpus digest, findings count, …),
//! * `GET /findings` — the shrunken findings as `itr-fuzz-finding/v1`
//!   documents,
//! * `GET /corpus` — the full retained corpus as an `itr-fuzz-sync/v1`
//!   JSONL export (the same format `--sync-dir` files use),
//! * `POST /shutdown` — stop the campaign; the corpus and the final
//!   (deterministic) statistics are persisted before the process exits.
//!
//! With `--sync-dir`, the worker periodically writes its full retained
//! corpus as an `itr-fuzz-sync/v1` export and imports every peer
//! export it finds — the same merge the harness's generation barriers
//! run, so shards converge to a shared frontier regardless of timing.
//!
//! A new worker can *warm-start* from a running peer: with
//! `corpus_url` set, the worker fetches the peer's `GET /corpus`
//! export once before its first batch and imports it through the
//! normal fingerprint-dedup path — so late joiners begin at the
//! fleet's coverage frontier instead of rediscovering it.
//!
//! Wall-clock only influences the *live* `/stats` answer (its
//! `execs_per_sec` field) and when sync rounds happen; everything
//! persisted at shutdown — corpus and final stats — is a pure function
//! of the seed and the work performed.

use crate::engine::{FuzzConfig, FuzzOutcome, Fuzzer};
use crate::sync;
use itr_stats::json::Value;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Schema tag of the live `/stats` document.
pub const SERVE_SCHEMA: &str = "itr-fuzz-serve/v1";

/// Service parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Engine parameters (`fuzz.iters` is ignored; see `max_iters`).
    pub fuzz: FuzzConfig,
    /// TCP port to listen on (0 picks an ephemeral port; the bound port
    /// is reported through the `ready` callback).
    pub port: u16,
    /// Stop after this many mutation iterations (0 = run until
    /// `POST /shutdown`).
    pub max_iters: u64,
    /// Iterations fuzzed between accept polls — the answer-latency
    /// ceiling, in units of one oracle evaluation.
    pub batch: u64,
    /// Shared directory for cross-shard corpus sync.
    pub sync_dir: Option<PathBuf>,
    /// This worker's shard index inside `sync_dir`.
    pub worker: u32,
    /// Batches between sync rounds (0 = never).
    pub sync_every: u64,
    /// Where to persist `corpus.jsonl` and `serve_stats.json` at
    /// shutdown.
    pub out_dir: Option<PathBuf>,
    /// Peer to warm-start from: a `host:port` (optionally prefixed with
    /// `http://`, optionally with an explicit path, default `/corpus`)
    /// whose corpus export is fetched and imported before the first
    /// batch.
    pub corpus_url: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            fuzz: FuzzConfig::default(),
            port: 0,
            max_iters: 0,
            batch: 16,
            sync_dir: None,
            worker: 0,
            sync_every: 4,
            out_dir: None,
            corpus_url: None,
        }
    }
}

/// What one handled request asked the campaign to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handled {
    Continue,
    Shutdown,
}

/// Runs the campaign. `ready` is called once with the bound port before
/// the first batch (how callers on ephemeral ports learn the address).
///
/// # Errors
///
/// Propagates socket-setup and persistence I/O errors; per-connection
/// errors are swallowed (a sloppy client must not kill the campaign).
pub fn serve(cfg: &ServeConfig, ready: &mut dyn FnMut(u16)) -> io::Result<FuzzOutcome> {
    let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
    listener.set_nonblocking(true)?;
    ready(listener.local_addr()?.port());

    let mut fuzzer = Fuzzer::new(cfg.fuzz.clone());
    fuzzer.seed(&|| false);
    if let Some(url) = &cfg.corpus_url {
        let peers = fetch_corpus(url)?;
        fuzzer.import(&peers);
    }
    let started = Instant::now();
    let mut batches = 0u64;
    let mut shutdown = false;

    while !shutdown {
        let left = if cfg.max_iters == 0 {
            cfg.batch
        } else {
            cfg.max_iters.saturating_sub(fuzzer.iterations()).min(cfg.batch)
        };
        fuzzer.run_iters(left, &|| false);
        batches += 1;

        if cfg.sync_every > 0 && batches.is_multiple_of(cfg.sync_every) {
            if let Some(dir) = &cfg.sync_dir {
                sync::write_export(dir, cfg.worker, &fuzzer.export_corpus())?;
                let peers = sync::read_peers(dir, cfg.worker)?;
                fuzzer.import(&peers);
            }
        }

        // Drain every connection waiting right now, then fuzz on.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if handle(stream, &fuzzer, started).unwrap_or(Handled::Continue)
                        == Handled::Shutdown
                    {
                        shutdown = true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }

        if cfg.max_iters > 0 && fuzzer.iterations() >= cfg.max_iters {
            shutdown = true;
        }
    }

    if let Some(dir) = &cfg.sync_dir {
        sync::write_export(dir, cfg.worker, &fuzzer.export_corpus())?;
    }
    let out = fuzzer.finish();
    if let Some(dir) = &cfg.out_dir {
        persist(dir, &cfg.fuzz, &out)?;
    }
    Ok(out)
}

/// The live statistics document (the only place wall-clock appears).
fn live_stats(fuzzer: &Fuzzer, started: Instant) -> Value {
    let elapsed = started.elapsed().as_secs_f64().max(1e-6);
    let out = fuzzer.outcome();
    let execs_per_sec = (out.stats.execs as f64 / elapsed) as u64;
    Value::Object(vec![
        ("schema".to_string(), Value::Str(SERVE_SCHEMA.to_string())),
        ("seed".to_string(), Value::UInt(fuzzer.config().seed)),
        ("schedule".to_string(), Value::Str(fuzzer.config().schedule.label().to_string())),
        ("iterations".to_string(), Value::UInt(out.stats.iterations)),
        ("execs".to_string(), Value::UInt(out.stats.execs)),
        ("execs_per_sec".to_string(), Value::UInt(execs_per_sec)),
        ("coverage".to_string(), Value::UInt(out.stats.coverage as u64)),
        ("corpus_len".to_string(), Value::UInt(out.stats.corpus_len as u64)),
        ("corpus_digest".to_string(), Value::Str(format!("{:#018x}", out.stats.corpus_digest))),
        ("snapshot_cases".to_string(), Value::UInt(out.stats.snapshot_cases)),
        ("imported".to_string(), Value::UInt(out.stats.imported)),
        ("findings".to_string(), Value::UInt(out.stats.findings())),
    ])
}

/// The longest request line the server reads, in bytes.
const MAX_REQUEST_LINE: usize = 1024;

/// Reads a request line: the bytes up to the first `\n` (or to the end
/// of the stream), over as many reads as the client's writes take.
/// `None` when the line is longer than [`MAX_REQUEST_LINE`] bytes or is
/// not UTF-8.
fn read_request_line(stream: &mut impl Read) -> io::Result<Option<String>> {
    let mut buf = [0u8; MAX_REQUEST_LINE];
    let (mut len, mut scanned) = (0, 0);
    let end = loop {
        if let Some(at) = buf[scanned..len].iter().position(|&b| b == b'\n') {
            break scanned + at;
        }
        if len == buf.len() {
            return Ok(None);
        }
        scanned = len;
        match stream.read(&mut buf[len..])? {
            0 => break len,
            n => len += n,
        }
    };
    Ok(std::str::from_utf8(&buf[..end]).ok().map(|line| line.trim_end_matches('\r').to_string()))
}

/// Answers one connection. Request bodies are ignored; only the method
/// and path of the request line matter, and a request line that is too
/// long or not UTF-8 is answered 400.
fn handle(mut stream: TcpStream, fuzzer: &Fuzzer, started: Instant) -> io::Result<Handled> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    let line = read_request_line(&mut stream)?;
    let request = line.as_deref().map(|line| {
        let mut parts = line.split_whitespace();
        (parts.next().unwrap_or(""), parts.next().unwrap_or(""))
    });

    let json = "application/json";
    let (status, ctype, body, handled) = match request {
        None => (
            "400 Bad Request",
            json,
            "{\"error\":\"bad request line\"}".to_string(),
            Handled::Continue,
        ),
        Some(("GET", "/stats")) => {
            ("200 OK", json, live_stats(fuzzer, started).to_json(), Handled::Continue)
        }
        Some(("GET", "/findings")) => {
            let docs: Vec<Value> = fuzzer.findings().iter().map(|f| f.to_value()).collect();
            let body = Value::Object(vec![
                ("schema".to_string(), Value::Str(SERVE_SCHEMA.to_string())),
                ("findings".to_string(), Value::Array(docs)),
            ])
            .to_json();
            ("200 OK", json, body, Handled::Continue)
        }
        Some(("GET", "/corpus")) => {
            let body = sync::render(&fuzzer.export_corpus());
            ("200 OK", "application/jsonl", body, Handled::Continue)
        }
        Some(("POST", "/shutdown")) => {
            ("200 OK", json, "{\"ok\":true}".to_string(), Handled::Shutdown)
        }
        Some(_) => (
            "404 Not Found",
            json,
            "{\"error\":\"unknown endpoint\"}".to_string(),
            Handled::Continue,
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    Ok(handled)
}

/// Fetches a peer's `GET /corpus` export over plain HTTP/1.1 on a
/// blocking `TcpStream` (std-only, like the server itself). Accepts
/// `host:port`, `http://host:port` and either form with an explicit
/// path; the path defaults to `/corpus`.
///
/// # Errors
///
/// Propagates connection and read errors; an unparseable export (wrong
/// schema, tampered fingerprints) maps to [`io::ErrorKind::InvalidData`]
/// — a warm-start pointed at the wrong service should fail loudly, not
/// silently start cold.
fn fetch_corpus(url: &str) -> io::Result<Vec<sync::SyncRecord>> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (addr, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/corpus"),
    };
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut text = String::new();
    stream.read_to_string(&mut text)?;
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    sync::parse(body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Persists the shutdown artifacts: the retained corpus as sync records
/// sorted by fingerprint (byte-identical for identical campaigns) and
/// the deterministic final statistics document.
fn persist(dir: &PathBuf, cfg: &FuzzConfig, out: &FuzzOutcome) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut records = out.corpus_records.clone();
    records.sort_by_key(|r| r.case.fingerprint());
    std::fs::write(dir.join("corpus.jsonl"), sync::render(&records))?;
    let mut stats = out.stats_value(cfg).to_json();
    stats.push('\n');
    std::fs::write(dir.join("serve_stats.json"), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    fn http_get(port: u16, method: &str, path: &str) -> String {
        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.write_all(format!("{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write");
        let mut body = String::new();
        s.read_to_string(&mut body).expect("read");
        body.split("\r\n\r\n").nth(1).expect("has body").to_string()
    }

    #[test]
    fn serve_answers_stats_findings_and_shutdown() {
        let dir = std::env::temp_dir().join(format!("itr-fuzz-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            fuzz: FuzzConfig { skip_seeding: true, ..FuzzConfig::quick(1, 0) },
            batch: 4,
            sync_every: 0,
            out_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || serve(&cfg, &mut |port| tx.send(port).expect("send")));
        let port = rx.recv().expect("port");

        let stats = Value::parse(&http_get(port, "GET", "/stats")).expect("stats parse");
        assert_eq!(stats.get("schema").and_then(Value::as_str), Some(SERVE_SCHEMA));
        assert!(stats.get("execs_per_sec").and_then(Value::as_u64).is_some());
        assert!(stats.get("coverage").and_then(Value::as_u64).is_some());
        assert!(stats.get("corpus_digest").and_then(Value::as_str).is_some());

        let findings = Value::parse(&http_get(port, "GET", "/findings")).expect("findings parse");
        assert!(matches!(findings.get("findings"), Some(Value::Array(_))));

        assert!(http_get(port, "GET", "/nonsense").contains("error"));

        let bye = http_get(port, "POST", "/shutdown");
        assert!(bye.contains("true"));
        let out = worker.join().expect("join").expect("serve ok");
        assert!(out.stats.execs > 0, "campaign fuzzed while serving");

        // Shutdown persisted the corpus and the final stats.
        let corpus = std::fs::read_to_string(dir.join("corpus.jsonl")).expect("corpus file");
        assert_eq!(sync::parse(&corpus).expect("corpus parses").len(), out.stats.corpus_len);
        let stats_doc = std::fs::read_to_string(dir.join("serve_stats.json")).expect("stats file");
        let v = Value::parse(stats_doc.trim()).expect("stats json");
        assert_eq!(v.get("schema").and_then(Value::as_str), Some(crate::engine::STATS_SCHEMA));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reader that hands out its bytes one per read.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else { return Ok(0) };
            buf[0] = first;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn request_lines_are_read_across_reads_and_bounded() {
        let line = |bytes: &[u8]| read_request_line(&mut Trickle(bytes)).expect("reads");
        assert_eq!(
            line(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n").as_deref(),
            Some("GET /stats HTTP/1.1")
        );
        assert_eq!(line(b"GET /stats").as_deref(), Some("GET /stats"), "a line cut by EOF");
        assert_eq!(line(b"GET /\xff HTTP/1.1\r\n"), None, "not UTF-8");
        let long = [b'a'; MAX_REQUEST_LINE];
        assert_eq!(line(&long), None, "no newline in the first {MAX_REQUEST_LINE} bytes");
        let mut fits = vec![b'a'; MAX_REQUEST_LINE - 1];
        fits.push(b'\n');
        assert_eq!(line(&fits).map(|l| l.len()), Some(MAX_REQUEST_LINE - 1));
    }

    #[test]
    fn a_request_split_across_writes_is_answered() {
        let cfg = ServeConfig {
            fuzz: FuzzConfig { skip_seeding: true, ..FuzzConfig::quick(1, 0) },
            batch: 1,
            sync_every: 0,
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let worker = thread::spawn(move || serve(&cfg, &mut |port| tx.send(port).expect("send")));
        let port = rx.recv().expect("port");

        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.write_all(b"GE").expect("write");
        s.flush().expect("flush");
        thread::sleep(Duration::from_millis(100));
        s.write_all(b"T /stats HTTP/1.1\r\n\r\n").expect("write");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

        let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        s.write_all(&[b'x'; MAX_REQUEST_LINE]).expect("write");
        let mut response = String::new();
        s.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400 Bad Request"), "{response}");

        http_get(port, "POST", "/shutdown");
        worker.join().expect("join").expect("serve ok");
    }

    #[test]
    fn max_iters_bounds_the_campaign_without_a_client() {
        let cfg = ServeConfig {
            fuzz: FuzzConfig { skip_seeding: true, ..FuzzConfig::quick(2, 0) },
            max_iters: 12,
            batch: 5,
            sync_every: 0,
            ..ServeConfig::default()
        };
        let out = serve(&cfg, &mut |_| {}).expect("serve ok");
        assert_eq!(out.stats.iterations, 12, "batch clamp must not overshoot");
    }

    #[test]
    fn warm_start_fetches_a_peer_corpus_over_http() {
        // Worker A: seeded, serves until told to shut down.
        let cfg_a = ServeConfig {
            fuzz: FuzzConfig::quick(5, 0),
            batch: 4,
            sync_every: 0,
            ..ServeConfig::default()
        };
        let (tx, rx) = mpsc::channel();
        let a = thread::spawn(move || serve(&cfg_a, &mut |port| tx.send(port).expect("send")));
        let port = rx.recv().expect("port");

        // The corpus endpoint serves a parseable, non-empty sync export.
        let corpus = http_get(port, "GET", "/corpus");
        let records = sync::parse(&corpus).expect("corpus export parses");
        assert!(!records.is_empty(), "seeded worker must export its corpus");

        // Worker B warm-starts from A and begins at A's frontier.
        let cfg_b = ServeConfig {
            fuzz: FuzzConfig { skip_seeding: true, ..FuzzConfig::quick(6, 0) },
            max_iters: 8,
            batch: 4,
            sync_every: 0,
            corpus_url: Some(format!("127.0.0.1:{port}")),
            ..ServeConfig::default()
        };
        let b = serve(&cfg_b, &mut |_| {}).expect("worker B");
        assert!(b.stats.imported > 0, "warm start must import the peer corpus");
        assert!(b.stats.corpus_len > 0);

        // A bad warm-start address fails loudly instead of starting cold.
        let cfg_bad =
            ServeConfig { corpus_url: Some("127.0.0.1:1".to_string()), ..ServeConfig::default() };
        assert!(serve(&cfg_bad, &mut |_| {}).is_err());

        http_get(port, "POST", "/shutdown");
        a.join().expect("join").expect("worker A");
    }

    #[test]
    fn shards_converge_through_the_sync_dir() {
        let dir = std::env::temp_dir().join(format!("itr-fuzz-shard-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mk = |seed, worker| ServeConfig {
            fuzz: FuzzConfig { skip_seeding: true, corpus_cap: 512, ..FuzzConfig::quick(seed, 0) },
            max_iters: 10,
            batch: 5,
            sync_dir: Some(dir.clone()),
            worker,
            sync_every: 1,
            ..ServeConfig::default()
        };
        // Worker 0 runs first and leaves its export; worker 1 imports it.
        let a = serve(&mk(3, 0), &mut |_| {}).expect("worker 0");
        let b = serve(&mk(4, 1), &mut |_| {}).expect("worker 1");
        assert!(b.stats.imported > 0, "worker 1 must import worker 0's novelty");
        assert!(b.stats.corpus_len >= a.stats.corpus_len.min(10));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
