//! The ITR cache: a small, PC-indexed store of trace signatures (§2.2).

use crate::config::ItrCacheConfig;
use itr_stats::{Report, Unit as StatUnit};
use std::collections::VecDeque;

/// One signature line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Line {
    valid: bool,
    /// Full start PC of the trace (used as the tag).
    start_pc: u64,
    signature: u64,
    /// Stored parity of the signature (§2.4 protection).
    parity: bool,
    /// Set once any later instance has read this line ("referenced"):
    /// eviction of an unreferenced line is a loss of *detection* coverage.
    referenced: bool,
    /// Set once the line has been used in a check — the candidate bit for
    /// the checked-bit-aware replacement policy sketched in §2.3.
    checked: bool,
    /// Dynamic instructions in the instance that inserted this line;
    /// coverage loss is measured in instructions (§3).
    len_at_insert: u32,
    /// LRU timestamp.
    last_use: u64,
}

/// Result of probing the cache at trace dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The trace's signature was found.
    Hit {
        /// The stored signature to compare against.
        signature: u64,
        /// `false` if the stored parity no longer matches the stored
        /// signature — i.e. the ITR cache itself took a fault (§2.4).
        parity_ok: bool,
    },
    /// No counterpart recorded; the trace's own signature will be written
    /// at commit.
    Miss,
}

/// Description of a line displaced by an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Start PC of the displaced trace.
    pub start_pc: u64,
    /// `true` if the line was never referenced after its insert — a loss
    /// of fault-detection coverage for its instructions (§2.3).
    pub unreferenced: bool,
    /// Instruction count of the instance that inserted the displaced line.
    pub len_at_insert: u32,
}

/// What one whole-cache flush ([`ItrCache::invalidate_all`]) discarded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushSummary {
    /// Valid lines invalidated.
    pub lines: u64,
    /// Invalidated lines that were never referenced — each one a loss of
    /// detection coverage.
    pub unreferenced_lines: u64,
    /// Dynamic instructions of the inserting instances behind those
    /// unreferenced lines (the §3 detection-loss measure).
    pub unreferenced_instrs: u64,
}

/// Running access statistics (exported by [`ItrCache::export`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probe count (one per dispatched trace).
    pub reads: u64,
    /// Insert/update count (one per missed trace at commit).
    pub writes: u64,
    /// Probe hits.
    pub hits: u64,
    /// Probe misses.
    pub misses: u64,
    /// Valid lines displaced by inserts.
    pub evictions: u64,
    /// Displaced lines that were never referenced.
    pub evictions_unreferenced: u64,
}

/// The ITR cache (§2.2): stores signatures of previously executed traces,
/// indexed by trace start PC, with LRU replacement.
///
/// The key property (§1) is that a *miss* does not directly forfeit fault
/// detection — the missed instance's signature is inserted and a future hit
/// checks both instances at once. Only the eviction of a line that was
/// never referenced loses detection coverage.
///
/// # Example
///
/// ```
/// use itr_core::{Associativity, ItrCache, ItrCacheConfig, ProbeResult};
///
/// let mut cache = ItrCache::new(ItrCacheConfig::new(256, Associativity::Ways(2)));
/// assert_eq!(cache.probe(0x400), ProbeResult::Miss);
/// cache.insert(0x400, 0xDEAD_BEEF, 8);
/// match cache.probe(0x400) {
///     ProbeResult::Hit { signature, parity_ok } => {
///         assert_eq!(signature, 0xDEAD_BEEF);
///         assert!(parity_ok);
///     }
///     ProbeResult::Miss => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ItrCache {
    config: ItrCacheConfig,
    /// `config`'s set count and ways, computed once: a probe or insert
    /// divides by the set count only when it is not a power of two.
    sets: u64,
    ways: usize,
    /// `sets * ways` lines, row-major by set.
    lines: Vec<Line>,
    stats: CacheStats,
    tick: u64,
    /// Valid lines never referenced since insertion (maintained
    /// incrementally so the §2.3 checkpointing query is O(1)).
    unreferenced: u64,
    /// The age window [`ItrCache::track_young_lines`] set; 0 when the
    /// cache does not track young lines.
    young_age: u64,
    /// `(tick, line index)` of the inserts of the last `young_age` ticks,
    /// oldest first. Empty while `young_age` is 0.
    recent_inserts: VecDeque<(u64, u32)>,
}

impl ItrCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: ItrCacheConfig) -> ItrCache {
        ItrCache {
            config,
            sets: u64::from(config.sets()),
            ways: config.ways() as usize,
            lines: vec![Line::default(); config.entries as usize],
            stats: CacheStats::default(),
            tick: 0,
            unreferenced: 0,
            young_age: 0,
            recent_inserts: VecDeque::new(),
        }
    }

    /// Keeps a log of the inserts of the last `max_age` cache events, so
    /// that [`ItrCache::unreferenced_young_count`] for any age up to
    /// `max_age` counts back from the newest inserts instead of scanning
    /// every line. An age above the line count is left to the scan, which
    /// is then no dearer. Call it before the first insert; a cache that
    /// never does keeps no log.
    pub fn track_young_lines(&mut self, max_age: u64) {
        debug_assert_eq!(self.stats.writes, 0, "young lines are tracked from the first insert");
        if max_age <= self.lines.len() as u64 {
            self.young_age = max_age;
        }
    }

    /// `true` when `other` holds the same lines, LRU clock and
    /// configuration; the counters and the insert log (which the lines
    /// and clock determine) are left out.
    pub fn same_state(&self, other: &ItrCache) -> bool {
        self.config == other.config
            && self.tick == other.tick
            && self.unreferenced == other.unreferenced
            && self.lines == other.lines
    }

    /// The cache's configuration.
    pub fn config(&self) -> &ItrCacheConfig {
        &self.config
    }

    /// Access statistics since construction, as a point-in-time
    /// snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Appends the `itr_cache` section to an `itr-stats` report.
    pub fn export(&self, report: &mut Report) {
        let s = &self.stats;
        report.push_section(
            "itr_cache",
            &[
                ("reads", StatUnit::Accesses, s.reads),
                ("writes", StatUnit::Accesses, s.writes),
                ("hits", StatUnit::Accesses, s.hits),
                ("misses", StatUnit::Accesses, s.misses),
                ("evictions", StatUnit::Events, s.evictions),
                ("evictions_unreferenced", StatUnit::Events, s.evictions_unreferenced),
            ],
            &[],
        );
    }

    /// The lines of `start_pc`'s set ([`ItrCacheConfig::set_index`]).
    fn set_range(&self, start_pc: u64) -> std::ops::Range<usize> {
        let (word, sets) = (start_pc >> 2, self.sets);
        let set = if sets.is_power_of_two() { word & (sets - 1) } else { word % sets };
        debug_assert_eq!(set, u64::from(self.config.set_index(start_pc)), "set index");
        let base = set as usize * self.ways;
        base..base + self.ways
    }

    fn parity_of(signature: u64) -> bool {
        signature.count_ones() % 2 == 1
    }

    /// Probes for `start_pc`'s signature, as done when a trace is
    /// dispatched. A hit marks the line referenced and checked.
    pub fn probe(&mut self, start_pc: u64) -> ProbeResult {
        self.stats.reads += 1;
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(start_pc);
        for line in &mut self.lines[range] {
            if line.valid && line.start_pc == start_pc {
                if !line.referenced {
                    self.unreferenced -= 1;
                }
                line.referenced = true;
                line.checked = true;
                line.last_use = tick;
                self.stats.hits += 1;
                return ProbeResult::Hit {
                    signature: line.signature,
                    parity_ok: line.parity == Self::parity_of(line.signature),
                };
            }
        }
        self.stats.misses += 1;
        ProbeResult::Miss
    }

    /// Reads a stored signature without touching LRU/reference state.
    pub fn peek(&self, start_pc: u64) -> Option<u64> {
        self.lines[self.set_range(start_pc)]
            .iter()
            .find(|l| l.valid && l.start_pc == start_pc)
            .map(|l| l.signature)
    }

    /// Number of valid lines that have not yet been referenced — the
    /// quantity tracked by the coarse-grain checkpointing scheme of §2.3.
    /// Maintained incrementally; O(1).
    pub fn unreferenced_count(&self) -> u64 {
        debug_assert_eq!(
            self.unreferenced,
            self.lines.iter().filter(|l| l.valid && !l.referenced).count() as u64
        );
        self.unreferenced
    }

    /// Number of valid unreferenced lines inserted within the last
    /// `max_age` cache events (probes + inserts) — the *young* unchecked
    /// lines of the bounded-wait checkpoint policy.
    ///
    /// The strict §2.3 condition ([`unreferenced_count`]) never fires in
    /// a program with any run-once trace: the prologue's line stays
    /// unreferenced forever and blocks every checkpoint. Bounded wait
    /// lets a line that has sat unreferenced for a full age window stop
    /// blocking — it has demonstrably left the working set, so the next
    /// probe that could check it is not imminent. The price is that such
    /// a line may still hold committed corruption, making a checkpoint
    /// over a corrupt prefix possible (measured by the recovery engine
    /// as `rollback-sdc`, never silently).
    ///
    /// An unreferenced line's `last_use` is its insertion tick (only a
    /// probe hit updates `last_use`, and that also marks it referenced),
    /// so age falls out of the existing LRU state. With young lines
    /// tracked for at least `max_age` ([`ItrCache::track_young_lines`])
    /// the count walks back over the inserts of the last `max_age`
    /// events, O(`max_age`); otherwise it scans every line, O(lines).
    ///
    /// [`unreferenced_count`]: ItrCache::unreferenced_count
    pub fn unreferenced_young_count(&self, max_age: u64) -> u64 {
        if max_age > self.young_age {
            return self.scan_young(max_age);
        }
        let young = self
            .recent_inserts
            .iter()
            .rev()
            .take_while(|&&(tick, _)| self.tick - tick < max_age)
            .filter(|&&(tick, at)| {
                let l = &self.lines[at as usize];
                l.valid && !l.referenced && l.last_use == tick
            })
            .count() as u64;
        debug_assert_eq!(young, self.scan_young(max_age));
        young
    }

    fn scan_young(&self, max_age: u64) -> u64 {
        self.lines
            .iter()
            .filter(|l| l.valid && !l.referenced && self.tick - l.last_use < max_age)
            .count() as u64
    }

    /// Inserts (or overwrites) the signature of a missed trace, as done
    /// when its trace-ending instruction commits. Returns the displaced
    /// line, if a valid one was evicted.
    pub fn insert(&mut self, start_pc: u64, signature: u64, len: u32) -> Option<Eviction> {
        self.stats.writes += 1;
        self.tick += 1;
        let tick = self.tick;
        let checked_pref = self.config.checked_bit_replacement && self.config.ways() > 1;
        let range = self.set_range(start_pc);
        let base = range.start;
        let set = &mut self.lines[range];

        // Same-tag overwrite (retry/parity-repair path) or invalid way.
        let mut victim = None;
        for (i, line) in set.iter().enumerate() {
            if line.valid && line.start_pc == start_pc {
                victim = Some(i);
                break;
            }
        }
        if victim.is_none() {
            victim = set.iter().position(|l| !l.valid);
        }
        let victim = victim.unwrap_or_else(|| {
            // LRU, optionally preferring already-checked lines (§2.3).
            // Falls back to plain LRU when no way is checked yet.
            let candidates: Vec<usize> = if checked_pref {
                let checked: Vec<usize> = (0..set.len()).filter(|&i| set[i].checked).collect();
                if checked.is_empty() {
                    (0..set.len()).collect()
                } else {
                    checked
                }
            } else {
                (0..set.len()).collect()
            };
            candidates.into_iter().min_by_key(|&i| set[i].last_use).expect("non-empty set")
        });

        let old = set[victim];
        if old.valid && !old.referenced {
            self.unreferenced -= 1;
        }
        self.unreferenced += 1; // the new line starts unreferenced
        let evicted = if old.valid && old.start_pc != start_pc {
            self.stats.evictions += 1;
            if !old.referenced {
                self.stats.evictions_unreferenced += 1;
            }
            Some(Eviction {
                start_pc: old.start_pc,
                unreferenced: !old.referenced,
                len_at_insert: old.len_at_insert,
            })
        } else {
            None
        };
        set[victim] = Line {
            valid: true,
            start_pc,
            signature,
            parity: Self::parity_of(signature),
            referenced: false,
            checked: false,
            len_at_insert: len,
            last_use: tick,
        };
        if self.young_age > 0 {
            self.recent_inserts.push_back((tick, (base + victim) as u32));
            while self.recent_inserts.front().is_some_and(|&(t, _)| tick - t >= self.young_age) {
                self.recent_inserts.pop_front();
            }
        }
        evicted
    }

    /// Invalidates the line for `start_pc` (the §2.4 repair path when a
    /// parity error shows the cache copy itself is faulty).
    pub fn invalidate(&mut self, start_pc: u64) {
        let range = self.set_range(start_pc);
        for line in &mut self.lines[range] {
            if line.valid && line.start_pc == start_pc {
                if !line.referenced {
                    self.unreferenced -= 1;
                }
                line.valid = false;
            }
        }
    }

    /// Invalidates every line — a context-switch flush (the hostile-
    /// environment "flush-on-switch" policy, where the OS clears the ITR
    /// cache rather than let the next program's traces alias into stale
    /// signatures). Returns what the flush cost: evicting a line that was
    /// never referenced forfeits detection coverage for the instructions
    /// of the instance that inserted it, exactly like a capacity
    /// eviction (§2.3).
    pub fn invalidate_all(&mut self) -> FlushSummary {
        let mut summary = FlushSummary::default();
        for line in &mut self.lines {
            if line.valid {
                summary.lines += 1;
                if !line.referenced {
                    summary.unreferenced_lines += 1;
                    summary.unreferenced_instrs += u64::from(line.len_at_insert);
                }
                line.valid = false;
            }
        }
        self.unreferenced = 0;
        summary
    }

    /// Flips one bit of a stored signature *without* updating parity —
    /// models a transient fault striking the ITR cache itself (§2.4).
    /// Returns `true` if the line was present.
    pub fn corrupt_signature(&mut self, start_pc: u64, bit: u32) -> bool {
        let range = self.set_range(start_pc);
        for line in &mut self.lines[range] {
            if line.valid && line.start_pc == start_pc {
                line.signature ^= 1u64 << (bit % 64);
                return true;
            }
        }
        false
    }

    /// Number of valid lines currently stored.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Iterates over all resident `(start_pc, signature)` pairs (used by
    /// fault studies to find still-unconfirmed faulty signatures at the
    /// end of an observation window — the paper's "MayITR" outcomes).
    pub fn iter_lines(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.lines.iter().filter(|l| l.valid).map(|l| (l.start_pc, l.signature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Associativity;

    fn cache(entries: u32, assoc: Associativity) -> ItrCache {
        ItrCache::new(ItrCacheConfig::new(entries, assoc))
    }

    #[test]
    fn counters_are_left_out_of_same_state() {
        let mut c = cache(16, Associativity::Ways(2));
        c.probe(0x100);
        c.insert(0x100, 42, 5);
        let mut other = c.clone();
        other.stats = CacheStats { reads: 7, hits: 3, evictions: 1, ..CacheStats::default() };
        assert!(c.same_state(&other) && other.same_state(&c), "counters differ only");
        other.probe(0x100);
        assert!(!c.same_state(&other), "a probe moves the LRU clock");
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache(16, Associativity::Ways(2));
        assert_eq!(c.probe(0x100), ProbeResult::Miss);
        assert!(c.insert(0x100, 42, 5).is_none());
        assert_eq!(c.probe(0x100), ProbeResult::Hit { signature: 42, parity_ok: true });
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Fully associative, 4 entries, distinct PCs.
        let mut c = cache(4, Associativity::Full);
        for i in 0..4u64 {
            c.insert(0x100 + i * 4, i, 1);
        }
        // Touch all but 0x104.
        c.probe(0x100);
        c.probe(0x108);
        c.probe(0x10C);
        let ev = c.insert(0x200, 99, 1).expect("must evict");
        assert_eq!(ev.start_pc, 0x104);
        assert!(ev.unreferenced, "0x104 was never probed after insert");
    }

    #[test]
    fn referenced_lines_evict_without_detection_loss() {
        let mut c = cache(1, Associativity::Direct);
        c.insert(0x100, 1, 3);
        c.probe(0x100); // reference it
        let ev = c.insert(0x104, 2, 4).unwrap();
        assert!(!ev.unreferenced);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().evictions_unreferenced, 0);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = cache(4, Associativity::Direct);
        // PCs 0x100 and 0x110 map to the same set (word index mod 4).
        c.insert(0x100, 1, 1);
        let ev = c.insert(0x110, 2, 1).expect("conflict eviction");
        assert_eq!(ev.start_pc, 0x100);
        // Different sets do not conflict.
        c.insert(0x104, 3, 1);
        assert_eq!(c.peek(0x110), Some(2));
        assert_eq!(c.peek(0x104), Some(3));
    }

    #[test]
    fn same_tag_insert_overwrites_in_place() {
        let mut c = cache(4, Associativity::Ways(2));
        c.insert(0x100, 1, 1);
        assert!(c.insert(0x100, 2, 1).is_none(), "overwrite is not an eviction");
        assert_eq!(c.peek(0x100), Some(2));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn parity_detects_cache_faults() {
        let mut c = cache(16, Associativity::Ways(2));
        c.insert(0x100, 0xABCD, 4);
        assert!(c.corrupt_signature(0x100, 7));
        match c.probe(0x100) {
            ProbeResult::Hit { parity_ok, .. } => assert!(!parity_ok),
            ProbeResult::Miss => panic!("line should still hit"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = cache(16, Associativity::Ways(2));
        c.insert(0x100, 1, 1);
        c.invalidate(0x100);
        assert_eq!(c.probe(0x100), ProbeResult::Miss);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn checked_bit_replacement_prefers_checked_victims() {
        let cfg = ItrCacheConfig::new(4, Associativity::Full).with_checked_bit_replacement(true);
        let mut c = ItrCache::new(cfg);
        for i in 0..4u64 {
            c.insert(0x100 + i * 4, i, 1);
        }
        // Check (probe) only 0x100 — it becomes the preferred victim even
        // though it is the most recently used.
        c.probe(0x100);
        let ev = c.insert(0x200, 9, 1).unwrap();
        assert_eq!(ev.start_pc, 0x100);
        assert!(!ev.unreferenced, "checked victim was referenced");
    }

    #[test]
    fn checked_bit_replacement_falls_back_to_lru() {
        let cfg = ItrCacheConfig::new(2, Associativity::Full).with_checked_bit_replacement(true);
        let mut c = ItrCache::new(cfg);
        c.insert(0x100, 1, 1);
        c.insert(0x104, 2, 1);
        // No line checked yet: plain LRU applies (§2.3 notes the policy
        // breaks down in this case).
        let ev = c.insert(0x200, 3, 1).unwrap();
        assert_eq!(ev.start_pc, 0x100);
    }

    #[test]
    fn invalidate_all_accounts_detection_loss() {
        let mut c = cache(16, Associativity::Ways(2));
        c.insert(0x100, 1, 5);
        c.insert(0x104, 2, 7);
        c.insert(0x108, 3, 11);
        c.probe(0x104); // referenced: its instructions were checked
        let summary = c.invalidate_all();
        assert_eq!(
            summary,
            FlushSummary { lines: 3, unreferenced_lines: 2, unreferenced_instrs: 16 }
        );
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.unreferenced_count(), 0);
        assert_eq!(c.probe(0x104), ProbeResult::Miss);
        // An empty cache flushes for free.
        assert_eq!(c.invalidate_all(), FlushSummary::default());
    }

    #[test]
    fn unreferenced_count_tracks_inserts_and_probes() {
        let mut c = cache(16, Associativity::Ways(2));
        c.insert(0x100, 1, 1);
        c.insert(0x104, 2, 1);
        assert_eq!(c.unreferenced_count(), 2);
        c.probe(0x100);
        assert_eq!(c.unreferenced_count(), 1);
    }

    #[test]
    fn young_unreferenced_lines_age_out_of_the_blocking_set() {
        let mut c = cache(16, Associativity::Ways(2));
        c.insert(0x100, 1, 1); // the "run-once prologue" line
        assert_eq!(c.unreferenced_young_count(4), 1);
        // Each probe is one cache event; after 4 events the line has
        // aged past the window and stops blocking, while the strict
        // count still sees it.
        for _ in 0..4 {
            c.probe(0x900); // misses: events that never reference 0x100
        }
        assert_eq!(c.unreferenced_young_count(4), 0);
        assert_eq!(c.unreferenced_count(), 1);
        // A fresh insert re-enters the young set; u64::MAX degenerates
        // to the strict count.
        c.insert(0x200, 2, 1);
        assert_eq!(c.unreferenced_young_count(4), 1);
        assert_eq!(c.unreferenced_young_count(u64::MAX), c.unreferenced_count());
    }

    #[test]
    fn tracked_young_count_equals_the_scan() {
        // Probes, inserts (same-tag overwrites, evictions) and flushes in
        // a 2-way cache small enough to evict, with the log kept for an
        // age of 8: every count up to that age walks the log, and equals
        // the scan (which `unreferenced_young_count` also asserts in
        // debug builds).
        let mut tracked = cache(8, Associativity::Ways(2));
        tracked.track_young_lines(8);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..4_000 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let pc = 0x400 + 4 * (rng % 24);
            match rng >> 60 {
                0..=6 => {
                    let _ = tracked.probe(pc);
                }
                7..=13 => {
                    let _ = tracked.insert(pc, rng, 3);
                }
                14 => tracked.invalidate(pc),
                _ if step % 50 == 0 => {
                    let _ = tracked.invalidate_all();
                }
                _ => {}
            }
            assert!(tracked.recent_inserts.len() <= 8, "the log holds one age window");
            for age in 0..=8 {
                assert_eq!(tracked.unreferenced_young_count(age), tracked.scan_young(age));
            }
        }
        // A cache that does not track keeps no log, and an age past the
        // line count is not tracked.
        let mut plain = cache(8, Associativity::Ways(2));
        plain.insert(0x400, 1, 1);
        assert!(plain.recent_inserts.is_empty());
        let mut wide = cache(8, Associativity::Ways(2));
        wide.track_young_lines(9);
        assert_eq!(wide.young_age, 0);
    }
}
