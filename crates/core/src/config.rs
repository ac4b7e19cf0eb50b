//! Configuration of the ITR cache and unit.

use std::fmt;

/// Cache associativity, covering the full design space of §3 of the paper:
/// direct-mapped, 2/4/8/16-way, and fully associative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Associativity {
    /// Direct-mapped (one way per set).
    Direct,
    /// N-way set-associative.
    Ways(u32),
    /// Fully associative (a single set).
    Full,
}

impl Associativity {
    /// The six design points swept in Figures 6 and 7.
    pub const SWEEP: [Associativity; 6] = [
        Associativity::Direct,
        Associativity::Ways(2),
        Associativity::Ways(4),
        Associativity::Ways(8),
        Associativity::Ways(16),
        Associativity::Full,
    ];

    /// Number of ways given a total entry count.
    pub fn ways(self, entries: u32) -> u32 {
        match self {
            Associativity::Direct => 1,
            Associativity::Ways(w) => w,
            Associativity::Full => entries,
        }
    }

    /// Short label as used in the paper's figures (`dm`, `2-way`, ..., `fa`).
    pub fn label(self) -> String {
        match self {
            Associativity::Direct => "dm".to_string(),
            Associativity::Ways(w) => format!("{w}-way"),
            Associativity::Full => "fa".to_string(),
        }
    }
}

impl fmt::Display for Associativity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Geometry and policy options of an [`ItrCache`](crate::ItrCache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItrCacheConfig {
    /// Total number of signature entries (256/512/1024 in the paper's sweep).
    pub entries: u32,
    /// Associativity.
    pub assoc: Associativity,
    /// Parity-protect each line so faults in the ITR cache itself are
    /// repaired instead of raising false machine checks (§2.4).
    pub parity: bool,
    /// Prefer evicting already-checked lines over unreferenced ones — the
    /// replacement-policy refinement sketched (but not studied) in §2.3.
    /// Not applicable to direct-mapped caches.
    pub checked_bit_replacement: bool,
}

impl ItrCacheConfig {
    /// A configuration with the given geometry and default policies
    /// (parity on, plain LRU).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero, not a power of two, or not divisible by
    /// the way count.
    pub fn new(entries: u32, assoc: Associativity) -> ItrCacheConfig {
        let ways = assoc.ways(entries);
        assert!(entries > 0 && entries.is_power_of_two(), "entries must be a power of two");
        assert!(ways > 0 && entries.is_multiple_of(ways), "entries must divide into ways");
        ItrCacheConfig { entries, assoc, parity: true, checked_bit_replacement: false }
    }

    /// The paper's default evaluation point: 1024 signatures, 2-way (§4).
    pub fn paper_default() -> ItrCacheConfig {
        ItrCacheConfig::new(1024, Associativity::Ways(2))
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.entries / self.assoc.ways(self.entries)
    }

    /// Number of ways per set.
    pub fn ways(&self) -> u32 {
        self.assoc.ways(self.entries)
    }

    /// The set a trace starting at `start_pc` indexes — the cache's
    /// PC-index mapping (§2.2: the word-aligned start PC, modulo the set
    /// count). [`crate::ItrCache`] and the static set-conflict analysis
    /// in `itr-analyze` share this function, so the analyzer's conflict
    /// map is the hardware mapping by construction.
    pub fn set_index(&self, start_pc: u64) -> u32 {
        ((start_pc >> 2) % u64::from(self.sets())) as u32
    }

    /// Enables or disables checked-bit-aware replacement (builder style).
    pub fn with_checked_bit_replacement(mut self, on: bool) -> ItrCacheConfig {
        self.checked_bit_replacement = on;
        self
    }
}

impl Default for ItrCacheConfig {
    fn default() -> ItrCacheConfig {
        ItrCacheConfig::paper_default()
    }
}

/// Whether the [`ItrUnit`](crate::ItrUnit) acts on detections or only
/// records them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItrMode {
    /// Detect and recover: signature mismatches trigger retry flushes and,
    /// on a second mismatch, a machine check (§2.2).
    #[default]
    Active,
    /// Detect only: mismatches are recorded as events but commit proceeds.
    /// Used by fault-injection campaigns to observe what *would* happen.
    Passive,
}

/// Full configuration of an [`ItrUnit`](crate::ItrUnit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItrConfig {
    /// ITR cache geometry and policies.
    pub cache: ItrCacheConfig,
    /// Maximum trace length before forced termination (16 in the paper).
    pub max_trace_len: u32,
    /// Capacity of the ITR ROB (sized to the number of in-flight branches).
    pub rob_entries: u32,
    /// Active (recovering) or passive (observing) operation.
    pub mode: ItrMode,
    /// On an ITR cache miss, also compare against an older *in-flight*
    /// instance of the same trace in the ITR ROB (analogous to
    /// store-queue forwarding). Without this, a loop shorter than the
    /// pipeline's in-flight window would never hit: iteration *i+1*
    /// dispatches and probes before iteration *i* commits and writes its
    /// signature. The paper does not discuss the window; forwarding is
    /// the natural hardware resolution and is on by default.
    pub rob_forwarding: bool,
    /// Signature fold function (§2.1: "could be done in many ways").
    pub fold: crate::FoldKind,
    /// ITR cache read latency in cycles. 0 models the paper's assumption
    /// that the read launched at dispatch "is complete before the
    /// instructions in the trace are ready to commit" (§2.2); a positive
    /// value makes the commit interlock stall until the read returns
    /// (the host must drive [`ItrUnit::advance`](crate::ItrUnit::advance)).
    pub cache_read_latency: u32,
    /// §3 fallback: when a trace misses in the ITR cache, redundantly
    /// fetch and decode it and compare the two copies before commit —
    /// conventional time redundancy engaged only where inherent time
    /// redundancy is unavailable. Closes the recovery-coverage gap at the
    /// cost of extra frontend bandwidth and energy on misses.
    pub redundant_fetch_on_miss: bool,
}

impl ItrConfig {
    /// The paper's configuration: 1024-signature 2-way cache, 16-instruction
    /// traces, 64-entry ITR ROB, active recovery.
    pub fn paper_default() -> ItrConfig {
        ItrConfig {
            cache: ItrCacheConfig::paper_default(),
            max_trace_len: crate::signature::MAX_TRACE_LEN,
            rob_entries: 64,
            mode: ItrMode::Active,
            rob_forwarding: true,
            fold: crate::FoldKind::Xor,
            cache_read_latency: 0,
            redundant_fetch_on_miss: false,
        }
    }
}

impl Default for ItrConfig {
    fn default() -> ItrConfig {
        ItrConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_paper_design_points() {
        assert_eq!(Associativity::SWEEP.len(), 6);
        assert_eq!(Associativity::SWEEP[0].label(), "dm");
        assert_eq!(Associativity::SWEEP[5].label(), "fa");
    }

    #[test]
    fn geometry_derivation() {
        let c = ItrCacheConfig::new(1024, Associativity::Ways(2));
        assert_eq!(c.sets(), 512);
        assert_eq!(c.ways(), 2);
        let c = ItrCacheConfig::new(256, Associativity::Direct);
        assert_eq!(c.sets(), 256);
        let c = ItrCacheConfig::new(256, Associativity::Full);
        assert_eq!(c.sets(), 1);
        assert_eq!(c.ways(), 256);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_entries_panic() {
        ItrCacheConfig::new(300, Associativity::Direct);
    }
}
