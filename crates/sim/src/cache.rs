//! Set-associative timing-cache model for the instruction and data caches.
//!
//! Contents live in [`Memory`](crate::Memory); this model only tracks tags
//! for hit/miss timing and counts accesses for the energy comparison of
//! §5 of the paper (Figure 9 multiplies access counts by CACTI per-access
//! energies).

/// Geometry of a timing cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Ways per set.
    pub ways: u32,
}

impl CacheGeometry {
    /// The Power4-style instruction cache used in §5: 64 KiB,
    /// direct-mapped, 128-byte lines.
    pub fn power4_icache() -> CacheGeometry {
        CacheGeometry { size_bytes: 64 * 1024, line_bytes: 128, ways: 1 }
    }

    /// A 32 KiB, 4-way, 64-byte-line data cache.
    pub fn default_dcache() -> CacheGeometry {
        CacheGeometry { size_bytes: 32 * 1024, line_bytes: 64, ways: 4 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TagLine {
    valid: bool,
    tag: u64,
    last_use: u64,
}

/// Tag-only set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct TimingCache {
    geometry: CacheGeometry,
    /// `geometry.sets()`, computed once: an access divides by it only
    /// when it is not a power of two.
    sets: u64,
    lines: Vec<TagLine>,
    tick: u64,
    accesses: u64,
    misses: u64,
}

impl TimingCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or non-power-of-two
    /// line size).
    pub fn new(geometry: CacheGeometry) -> TimingCache {
        assert!(geometry.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(geometry.sets() > 0, "cache must have at least one set");
        let entries = (geometry.sets() * geometry.ways) as usize;
        TimingCache {
            geometry,
            sets: u64::from(geometry.sets()),
            lines: vec![TagLine::default(); entries],
            tick: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// `true` when `other` holds the same tags and LRU stamps; the
    /// access and miss counts are left out.
    pub fn same_state(&self, other: &TimingCache) -> bool {
        self.geometry == other.geometry && self.tick == other.tick && self.lines == other.lines
    }

    /// Accesses the line containing `addr`; returns `true` on hit. Misses
    /// allocate (LRU within the set).
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let line_bits = self.geometry.line_bytes.trailing_zeros();
        let block = addr >> line_bits;
        let sets = self.sets;
        let set = if sets.is_power_of_two() { block & (sets - 1) } else { block % sets } as usize;
        let ways = self.geometry.ways as usize;
        let slice = &mut self.lines[set * ways..(set + 1) * ways];
        for line in slice.iter_mut() {
            if line.valid && line.tag == block {
                line.last_use = tick;
                return true;
            }
        }
        self.misses += 1;
        let victim = slice
            .iter_mut()
            .min_by_key(|l| if l.valid { l.last_use } else { 0 })
            .expect("non-empty set");
        *victim = TagLine { valid: true, tag: block, last_use: tick };
        false
    }

    /// `true` if `a` and `b` fall in the same cache line.
    pub fn same_line(&self, a: u64, b: u64) -> bool {
        let line_bits = self.geometry.line_bytes.trailing_zeros();
        (a >> line_bits) == (b >> line_bits)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = TimingCache::new(CacheGeometry::power4_icache());
        assert!(!c.access(0x400));
        assert!(c.access(0x400));
        assert!(c.access(0x47F), "same 128-byte line");
        assert!(!c.access(0x480), "next line");
        assert_eq!(c.accesses(), 4);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let g = CacheGeometry { size_bytes: 1024, line_bytes: 64, ways: 1 };
        let mut c = TimingCache::new(g);
        assert_eq!(g.sets(), 16);
        c.access(0x0000);
        assert!(!c.access(0x0400), "same set, different tag");
        assert!(!c.access(0x0000), "original evicted");
    }

    #[test]
    fn two_way_tolerates_one_conflict() {
        let g = CacheGeometry { size_bytes: 1024, line_bytes: 64, ways: 2 };
        let mut c = TimingCache::new(g);
        c.access(0x0000);
        c.access(0x0800);
        assert!(c.access(0x0000));
        assert!(c.access(0x0800));
    }

    #[test]
    fn lru_within_set() {
        let g = CacheGeometry { size_bytes: 256, line_bytes: 64, ways: 2 };
        let mut c = TimingCache::new(g);
        // Set count = 2; blocks mapping to set 0: 0x000, 0x080? no —
        // block index = addr/64; set = block % 2. Blocks 0, 2, 4 are set 0.
        c.access(0x000);
        c.access(0x100);
        c.access(0x000); // touch block 0
        c.access(0x200); // evicts block at 0x100 (LRU)
        assert!(c.access(0x000));
        assert!(!c.access(0x100));
    }

    #[test]
    fn non_power_of_two_set_counts_map_by_remainder() {
        // 3 sets of 64-byte lines: blocks 0, 3 and 6 share set 0.
        let g = CacheGeometry { size_bytes: 192, line_bytes: 64, ways: 1 };
        let mut c = TimingCache::new(g);
        assert_eq!(g.sets(), 3);
        c.access(0x000);
        assert!(!c.access(0x040) && !c.access(0x080), "blocks 1 and 2 miss in sets 1 and 2");
        assert!(c.access(0x000), "block 0 stays");
        assert!(!c.access(0x0C0), "block 3 misses in set 0");
        assert!(!c.access(0x000), "and evicts block 0");
    }

    #[test]
    fn same_line_predicate() {
        let c = TimingCache::new(CacheGeometry::power4_icache());
        assert!(c.same_line(0x1000, 0x107F));
        assert!(!c.same_line(0x1000, 0x1080));
    }
}
