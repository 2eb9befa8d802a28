//! Set-associative LRU tag arrays.

use std::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, a line size that
    /// is not a power of two, capacity not divisible into whole
    /// power-of-two sets). Untrusted geometries should be checked with
    /// [`validate`](CacheConfig::validate) first.
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0 && self.line_bytes.is_power_of_two(), "degenerate cache geometry");
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets > 0 && sets.is_power_of_two(), "sets ({sets}) must be a power of two");
        sets
    }

    /// Checks the geometry without panicking, for untrusted
    /// configurations.
    ///
    /// # Errors
    ///
    /// Returns a message when the geometry is degenerate (zero ways, a
    /// line size that is not a power of two, or a set count that is zero
    /// or not a power of two).
    pub fn validate(&self) -> Result<(), String> {
        if self.ways == 0 || self.line_bytes == 0 {
            return Err("degenerate cache geometry: zero ways or line bytes".to_owned());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("cache line size ({}) must be a power of two", self.line_bytes));
        }
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!(
                "cache sets ({sets}) must be a non-zero power of two \
                 ({} bytes / {} ways / {}-byte lines)",
                self.size_bytes, self.ways, self.line_bytes
            ));
        }
        Ok(())
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Dirty lines evicted (write-backs generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU stamp: larger is more recent.
    lru: u64,
    /// Cycle at which the line's data arrives (prefetched/filled lines
    /// may be tagged present before their data lands).
    ready_at: u64,
}

/// A set-associative, write-back, write-allocate cache tag array with LRU
/// replacement. Stores no data — the functional memory is the single
/// source of truth for values; the cache only decides *timing* (which
/// level serves an access).
///
/// # Examples
///
/// ```
/// use mem_sim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64 });
/// assert!(c.access(0x100, false).is_none()); // cold miss
/// c.fill(0x100, false, 0);
/// assert!(c.access(0x100, false).is_some()); // now a hit
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        Cache {
            cfg,
            sets: vec![
                vec![Line { tag: 0, valid: false, dirty: false, lru: 0, ready_at: 0 }; cfg.ways];
                sets
            ],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics counters (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        // Line size and set count are powers of two (`num_sets` and
        // decode enforce it), so the line number and the tag are shifts
        // and the set index a mask.
        let line = addr >> self.cfg.line_bytes.trailing_zeros();
        let sets = self.sets.len() as u64;
        let set = (line & (sets - 1)) as usize;
        let tag = line >> sets.trailing_zeros();
        (set, tag)
    }

    /// Looks up the line containing `addr`, updating LRU and stats.
    /// Returns `Some(ready_at)` on a hit — the cycle the line's data is
    /// available (in the past for resident lines, in the future for
    /// in-flight prefetches). On a write hit the line is marked dirty.
    pub fn access(&mut self, addr: u64, write: bool) -> Option<u64> {
        self.clock += 1;
        let (set, tag) = self.index_tag(addr);
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.lru = self.clock;
                if write {
                    line.dirty = true;
                }
                self.stats.hits += 1;
                return Some(line.ready_at);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Fills the line containing `addr` (after a miss was serviced by the
    /// next level), evicting the LRU way; the line's data arrives at
    /// `ready_at`. Returns `true` when the evicted line was dirty (a
    /// write-back must be sent downstream).
    pub fn fill(&mut self, addr: u64, write: bool, ready_at: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.index_tag(addr);
        let clock = self.clock;
        let Some(victim) =
            self.sets[set].iter_mut().min_by_key(|l| if l.valid { l.lru } else { 0 })
        else {
            debug_assert!(false, "sets are never empty");
            return false;
        };
        let evicted_dirty = victim.valid && victim.dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        *victim = Line { tag, valid: true, dirty: write, lru: clock, ready_at };
        evicted_dirty
    }

    /// Invalidates everything (e.g. on a context switch in tests).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set {
                line.valid = false;
                line.dirty = false;
            }
        }
    }

    /// Whether the line containing `addr` is present (no LRU/stat update).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index_tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}KB {}-way {}B-line cache ({} hits, {} misses)",
            self.cfg.size_bytes / 1024,
            self.cfg.ways,
            self.cfg.line_bytes,
            self.stats.hits,
            self.stats.misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = small();
        assert!(c.access(0x40, false).is_none());
        c.fill(0x40, false, 0);
        assert!(c.access(0x40, false).is_some());
        assert!(c.access(0x7f, false).is_some(), "same line, different offset");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines = 256B).
        let (a, b, d) = (0x000, 0x100, 0x200);
        c.fill(a, false, 0);
        c.fill(b, false, 0);
        assert!(c.access(a, false).is_some()); // a is now MRU
        c.fill(d, false, 0); // must evict b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(0x000, true, 0); // dirty fill
        c.fill(0x100, false, 0);
        let wb = c.fill(0x200, false, 0); // evicts the dirty 0x000
        assert!(wb);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.fill(0x40, false, 0);
        assert!(c.access(0x40, true).is_some());
        c.fill(0x140, false, 0);
        let wb = c.fill(0x240, false, 0); // evict 0x40 (LRU after 0x140 fill? ensure)
        // 0x40 was accessed most recently before the fills; LRU order is
        // 0x40 (older) vs 0x140 (newer), so 0x40 is evicted and is dirty.
        assert!(wb);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.fill(0x40, false, 0);
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn hit_rate_counts() {
        let mut c = small();
        c.fill(0x0, false, 0);
        c.access(0x0, false);
        c.access(0x1000, false);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-9);
        c.reset_stats();
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_is_rejected() {
        let _ = Cache::new(CacheConfig { size_bytes: 192, ways: 1, line_bytes: 64 });
    }

    #[test]
    fn lines_must_be_a_power_of_two() {
        let cfg = CacheConfig { size_bytes: 96 * 8, ways: 1, line_bytes: 96 };
        assert!(cfg.validate().unwrap_err().contains("line size"));
    }

    #[test]
    fn set_index_and_tag_split_the_line_number() {
        // 4 sets of 64-byte lines: line 13 is set 1, tag 3.
        let c = Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 });
        assert_eq!(c.index_tag(13 * 64 + 5), (1, 3));
    }

    #[test]
    fn paper_geometries_are_valid() {
        // 64KB L1, 128KB VecCache 8-way, 8MB L2 — Table 4.
        for (size, ways) in [(64 << 10, 4), (128 << 10, 8), (8 << 20, 16)] {
            let c = Cache::new(CacheConfig { size_bytes: size, ways, line_bytes: 64 });
            assert!(c.config().num_sets() > 0);
        }
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(CacheConfig { size_bytes, ways, line_bytes });
statecodec::impl_codec!(CacheStats { hits, misses, writebacks });
statecodec::impl_codec!(Line { tag, valid, dirty, lru, ready_at });

// Hand-written so decode re-establishes the geometry invariants that
// `index_tag` relies on (`sets.len()` matches the config and is
// non-zero, every set holds exactly `ways` lines).
impl statecodec::Codec for Cache {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.cfg, sink);
        statecodec::Codec::encode(&self.sets, sink);
        statecodec::Codec::encode(&self.clock, sink);
        statecodec::Codec::encode(&self.stats, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let cfg: CacheConfig = statecodec::Codec::decode(src)?;
        let sets: Vec<Vec<Line>> = statecodec::Codec::decode(src)?;
        let clock = <u64 as statecodec::Codec>::decode(src)?;
        let stats: CacheStats = statecodec::Codec::decode(src)?;
        cfg.validate().map_err(|e| statecodec::DecodeError::at(src, e))?;
        if sets.len() != cfg.num_sets() {
            return Err(statecodec::DecodeError::at(
                src,
                format!("cache has {} sets, geometry implies {}", sets.len(), cfg.num_sets()),
            ));
        }
        if let Some(bad) = sets.iter().find(|s| s.len() != cfg.ways) {
            return Err(statecodec::DecodeError::at(
                src,
                format!("cache set holds {} lines, geometry implies {}", bad.len(), cfg.ways),
            ));
        }
        Ok(Cache { cfg, sets, clock, stats })
    }
}
