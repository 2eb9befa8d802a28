//! Property-based tests for the memory hierarchy.

use mem_sim::{Cache, CacheConfig, CacheStats, MemConfig, Memory, MemorySystem};
use proptest::prelude::*;

proptest! {
    /// Completion cycles are causal: never before the request plus the
    /// first-level latency, regardless of access pattern.
    #[test]
    fn completions_are_causal(
        accesses in proptest::collection::vec(
            (0u64..1 << 20, 1u64..8, any::<bool>()), 1..128),
    ) {
        let cfg = MemConfig::paper(2);
        let mut sys = MemorySystem::new(cfg);
        let mut now = 0u64;
        for (addr, granules, write) in accesses {
            let (done, _) = sys.vector_access(now, 0, addr * 4, granules * 16, write);
            prop_assert!(done >= now + cfg.veccache_latency);
            now = done;
        }
    }

    /// Repeating the same access immediately is never slower than a cold
    /// DRAM round trip and eventually hits the first level.
    #[test]
    fn warm_accesses_hit(addr in 0u64..1 << 18) {
        let cfg = MemConfig::paper(2);
        let mut sys = MemorySystem::new(cfg);
        let (t1, _) = sys.vector_access(0, 0, addr, 64, false);
        let (t2, _) = sys.vector_access(t1, 0, addr, 64, false);
        prop_assert!(t2 - t1 <= cfg.veccache_latency + 2, "warm access took {}", t2 - t1);
    }

    /// The cache never reports more hits+misses than accesses and the
    /// LRU set never exceeds its associativity (probed via fills).
    #[test]
    fn cache_stats_are_consistent(
        addrs in proptest::collection::vec(0u64..1 << 16, 1..256),
    ) {
        let mut cache = Cache::new(CacheConfig { size_bytes: 4096, ways: 4, line_bytes: 64 });
        for (i, addr) in addrs.iter().enumerate() {
            if cache.access(*addr, false).is_none() {
                cache.fill(*addr, false, 0);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits + stats.misses, i as u64 + 1);
        }
    }

    /// Bump allocations never overlap and stay 64-byte aligned.
    #[test]
    fn allocations_are_disjoint(sizes in proptest::collection::vec(1u64..512, 1..32)) {
        let mut mem = Memory::new(1 << 20);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for bytes in sizes {
            let addr = mem.alloc(bytes);
            prop_assert_eq!(addr % 64, 0);
            for &(a, b) in &regions {
                prop_assert!(addr >= a + b || addr + bytes <= a, "overlap");
            }
            regions.push((addr, bytes));
        }
    }

    /// Functional memory: the last write to an address wins, across an
    /// arbitrary interleaving of scalar and slice writes.
    #[test]
    fn last_write_wins(
        writes in proptest::collection::vec((0u64..256, -1e6f32..1e6), 1..64),
    ) {
        let mut mem = Memory::new(1 << 16);
        let base = mem.alloc_f32(256);
        let mut shadow = [0.0f32; 256];
        for (i, v) in writes {
            mem.write_f32(base + 4 * i, v);
            shadow[i as usize] = v;
        }
        for i in 0..256u64 {
            prop_assert_eq!(mem.read_f32(base + 4 * i), shadow[i as usize]);
        }
    }
}

proptest! {
    /// The stream prefetchers make sequential sweeps bandwidth-bound,
    /// not latency-bound: once the stream is detected, the *marginal*
    /// cost of the next sequential line is far below a cold DRAM round
    /// trip, and a sequential sweep is never slower than the same
    /// number of far-scattered accesses.
    #[test]
    fn sequential_streams_beat_scattered_accesses(
        start_line in 0u64..1 << 10,
        stride_lines in 157u64..1009,
        count in 64usize..192,
    ) {
        let cfg = MemConfig::paper(2);

        let run = |step: u64| {
            let mut sys = MemorySystem::new(cfg);
            let mut now = 10u64;
            let mut total = 0u64;
            for i in 0..count as u64 {
                let addr = (start_line + i * step) * 64;
                let (done, _) = sys.vector_access(now, 0, addr, 64, false);
                total += done - now;
                // Consume at a fixed cadence so the prefetcher can run
                // ahead (a back-to-back dependent chain would hide it).
                now = done.max(now + 4);
            }
            total
        };

        let sequential = run(1);
        let scattered = run(stride_lines);
        prop_assert!(
            sequential <= scattered,
            "sequential {sequential} > scattered {scattered}"
        );
        // Amortized per-line cost of the sequential sweep sits well
        // under the raw DRAM latency.
        prop_assert!(
            sequential < count as u64 * cfg.dram_latency / 2,
            "stream not prefetched: {} per line vs DRAM {}",
            sequential / count as u64,
            cfg.dram_latency
        );
    }
}

proptest! {
    /// Shared-channel contention: two cores streaming concurrently each
    /// observe lower throughput than a core streaming alone — the
    /// mechanism behind the paper's <memory, memory> co-run flatness —
    /// while their combined throughput never exceeds the channel's.
    #[test]
    fn concurrent_streams_share_the_channel(
        lines in 96usize..256,
        gap in 2u64..6,
    ) {
        let cfg = MemConfig::paper(2);
        // Far-apart regions so the streams never share cache lines.
        let base = [0u64, 1 << 24];

        let solo = {
            let mut sys = MemorySystem::new(cfg);
            let mut now = 10u64;
            for i in 0..lines as u64 {
                let (done, _) = sys.vector_access(now, 0, base[0] + i * 64, 64, false);
                now = done.max(now + gap);
            }
            now - 10
        };

        let duo = {
            let mut sys = MemorySystem::new(cfg);
            let mut now = [10u64; 2];
            for i in 0..lines as u64 {
                for core in 0..2 {
                    let (done, _) =
                        sys.vector_access(now[core], core, base[core] + i * 64, 64, false);
                    now[core] = done.max(now[core] + gap);
                }
            }
            (now[0] - 10).max(now[1] - 10)
        };

        // Each concurrent stream is no faster than the solo stream...
        prop_assert!(duo >= solo, "duo {duo} < solo {solo}");
        // ...and no worse than fully serialized (some overlap survives).
        prop_assert!(duo <= 2 * solo + cfg.dram_latency, "duo {duo} vs solo {solo}");
    }
}

/// A line of [`RefCache`].
#[derive(Debug, Clone, Copy, Default)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
    ready_at: u64,
}

/// The replacement rule `Cache` must keep, written the plain way: one
/// `Vec` of ways per set, a valid flag per line, and a fill that evicts
/// the first way with the least key, invalid lines keyed 0.
struct RefCache {
    sets: Vec<Vec<RefLine>>,
    line_bytes: u64,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.size_bytes / (cfg.ways * cfg.line_bytes);
        RefCache {
            sets: vec![vec![RefLine::default(); cfg.ways]; sets],
            line_bytes: cfg.line_bytes as u64,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn access(&mut self, addr: u64, write: bool) -> Option<u64> {
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

    fn fill(&mut self, addr: u64, write: bool, ready_at: u64) -> bool {
        self.clock += 1;
        let (set, tag) = self.index_tag(addr);
        let clock = self.clock;
        let victim = self.sets[set]
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("sets are never empty");
        let evicted_dirty = victim.valid && victim.dirty;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        *victim = RefLine { tag, valid: true, dirty: write, lru: clock, ready_at };
        evicted_dirty
    }

    fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.index_tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }
}

proptest! {
    /// `Cache` agrees with the reference model on every hit, miss,
    /// `ready_at`, write-back, probe and counter, over random sequences
    /// of accesses, fills (including fills of lines already present)
    /// and writes on small geometries that evict constantly.
    #[test]
    fn cache_matches_the_per_set_reference_model(
        set_bits in 0u32..4,
        ways in 1usize..5,
        line_bits in 4u32..7,
        ops in proptest::collection::vec(
            (0u8..3, 0u64..64, any::<bool>(), 0u64..1000), 1..400),
    ) {
        let line_bytes = 1usize << line_bits;
        let cfg = CacheConfig { size_bytes: (1 << set_bits) * ways * line_bytes, ways, line_bytes };
        let mut cache = Cache::new(cfg);
        let mut reference = RefCache::new(cfg);
        for (op, line, write, ready_at) in ops {
            // Any byte of the line: offsets within a line must not matter.
            let addr = line * line_bytes as u64 + ready_at % line_bytes as u64;
            match op {
                0 => prop_assert_eq!(cache.access(addr, write), reference.access(addr, write)),
                1 => prop_assert_eq!(
                    cache.fill(addr, write, ready_at),
                    reference.fill(addr, write, ready_at)
                ),
                _ => {}
            }
            prop_assert_eq!(cache.probe(addr), reference.probe(addr));
            prop_assert_eq!(cache.stats(), reference.stats);
        }
        for addr in (0..64u64).map(|line| line * line_bytes as u64) {
            prop_assert_eq!(cache.probe(addr), reference.probe(addr));
        }
    }
}
