//! The timing hierarchy: caches + bandwidth-regulated channels.

use std::fmt;

use crate::cache::{Cache, CacheConfig, CacheStats};

/// A simulation cycle count.
pub type Cycle = u64;

/// The memory level that ultimately served (the deepest line of) an
/// access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// Served entirely by the first-level cache (L1D or VecCache).
    FirstLevel,
    /// At least one line came from the unified L2.
    L2,
    /// At least one line came from DRAM.
    Dram,
}

impl fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ServiceLevel::FirstLevel => "first-level",
            ServiceLevel::L2 => "L2",
            ServiceLevel::Dram => "DRAM",
        };
        f.write_str(s)
    }
}

/// Configuration of the full memory system (Table 4 defaults via
/// [`MemConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of scalar cores (each gets a private L1D).
    pub cores: usize,
    /// Per-core L1 data cache geometry.
    pub l1: CacheConfig,
    /// L1 hit latency in cycles (paper: 4).
    pub l1_latency: Cycle,
    /// Shared vector cache geometry.
    pub veccache: CacheConfig,
    /// Vector-cache hit latency in cycles (paper: 5).
    pub veccache_latency: Cycle,
    /// Vector-cache port bandwidth in bytes/cycle (paper: 2 x 64 B).
    pub veccache_bytes_cycle: u64,
    /// Shared unified L2 geometry.
    pub l2: CacheConfig,
    /// L2 latency in cycles (paper: 18).
    pub l2_latency: Cycle,
    /// L2 bandwidth in bytes/cycle (paper: 64).
    pub l2_bytes_cycle: u64,
    /// DRAM latency in cycles (not in Table 4; 120 is a typical LPDDR
    /// round-trip at 2 GHz).
    pub dram_latency: Cycle,
    /// DRAM bandwidth in bytes/cycle (paper: 64 GB/s at 2 GHz = 32).
    pub dram_bytes_cycle: u64,
    /// Stream-prefetch degree of the vector cache: on every vector
    /// access, this many subsequent lines are fetched if absent. gem5's
    /// classic caches prefetch similarly; without it, streaming loops are
    /// bound by load latency x queue depth instead of memory bandwidth
    /// and the roofline model's bandwidth ceilings never bind.
    pub vec_prefetch_lines: u64,
    /// Stream-prefetch degree of the per-core L1D caches (keeps scalar
    /// remainder loops from paying a full miss per element).
    pub l1_prefetch_lines: u64,
}

impl MemConfig {
    /// The paper's memory system for `cores` scalar cores (Table 4).
    pub fn paper(cores: usize) -> Self {
        MemConfig {
            cores,
            l1: CacheConfig { size_bytes: 64 << 10, ways: 4, line_bytes: 64 },
            l1_latency: 4,
            veccache: CacheConfig { size_bytes: 128 << 10, ways: 8, line_bytes: 64 },
            veccache_latency: 5,
            veccache_bytes_cycle: 128,
            l2: CacheConfig { size_bytes: 8 << 20, ways: 16, line_bytes: 64 },
            l2_latency: 18,
            l2_bytes_cycle: 64,
            dram_latency: 120,
            dram_bytes_cycle: 32,
            vec_prefetch_lines: 8,
            l1_prefetch_lines: 2,
        }
    }

    /// Checks the configuration without panicking, for untrusted
    /// configurations.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first bad parameter: a core count
    /// outside `1..=64`, a cache geometry that fails
    /// [`CacheConfig::validate`], or a zero bandwidth.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores > 64 {
            return Err(format!("memory system cores ({}) must be in 1..=64", self.cores));
        }
        for (name, cache) in [("l1", &self.l1), ("veccache", &self.veccache), ("l2", &self.l2)] {
            cache.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        if self.veccache_bytes_cycle == 0 || self.l2_bytes_cycle == 0 || self.dram_bytes_cycle == 0
        {
            return Err("memory bandwidths must be at least 1 byte/cycle".to_owned());
        }
        Ok(())
    }
}

/// A bandwidth-regulated channel: requests queue FIFO and each consumes
/// `bytes / bytes_per_cycle` of channel time. Occupancy is tracked at
/// sub-cycle resolution so that narrow accesses (e.g. a 32-byte vector
/// load on a 128 B/cycle port) do not monopolise a whole cycle — the
/// VecCache's two 64-byte ports can serve several small accesses per
/// cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Channel {
    next_free: f64,
    bytes_per_cycle: u64,
    busy_cycles: f64,
    bytes_served: u64,
    requests: u64,
}

impl Channel {
    fn new(bytes_per_cycle: u64) -> Self {
        Channel { bytes_per_cycle, ..Channel::default() }
    }

    /// Serves `bytes` starting no earlier than `now`; returns the cycle at
    /// which the last byte has crossed the channel.
    fn serve(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let start = (now as f64).max(self.next_free);
        let dur = bytes as f64 / self.bytes_per_cycle as f64;
        self.next_free = start + dur;
        self.busy_cycles += dur;
        self.bytes_served += bytes;
        self.requests += 1;
        (start + dur).ceil() as Cycle
    }

    fn stats(&self) -> LevelStats {
        LevelStats {
            busy_cycles: self.busy_cycles as Cycle,
            bytes_served: self.bytes_served,
            requests: self.requests,
        }
    }
}

/// Aggregate traffic statistics for one bandwidth channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Cycles the channel was transferring data.
    pub busy_cycles: Cycle,
    /// Total bytes moved.
    pub bytes_served: u64,
    /// Number of requests served.
    pub requests: u64,
}

/// Snapshot of all memory-system statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct MemStats {
    /// Per-core L1D cache hit/miss counters.
    pub l1: Vec<CacheStats>,
    /// Shared vector-cache counters.
    pub veccache: CacheStats,
    /// Shared L2 counters.
    pub l2: CacheStats,
    /// Vector-cache port traffic.
    pub veccache_traffic: LevelStats,
    /// L2 channel traffic.
    pub l2_traffic: LevelStats,
    /// DRAM channel traffic.
    pub dram_traffic: LevelStats,
    /// Vector accesses by the deepest level that served them, indexed
    /// `[first-level, L2, DRAM]` (the [`ServiceLevel`] order).
    pub vec_served: [u64; 3],
}

/// The cycle-level memory system of Fig. 4: per-core L1Ds for scalar
/// accesses, a shared VecCache for vector accesses, a shared unified L2
/// and bandwidth-regulated DRAM.
///
/// All methods take the current cycle and return the *completion cycle*
/// of the access; shared-channel contention between cores emerges from
/// the FIFO bandwidth regulators.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    cfg: MemConfig,
    l1: Vec<Cache>,
    veccache: Cache,
    l2: Cache,
    vec_chan: Channel,
    l2_chan: Channel,
    dram_chan: Channel,
    /// Vector accesses by deepest serving level ([`ServiceLevel`] order).
    vec_served: [u64; 3],
}

impl MemorySystem {
    /// Creates a cold memory system.
    pub fn new(cfg: MemConfig) -> Self {
        MemorySystem {
            cfg,
            l1: (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect(),
            veccache: Cache::new(cfg.veccache),
            l2: Cache::new(cfg.l2),
            vec_chan: Channel::new(cfg.veccache_bytes_cycle),
            l2_chan: Channel::new(cfg.l2_bytes_cycle),
            dram_chan: Channel::new(cfg.dram_bytes_cycle),
            vec_served: [0; 3],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// A scalar 32-bit access from `core`; returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn scalar_access(&mut self, now: Cycle, core: usize, addr: u64, write: bool) -> Cycle {
        let line = self.cfg.l1.line_bytes as u64;
        let completion = if let Some(ready) = self.l1[core].access(addr, write) {
            ready.max(now) + self.cfg.l1_latency
        } else {
            let (ready, _) = self.fetch_from_l2(now, addr);
            if self.l1[core].fill(addr, write, ready) {
                // Dirty eviction: write the line back to L2 (bandwidth only).
                self.l2_chan.serve(now, line);
            }
            ready + self.cfg.l1_latency
        };
        // Stream prefetch into the L1.
        for p in 1..=self.cfg.l1_prefetch_lines {
            let pf = ((addr >> line.trailing_zeros()) + p) * line;
            if !self.l1[core].probe(pf) {
                let (ready, _) = self.fetch_from_l2(now, pf);
                if self.l1[core].fill(pf, false, ready) {
                    self.l2_chan.serve(now, line);
                }
            }
        }
        completion
    }

    /// A vector access of `bytes` contiguous bytes from `core`'s SIMD
    /// ld/st data path; returns the completion cycle of the whole access
    /// and the deepest memory level involved.
    ///
    /// The access occupies the shared VecCache port for `bytes` worth of
    /// bandwidth; each spanned 64-byte line that misses is fetched from L2
    /// or DRAM, and the access completes when its slowest line arrives.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn vector_access(
        &mut self,
        now: Cycle,
        core: usize,
        addr: u64,
        bytes: u64,
        write: bool,
    ) -> (Cycle, ServiceLevel) {
        assert!(bytes > 0, "vector access of zero bytes");
        let _ = core; // The VecCache is shared; the port does not key on core.
        let line = self.cfg.veccache.line_bytes as u64;
        let port_done = self.vec_chan.serve(now, bytes);
        let mut slowest = port_done;
        let mut level = ServiceLevel::FirstLevel;

        // Line sizes are powers of two (`CacheConfig::validate`).
        let first_line = addr >> line.trailing_zeros();
        let last_line = (addr + bytes - 1) >> line.trailing_zeros();
        for l in first_line..=last_line {
            let line_addr = l * line;
            match self.veccache.access(line_addr, write) {
                Some(ready) => {
                    // Possibly an in-flight prefetch: wait for its data.
                    if ready > now {
                        level = level.max(ServiceLevel::L2);
                    }
                    slowest = slowest.max(ready);
                }
                None => {
                    let (ready, lvl) = self.fetch_from_l2(now, line_addr);
                    level = level.max(lvl);
                    slowest = slowest.max(ready);
                    if self.veccache.fill(line_addr, write, ready) {
                        self.l2_chan.serve(now, line);
                    }
                }
            }
        }
        // Stream prefetch: pull the next lines into the VecCache so a
        // unit-stride stream is bound by bandwidth, not latency.
        for p in 1..=self.cfg.vec_prefetch_lines {
            let pf_addr = (last_line + p) * line;
            if !self.veccache.probe(pf_addr) {
                let (ready, _) = self.fetch_from_l2(now, pf_addr);
                if self.veccache.fill(pf_addr, false, ready) {
                    self.l2_chan.serve(now, line);
                }
            }
        }
        self.vec_served[level as usize] += 1;
        (slowest + self.cfg.veccache_latency, level)
    }

    /// Fetches a line missing from a first-level cache; returns when it
    /// arrives there and whether the L2 or DRAM served it.
    fn fetch_from_l2(&mut self, now: Cycle, line_addr: u64) -> (Cycle, ServiceLevel) {
        let line = self.cfg.l2.line_bytes as u64;
        if let Some(ready) = self.l2.access(line_addr, false) {
            let served = self.l2_chan.serve(ready.max(now), line);
            return (served + self.cfg.l2_latency, ServiceLevel::L2);
        }
        let served = self.dram_chan.serve(now, line);
        let ready = served + self.cfg.dram_latency;
        if self.l2.fill(line_addr, false, ready) {
            self.dram_chan.serve(now, line);
        }
        // The line traverses the L2 on its way up: consume L2 bandwidth.
        let up = self.l2_chan.serve(served, line);
        (up.max(ready) + self.cfg.l2_latency, ServiceLevel::Dram)
    }

    /// Pre-loads the caches as if `addr..addr+bytes` were resident in the
    /// given level (useful for constructing warm-start experiments).
    pub fn warm(&mut self, addr: u64, bytes: u64, level: ServiceLevel) {
        let line = self.cfg.veccache.line_bytes as u64;
        let first = addr / line;
        let last = (addr + bytes.max(1) - 1) / line;
        for l in first..=last {
            let a = l * line;
            match level {
                ServiceLevel::FirstLevel => {
                    if !self.veccache.probe(a) {
                        self.veccache.fill(a, false, 0);
                    }
                    if !self.l2.probe(a) {
                        self.l2.fill(a, false, 0);
                    }
                }
                ServiceLevel::L2 => {
                    if !self.l2.probe(a) {
                        self.l2.fill(a, false, 0);
                    }
                }
                ServiceLevel::Dram => {}
            }
        }
    }

    /// A statistics snapshot.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1: self.l1.iter().map(|c| c.stats()).collect(),
            veccache: self.veccache.stats(),
            l2: self.l2.stats(),
            veccache_traffic: self.vec_chan.stats(),
            l2_traffic: self.l2_chan.stats(),
            dram_traffic: self.dram_chan.stats(),
            vec_served: self.vec_served,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        MemorySystem::new(MemConfig::paper(2))
    }

    #[test]
    fn veccache_hit_is_fast() {
        let mut s = sys();
        let (t1, _) = s.vector_access(0, 0, 0x1000, 64, false);
        // Cold: DRAM latency dominates.
        assert!(t1 > 100, "cold access took only {t1}");
        let t2 = s.vector_access(t1, 0, 0x1000, 64, false).0 - t1;
        assert!(t2 <= 7, "warm access took {t2}");
    }

    #[test]
    fn l2_resident_lines_skip_dram() {
        let mut s = sys();
        s.warm(0x4000, 256, ServiceLevel::L2);
        let (done, lvl) = s.vector_access(0, 0, 0x4000, 64, false);
        assert_eq!(lvl, ServiceLevel::L2);
        assert!(done < 100, "L2 access took {done}");
    }

    #[test]
    fn warm_first_level_hits_immediately() {
        let mut s = sys();
        s.warm(0x8000, 128, ServiceLevel::FirstLevel);
        let (done, lvl) = s.vector_access(0, 0, 0x8000, 128, false);
        assert_eq!(lvl, ServiceLevel::FirstLevel);
        assert_eq!(done, 1 + 5 /* port + latency */);
    }

    #[test]
    fn dram_bandwidth_serializes_streams() {
        let mut s = sys();
        // Two cold 64B lines requested at the same cycle share the DRAM
        // channel: the second completes strictly later.
        let (a, _) = s.vector_access(0, 0, 0x10000, 64, false);
        let (b, _) = s.vector_access(0, 1, 0x20000, 64, false);
        assert!(b > a);
    }

    #[test]
    fn wide_accesses_span_multiple_lines() {
        let mut s = sys();
        s.warm(0x0, 4096, ServiceLevel::FirstLevel);
        let stats_before = s.stats().veccache;
        s.vector_access(0, 0, 0x0, 128, false);
        let stats_after = s.stats().veccache;
        assert_eq!(stats_after.hits - stats_before.hits, 2, "128B = 2 lines");
    }

    #[test]
    fn scalar_accesses_use_private_l1() {
        let mut s = sys();
        let t1 = s.scalar_access(0, 0, 0x100, false);
        let t2 = s.scalar_access(t1, 0, 0x100, false) - t1;
        assert_eq!(t2, 4, "L1 hit latency");
        // Core 1's L1 is cold for the same address.
        let t3 = s.scalar_access(0, 1, 0x100, false);
        assert!(t3 > 10, "core 1 missed: {t3}");
    }

    #[test]
    fn unaligned_access_touches_both_lines() {
        let mut s = sys();
        s.warm(0x0, 256, ServiceLevel::FirstLevel);
        let before = s.stats().veccache.hits;
        s.vector_access(0, 0, 0x3c, 16, false); // crosses 0x40
        assert_eq!(s.stats().veccache.hits - before, 2);
    }

    #[test]
    fn stats_track_traffic() {
        let mut s = sys();
        s.vector_access(0, 0, 0x1000, 128, false);
        let st = s.stats();
        assert_eq!(st.veccache_traffic.bytes_served, 128);
        assert!(st.dram_traffic.bytes_served >= 128);
        assert_eq!(st.veccache.misses, 2);
    }

    #[test]
    fn vec_served_counts_by_deepest_level() {
        let mut s = sys();
        s.vector_access(0, 0, 0x1000, 64, false); // cold: DRAM
        s.warm(0x8000, 64, ServiceLevel::FirstLevel);
        s.vector_access(500, 0, 0x8000, 64, false); // first-level hit
        s.warm(0x20000, 64, ServiceLevel::L2);
        s.vector_access(1000, 0, 0x20000, 64, false); // L2
        let st = s.stats();
        assert_eq!(st.vec_served, [1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "zero bytes")]
    fn zero_byte_access_is_rejected() {
        let mut s = sys();
        s.vector_access(0, 0, 0x0, 0, false);
    }

    #[test]
    fn writes_mark_lines_dirty_and_write_back() {
        let mut s = sys();
        // Stream writes over more than the VecCache capacity to force
        // dirty evictions.
        let mut now = 0;
        for i in 0..4096u64 {
            now = s.vector_access(now, 0, i * 64, 64, true).0;
        }
        assert!(s.stats().veccache.writebacks > 0);
    }

    #[test]
    fn decode_checks_the_configuration_before_building_caches() {
        use statecodec::{Codec, Sink, Src};
        let decode = |cfg: MemConfig, l1s: usize| {
            let mut sink = Sink::new();
            cfg.encode(&mut sink);
            l1s.encode(&mut sink);
            MemorySystem::decode(&mut Src::new(&sink.into_bytes())).unwrap_err().detail
        };
        let paper = MemConfig::paper(2);
        let huge = CacheConfig { size_bytes: 1 << 40, ..paper.l2 };
        assert!(decode(MemConfig { l2: huge, ..paper }, 2).contains("l2"));
        assert!(decode(MemConfig { cores: 1 << 20, ..paper }, 1 << 20).contains("cores"));
        assert!(decode(MemConfig { dram_bytes_cycle: 0, ..paper }, 2).contains("bandwidth"));
        assert!(decode(paper, 1 << 20).contains("L1 caches"));
        // A valid header fails only on the missing cache bodies.
        assert!(decode(paper, 2).contains("remain"));
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(MemConfig {
    cores,
    l1,
    l1_latency,
    veccache,
    veccache_latency,
    veccache_bytes_cycle,
    l2,
    l2_latency,
    l2_bytes_cycle,
    dram_latency,
    dram_bytes_cycle,
    vec_prefetch_lines,
    l1_prefetch_lines,
});
statecodec::impl_codec!(Channel { next_free, bytes_per_cycle, busy_cycles, bytes_served, requests });

// Hand-written so decode re-checks the structural invariants (a valid
// configuration, one L1 per core, non-zero channel bandwidths —
// `Channel::serve` divides by them).
impl statecodec::Codec for MemorySystem {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.cfg, sink);
        statecodec::Codec::encode(&self.l1, sink);
        statecodec::Codec::encode(&self.veccache, sink);
        statecodec::Codec::encode(&self.l2, sink);
        statecodec::Codec::encode(&self.vec_chan, sink);
        statecodec::Codec::encode(&self.l2_chan, sink);
        statecodec::Codec::encode(&self.dram_chan, sink);
        statecodec::Codec::encode(&self.vec_served, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let cfg: MemConfig = statecodec::Codec::decode(src)?;
        cfg.validate().map_err(|e| statecodec::DecodeError::at(src, e))?;
        // Caches allocate their lines as they decode: check the count first.
        let cores = <usize as statecodec::Codec>::decode(src)?;
        if cores != cfg.cores {
            return Err(statecodec::DecodeError::at(
                src,
                format!("memory system has {cores} L1 caches for {} cores", cfg.cores),
            ));
        }
        let l1 = (0..cores)
            .map(|_| statecodec::Codec::decode(src))
            .collect::<Result<Vec<Cache>, _>>()?;
        let veccache: Cache = statecodec::Codec::decode(src)?;
        let l2: Cache = statecodec::Codec::decode(src)?;
        let vec_chan: Channel = statecodec::Codec::decode(src)?;
        let l2_chan: Channel = statecodec::Codec::decode(src)?;
        let dram_chan: Channel = statecodec::Codec::decode(src)?;
        let vec_served: [u64; 3] = statecodec::Codec::decode(src)?;
        for (chan, name) in
            [(&vec_chan, "veccache"), (&l2_chan, "l2"), (&dram_chan, "dram")]
        {
            if chan.bytes_per_cycle == 0 {
                return Err(statecodec::DecodeError::at(
                    src,
                    format!("{name} channel has zero bytes/cycle"),
                ));
            }
        }
        Ok(MemorySystem { cfg, l1, veccache, l2, vec_chan, l2_chan, dram_chan, vec_served })
    }
}
