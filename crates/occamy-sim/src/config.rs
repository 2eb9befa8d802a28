//! Simulator configuration (Table 4) and the four SIMD architectures
//! (Fig. 1).

use std::fmt;

use em_simd::VectorLength;
use mem_sim::{Cycle, MemConfig};

use crate::regblocks::RegClass;

/// Which of the four SIMD architectures of Fig. 1 the machine models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Architecture {
    /// Core-private SIMD lanes (Fig. 1(a), `Private` in §7): each core
    /// permanently owns `total_granules / cores` ExeBUs and RegBlks, with
    /// a private front-end.
    Private,
    /// Temporal sharing (Fig. 1(b), `FTS` in §7, Apple-AMX style): every
    /// instruction executes at full width on all lanes; the dispatcher and
    /// ld/st units are *shared* and arbitrated between the cores, and
    /// every physical register spans all RegBlks (the register-pressure
    /// mechanism behind Fig. 13).
    TemporalSharing,
    /// Static spatial sharing (Fig. 1(c), `VLS` in §7): the lanes are
    /// partitioned once, at configuration time, and never change.
    ///
    /// `partition[c]` is the granule count statically owned by core `c`.
    StaticSpatialSharing {
        /// Static granule allocation per core; must sum to at most the
        /// machine's total granules.
        partition: Vec<usize>,
    },
    /// Occamy's elastic spatial sharing (Fig. 1(d)): lanes move between
    /// cores at runtime under lane-manager control.
    Occamy,
}

impl Architecture {
    /// Short name used in result tables (`Private`/`FTS`/`VLS`/`Occamy`).
    pub fn short_name(&self) -> &'static str {
        match self {
            Architecture::Private => "Private",
            Architecture::TemporalSharing => "FTS",
            Architecture::StaticSpatialSharing { .. } => "VLS",
            Architecture::Occamy => "Occamy",
        }
    }

    /// The fixed vector length a program running on `core` should be
    /// compiled for, or `None` for Occamy (elastic, decided at runtime).
    pub fn fixed_vl(&self, core: usize, cfg: &SimConfig) -> Option<VectorLength> {
        match self {
            Architecture::Private => Some(VectorLength::new(cfg.total_granules / cfg.cores)),
            Architecture::TemporalSharing => Some(VectorLength::new(cfg.total_granules)),
            Architecture::StaticSpatialSharing { partition } => {
                Some(VectorLength::new(partition[core]))
            }
            Architecture::Occamy => None,
        }
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The largest reorder buffer [`SimConfig::validate`] accepts. The
/// co-processor sizes its issue-queue and LSU rings by the ROB, which
/// bounds how far apart two live entries can be.
pub(crate) const MAX_ROB_ENTRIES: usize = 4096;

/// Micro-architectural parameters of the simulated machine (Table 4 plus
/// the pipeline depths of Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of scalar cores.
    pub cores: usize,
    /// Total ExeBUs/RegBlks in the co-processor (8 for the paper's 2-core
    /// machine: 32 × f32 lanes).
    pub total_granules: usize,
    /// Physical 128-bit vector registers per RegBlk (paper: 160, giving
    /// the 20 KB VRF of Table 4).
    pub vregs_per_block: usize,
    /// Physical 16-bit predicate registers per RegBlk (paper: 64).
    pub pregs_per_block: usize,
    /// Instruction-pool entries per core.
    pub pool_entries: usize,
    /// Issue-queue entries per core (compute window).
    pub iq_entries: usize,
    /// Reorder-buffer entries per core (at most 4096).
    pub rob_entries: usize,
    /// LSU queue entries per core (bounds in-flight vector memory ops).
    pub lsu_entries: usize,
    /// Vector compute instructions issued per core per cycle (Table 4:
    /// "SIMD Execution Units - 2"; each ExeBU has two 128-bit pipes).
    pub compute_width: usize,
    /// Vector memory instructions issued per core per cycle (Table 4:
    /// "ld/st Units - 2").
    pub mem_width: usize,
    /// Instructions a scalar core transmits to the co-processor per cycle.
    pub transmit_width: usize,
    /// Scalar instructions executed per core per cycle.
    pub scalar_width: usize,
    /// Instructions retired per core per cycle.
    pub retire_width: usize,
    /// EM-SIMD instructions the shared EM-SIMD data path processes per
    /// cycle (Fig. 5: 2).
    pub em_width: usize,
    /// Vector compute latency in cycles (FADD/FMUL/FMLA class).
    pub exe_latency: Cycle,
    /// Long-latency vector compute (FDIV/FSQRT class).
    pub exe_latency_long: Cycle,
    /// Memory-hierarchy configuration.
    pub mem: MemConfig,
    /// Plan lane partitions against per-workload *shares* of the memory
    /// bandwidth instead of the full-machine ceilings (beyond the paper;
    /// see `LaneManager::with_contention_awareness`). Off by default —
    /// the paper's Fig. 2(e) schedule depends on full-machine planning.
    pub contention_aware_planning: bool,
}

impl SimConfig {
    /// The paper's configuration for `cores` scalar cores: 4 granules
    /// (16 × f32 lanes) per core, 160 registers per block, the Table 4
    /// memory hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn paper(cores: usize) -> Self {
        assert!(cores > 0, "at least one core required");
        SimConfig {
            cores,
            total_granules: 4 * cores,
            vregs_per_block: 160,
            pregs_per_block: 64,
            pool_entries: 32,
            iq_entries: 32,
            rob_entries: 112,
            lsu_entries: 24,
            compute_width: 2,
            mem_width: 2,
            transmit_width: 4,
            scalar_width: 8,
            retire_width: 4,
            em_width: 2,
            exe_latency: 4,
            exe_latency_long: 12,
            mem: MemConfig::paper(cores),
            contention_aware_planning: false,
        }
    }

    /// The paper's evaluated two-core machine (Table 4).
    pub fn paper_2core() -> Self {
        Self::paper(2)
    }

    /// Total 32-bit lanes in the co-processor.
    pub fn total_lanes(&self) -> usize {
        self.total_granules * em_simd::LANES_PER_GRANULE
    }

    /// Granules per core under an even static split.
    pub fn granules_per_core(&self) -> usize {
        self.total_granules / self.cores
    }

    /// Physical registers of `class` in each RegBlk.
    pub(crate) fn regs_per_block(&self, class: RegClass) -> usize {
        match class {
            RegClass::Vector => self.vregs_per_block,
            RegClass::Pred => self.pregs_per_block,
        }
    }

    /// Validates the configuration itself, independent of the selected
    /// architecture, so untrusted (e.g. fuzzed or user-supplied)
    /// configurations surface a typed error instead of panicking deep in
    /// the simulator.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first inconsistent parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 || self.cores > 64 {
            return Err(format!("cores must be in 1..=64 (configured: {})", self.cores));
        }
        if self.total_granules == 0 || self.total_granules > 1024 {
            return Err(format!(
                "total_granules must be in 1..=1024 (configured: {})",
                self.total_granules
            ));
        }
        for class in RegClass::ALL {
            let (have, need) = (self.regs_per_block(class), class.arch_regs().len());
            if have < need {
                let field = ["vregs_per_block", "pregs_per_block"][class];
                return Err(format!(
                    "{field} ({have}) cannot hold the {need} architectural {} registers",
                    class.noun()
                ));
            }
        }
        for (name, v) in [
            ("pool_entries", self.pool_entries),
            ("iq_entries", self.iq_entries),
            ("rob_entries", self.rob_entries),
            ("lsu_entries", self.lsu_entries),
            ("compute_width", self.compute_width),
            ("mem_width", self.mem_width),
            ("transmit_width", self.transmit_width),
            ("scalar_width", self.scalar_width),
            ("retire_width", self.retire_width),
            ("em_width", self.em_width),
        ] {
            if v == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        if self.rob_entries > MAX_ROB_ENTRIES {
            return Err(format!(
                "rob_entries must be at most {MAX_ROB_ENTRIES} (configured: {})",
                self.rob_entries
            ));
        }
        if self.exe_latency == 0 || self.exe_latency_long == 0 {
            return Err("execution latencies must be at least 1 cycle".to_owned());
        }
        if self.mem.cores != self.cores {
            return Err(format!(
                "memory system is sized for {} cores but the machine has {}",
                self.mem.cores, self.cores
            ));
        }
        self.mem.validate()
    }

    /// Validates an architecture against this configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when the architecture is inconsistent with the
    /// configuration (e.g. a static partition over-subscribing lanes).
    pub fn validate_arch(&self, arch: &Architecture) -> Result<(), String> {
        match arch {
            Architecture::StaticSpatialSharing { partition } => {
                if partition.len() != self.cores {
                    return Err(format!(
                        "partition has {} entries for {} cores",
                        partition.len(),
                        self.cores
                    ));
                }
                let sum: usize = partition.iter().sum();
                if sum > self.total_granules {
                    return Err(format!(
                        "partition allocates {sum} of {} granules",
                        self.total_granules
                    ));
                }
                if partition.contains(&0) {
                    return Err("every core needs at least one granule".to_owned());
                }
                Ok(())
            }
            Architecture::Private => {
                if !self.total_granules.is_multiple_of(self.cores) {
                    Err(format!(
                        "{} granules do not divide evenly over {} cores",
                        self.total_granules, self.cores
                    ))
                } else {
                    Ok(())
                }
            }
            Architecture::TemporalSharing => {
                // Every core keeps a full-width architectural context in
                // the shared per-block free lists; without headroom for
                // in-flight renames on top, the machine would livelock.
                let need_v = self.cores * em_simd::NUM_VREGS;
                let need_p = self.cores * em_simd::NUM_PREGS;
                if self.vregs_per_block <= need_v || self.pregs_per_block <= need_p {
                    return Err(format!(
                        "temporal sharing with {} cores needs more than {need_v} vector and                          {need_p} predicate registers per block (configured: {} / {});                          scale the VRF as §7.6 does",
                        self.cores, self.vregs_per_block, self.pregs_per_block
                    ));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_2core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_2core_matches_table4() {
        let cfg = SimConfig::paper_2core();
        assert_eq!(cfg.total_lanes(), 32);
        assert_eq!(cfg.granules_per_core(), 4);
        // VRF: 8 blocks x 160 x 16B = 20KB (Table 4).
        assert_eq!(cfg.total_granules * cfg.vregs_per_block * 16, 20 << 10);
        assert_eq!(cfg.compute_width + cfg.mem_width, 4); // vector issue width 4
    }

    #[test]
    fn fixed_vl_per_architecture() {
        let cfg = SimConfig::paper_2core();
        assert_eq!(Architecture::Private.fixed_vl(0, &cfg), Some(VectorLength::new(4)));
        assert_eq!(Architecture::TemporalSharing.fixed_vl(1, &cfg), Some(VectorLength::new(8)));
        let vls = Architecture::StaticSpatialSharing { partition: vec![3, 5] };
        assert_eq!(vls.fixed_vl(0, &cfg), Some(VectorLength::new(3)));
        assert_eq!(vls.fixed_vl(1, &cfg), Some(VectorLength::new(5)));
        assert_eq!(Architecture::Occamy.fixed_vl(0, &cfg), None);
    }

    #[test]
    fn partition_validation() {
        let cfg = SimConfig::paper_2core();
        assert!(cfg
            .validate_arch(&Architecture::StaticSpatialSharing { partition: vec![3, 5] })
            .is_ok());
        assert!(cfg
            .validate_arch(&Architecture::StaticSpatialSharing { partition: vec![5, 5] })
            .is_err());
        assert!(cfg
            .validate_arch(&Architecture::StaticSpatialSharing { partition: vec![8] })
            .is_err());
        assert!(cfg
            .validate_arch(&Architecture::StaticSpatialSharing { partition: vec![0, 8] })
            .is_err());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(SimConfig::paper_2core().validate().is_ok());
        let mut cfg = SimConfig::paper_2core();
        cfg.total_granules = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::paper_2core();
        cfg.vregs_per_block = 8;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::paper_2core();
        cfg.rob_entries = 0;
        assert!(cfg.validate().is_err());
        cfg.rob_entries = MAX_ROB_ENTRIES + 1;
        assert!(cfg.validate().unwrap_err().contains("rob_entries"));
        let mut cfg = SimConfig::paper_2core();
        cfg.mem.cores = 7;
        assert!(cfg.validate().is_err());
        let mut cfg = SimConfig::paper_2core();
        cfg.mem.l1.ways = 0;
        assert!(cfg.validate().unwrap_err().contains("l1"));
    }

    #[test]
    fn validate_rejects_caches_over_the_line_cap() {
        // 2^21 lines of 64 bytes: twice the largest cache mem-sim builds.
        // Only `validate` is called; building such a machine would try
        // to allocate every line.
        let mut cfg = SimConfig::paper_2core();
        cfg.mem.l2.size_bytes = 128 << 20;
        assert!(cfg.mem.l2.validate().unwrap_err().contains("lines"));
        assert!(cfg.validate().unwrap_err().contains("l2"));
        cfg.mem.l2.size_bytes = 1 << 62;
        assert!(cfg.validate().unwrap_err().contains("l2"));
        let mut cfg = SimConfig::paper_2core();
        cfg.mem.veccache.size_bytes = 1 << 62;
        assert!(cfg.validate().unwrap_err().contains("veccache"));
    }

    #[test]
    fn four_core_scales_lanes() {
        let cfg = SimConfig::paper(4);
        assert_eq!(cfg.total_lanes(), 64);
        assert_eq!(cfg.mem.cores, 4);
    }

    #[test]
    fn short_names() {
        assert_eq!(Architecture::Private.short_name(), "Private");
        assert_eq!(Architecture::TemporalSharing.to_string(), "FTS");
        assert_eq!(
            Architecture::StaticSpatialSharing { partition: vec![4, 4] }.short_name(),
            "VLS"
        );
        assert_eq!(Architecture::Occamy.short_name(), "Occamy");
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(Architecture {
    0 => Private,
    1 => TemporalSharing,
    2 => StaticSpatialSharing { partition },
    3 => Occamy,
});

statecodec::impl_codec!(SimConfig {
    cores,
    total_granules,
    vregs_per_block,
    pregs_per_block,
    pool_entries,
    iq_entries,
    rob_entries,
    lsu_entries,
    compute_width,
    mem_width,
    transmit_width,
    scalar_width,
    retire_width,
    em_width,
    exe_latency,
    exe_latency_long,
    mem,
    contention_aware_planning,
});
