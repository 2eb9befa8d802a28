//! Cycle-attribution profiler (reproduces Fig. 15's overhead breakdown).
//!
//! When enabled on a [`crate::Machine`], every simulated cycle is
//! classified — per core — into exactly one category, so the per-core
//! categories always sum to the total simulated cycle count:
//!
//! - **compute**: the core issued vector compute work, or made scalar
//!   progress, this cycle;
//! - **memory-bound**: no compute issued but vector/scalar memory
//!   requests were issued or outstanding;
//! - **drain-reconfig**: the core was stalled in an elastic-management
//!   write (`MSR <VL>` pipeline drain, phase prologue/epilogue);
//! - **monitor**: the core was executing performance-monitor reads
//!   (§4.2.3 measured-OI sampling);
//! - **idle**: the core had halted and its vector pipeline was drained;
//! - **other**: none of the above (e.g. rename-stalled with an empty
//!   LSU, or waiting on operands).
//!
//! Cycles are attributed to the phase (`<OI>` window) open on that core
//! at the time, or to an "outside any phase" bucket. Rollback-replayed
//! cycles are tracked separately in [`CoreProfile::rollback_replay`]:
//! after a rollback the re-executed cycles land in the ordinary
//! categories again (the profiler state rewinds with the machine
//! snapshot), so `sum(categories) == architectural cycles` always holds
//! and `rollback_replay` reports the extra work on top.

use std::fmt::Write as _;

use crate::stats::MachineStats;

/// Per-category cycle counts. Exactly one category is incremented per
/// core per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CycleBreakdown {
    /// Vector compute issued or scalar progress made.
    pub compute: u64,
    /// Memory requests issued or outstanding, no compute.
    pub memory_bound: u64,
    /// Elastic-management stall: `MSR <VL>` drain, phase prologue or
    /// epilogue overhead.
    pub drain_reconfig: u64,
    /// Performance-monitor reads.
    pub monitor: u64,
    /// Halted with a drained pipeline.
    pub idle: u64,
    /// Anything else (operand waits, rename stalls with idle LSU, …).
    pub other: u64,
}

impl CycleBreakdown {
    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.compute
            + self.memory_bound
            + self.drain_reconfig
            + self.monitor
            + self.idle
            + self.other
    }

    fn add(&mut self, other: &CycleBreakdown) {
        self.compute += other.compute;
        self.memory_bound += other.memory_bound;
        self.drain_reconfig += other.drain_reconfig;
        self.monitor += other.monitor;
        self.idle += other.idle;
        self.other += other.other;
    }
}

/// The category a cycle is classified into (see module docs for the
/// priority order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CycleClass {
    /// Vector compute or scalar progress.
    Compute,
    /// Memory issued/outstanding without compute.
    MemoryBound,
    /// Elastic-management drain/reconfiguration stall.
    DrainReconfig,
    /// Performance-monitor reads.
    Monitor,
    /// Halted and drained.
    Idle,
    /// None of the above.
    Other,
}

/// One core's attribution: a breakdown per phase plus one for cycles
/// outside any phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreProfile {
    /// Cycles spent outside any `<OI>` phase.
    pub outside: CycleBreakdown,
    /// Cycles attributed to each phase, indexed like
    /// `CoreStats::phases`.
    pub phases: Vec<CycleBreakdown>,
    /// Cycles discarded and re-executed due to rollbacks (not part of
    /// the architectural total; see module docs).
    pub rollback_replay: u64,
}

impl CoreProfile {
    /// Total architectural cycles attributed on this core.
    pub fn total(&self) -> u64 {
        let mut sum = self.outside;
        for p in &self.phases {
            sum.add(p);
        }
        sum.total()
    }

    /// The breakdown summed over phases and outside-phase cycles.
    pub fn combined(&self) -> CycleBreakdown {
        let mut sum = self.outside;
        for p in &self.phases {
            sum.add(p);
        }
        sum
    }
}

/// Profiler state carried by the machine (and rewound with it on
/// rollback, which is what keeps the attribution exact).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileState {
    /// One profile per core.
    pub cores: Vec<CoreProfile>,
}

impl ProfileState {
    /// A profile for `ncores` cores.
    pub fn new(ncores: usize) -> Self {
        ProfileState { cores: vec![CoreProfile::default(); ncores] }
    }

    /// Attributes `n` cycles on `core` to `class`, under phase index
    /// `phase` (`None` = outside any phase): one cycle per tick, a whole
    /// span per event-kernel jump. Out-of-range cores are ignored rather
    /// than panicking (the profiler is diagnostic-only).
    pub fn attribute(&mut self, core: usize, phase: Option<usize>, class: CycleClass, n: u64) {
        let Some(cp) = self.cores.get_mut(core) else { return };
        let bucket = match phase {
            Some(idx) => {
                if idx >= cp.phases.len() {
                    cp.phases.resize(idx + 1, CycleBreakdown::default());
                }
                match cp.phases.get_mut(idx) {
                    Some(b) => b,
                    None => return,
                }
            }
            None => &mut cp.outside,
        };
        match class {
            CycleClass::Compute => bucket.compute += n,
            CycleClass::MemoryBound => bucket.memory_bound += n,
            CycleClass::DrainReconfig => bucket.drain_reconfig += n,
            CycleClass::Monitor => bucket.monitor += n,
            CycleClass::Idle => bucket.idle += n,
            CycleClass::Other => bucket.other += n,
        }
    }
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Renders the per-phase cycle-attribution table (the `occamy profile`
/// report). Categories are guaranteed to sum to the total simulated
/// cycles per core; a footer states the rollback-replay overhead when
/// any occurred.
pub fn render_profile(profile: &ProfileState, stats: &MachineStats) -> String {
    let mut out = String::from("==== cycle attribution (per core, per phase) ====\n");
    let _ = writeln!(
        out,
        "{:<22} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "window", "cycles", "compute", "mem", "drain", "monitor", "idle", "other"
    );
    for (c, cp) in profile.cores.iter().enumerate() {
        let _ = writeln!(out, "core {c}:");
        let mut row = |label: &str, b: &CycleBreakdown| {
            let _ = writeln!(
                out,
                "  {:<20} {:>10} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                label,
                b.total(),
                pct(b.compute, b.total()),
                pct(b.memory_bound, b.total()),
                pct(b.drain_reconfig, b.total()),
                pct(b.monitor, b.total()),
                pct(b.idle, b.total()),
                pct(b.other, b.total()),
            );
        };
        let phase_stats = stats.cores.get(c).map(|cs| cs.phases.as_slice()).unwrap_or(&[]);
        for (i, pb) in cp.phases.iter().enumerate() {
            if pb.total() == 0 {
                continue;
            }
            let label = match phase_stats.get(i) {
                Some(ps) => format!("phase {i} <oi {:.2}>", ps.oi.mem()),
                None => format!("phase {i}"),
            };
            row(&label, pb);
        }
        if cp.outside.total() > 0 {
            row("outside phases", &cp.outside);
        }
        row("total", &cp.combined());
        let total = cp.total();
        let _ = writeln!(
            out,
            "  attribution check: {} attributed / {} simulated{}",
            total,
            stats.cycles,
            if total == stats.cycles { " (exact)" } else { "" }
        );
        if cp.rollback_replay > 0 {
            let _ = writeln!(
                out,
                "  rollback replay: {} extra cycles re-executed",
                cp.rollback_replay
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_sums_to_total() {
        let mut p = ProfileState::new(2);
        for _ in 0..10 {
            p.attribute(0, None, CycleClass::Compute, 1);
        }
        p.attribute(0, Some(0), CycleClass::MemoryBound, 5);
        p.attribute(0, Some(2), CycleClass::DrainReconfig, 1);
        assert_eq!(p.cores[0].total(), 16);
        assert_eq!(p.cores[0].outside.compute, 10);
        assert_eq!(p.cores[0].phases[0].memory_bound, 5);
        assert_eq!(p.cores[0].phases[2].drain_reconfig, 1);
        assert_eq!(p.cores[1].total(), 0);
    }

    #[test]
    fn out_of_range_core_is_ignored() {
        let mut p = ProfileState::new(1);
        p.attribute(5, None, CycleClass::Idle, 1);
        assert_eq!(p.cores[0].total(), 0);
    }

    #[test]
    fn render_mentions_every_category() {
        let mut p = ProfileState::new(1);
        p.attribute(0, Some(0), CycleClass::Compute, 1);
        p.attribute(0, None, CycleClass::Idle, 1);
        let stats = MachineStats {
            cycles: 2,
            cores: Vec::new(),
            timeline: vec![],
            total_lanes: 32,
            completed: true,
            timed_out: false,
            estimated: false,
            estimated_cycles: 2,
            functional_insts: 0,
            metrics: crate::metrics::MetricsRegistry::new(),
        };
        let text = render_profile(&p, &stats);
        for needle in ["compute", "mem", "drain", "monitor", "idle", "other", "phase 0"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
        assert!(text.contains("2 attributed / 2 simulated (exact)"), "{text}");
    }
}
