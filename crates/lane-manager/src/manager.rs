//! The greedy lane-partitioning algorithm (§5.2).

use std::fmt;

use em_simd::{OperationalIntensity, VectorLength};
use roofline::{MachineCeilings, MemLevel};

/// What a core currently demands from the lane manager.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PhaseDemand {
    /// The core is not executing a vectorized phase (`<OI>` is zero).
    #[default]
    Idle,
    /// The core is executing a phase with the given operational intensity.
    Active(OperationalIntensity),
}

impl PhaseDemand {
    /// The operational intensity if active, `None` if idle. A phase-end
    /// marker counts as idle.
    pub fn intensity(self) -> Option<OperationalIntensity> {
        match self {
            PhaseDemand::Active(oi) if !oi.is_phase_end() => Some(oi),
            _ => None,
        }
    }
}

/// A lane-partition plan: the suggested vector length for each core
/// (`<decision>`), produced by [`LaneManager::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    vls: Vec<VectorLength>,
    free: usize,
}

impl PartitionPlan {
    /// The suggested vector length for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn vl(&self, core: usize) -> VectorLength {
        self.vls[core]
    }

    /// The suggested granule count for `core` (shorthand for
    /// `self.vl(core).granules()`).
    pub fn granules(&self, core: usize) -> usize {
        self.vls[core].granules()
    }

    /// Suggested vector lengths for all cores.
    pub fn vls(&self) -> &[VectorLength] {
        &self.vls
    }

    /// Granules left unallocated (no workload could profit from them).
    pub fn free_granules(&self) -> usize {
        self.free
    }
}

impl fmt::Display for PartitionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan[")?;
        for (i, vl) in self.vls.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "core{i}={}", vl.granules())?;
        }
        write!(f, "; free={}]", self.free)
    }
}

/// The hardware lane manager (`LaneMgr`, §5): partitions `N` ExeBUs across
/// the co-running workloads with a greedy algorithm guided by the
/// vector-length-aware roofline model.
///
/// The algorithm (§5.2):
///
/// 1. assign one ExeBU to every workload currently executing a phase;
/// 2. iteratively sort the workloads by decreasing net performance gain
///    from one extra ExeBU (Eq. 3) and give one ExeBU to each workload
///    with a positive gain, in that order;
/// 3. stop when all ExeBUs are allocated or nobody gains.
///
/// Fairness (§5.2): all-compute co-runs split the lanes equally; every
/// active workload receives at least one ExeBU, so nothing starves.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneManager {
    ceilings: MachineCeilings,
    total: usize,
    mem_level: MemLevel,
    contention_aware: bool,
}

impl LaneManager {
    /// Creates a lane manager over `total_granules` ExeBUs with explicit
    /// roofline ceilings and memory level.
    pub fn new(ceilings: MachineCeilings, total_granules: usize, mem_level: MemLevel) -> Self {
        LaneManager { ceilings, total: total_granules, mem_level, contention_aware: false }
    }

    /// Enables contention-aware planning (beyond the paper): memory-
    /// bound phases are modeled against their *share* of the memory
    /// bandwidth — the machine total divided among the co-running
    /// memory-bound phases — so they saturate at fewer lanes when they
    /// must share the channel. Compute-bound phases (operational
    /// intensity above the machine balance point) barely touch DRAM and
    /// keep the full ceilings. Off by default: the paper's §5.2 plans
    /// against full-machine ceilings (Fig. 2(e) depends on it).
    #[must_use]
    pub fn with_contention_awareness(mut self, on: bool) -> Self {
        self.contention_aware = on;
        self
    }

    /// The machine balance point: intensities below this are limited by
    /// the planning memory level at full width (FLOPs/byte).
    fn balance_oi(&self) -> f64 {
        self.ceilings.fp_peak(VectorLength::new(self.total))
            / self.ceilings.mem_bw(self.mem_level)
    }

    /// The machine balance point (FLOPs/byte) at the planning memory
    /// level — the hardware monitor's anchor when it must synthesize an
    /// operational intensity for a core whose `<OI>` hint was rejected.
    pub fn balance_point_oi(&self) -> f64 {
        self.balance_oi()
    }

    /// The largest operational intensity the roofline model considers
    /// plausible for this machine (see
    /// [`roofline::MachineCeilings::plausible_oi_max`]); `<OI>` hints
    /// beyond it are treated as corrupted and replaced by the
    /// monitor-measured path.
    pub fn plausible_oi_max(&self) -> f64 {
        self.ceilings.plausible_oi_max(VectorLength::new(self.total.max(1)), self.mem_level)
    }

    /// Permanently removes one granule from the managed pool (lane
    /// quarantine): subsequent plans partition over the survivors.
    /// Saturates at zero.
    pub fn retire_granule(&mut self) {
        self.total = self.total.saturating_sub(1);
    }

    /// Whether a phase is memory-bound at full machine width.
    fn is_memory_bound(&self, oi: OperationalIntensity) -> bool {
        oi.mem() < self.balance_oi()
    }

    /// The ceilings one workload is modeled against, given how many
    /// memory-bound workloads share the channel.
    fn effective_ceilings(&self, oi: OperationalIntensity, membound: usize) -> MachineCeilings {
        let mut c = self.ceilings.clone();
        if self.contention_aware && membound > 1 && self.is_memory_bound(oi) {
            let share = membound as f64;
            // Only the shared levels divide; per-core issue/FP do not.
            c.dram_bytes_cycle /= share;
            c.l2_bytes_cycle /= share;
            c.veccache_bytes_cycle /= share;
        }
        c
    }

    /// The paper's configuration: Table 4 ceilings, the DRAM bandwidth
    /// ceiling (the conservative choice used throughout §5 and Table 5).
    ///
    /// `cores` is accepted for interface symmetry with the resource table;
    /// the planning algorithm itself only needs the granule count.
    pub fn paper_default(cores: usize, total_granules: usize) -> Self {
        let _ = cores;
        Self::new(MachineCeilings::paper_default(), total_granules, MemLevel::Dram)
    }

    /// The total number of ExeBUs managed.
    pub fn total_granules(&self) -> usize {
        self.total
    }

    /// The roofline ceilings in use.
    pub fn ceilings(&self) -> &MachineCeilings {
        &self.ceilings
    }

    /// Produces a partition plan for the given per-core demands
    /// (equivalent to [`plan_rotated`](Self::plan_rotated) at rotation 0).
    ///
    /// Idle cores receive a zero vector length.
    pub fn plan(&self, demands: &[PhaseDemand]) -> PartitionPlan {
        self.plan_rotated(demands, 0)
    }

    /// Produces a partition plan for the given per-core demands, with an
    /// explicit rotation for the oversubscribed `M > N` regime.
    ///
    /// The paper assumes `M <= C <= N` (never more active workloads than
    /// ExeBUs), but lane quarantine can shrink the pool below the core
    /// count. When that happens, step 1's one-granule-per-workload pass
    /// runs out of granules; the starting workload advances by
    /// `rotation` (callers pass a replan counter) so the workloads that
    /// go without rotate round-robin across replans instead of the same
    /// low-indexed cores always winning. With `M <= N` every active
    /// workload is served in step 1 regardless of rotation, so the plan
    /// is bit-identical to the unrotated one.
    pub fn plan_rotated(&self, demands: &[PhaseDemand], rotation: usize) -> PartitionPlan {
        let mut vls = vec![0usize; demands.len()];
        let mut remaining = self.total;

        // Step 1: one ExeBU per active workload, starting from the
        // rotation point.
        let active: Vec<(usize, OperationalIntensity)> = demands
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.intensity().map(|oi| (i, oi)))
            .collect();
        let start = if active.is_empty() { 0 } else { rotation % active.len() };
        for k in 0..active.len() {
            if remaining == 0 {
                break;
            }
            let (core, _) = active[(start + k) % active.len()];
            vls[core] = 1;
            remaining -= 1;
        }

        // Step 2: rounds of gain-sorted single-granule assignments.
        let membound = active.iter().filter(|&&(_, oi)| self.is_memory_bound(oi)).count();
        while remaining > 0 {
            let mut gains: Vec<(usize, f64)> = active
                .iter()
                .filter(|&&(core, _)| vls[core] > 0)
                .map(|&(core, oi)| {
                    let g = self.effective_ceilings(oi, membound).net_gain(
                        VectorLength::new(vls[core]),
                        oi,
                        self.mem_level,
                    );
                    (core, g)
                })
                .filter(|&(_, g)| g > f64::EPSILON)
                .collect();
            if gains.is_empty() {
                break;
            }
            // Decreasing gain; stable on core index for determinism.
            gains.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let mut assigned = false;
            for (core, _) in gains {
                if remaining == 0 {
                    break;
                }
                vls[core] += 1;
                remaining -= 1;
                assigned = true;
            }
            if !assigned {
                break;
            }
        }

        // Step 3: the roofline model is conservative (it assumes the
        // DRAM bandwidth ceiling, §5/Table 5), so granules it deems
        // profitless may still help cache-resident phases. They would
        // otherwise idle, so hand the leftovers to the active workloads
        // round-robin, most-intense first.
        if remaining > 0 && !active.is_empty() {
            let mut order: Vec<usize> = active.iter().map(|&(c, _)| c).collect();
            order.sort_by(|&a, &b| {
                let oi = |c: usize| {
                    active.iter().find(|&&(core, _)| core == c).map(|(_, o)| o.mem()).unwrap_or(0.0)
                };
                oi(b).total_cmp(&oi(a))
            });
            let mut i = 0;
            while remaining > 0 {
                vls[order[i % order.len()]] += 1;
                remaining -= 1;
                i += 1;
            }
        }

        PartitionPlan {
            vls: vls.into_iter().map(VectorLength::new).collect(),
            free: remaining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> LaneManager {
        LaneManager::paper_default(2, 8)
    }

    #[test]
    fn memory_plus_compute_matches_motivating_p1() {
        // WL#0.p1 (oi 0.09) + WL#1 (oi 1.0): Fig. 2(e) gives 8 + 24 lanes.
        let plan = mgr().plan(&[
            PhaseDemand::Active(OperationalIntensity::uniform(0.09)),
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
        ]);
        assert_eq!(plan.granules(0), 2);
        assert_eq!(plan.granules(1), 6);
        assert_eq!(plan.free_granules(), 0);
    }

    #[test]
    fn solo_compute_workload_gets_everything() {
        // After WL#0 finishes, WL#1 gets all 32 lanes (Fig. 2(e) p3).
        let plan = mgr().plan(&[
            PhaseDemand::Idle,
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
        ]);
        assert_eq!(plan.granules(0), 0);
        assert_eq!(plan.granules(1), 8);
    }

    #[test]
    fn two_compute_workloads_split_equally() {
        // §5.2 fairness: all-compute co-runs divide the lanes equally.
        let oi = OperationalIntensity::uniform(2.0);
        let plan = mgr().plan(&[PhaseDemand::Active(oi), PhaseDemand::Active(oi)]);
        assert_eq!(plan.granules(0), 4);
        assert_eq!(plan.granules(1), 4);
    }

    #[test]
    fn two_memory_workloads_share_leftovers_equally() {
        let oi = OperationalIntensity::uniform(0.05);
        let plan = mgr().plan(&[PhaseDemand::Active(oi), PhaseDemand::Active(oi)]);
        // oi=0.05 saturates at 2 granules; the profitless leftovers are
        // distributed round-robin rather than idled.
        assert_eq!(plan.granules(0), 4);
        assert_eq!(plan.granules(1), 4);
        assert_eq!(plan.free_granules(), 0);
    }

    #[test]
    fn every_active_workload_gets_at_least_one_granule() {
        // §5.2: no "starving out", even for extremely memory-bound phases.
        let plan = mgr().plan(&[
            PhaseDemand::Active(OperationalIntensity::uniform(0.0001)),
            PhaseDemand::Active(OperationalIntensity::uniform(100.0)),
        ]);
        assert!(plan.granules(0) >= 1);
        assert!(plan.granules(1) >= 1);
    }

    #[test]
    fn phase_end_oi_counts_as_idle() {
        let plan = mgr().plan(&[
            PhaseDemand::Active(OperationalIntensity::PHASE_END),
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
        ]);
        assert_eq!(plan.granules(0), 0);
        assert_eq!(plan.granules(1), 8);
    }

    #[test]
    fn all_idle_leaves_everything_free() {
        let plan = mgr().plan(&[PhaseDemand::Idle, PhaseDemand::Idle]);
        assert_eq!(plan.free_granules(), 8);
        assert!(plan.vls().iter().all(|vl| vl.is_zero()));
    }

    #[test]
    fn issue_bound_workload_receives_extra_lanes_for_issue_bandwidth() {
        // Case 4 (§7.4): WL8.p1 with oi_issue = 1/6, oi_mem = 0.25 gets
        // 12 lanes (3 granules) — more than the 2 granules pure memory
        // analysis would give — to cover the issue-bandwidth ceiling.
        let plan = mgr().plan(&[
            PhaseDemand::Active(OperationalIntensity::new(1.0 / 6.0, 0.25)),
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
        ]);
        assert_eq!(plan.granules(0), 3, "{plan}");
        assert_eq!(plan.granules(1), 5, "{plan}");
    }

    #[test]
    fn four_core_mixed_plan_respects_capacity() {
        let mgr = LaneManager::paper_default(4, 16);
        let plan = mgr.plan(&[
            PhaseDemand::Active(OperationalIntensity::uniform(0.1)),
            PhaseDemand::Active(OperationalIntensity::uniform(0.2)),
            PhaseDemand::Active(OperationalIntensity::uniform(1.5)),
            PhaseDemand::Active(OperationalIntensity::uniform(1.5)),
        ]);
        let total: usize = (0..4).map(|c| plan.granules(c)).sum();
        assert!(total <= 16);
        assert_eq!(total + plan.free_granules(), 16);
        // The compute-heavy cores divide what the memory cores leave.
        assert_eq!(plan.granules(2), plan.granules(3));
        assert!(plan.granules(2) > plan.granules(0));
    }

    #[test]
    fn more_workloads_than_granules_degrades_gracefully() {
        let mgr = LaneManager::paper_default(4, 2);
        let oi = OperationalIntensity::uniform(1.0);
        let plan = mgr.plan(&[
            PhaseDemand::Active(oi),
            PhaseDemand::Active(oi),
            PhaseDemand::Active(oi),
            PhaseDemand::Active(oi),
        ]);
        let total: usize = (0..4).map(|c| plan.granules(c)).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn oversubscribed_rotation_serves_every_core_equally() {
        // 4 active workloads over 2 surviving granules: a single plan
        // must starve someone, but across 4 consecutive rotations each
        // core is served exactly `total` times — nobody is starved
        // forever.
        let mgr = LaneManager::paper_default(4, 2);
        let oi = OperationalIntensity::uniform(1.0);
        let demands = vec![PhaseDemand::Active(oi); 4];
        let mut served = [0usize; 4];
        for rotation in 0..4 {
            let plan = mgr.plan_rotated(&demands, rotation);
            let total: usize = (0..4).map(|c| plan.granules(c)).sum();
            assert_eq!(total, 2, "capacity respected at rotation {rotation}");
            for (c, s) in served.iter_mut().enumerate() {
                *s += usize::from(plan.granules(c) > 0);
            }
        }
        assert_eq!(served, [2, 2, 2, 2], "round-robin fairness across rotations");
    }

    #[test]
    fn rotation_skips_idle_cores() {
        let mgr = LaneManager::paper_default(4, 2);
        let oi = OperationalIntensity::uniform(1.0);
        let demands = [
            PhaseDemand::Active(oi),
            PhaseDemand::Idle,
            PhaseDemand::Active(oi),
            PhaseDemand::Active(oi),
        ];
        for rotation in 0..8 {
            let plan = mgr.plan_rotated(&demands, rotation);
            assert_eq!(plan.granules(1), 0, "idle core must get nothing");
            let total: usize = (0..4).map(|c| plan.granules(c)).sum();
            assert_eq!(total, 2);
        }
    }

    #[test]
    fn rotation_is_invisible_when_granules_cover_all_workloads() {
        // M <= N: rotation must not change anything — fault-free plans
        // stay byte-identical no matter how many replans happened.
        let mgr = LaneManager::paper_default(2, 8);
        let demands = [
            PhaseDemand::Active(OperationalIntensity::uniform(0.09)),
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
        ];
        let base = mgr.plan(&demands);
        for rotation in 1..16 {
            assert_eq!(mgr.plan_rotated(&demands, rotation), base, "rotation {rotation}");
        }
    }

    #[test]
    fn retire_granule_shrinks_subsequent_plans() {
        let mut mgr = LaneManager::paper_default(2, 8);
        let oi = OperationalIntensity::uniform(2.0);
        let demands = [PhaseDemand::Active(oi), PhaseDemand::Active(oi)];
        mgr.retire_granule();
        mgr.retire_granule();
        assert_eq!(mgr.total_granules(), 6);
        let plan = mgr.plan(&demands);
        assert_eq!((plan.granules(0), plan.granules(1)), (3, 3), "{plan}");
    }

    #[test]
    fn plausible_oi_range_brackets_real_hints() {
        let mgr = mgr();
        let max = mgr.plausible_oi_max();
        assert!(max > mgr.balance_point_oi());
        // Every Table 3 workload intensity is comfortably inside.
        assert!(max > 4.0, "plausible max {max} too tight");
        // A NaN-bits/huge corrupted hint is far outside.
        assert!(1.0e9 > max);
    }

    #[test]
    fn contention_awareness_shifts_lanes_from_streams_to_compute() {
        // Two genuinely memory-bound streams next to two compute-bound
        // kernels: splitting the channel halves each stream's profitable
        // range, and the reclaimed granules flow to the compute side.
        let demands = [
            PhaseDemand::Active(OperationalIntensity::uniform(0.05)),
            PhaseDemand::Active(OperationalIntensity::uniform(0.05)),
            PhaseDemand::Active(OperationalIntensity::uniform(2.0)),
            PhaseDemand::Active(OperationalIntensity::uniform(2.0)),
        ];
        let base = LaneManager::paper_default(4, 16);
        let full = base.plan(&demands);
        let aware = base.with_contention_awareness(true).plan(&demands);
        assert_eq!((full.granules(0), full.granules(2)), (2, 6), "{full}");
        assert_eq!((aware.granules(0), aware.granules(2)), (1, 7), "{aware}");
    }

    #[test]
    fn contention_awareness_defaults_off_and_preserves_fig2e() {
        let base = LaneManager::paper_default(2, 8);
        // The exact Fig. 2(e) schedule is a full-ceiling result.
        let plan = base.plan(&[
            PhaseDemand::Active(OperationalIntensity::uniform(0.09)),
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
        ]);
        assert_eq!((plan.granules(0), plan.granules(1)), (2, 6));
    }

    #[test]
    fn plan_display_is_informative() {
        let plan = mgr().plan(&[
            PhaseDemand::Active(OperationalIntensity::uniform(1.0)),
            PhaseDemand::Idle,
        ]);
        let s = plan.to_string();
        assert!(s.contains("core0=8") && s.contains("core1=0"), "{s}");
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(LaneManager { ceilings, total, mem_level, contention_aware });
