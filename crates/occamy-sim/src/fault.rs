//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *what* to corrupt and *how often*; a
//! [`FaultState`] (a plan plus a seeded RNG) is installed on a
//! [`Machine`](crate::Machine) with
//! [`set_fault_plan`](crate::Machine::set_fault_plan) and consulted at
//! three injection points inside the co-processor:
//!
//! * `<OI>` writes — the hint the lane manager plans from is bit-flipped,
//! * partition decisions — the published `<decision>` is perturbed by
//!   ±1 granule,
//! * memory accesses — completion is delayed by a latency spike,
//! * compute issues — a transient (soft-error) or persistent (hard-fault)
//!   lane fault corrupts one result element; the co-processor's residue
//!   check turns this into [`SimError::LaneFault`](crate::SimError) or,
//!   with recovery enabled, a checkpoint rollback.
//!
//! Program corruption (truncation, immediate bit-flips) models a faulty
//! instruction fetch path: the machine applies it once to every program
//! that runs under the plan, whether the program was loaded before or
//! after the plan was installed. Everything is driven by the vendored
//! deterministic `rand` shim, so a `(plan, program, config)` triple
//! always reproduces the same faulty execution.

use em_simd::{EmSimdInst, Inst, Operand, Program, ProgramBuilder, ScalarInst, VectorInst};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A deterministic fault-injection plan: per-event probabilities plus the
/// RNG seed that makes the campaign reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic RNG stream.
    pub seed: u64,
    /// Probability that an `<OI>` write has a bit flipped.
    pub oi_corrupt_rate: f64,
    /// Probability that a published partition decision is perturbed.
    pub decision_perturb_rate: f64,
    /// Probability that a memory access suffers a latency spike.
    pub mem_spike_rate: f64,
    /// Extra cycles added by one latency spike.
    pub mem_spike_cycles: u64,
    /// Probability that a program running under the plan is truncated.
    pub program_truncate_rate: f64,
    /// Per-instruction probability of an immediate bit-flip in a
    /// program running under the plan.
    pub program_bitflip_rate: f64,
    /// Per-compute-issue probability that a *transient* lane fault flips
    /// a bit in one result element (soft error in an ExeBU).
    pub lane_transient_rate: f64,
    /// A *persistent* hard fault: this ExeBU granule corrupts every
    /// compute result it participates in (from
    /// [`permanent_lane_from`](Self::permanent_lane_from) onward).
    pub permanent_lane: Option<usize>,
    /// First cycle at which [`permanent_lane`](Self::permanent_lane)
    /// misbehaves (0 = broken from power-on).
    pub permanent_lane_from: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            oi_corrupt_rate: 0.0,
            decision_perturb_rate: 0.0,
            mem_spike_rate: 0.0,
            mem_spike_cycles: 200,
            program_truncate_rate: 0.0,
            program_bitflip_rate: 0.0,
            lane_transient_rate: 0.0,
            permanent_lane: None,
            permanent_lane_from: 0,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects nothing (the fault-free path).
    pub fn is_noop(&self) -> bool {
        self.oi_corrupt_rate == 0.0
            && self.decision_perturb_rate == 0.0
            && self.mem_spike_rate == 0.0
            && self.program_truncate_rate == 0.0
            && self.program_bitflip_rate == 0.0
            && self.lane_transient_rate == 0.0
            && self.permanent_lane.is_none()
    }

    /// Parses a CLI spec like
    /// `seed=42,oi=0.01,decision=0.01,mem=0.05,spike=300,truncate=0.1,bitflip=0.02`.
    /// Unmentioned knobs keep their defaults (no injection).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key or value.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec entry '{part}' is not key=value"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 =
                    v.parse().map_err(|_| format!("fault rate '{v}' is not a number"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("fault rate '{v}' must be within [0, 1]"));
                }
                Ok(r)
            };
            match key.trim() {
                "seed" => {
                    plan.seed =
                        value.parse().map_err(|_| format!("seed '{value}' is not a u64"))?;
                }
                "oi" => plan.oi_corrupt_rate = rate(value)?,
                "decision" => plan.decision_perturb_rate = rate(value)?,
                "mem" => plan.mem_spike_rate = rate(value)?,
                "spike" => {
                    plan.mem_spike_cycles = value
                        .parse()
                        .map_err(|_| format!("spike cycles '{value}' is not a u64"))?;
                }
                "truncate" => plan.program_truncate_rate = rate(value)?,
                "bitflip" => plan.program_bitflip_rate = rate(value)?,
                "lanet" => plan.lane_transient_rate = rate(value)?,
                "lanep" => {
                    plan.permanent_lane = Some(
                        value
                            .parse()
                            .map_err(|_| format!("lane granule '{value}' is not a usize"))?,
                    );
                }
                "lanepat" => {
                    plan.permanent_lane_from = value
                        .parse()
                        .map_err(|_| format!("onset cycle '{value}' is not a u64"))?;
                }
                other => {
                    return Err(format!(
                        "unknown fault spec key '{other}' (expected \
                         seed/oi/decision/mem/spike/truncate/bitflip/lanet/lanep/lanepat)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Applies the program-corruption faults (truncation, immediate
    /// bit-flips) to `program`, returning the corrupted program and the
    /// number of faults applied. Labels and branch structure are
    /// preserved; labels whose target falls beyond a truncation point are
    /// re-bound to the new program end (a valid branch target).
    ///
    /// Uses an RNG stream derived from the plan seed but independent of
    /// the runtime injection stream, so runtime faults do not depend on
    /// whether the program was corrupted first, and each program's
    /// corruption does not depend on any other's.
    pub(crate) fn corrupt_program(&self, program: &Program) -> (Program, u64) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x70c0_6a3f_5eed_c0de);
        let mut applied = 0u64;

        let len = program.len();
        let new_len = if len > 1 && rng.gen_bool(self.program_truncate_rate) {
            applied += 1;
            rng.gen_range(1..len)
        } else {
            len
        };

        let mut b = ProgramBuilder::new();
        let targets = program.label_targets().to_vec();
        let labels: Vec<em_simd::Label> = (0..targets.len())
            .map(|id| b.fresh_label(program.label_name(id)))
            .collect();
        for pc in 0..new_len {
            for (id, &t) in targets.iter().enumerate() {
                if t == pc {
                    b.bind(labels[id]);
                }
            }
            b.set_tag(program.tag(pc));
            let mut inst = program.insts()[pc].clone();
            if rng.gen_bool(self.program_bitflip_rate) {
                if let Some(flipped) = flip_immediate(&mut rng, &inst) {
                    inst = flipped;
                    applied += 1;
                }
            }
            b.push(inst);
        }
        // Orphaned labels (their instruction was truncated away, or they
        // marked the original program end) land on the new end — still a
        // valid branch target.
        for (id, &t) in targets.iter().enumerate() {
            if t >= new_len {
                b.bind(labels[id]);
            }
        }
        (b.build(), applied)
    }
}

/// Flips one bit in an instruction's immediate operand, if it has one.
/// Register fields and branch labels are left intact — the corrupted
/// program stays *decodable*, the way a flipped data bit in an
/// instruction word usually does.
fn flip_immediate(rng: &mut StdRng, inst: &Inst) -> Option<Inst> {
    match inst {
        Inst::Scalar(ScalarInst::MovImm { dst, imm }) => {
            let bit = rng.gen_range(0..16u32);
            Some(Inst::Scalar(ScalarInst::MovImm { dst: *dst, imm: imm ^ (1i64 << bit) }))
        }
        Inst::Scalar(ScalarInst::ShlImm { dst, a, shift }) => {
            let bit = rng.gen_range(0..3u32);
            Some(Inst::Scalar(ScalarInst::ShlImm { dst: *dst, a: *a, shift: shift ^ (1 << bit) }))
        }
        Inst::Scalar(ScalarInst::FmovImm { dst, imm }) => {
            let bit = rng.gen_range(0..23u32);
            Some(Inst::Scalar(ScalarInst::FmovImm {
                dst: *dst,
                imm: f32::from_bits(imm.to_bits() ^ (1 << bit)),
            }))
        }
        Inst::Vector(VectorInst::DupImm { dst, imm }) => {
            let bit = rng.gen_range(0..23u32);
            Some(Inst::Vector(VectorInst::DupImm {
                dst: *dst,
                imm: f32::from_bits(imm.to_bits() ^ (1 << bit)),
            }))
        }
        Inst::EmSimd(EmSimdInst::Msr { reg, src: Operand::Imm(i) }) => {
            let bit = rng.gen_range(0..4u32);
            Some(Inst::EmSimd(EmSimdInst::Msr { reg: *reg, src: Operand::Imm(i ^ (1i64 << bit)) }))
        }
        _ => None,
    }
}

/// Counters for the faults actually injected during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// `<OI>` writes corrupted.
    pub oi_corruptions: u64,
    /// Partition decisions perturbed.
    pub decision_perturbations: u64,
    /// Memory accesses delayed.
    pub mem_spikes: u64,
    /// Vector results corrupted by a lane fault (transient or
    /// persistent), counting faults corrected in place by the residue
    /// checker as well as those that escaped to detection.
    pub lane_corruptions: u64,
    /// Faults (truncations and immediate bit-flips) applied to the
    /// programs that ran under the plan, before they ran.
    pub program_corruptions: u64,
}

impl FaultStats {
    /// Total faults injected at runtime (program corruptions, applied
    /// before a program runs, are not counted).
    pub fn total(&self) -> u64 {
        self.oi_corruptions + self.decision_perturbations + self.mem_spikes + self.lane_corruptions
    }
}

/// Runtime injection state: the plan, the deterministic RNG stream and
/// the injection counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    /// The plan being executed.
    pub plan: FaultPlan,
    /// Faults injected so far.
    pub stats: FaultStats,
    rng: StdRng,
}

impl PartialEq for FaultState {
    fn eq(&self, other: &Self) -> bool {
        // The xoshiro state is private to the shim; plan + counters
        // identify the stream position for any fixed plan.
        self.plan == other.plan && self.stats == other.stats
    }
}

impl FaultState {
    /// Builds runtime state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed);
        FaultState { plan, rng, stats: FaultStats::default() }
    }

    /// Maybe corrupts an `<OI>` write operand.
    pub(crate) fn corrupt_oi(&mut self, operand: u64) -> u64 {
        if self.plan.oi_corrupt_rate > 0.0 && self.rng.gen_bool(self.plan.oi_corrupt_rate) {
            self.stats.oi_corruptions += 1;
            operand ^ (1u64 << self.rng.gen_range(0..8u32))
        } else {
            operand
        }
    }

    /// Maybe perturbs a published partition decision (±1 granule,
    /// clamped to the machine's total).
    pub(crate) fn perturb_decision(&mut self, granules: u64, total: u64) -> u64 {
        if self.plan.decision_perturb_rate > 0.0
            && self.rng.gen_bool(self.plan.decision_perturb_rate)
        {
            self.stats.decision_perturbations += 1;
            if self.rng.gen_bool(0.5) {
                (granules + 1).min(total)
            } else {
                granules.saturating_sub(1)
            }
        } else {
            granules
        }
    }

    /// Extra completion latency for one memory access (0 when no spike
    /// fires).
    pub(crate) fn spike_mem(&mut self) -> u64 {
        if self.plan.mem_spike_rate > 0.0 && self.rng.gen_bool(self.plan.mem_spike_rate) {
            self.stats.mem_spikes += 1;
            self.plan.mem_spike_cycles
        } else {
            0
        }
    }

    /// Maybe faults one compute issue executing on the granules in
    /// `spans`, returning the faulty granule. The persistent fault is
    /// checked first and draws no randomness, so whether it is active
    /// never shifts the transient stream; the transient draw is guarded
    /// by its rate for the same reason.
    pub(crate) fn lane_fault(&mut self, spans: &[usize], now: u64) -> Option<usize> {
        if spans.is_empty() {
            return None;
        }
        if let Some(g) = self.plan.permanent_lane {
            if now >= self.plan.permanent_lane_from && spans.contains(&g) {
                self.stats.lane_corruptions += 1;
                return Some(g);
            }
        }
        if self.plan.lane_transient_rate > 0.0 && self.rng.gen_bool(self.plan.lane_transient_rate)
        {
            self.stats.lane_corruptions += 1;
            let pick = self.rng.gen_range(0..spans.len() as u32) as usize;
            return Some(spans[pick]);
        }
        None
    }

    /// Whether the plan's persistent fault is active on `granule` at
    /// `now`. Draws no randomness — this is the lane self-test's oracle
    /// (a real self-test runs a known vector through the ExeBU; a
    /// persistent fault fails it deterministically).
    pub(crate) fn permanent_faulty(&self, granule: usize, now: u64) -> bool {
        self.plan.permanent_lane == Some(granule) && now >= self.plan.permanent_lane_from
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_simd::XReg;

    #[test]
    fn parse_round_trips_every_knob() {
        let plan = FaultPlan::parse(
            "seed=42, oi=0.25, decision=0.5, mem=1, spike=300, truncate=0.1, bitflip=0.02, \
             lanet=0.001, lanep=3, lanepat=5000",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.oi_corrupt_rate, 0.25);
        assert_eq!(plan.decision_perturb_rate, 0.5);
        assert_eq!(plan.mem_spike_rate, 1.0);
        assert_eq!(plan.mem_spike_cycles, 300);
        assert_eq!(plan.program_truncate_rate, 0.1);
        assert_eq!(plan.program_bitflip_rate, 0.02);
        assert_eq!(plan.lane_transient_rate, 0.001);
        assert_eq!(plan.permanent_lane, Some(3));
        assert_eq!(plan.permanent_lane_from, 5000);
        assert!(!plan.is_noop());
    }

    #[test]
    fn lane_knobs_alone_are_not_noop() {
        let t = FaultPlan { lane_transient_rate: 0.1, ..FaultPlan::default() };
        assert!(!t.is_noop());
        let p = FaultPlan { permanent_lane: Some(0), ..FaultPlan::default() };
        assert!(!p.is_noop());
    }

    #[test]
    fn permanent_lane_fault_fires_deterministically_on_its_granule() {
        let plan = FaultPlan {
            permanent_lane: Some(2),
            permanent_lane_from: 100,
            ..FaultPlan::default()
        };
        let mut fs = FaultState::new(plan);
        assert_eq!(fs.lane_fault(&[0, 1, 2, 3], 50), None, "dormant before onset");
        assert_eq!(fs.lane_fault(&[0, 1], 200), None, "granule not in use");
        assert_eq!(fs.lane_fault(&[0, 1, 2, 3], 200), Some(2));
        assert!(fs.permanent_faulty(2, 200));
        assert!(!fs.permanent_faulty(2, 50));
        assert!(!fs.permanent_faulty(1, 200));
        assert_eq!(fs.stats.lane_corruptions, 1);
    }

    #[test]
    fn transient_lane_faults_pick_a_granule_in_use() {
        let plan = FaultPlan { seed: 9, lane_transient_rate: 1.0, ..FaultPlan::default() };
        let mut fs = FaultState::new(plan);
        for _ in 0..32 {
            let g = fs.lane_fault(&[3, 5, 6], 0).expect("rate 1.0 always fires");
            assert!([3, 5, 6].contains(&g));
        }
        assert_eq!(fs.stats.lane_corruptions, 32);
        assert_eq!(fs.lane_fault(&[], 0), None, "no granules in use, nothing to fault");
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("oi").is_err());
        assert!(FaultPlan::parse("oi=2.0").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn injections_are_deterministic_per_seed() {
        let plan = FaultPlan { seed: 7, mem_spike_rate: 0.5, ..FaultPlan::default() };
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        let sa: Vec<u64> = (0..64).map(|_| a.spike_mem()).collect();
        let sb: Vec<u64> = (0..64).map(|_| b.spike_mem()).collect();
        assert_eq!(sa, sb);
        assert!(a.stats.mem_spikes > 0, "a 50% spike rate should fire in 64 draws");
    }

    #[test]
    fn noop_plan_injects_nothing() {
        let mut fs = FaultState::new(FaultPlan::default());
        assert_eq!(fs.corrupt_oi(17), 17);
        assert_eq!(fs.perturb_decision(4, 8), 4);
        assert_eq!(fs.spike_mem(), 0);
        assert_eq!(fs.stats.total(), 0);
    }

    #[test]
    fn decision_perturbation_stays_in_range() {
        let plan = FaultPlan { seed: 3, decision_perturb_rate: 1.0, ..FaultPlan::default() };
        let mut fs = FaultState::new(plan);
        for g in 0..=8u64 {
            let p = fs.perturb_decision(g, 8);
            assert!(p <= 8, "perturbed {g} -> {p}");
        }
        assert_eq!(fs.stats.decision_perturbations, 9);
    }

    fn looping_program() -> Program {
        let mut b = ProgramBuilder::new();
        let top = b.fresh_label("top");
        b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 0 });
        b.bind(top);
        b.scalar(ScalarInst::Add { dst: XReg::X0, a: XReg::X0, b: Operand::Imm(1) });
        b.scalar(ScalarInst::Blt { a: XReg::X0, b: Operand::Imm(10), target: top });
        b.halt();
        b.build()
    }

    #[test]
    fn noop_corruption_is_identity() {
        let p = looping_program();
        let (q, applied) = FaultPlan::default().corrupt_program(&p);
        assert_eq!(applied, 0);
        assert_eq!(q, p);
    }

    #[test]
    fn truncation_preserves_label_validity() {
        let p = looping_program();
        let plan =
            FaultPlan { seed: 11, program_truncate_rate: 1.0, ..FaultPlan::default() };
        let (q, applied) = plan.corrupt_program(&p);
        assert!(applied >= 1);
        assert!(q.len() < p.len());
        // Every label still resolves inside (or at the end of) the
        // truncated program.
        for &t in q.label_targets() {
            assert!(t <= q.len());
        }
    }

    #[test]
    fn bitflips_only_touch_immediates() {
        let p = looping_program();
        let plan = FaultPlan { seed: 5, program_bitflip_rate: 1.0, ..FaultPlan::default() };
        let (q, applied) = plan.corrupt_program(&p);
        assert_eq!(q.len(), p.len());
        assert!(applied >= 1, "MovImm and Blt should offer flippable immediates");
        // The branch structure is untouched.
        assert_eq!(q.label_targets(), p.label_targets());
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(FaultStats {
    oi_corruptions,
    decision_perturbations,
    mem_spikes,
    lane_corruptions,
    program_corruptions,
});

// Hand-written so decode re-validates the rates (gen_bool's contract)
// rather than trusting the bytes.
impl statecodec::Codec for FaultPlan {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.seed, sink);
        statecodec::Codec::encode(&self.oi_corrupt_rate, sink);
        statecodec::Codec::encode(&self.decision_perturb_rate, sink);
        statecodec::Codec::encode(&self.mem_spike_rate, sink);
        statecodec::Codec::encode(&self.mem_spike_cycles, sink);
        statecodec::Codec::encode(&self.program_truncate_rate, sink);
        statecodec::Codec::encode(&self.program_bitflip_rate, sink);
        statecodec::Codec::encode(&self.lane_transient_rate, sink);
        statecodec::Codec::encode(&self.permanent_lane, sink);
        statecodec::Codec::encode(&self.permanent_lane_from, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let plan = FaultPlan {
            seed: statecodec::Codec::decode(src)?,
            oi_corrupt_rate: statecodec::Codec::decode(src)?,
            decision_perturb_rate: statecodec::Codec::decode(src)?,
            mem_spike_rate: statecodec::Codec::decode(src)?,
            mem_spike_cycles: statecodec::Codec::decode(src)?,
            program_truncate_rate: statecodec::Codec::decode(src)?,
            program_bitflip_rate: statecodec::Codec::decode(src)?,
            lane_transient_rate: statecodec::Codec::decode(src)?,
            permanent_lane: statecodec::Codec::decode(src)?,
            permanent_lane_from: statecodec::Codec::decode(src)?,
        };
        for (rate, name) in [
            (plan.oi_corrupt_rate, "oi"),
            (plan.decision_perturb_rate, "decision"),
            (plan.mem_spike_rate, "mem"),
            (plan.program_truncate_rate, "truncate"),
            (plan.program_bitflip_rate, "bitflip"),
            (plan.lane_transient_rate, "lanet"),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(statecodec::DecodeError::at(
                    src,
                    format!("fault rate '{name}' = {rate} outside [0, 1]"),
                ));
            }
        }
        Ok(plan)
    }
}

// Hand-written: the RNG serializes through its raw xoshiro state, which
// decode must reject when degenerate (all-zero).
impl statecodec::Codec for FaultState {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.plan, sink);
        statecodec::Codec::encode(&self.stats, sink);
        statecodec::Codec::encode(&self.rng.state(), sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let plan: FaultPlan = statecodec::Codec::decode(src)?;
        let stats: FaultStats = statecodec::Codec::decode(src)?;
        let raw: [u64; 4] = statecodec::Codec::decode(src)?;
        let rng = StdRng::from_state(raw).map_err(|e| statecodec::DecodeError::at(src, e))?;
        Ok(FaultState { plan, stats, rng })
    }
}
