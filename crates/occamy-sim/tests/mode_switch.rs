//! The execution mode is chosen before the first cycle: a no-work round
//! trip on a fresh machine is exactly `==` (the two-speed layer adds
//! nothing until functional execution runs), a change is refused — with
//! the machine untouched — once the machine has run or while the
//! timing-only subsystems (fault injection, recovery) are active, and a
//! functional run's budget is an absolute deadline, as in timing.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder, ScalarInst,
    VBinOp, VReg, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{
    snapshot_from_bytes, snapshot_to_bytes, Architecture, FaultPlan, Machine, RecoveryPolicy,
    SimConfig, SimError, SimMode, SnapshotIoError,
};

/// `c[i] = a[i] * a[i] + k` at an elastic VL (acquire loop via
/// <decision>), same shape as the four-core correctness kernel.
fn kernel_program(a: u64, c: u64, n: usize, k: f32, oi: f64) -> Program {
    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: a as i64 });
    b.scalar(ScalarInst::MovImm { dst: XReg::X2, imm: c as i64 });
    b.scalar(ScalarInst::MovImm { dst: XReg::X4, imm: n as i64 });
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Oi,
        src: Operand::Imm(OperationalIntensity::uniform(oi).to_bits() as i64),
    });
    b.scalar(ScalarInst::MovImm { dst: XReg::X9, imm: 1 });
    let retry = b.fresh_label("acq");
    b.bind(retry);
    b.em_simd(EmSimdInst::Mrs { dst: XReg::X10, reg: DedicatedReg::Decision });
    let fallback = b.fresh_label("fallback");
    b.scalar(ScalarInst::Beq { a: XReg::X10, b: Operand::Imm(0), target: fallback });
    b.scalar(ScalarInst::Mov { dst: XReg::X9, src: XReg::X10 });
    b.bind(fallback);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Reg(XReg::X9) });
    b.em_simd(EmSimdInst::Mrs { dst: XReg::X6, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: XReg::X6, b: Operand::Imm(1), target: retry });
    b.em_simd(EmSimdInst::Mrs { dst: XReg::X7, reg: DedicatedReg::Vl });
    b.scalar(ScalarInst::ShlImm { dst: XReg::X5, a: XReg::X7, shift: 2 });
    b.vector(VectorInst::DupImm { dst: VReg::Z9, imm: k });
    b.scalar(ScalarInst::MovImm { dst: XReg::X3, imm: 0 });

    let vloop = b.fresh_label("vloop");
    let done = b.fresh_label("done");
    b.bind(vloop);
    b.scalar(ScalarInst::Add { dst: XReg::X8, a: XReg::X3, b: Operand::Reg(XReg::X5) });
    b.scalar(ScalarInst::Blt { a: XReg::X4, b: Operand::Reg(XReg::X8), target: done });
    b.vector(VectorInst::Load { dst: VReg::Z1, base: XReg::X0, index: XReg::X3 });
    b.vector(VectorInst::Binary { op: VBinOp::Fmul, dst: VReg::Z2, a: VReg::Z1, b: VReg::Z1 });
    b.vector(VectorInst::Binary { op: VBinOp::Fadd, dst: VReg::Z3, a: VReg::Z2, b: VReg::Z9 });
    b.vector(VectorInst::Store { src: VReg::Z3, base: XReg::X2, index: XReg::X3 });
    b.scalar(ScalarInst::Mov { dst: XReg::X3, src: XReg::X8 });
    b.scalar(ScalarInst::B { target: vloop });
    b.bind(done);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Imm(0) });
    let rel = b.fresh_label("rel");
    b.bind(rel);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
    b.em_simd(EmSimdInst::Mrs { dst: XReg::X6, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: XReg::X6, b: Operand::Imm(1), target: rel });
    b.halt();
    b.build()
}

const N: usize = 8192;

fn build_machine() -> Machine {
    let cfg = SimConfig::paper(1);
    let mut mem = Memory::new(1 << 20);
    let a = mem.alloc_f32(N as u64);
    let c = mem.alloc_f32(N as u64);
    for i in 0..N {
        mem.write_f32(a + 4 * i as u64, 0.25 + (i % 23) as f32 * 0.125);
    }
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("machine config");
    m.load_program(0, kernel_program(a, c, N, 1.5, 0.4));
    m
}

/// `set_mode` only flips the mode field: a Functional → Timing round
/// trip with no window in between leaves the machine exactly equal
/// (`==`, the PR-3 deterministic-snapshot equality) to its clone.
#[test]
fn no_work_round_trip_is_exactly_equal() {
    let m = build_machine();
    let mut b = m.clone();
    b.set_mode(SimMode::Functional).expect("fresh machine");
    b.set_mode(SimMode::Timing).expect("back to timing");
    assert!(m == b, "a no-work mode round trip must not perturb any machine state");
}

/// An active fault plan is a timing construct: the switch is refused
/// with a typed config error and the machine is left untouched.
#[test]
fn active_fault_plan_rejects_functional_mode() {
    let mut m = build_machine();
    let plan = FaultPlan::parse("seed=42,oi=0.01,mem=0.02").expect("plan spec");
    m.set_fault_plan(&plan);
    let before = m.clone();
    let err = m.set_mode(SimMode::Functional).expect_err("must refuse");
    assert!(matches!(err, SimError::Config(_)), "want SimError::Config, got {err:?}");
    assert!(m == before, "a refused switch must leave the machine untouched");
}

/// The mode parser knows exactly two modes; anything else (the retired
/// `sampled` mode included) is a typed error that names both.
#[test]
fn only_timing_and_functional_modes_parse() {
    assert_eq!(SimMode::parse("timing"), Ok(SimMode::Timing));
    assert_eq!(SimMode::parse("functional"), Ok(SimMode::Functional));
    for spec in ["sampled", "Timing", ""] {
        let err = SimMode::parse(spec).expect_err("unknown mode must be refused");
        assert!(err.contains("timing") && err.contains("functional"), "{spec:?}: {err}");
    }
}

/// A checkpoint whose mode tag is not timing (0) or functional (1) —
/// e.g. one naming the retired sampled mode (2) — decodes to a typed
/// `Corrupt` error, never a panic.
#[test]
fn unknown_mode_tag_in_a_snapshot_is_corrupt() {
    let timing = build_machine();
    let mut functional = timing.clone();
    functional.set_mode(SimMode::Functional).expect("fresh machine");
    let a = snapshot_to_bytes(&timing.snapshot()).expect("encode");
    let mut b = snapshot_to_bytes(&functional.snapshot()).expect("encode");
    // Outside the CRC trailer the two encodings differ in exactly one
    // byte: the mode tag.
    let n = b.len();
    let diff: Vec<usize> = (0..n - 4).filter(|&i| a[i] != b[i]).collect();
    let [at] = diff[..] else { panic!("expected one differing byte, got {diff:?}") };
    assert_eq!((a[at], b[at]), (0, 1), "mode tag at byte {at}");
    b[at] = 2;
    // Re-seal the CRC so the tag check (not the CRC) fires.
    let crc = statecodec::crc32(&b[..n - 4]);
    b[n - 4..].copy_from_slice(&crc.to_le_bytes());
    match snapshot_from_bytes(&b) {
        Err(SnapshotIoError::Corrupt { detail, .. }) => {
            assert!(detail.contains("invalid tag 2"), "{detail}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// Same for the recovery subsystem (checkpoints/rollbacks).
#[test]
fn active_recovery_rejects_functional_mode() {
    let mut m = build_machine();
    m.enable_recovery(RecoveryPolicy::default());
    let before = m.clone();
    let err = m.set_mode(SimMode::Functional).expect_err("must refuse");
    assert!(matches!(err, SimError::Config(_)), "want SimError::Config, got {err:?}");
    assert!(m == before, "a refused switch must leave the machine untouched");
}

/// The mode is fixed once the machine has run: `set_mode` is refused
/// with a typed config error and the machine is left untouched, in both
/// modes.
#[test]
fn started_machine_rejects_a_mode_change() {
    let mut timing = build_machine();
    let mut functional = timing.clone();
    functional.set_mode(SimMode::Functional).expect("fresh machine");
    for _ in 0..100 {
        timing.step().expect("timing step");
    }
    functional.run(100).expect("functional run");
    assert!(!timing.done() && !functional.done(), "workload finished too early");
    for (m, to) in [(&mut timing, SimMode::Functional), (&mut functional, SimMode::Timing)] {
        let before = m.clone();
        let err = m.set_mode(to).expect_err("a started machine must refuse a mode change");
        assert!(matches!(err, SimError::Config(_)), "want SimError::Config, got {err:?}");
        assert!(*m == before, "a refused change must leave the machine untouched");
    }
}

/// A core looping forever (no HALT), so only the budget stops it.
fn spin_machine() -> Machine {
    let mut b = ProgramBuilder::new();
    let top = b.fresh_label("spin");
    b.bind(top);
    b.scalar(ScalarInst::Add { dst: XReg::X1, a: XReg::X1, b: Operand::Imm(1) });
    b.scalar(ScalarInst::B { target: top });
    let mut m = Machine::new(SimConfig::paper(1), Architecture::Occamy, Memory::new(1 << 16))
        .expect("machine config");
    m.load_program(0, b.build());
    m.set_mode(SimMode::Functional).expect("fresh machine");
    m
}

/// `run(h)` is an absolute deadline in functional mode, as in timing: a
/// repeated `run(h)` executes nothing more, and following it with
/// `run(2h)` reaches exactly the state a single `run(2h)` reaches.
#[test]
fn functional_run_budget_is_an_absolute_deadline() {
    let h = 1_000;
    let mut sliced = spin_machine();
    let first = sliced.run(h).expect("first slice");
    assert!(first.timed_out && first.functional_insts > 0, "{first:?}");
    let again = sliced.run(h).expect("repeated slice");
    assert_eq!(again.functional_insts, first.functional_insts, "a repeated run(h) added fuel");
    let sliced_stats = sliced.run(2 * h).expect("second slice");

    let mut whole = spin_machine();
    let whole_stats = whole.run(2 * h).expect("single run");
    assert_eq!(sliced_stats, whole_stats, "run(h), run(h), run(2h) must equal run(2h)");
    assert!(sliced == whole, "sliced and single runs must reach the same machine state");
    assert_eq!(whole_stats.estimated_cycles, whole_stats.functional_insts);
}
