//! Mode-switch determinism: Timing → Functional → Timing round trips
//! preserve architectural state, a no-work round trip is exactly `==`
//! (the two-speed layer adds nothing until a window runs), and the
//! switch is refused — with the machine untouched — whenever the
//! timing-only subsystems (fault injection, recovery) are active or the
//! machine is not quiesced.

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

fn build_machine() -> (Machine, u64, u64) {
    let cfg = SimConfig::paper(1);
    let mut mem = Memory::new(1 << 20);
    let a = mem.alloc_f32(N as u64);
    let c = mem.alloc_f32(N as u64);
    for i in 0..N {
        mem.write_f32(a + 4 * i as u64, 0.25 + (i % 23) as f32 * 0.125);
    }
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("machine config");
    m.load_program(0, kernel_program(a, c, N, 1.5, 0.4));
    (m, a, c)
}

/// Timing → Functional → Timing: run the prologue cycle-accurately,
/// fast-forward the body functionally, switch back — the architectural
/// outcome (memory image, issue counters, released lanes) must match a
/// pure timing run of the same machine.
#[test]
fn round_trip_matches_pure_timing_architecturally() {
    let (mut reference, ..) = build_machine();
    let ref_stats = reference.run(50_000_000).expect("timing run");
    assert!(ref_stats.completed);

    let (mut m, a, c) = build_machine();
    for _ in 0..2_000 {
        m.step().expect("timing prologue");
    }
    assert!(!m.done(), "workload too small: finished inside the timing prologue");
    m.quiesce(1_000_000).expect("quiesce before the switch");
    m.set_mode(SimMode::Functional).expect("switch to functional");
    let stats = m.run(50_000_000).expect("functional fast-forward");
    assert!(stats.completed, "functional window did not finish the program");
    assert!(stats.estimated, "mixed run must be marked estimated");
    // Everything halted, so the machine is trivially quiesced and the
    // switch back to timing succeeds.
    m.set_mode(SimMode::Timing).expect("switch back to timing");
    assert_eq!(m.mode(), SimMode::Timing);

    // Memory images agree bit for bit (both against the reference and
    // against the analytic result).
    assert_eq!(m.memory(), reference.memory(), "memory image diverged from pure timing");
    for i in (0..N).step_by(19) {
        let x = m.memory().read_f32(a + 4 * i as u64);
        let got = m.memory().read_f32(c + 4 * i as u64);
        let want = x * x + 1.5;
        assert!((got - want).abs() <= want.abs() * 1e-6, "c[{i}]");
    }
    // Issue counters are architectural and must match exactly.
    let (r, s) = (&ref_stats.cores[0], &stats.cores[0]);
    assert_eq!(s.scalar_executed, r.scalar_executed, "scalar count diverged");
    assert_eq!(s.vector_compute_issued, r.vector_compute_issued, "vector-compute diverged");
    assert_eq!(s.vector_mem_issued, r.vector_mem_issued, "vector-mem diverged");
    // The epilogue released every lane through the same replan logic.
    assert_eq!(m.resource_table().free_granules(), reference.resource_table().free_granules());
    assert!(m.lane_audit().is_ok(), "lane conservation violated after the round trip");
}

/// `set_mode` only flips the mode field: a Functional → Timing round
/// trip with no window in between leaves the machine exactly equal
/// (`==`, the PR-3 deterministic-snapshot equality) to its clone.
#[test]
fn no_work_round_trip_is_exactly_equal() {
    let (m, ..) = build_machine();
    let mut b = m.clone();
    b.set_mode(SimMode::Functional).expect("fresh machine is quiesced");
    b.set_mode(SimMode::Timing).expect("back to timing");
    assert!(m == b, "a no-work mode round trip must not perturb any machine state");
}

/// An active fault plan is a timing construct: the switch is refused
/// with a typed config error and the machine is left untouched.
#[test]
fn active_fault_plan_rejects_functional_mode() {
    let (mut m, ..) = build_machine();
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
    let (timing, ..) = build_machine();
    let mut functional = timing.clone();
    functional.set_mode(SimMode::Functional).expect("fresh machine is quiesced");
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
    let (mut m, ..) = build_machine();
    m.enable_recovery(RecoveryPolicy::default());
    let before = m.clone();
    let err = m.set_mode(SimMode::Functional).expect_err("must refuse");
    assert!(matches!(err, SimError::Config(_)), "want SimError::Config, got {err:?}");
    assert!(m == before, "a refused switch must leave the machine untouched");
}

/// A machine with in-flight work (un-drained pipelines) must be
/// quiesced before switching; the refusal is typed, not a panic.
#[test]
fn mid_flight_machine_rejects_functional_mode() {
    let (mut m, ..) = build_machine();
    // Step until something is genuinely in flight.
    let mut busy = false;
    for _ in 0..20_000 {
        m.step().expect("timing step");
        if !m.is_quiesced() {
            busy = true;
            break;
        }
    }
    assert!(busy, "workload never put the machine mid-flight");
    let err = m.set_mode(SimMode::Functional).expect_err("must refuse mid-flight");
    assert!(matches!(err, SimError::Config(_)), "want SimError::Config, got {err:?}");
    // After an explicit quiesce the same switch succeeds.
    m.quiesce(1_000_000).expect("quiesce");
    m.set_mode(SimMode::Functional).expect("quiesced switch");
}
