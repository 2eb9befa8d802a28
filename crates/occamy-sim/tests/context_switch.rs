//! §5's OS interaction: context switches drain the pipelines, save the
//! EM-SIMD dedicated registers (and vector state), and trigger a new
//! lane partition so co-runners absorb the preempted task's lanes.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder, ScalarInst,
    VBinOp, VReg, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{Architecture, Machine, SimConfig};

const BASE_A: XReg = XReg::X0;
const BASE_C: XReg = XReg::X2;
const I: XReg = XReg::X3;
const N: XReg = XReg::X4;
const LANES: XReg = XReg::X5;
const STATUS: XReg = XReg::X6;
const NEXT: XReg = XReg::X8;

/// `c[i] = a[i] * k` with the Fig. 9 skeleton at a fixed requested VL,
/// with the multiplier broadcast once as a loop invariant.
fn scale_program(a: u64, c: u64, n: usize, k: f32, granules: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm { dst: BASE_A, imm: a as i64 });
    b.scalar(ScalarInst::MovImm { dst: BASE_C, imm: c as i64 });
    b.scalar(ScalarInst::MovImm { dst: N, imm: n as i64 });
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Oi,
        src: Operand::Imm(OperationalIntensity::uniform(0.5).to_bits() as i64),
    });
    let retry = b.fresh_label("cfg");
    b.bind(retry);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(granules) });
    b.em_simd(EmSimdInst::Mrs { dst: STATUS, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: STATUS, b: Operand::Imm(1), target: retry });
    b.em_simd(EmSimdInst::Mrs { dst: XReg::X7, reg: DedicatedReg::Vl });
    b.scalar(ScalarInst::ShlImm { dst: LANES, a: XReg::X7, shift: 2 });
    // Loop-invariant broadcast: survives the context switch only if the
    // OS saves and restores the vector state.
    b.vector(VectorInst::DupImm { dst: VReg::Z9, imm: k });
    b.scalar(ScalarInst::MovImm { dst: I, imm: 0 });

    let vloop = b.fresh_label("vloop");
    let done = b.fresh_label("done");
    b.bind(vloop);
    b.scalar(ScalarInst::Add { dst: NEXT, a: I, b: Operand::Reg(LANES) });
    b.scalar(ScalarInst::Blt { a: N, b: Operand::Reg(NEXT), target: done });
    b.vector(VectorInst::Load { dst: VReg::Z1, base: BASE_A, index: I });
    b.vector(VectorInst::Binary { op: VBinOp::Fmul, dst: VReg::Z2, a: VReg::Z1, b: VReg::Z9 });
    b.vector(VectorInst::Store { src: VReg::Z2, base: BASE_C, index: I });
    b.scalar(ScalarInst::Mov { dst: I, src: NEXT });
    b.scalar(ScalarInst::B { target: vloop });
    b.bind(done);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Imm(0) });
    let rel = b.fresh_label("rel");
    b.bind(rel);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
    b.em_simd(EmSimdInst::Mrs { dst: STATUS, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: STATUS, b: Operand::Imm(1), target: rel });
    b.halt();
    b.build()
}

fn setup(n: usize) -> (Memory, u64, u64) {
    let mut mem = Memory::new(1 << 20);
    let a = mem.alloc_f32(n as u64);
    let c = mem.alloc_f32(n as u64);
    for i in 0..n {
        mem.write_f32(a + 4 * i as u64, 1.0 + i as f32);
    }
    (mem, a, c)
}

#[test]
fn preempt_releases_lanes_and_resume_completes_correctly() {
    let n = 4096;
    let (mut mem, a0, c0) = setup(n);
    let a1 = mem.alloc_f32(n as u64);
    let c1 = mem.alloc_f32(n as u64);
    for i in 0..n {
        mem.write_f32(a1 + 4 * i as u64, 2.0 * i as f32);
    }
    let mut m = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).unwrap();
    m.load_program(0, scale_program(a0, c0, n, 3.0, 4));
    m.load_program(1, scale_program(a1, c1, n, -1.0, 4));

    // Let both get going, then preempt core 0 mid-loop.
    for _ in 0..600 {
        m.step().expect("simulation fault");
    }
    assert_eq!(m.vl(0).granules(), 4, "core 0 mid-phase");
    let task = m.preempt(0, 100_000).expect("preempt drains in budget");

    // Core 0's lanes are released; the plan now offers them to core 1.
    assert!(m.vl(0).is_zero());
    assert!(m.resource_table().free_granules() >= 4);
    assert_eq!(m.resource_table().read(0, DedicatedReg::Oi), 0, "OI cleared on switch-out");

    // Run a while with core 0 switched out; core 1 makes progress.
    let before = m.stats().cores[1].vector_compute_issued;
    for _ in 0..2_000 {
        m.step().expect("simulation fault");
    }
    assert!(m.stats().cores[1].vector_compute_issued > before);

    // Resume and run to completion: both results must be exact, proving
    // the loop-invariant broadcast in z9 survived the switch.
    m.resume(0, task, 100_000).expect("resume re-acquires lanes");
    let stats = m.run(10_000_000).expect("simulation fault");
    assert!(stats.completed);
    for i in 0..n {
        let got0 = m.memory().read_f32(c0 + 4 * i as u64);
        assert_eq!(got0, 3.0 * (1.0 + i as f32), "c0[{i}]");
        let got1 = m.memory().read_f32(c1 + 4 * i as u64);
        assert_eq!(got1, -(2.0 * i as f32), "c1[{i}]");
    }
}

#[test]
fn round_robin_scheduling_three_tasks_two_cores() {
    // More tasks than cores: time-slice three scale tasks over core 0
    // while a fourth runs undisturbed on core 1.
    let n = 2048;
    let mut mem = Memory::new(1 << 22);
    let mut arrays = Vec::new();
    for t in 0..4 {
        let a = mem.alloc_f32(n as u64);
        let c = mem.alloc_f32(n as u64);
        for i in 0..n {
            mem.write_f32(a + 4 * i as u64, (t + 1) as f32 + i as f32);
        }
        arrays.push((a, c));
    }
    let mut m = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).unwrap();
    m.load_program(0, scale_program(arrays[0].0, arrays[0].1, n, 2.0, 2));
    m.load_program(1, scale_program(arrays[3].0, arrays[3].1, n, 5.0, 4));
    let mut pending =
        vec![scale_program(arrays[1].0, arrays[1].1, n, 2.0, 2), scale_program(arrays[2].0, arrays[2].1, n, 2.0, 2)];
    let mut parked: Vec<occamy_sim::SavedTask> = Vec::new();

    // A crude round-robin scheduler with a 1500-cycle quantum.
    let mut slices = 0;
    while !m.done() && slices < 64 {
        for _ in 0..1500 {
            m.step().expect("simulation fault");
            if m.done() {
                break;
            }
        }
        slices += 1;
        if m.done() {
            break;
        }
        // Rotate core 0: park the current task, start/resume another.
        if m.stats().cores[0].finish_cycle.is_none() {
            let task = m.preempt(0, 100_000).expect("preempt drains in budget");
            parked.push(task);
        }
        if let Some(p) = pending.pop() {
            m.load_program(0, p);
        } else if !parked.is_empty() {
            let t = parked.remove(0);
            m.resume(0, t, 100_000).expect("resume re-acquires lanes");
        }
    }
    // Drain the remaining parked tasks sequentially.
    while let Some(t) = parked.pop() {
        let _ = m.run(10_000_000).expect("simulation fault");
        m.resume(0, t, 100_000).expect("resume re-acquires lanes");
    }
    let stats = m.run(20_000_000).expect("simulation fault");
    assert!(stats.completed, "scheduler failed to finish all tasks");
    for (t, &(a, c)) in arrays.iter().enumerate() {
        let k = if t == 3 { 5.0 } else { 2.0 };
        for i in (0..n).step_by(97) {
            let want = k * m.memory().read_f32(a + 4 * i as u64);
            let got = m.memory().read_f32(c + 4 * i as u64);
            assert_eq!(got, want, "task {t}, element {i}");
        }
    }
}

#[test]
fn resume_onto_busy_core_is_a_typed_error() {
    let n = 512;
    let (mem, a, c) = setup(n);
    let mut m = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).unwrap();
    m.load_program(0, scale_program(a, c, n, 2.0, 2));
    for _ in 0..200 {
        m.step().expect("simulation fault");
    }
    let task = m.preempt(0, 100_000).expect("preempt drains in budget");
    m.load_program(0, scale_program(a, c, n, 2.0, 2));
    for _ in 0..200 {
        m.step().expect("simulation fault");
    }
    let err = m.resume(0, task, 1_000).expect_err("resume onto a busy core must fail");
    assert!(err.to_string().contains("busy"), "unexpected error: {err}");
}

#[test]
fn preempt_and_resume_on_baseline_architectures() {
    // The OS protocol is architecture-independent: verify it on a fixed
    // spatial partition and under temporal sharing.
    for (arch, granules) in [
        (Architecture::StaticSpatialSharing { partition: vec![3, 5] }, 3i64),
        (Architecture::TemporalSharing, 8),
        (Architecture::Private, 4),
    ] {
        let n = 2048;
        let (mem, a, c) = setup(n);
        let mut m = Machine::new(SimConfig::paper_2core(), arch.clone(), mem).unwrap();
        m.load_program(0, scale_program(a, c, n, 4.0, granules));
        for _ in 0..400 {
            m.step().expect("simulation fault");
        }
        let task = m.preempt(0, 100_000).expect("preempt drains in budget");
        for _ in 0..500 {
            m.step().expect("simulation fault");
        }
        m.resume(0, task, 100_000).expect("resume re-acquires lanes");
        let stats = m.run(10_000_000).expect("simulation fault");
        assert!(stats.completed, "{} resume failed", arch.short_name());
        for i in (0..n).step_by(61) {
            assert_eq!(
                m.memory().read_f32(c + 4 * i as u64),
                4.0 * (1.0 + i as f32),
                "{}: c[{i}]",
                arch.short_name()
            );
        }
    }
}
