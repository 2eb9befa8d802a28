//! End-to-end pipeline tests: hand-assembled vectorized programs running
//! on all four SIMD architectures, checked for functional correctness
//! (real values through the real pipeline) and basic timing sanity.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder, ScalarInst,
    VBinOp, VReg, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{Architecture, Machine, SimConfig};

const A: XReg = XReg::X0;
const B: XReg = XReg::X1;
const C: XReg = XReg::X2;
const I: XReg = XReg::X3;
const N: XReg = XReg::X4;
const LANES: XReg = XReg::X5;
const STATUS: XReg = XReg::X6;
const TMP: XReg = XReg::X7;
const NEXT: XReg = XReg::X8;

/// Emits the Fig. 9 phase prologue: declare the phase's OI, then set the
/// vector length to `granules` with the retry loop.
fn emit_prologue(b: &mut ProgramBuilder, oi: OperationalIntensity, granules: usize) {
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Oi,
        src: Operand::Imm(oi.to_bits() as i64),
    });
    let retry = b.fresh_label("vl_retry");
    b.bind(retry);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(granules as i64) });
    b.em_simd(EmSimdInst::Mrs { dst: STATUS, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: STATUS, b: Operand::Imm(1), target: retry });
    // lanes = granules * 4
    b.em_simd(EmSimdInst::Mrs { dst: TMP, reg: DedicatedReg::Vl });
    b.scalar(ScalarInst::ShlImm { dst: LANES, a: TMP, shift: 2 });
}

/// Emits the Fig. 9 phase epilogue: release the OI and the lanes.
fn emit_epilogue(b: &mut ProgramBuilder) {
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Imm(0) });
    let retry = b.fresh_label("vl_release");
    b.bind(retry);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
    b.em_simd(EmSimdInst::Mrs { dst: STATUS, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: STATUS, b: Operand::Imm(1), target: retry });
}

/// A strip-mined vector-add kernel `c[i] = a[i] + b[i]` with a scalar
/// remainder loop, configured for a fixed vector length.
fn vec_add_program(a: u64, b_addr: u64, c: u64, n: usize, granules: usize) -> Program {
    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm { dst: A, imm: a as i64 });
    b.scalar(ScalarInst::MovImm { dst: B, imm: b_addr as i64 });
    b.scalar(ScalarInst::MovImm { dst: C, imm: c as i64 });
    b.scalar(ScalarInst::MovImm { dst: N, imm: n as i64 });
    emit_prologue(&mut b, OperationalIntensity::uniform(1.0 / 12.0), granules);
    b.scalar(ScalarInst::MovImm { dst: I, imm: 0 });

    let vloop = b.fresh_label("vloop");
    let rem = b.fresh_label("remainder");
    let rem_loop = b.fresh_label("rem_loop");
    let done = b.fresh_label("done");

    b.bind(vloop);
    b.scalar(ScalarInst::Add { dst: NEXT, a: I, b: Operand::Reg(LANES) });
    b.scalar(ScalarInst::Blt { a: N, b: Operand::Reg(NEXT), target: rem });
    b.vector(VectorInst::Load { dst: VReg::Z1, base: A, index: I });
    b.vector(VectorInst::Load { dst: VReg::Z2, base: B, index: I });
    b.vector(VectorInst::Binary { op: VBinOp::Fadd, dst: VReg::Z3, a: VReg::Z1, b: VReg::Z2 });
    b.vector(VectorInst::Store { src: VReg::Z3, base: C, index: I });
    b.scalar(ScalarInst::Mov { dst: I, src: NEXT });
    b.scalar(ScalarInst::B { target: vloop });

    b.bind(rem);
    b.bind(rem_loop);
    b.scalar(ScalarInst::Bge { a: I, b: Operand::Reg(N), target: done });
    b.scalar(ScalarInst::Ldr { dst: XReg::X10, base: A, index: I });
    b.scalar(ScalarInst::Ldr { dst: XReg::X11, base: B, index: I });
    b.scalar(ScalarInst::Fadd { dst: XReg::X12, a: XReg::X10, b: XReg::X11 });
    b.scalar(ScalarInst::Str { src: XReg::X12, base: C, index: I });
    b.scalar(ScalarInst::Add { dst: I, a: I, b: Operand::Imm(1) });
    b.scalar(ScalarInst::B { target: rem_loop });

    b.bind(done);
    emit_epilogue(&mut b);
    b.halt();
    b.build()
}

struct Arrays {
    a: u64,
    b: u64,
    c: u64,
    n: usize,
}

fn setup_arrays(mem: &mut Memory, n: usize, seed: f32) -> Arrays {
    let a = mem.alloc_f32(n as u64);
    let b = mem.alloc_f32(n as u64);
    let c = mem.alloc_f32(n as u64);
    for i in 0..n {
        mem.write_f32(a + 4 * i as u64, seed + i as f32);
        mem.write_f32(b + 4 * i as u64, 2.0 * i as f32 - seed);
    }
    Arrays { a, b, c, n }
}

fn check_vec_add(m: &Machine, arr: &Arrays, seed: f32) {
    for i in 0..arr.n {
        let got = m.memory().read_f32(arr.c + 4 * i as u64);
        let want = (seed + i as f32) + (2.0 * i as f32 - seed);
        assert!((got - want).abs() < 1e-5, "c[{i}] = {got}, want {want}");
    }
}

fn run_vec_add_on(arch: Architecture, granules: [usize; 2]) -> occamy_sim::MachineStats {
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let n = 777; // deliberately not a multiple of any vector length
    let arr0 = setup_arrays(&mut mem, n, 1.0);
    let arr1 = setup_arrays(&mut mem, n, -3.0);
    let mut m = Machine::new(cfg, arch, mem).expect("valid config");
    m.load_program(0, vec_add_program(arr0.a, arr0.b, arr0.c, n, granules[0]));
    m.load_program(1, vec_add_program(arr1.a, arr1.b, arr1.c, n, granules[1]));
    let stats = m.run(2_000_000).expect("simulation fault");
    assert!(stats.completed, "run did not complete: {stats:?}");
    check_vec_add(&m, &arr0, 1.0);
    check_vec_add(&m, &arr1, -3.0);
    stats
}

#[test]
fn vec_add_on_private() {
    let stats = run_vec_add_on(Architecture::Private, [4, 4]);
    assert!(stats.cores[0].vector_compute_issued > 0);
    assert!(stats.cores[0].vector_mem_issued > 0);
}

#[test]
fn vec_add_on_fts() {
    let stats = run_vec_add_on(Architecture::TemporalSharing, [8, 8]);
    // Full-width mode needs fewer iterations, hence fewer vector insts.
    let private = run_vec_add_on(Architecture::Private, [4, 4]);
    assert!(
        stats.cores[0].vector_mem_issued < private.cores[0].vector_mem_issued,
        "FTS {} vs Private {}",
        stats.cores[0].vector_mem_issued,
        private.cores[0].vector_mem_issued
    );
}

#[test]
fn vec_add_on_vls() {
    let stats = run_vec_add_on(
        Architecture::StaticSpatialSharing { partition: vec![3, 5] },
        [3, 5],
    );
    assert!(stats.completed);
}

#[test]
fn vec_add_on_occamy() {
    let stats = run_vec_add_on(Architecture::Occamy, [4, 4]);
    assert!(stats.simd_utilization() > 0.0);
    // Phases were recorded through the <OI> writes.
    assert_eq!(stats.cores[0].phases.len(), 1);
    let phase = &stats.cores[0].phases[0];
    assert!(phase.end_cycle.is_some());
    assert!(phase.compute_issued > 0);
}

#[test]
fn occamy_over_subscription_fails_then_succeeds() {
    // Core 0 asks for all 8 granules, core 1 for 4: core 1 spins on the
    // retry loop until core 0 releases its lanes in the epilogue.
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let n = 256;
    let arr0 = setup_arrays(&mut mem, n, 5.0);
    let arr1 = setup_arrays(&mut mem, n, 9.0);
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    m.load_program(0, vec_add_program(arr0.a, arr0.b, arr0.c, n, 8));
    m.load_program(1, vec_add_program(arr1.a, arr1.b, arr1.c, n, 4));
    let stats = m.run(2_000_000).expect("simulation fault");
    assert!(stats.completed, "deadlock: core 1 never acquired lanes");
    check_vec_add(&m, &arr0, 5.0);
    check_vec_add(&m, &arr1, 9.0);
    // Core 1 could only start after core 0 finished.
    assert!(stats.cores[1].finish_cycle.unwrap() > stats.cores[0].finish_cycle.unwrap());
}

#[test]
fn reduction_writes_back_to_scalar_core() {
    // sum(a[0..n]) via vector accumulation + FADDV + scalar remainder.
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let n = 100;
    let a = mem.alloc_f32(n as u64);
    let out = mem.alloc_f32(1);
    for i in 0..n {
        mem.write_f32(a + 4 * i as u64, (i % 7) as f32 * 0.5);
    }
    let expected: f32 = (0..n).map(|i| (i % 7) as f32 * 0.5).sum();

    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm { dst: A, imm: a as i64 });
    b.scalar(ScalarInst::MovImm { dst: C, imm: out as i64 });
    b.scalar(ScalarInst::MovImm { dst: N, imm: n as i64 });
    emit_prologue(&mut b, OperationalIntensity::uniform(0.25), 4);
    b.scalar(ScalarInst::MovImm { dst: I, imm: 0 });
    b.vector(VectorInst::DupImm { dst: VReg::Z4, imm: 0.0 });

    let vloop = b.fresh_label("vloop");
    let rem = b.fresh_label("rem");
    let rem_loop = b.fresh_label("rem_loop");
    let done = b.fresh_label("done");
    b.bind(vloop);
    b.scalar(ScalarInst::Add { dst: NEXT, a: I, b: Operand::Reg(LANES) });
    b.scalar(ScalarInst::Blt { a: N, b: Operand::Reg(NEXT), target: rem });
    b.vector(VectorInst::Load { dst: VReg::Z1, base: A, index: I });
    b.vector(VectorInst::Binary { op: VBinOp::Fadd, dst: VReg::Z4, a: VReg::Z4, b: VReg::Z1 });
    b.scalar(ScalarInst::Mov { dst: I, src: NEXT });
    b.scalar(ScalarInst::B { target: vloop });

    b.bind(rem);
    // Fold the vector partial sums into x20, then add the tail.
    b.vector(VectorInst::ReduceAdd { dst: XReg::X20, src: VReg::Z4 });
    b.bind(rem_loop);
    b.scalar(ScalarInst::Bge { a: I, b: Operand::Reg(N), target: done });
    b.scalar(ScalarInst::Ldr { dst: XReg::X10, base: A, index: I });
    b.scalar(ScalarInst::Fadd { dst: XReg::X20, a: XReg::X20, b: XReg::X10 });
    b.scalar(ScalarInst::Add { dst: I, a: I, b: Operand::Imm(1) });
    b.scalar(ScalarInst::B { target: rem_loop });

    b.bind(done);
    b.scalar(ScalarInst::MovImm { dst: I, imm: 0 });
    b.scalar(ScalarInst::Str { src: XReg::X20, base: C, index: I });
    emit_epilogue(&mut b);
    b.halt();

    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    m.load_program(0, b.build());
    let stats = m.run(1_000_000).expect("simulation fault");
    assert!(stats.completed);
    let got = m.memory().read_f32(out);
    assert!((got - expected).abs() < 1e-3, "sum = {got}, want {expected}");
}

#[test]
fn vl_zero_after_epilogue_and_lanes_freed() {
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let arr = setup_arrays(&mut mem, 64, 0.5);
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    m.load_program(0, vec_add_program(arr.a, arr.b, arr.c, 64, 4));
    let stats = m.run(1_000_000).expect("simulation fault");
    assert!(stats.completed);
    assert!(m.vl(0).is_zero());
    assert_eq!(m.resource_table().free_granules(), 8);
    // Every physical register entry was returned to the free lists
    // (except the 2 x 32 zero-width architectural registers, which span
    // no blocks).
    let free = m.block_free_entries();
    assert!(free.iter().all(|&f| f == 160), "leaked registers: {free:?}");
}

#[test]
fn scalar_load_waits_for_overlapping_vector_store() {
    // A vector store to c[0..16] immediately followed by a scalar load of
    // c[0] must see the stored value (Table 2 ordering).
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let c = mem.alloc_f32(16);
    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm { dst: C, imm: c as i64 });
    emit_prologue(&mut b, OperationalIntensity::uniform(1.0), 4);
    b.scalar(ScalarInst::MovImm { dst: I, imm: 0 });
    b.vector(VectorInst::DupImm { dst: VReg::Z1, imm: 42.5 });
    b.vector(VectorInst::Store { src: VReg::Z1, base: C, index: I });
    b.scalar(ScalarInst::Ldr { dst: XReg::X10, base: C, index: I });
    // Copy the loaded value to c[20]... store at index 16 is outside the
    // vector store's range, so it does not need MOB ordering.
    b.scalar(ScalarInst::MovImm { dst: I, imm: 15 });
    b.scalar(ScalarInst::Str { src: XReg::X10, base: C, index: I });
    emit_epilogue(&mut b);
    b.halt();
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    m.load_program(0, b.build());
    let stats = m.run(1_000_000).expect("simulation fault");
    assert!(stats.completed);
    assert_eq!(m.memory().read_f32(c + 15 * 4), 42.5);
}

#[test]
fn utilization_is_higher_with_more_lanes_for_compute() {
    // The same compute kernel at 4 granules vs 1 granule: more lanes,
    // more busy lane-cycles per cycle.
    let run = |granules: usize| {
        let cfg = SimConfig::paper_2core();
        let mut mem = Memory::new(1 << 20);
        let arr = setup_arrays(&mut mem, 4096, 1.5);
        let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
        m.load_program(0, vec_add_program(arr.a, arr.b, arr.c, 4096, granules));
        m.run(10_000_000).expect("simulation fault")
    };
    let wide = run(4);
    let narrow = run(1);
    assert!(wide.completed && narrow.completed);
    assert!(
        wide.cores[0].finish_cycle.unwrap() < narrow.cores[0].finish_cycle.unwrap(),
        "wide should finish faster"
    );
}

#[test]
fn trace_records_full_instruction_lifecycles() {
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let arr = setup_arrays(&mut mem, 64, 1.0);
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    m.enable_events(4096);
    m.load_program(0, vec_add_program(arr.a, arr.b, arr.c, 64, 4));
    let stats = m.run(1_000_000).expect("simulation fault");
    assert!(stats.completed);
    // Every stage appears, and the pipeview names real instructions.
    use occamy_sim::{EventKind, TraceStage};
    for stage in [TraceStage::Rename, TraceStage::Issue, TraceStage::Complete, TraceStage::Retire]
    {
        let recorded = |e: &occamy_sim::Event| {
            matches!(e.kind, EventKind::Stage { stage: s, .. } if s == stage)
        };
        assert!(m.events().events().any(recorded), "missing {stage} events");
    }
    assert_eq!(m.events().dropped(), 0, "the ring must hold the whole run");
    let view = occamy_sim::render_pipeview(m.events());
    assert!(view.contains("ld1w"), "{view}");
    assert!(view.contains("fadd"), "{view}");
}

#[test]
fn machine_is_deterministic_and_clonable_mid_run() {
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let arr0 = setup_arrays(&mut mem, 777, 1.0);
    let arr1 = setup_arrays(&mut mem, 777, 2.0);
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    m.load_program(0, vec_add_program(arr0.a, arr0.b, arr0.c, 777, 4));
    m.load_program(1, vec_add_program(arr1.a, arr1.b, arr1.c, 777, 4));
    for _ in 0..2_000 {
        m.step().expect("simulation fault");
    }
    // A clone must continue identically: cycle-accurate reproducibility.
    let mut fork = m.clone();
    let s1 = m.run(10_000_000).expect("simulation fault");
    let s2 = fork.run(10_000_000).expect("simulation fault");
    assert_eq!(s1.cycles, s2.cycles);
    assert_eq!(s1.cores[0].vector_compute_issued, s2.cores[0].vector_compute_issued);
    assert_eq!(s1.cores[1].busy_lane_cycles, s2.cores[1].busy_lane_cycles);
    for i in 0..777u64 {
        assert_eq!(
            m.memory().read_f32(arr0.c + 4 * i),
            fork.memory().read_f32(arr0.c + 4 * i)
        );
    }
}
