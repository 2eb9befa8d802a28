//! Differential suite for the event-driven timing kernel.
//!
//! The kernel's contract (see `Machine::step_bounded`) is that skipping
//! provably inert cycles is
//! *invisible*: every architectural and statistical observable — memory,
//! registers, `MachineStats`, the structured event log, fault cycles,
//! watchdog trips — is identical to the per-cycle reference path. This
//! suite enforces that contract three ways:
//!
//! * lockstep differentials on arbitrary generated programs (the
//!   `no_panic_fuzz`-style generator, biased toward plausible
//!   addresses), with the reference kernel selected via
//!   [`Machine::set_reference_kernel`] — the same switch the
//!   `OCCAMY_REFERENCE_KERNEL` environment variable drives;
//! * the same differential under injected fault plans and the full
//!   detection-and-recovery subsystem (checkpoints, rollbacks,
//!   quarantine), where the kernel must either skip exactly or refuse
//!   to skip;
//! * deterministic cases on a memory-latency-bound loop: the skip path
//!   engages, jumps exactly to the next scheduled completion, and takes
//!   no jump when a completion is already due.

use em_simd::{
    DedicatedReg, EmSimdInst, InstTag, Operand, OperationalIntensity, Program, ProgramBuilder,
    ScalarInst, VBinOp, VReg, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{Architecture, FaultPlan, Machine, RecoveryPolicy, SimConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const MEM_BYTES: usize = 1 << 16;
const BUDGET: u64 = 30_000;
const WATCHDOG: u64 = 3_000;

fn xreg(rng: &mut StdRng) -> XReg {
    XReg::from_index(rng.gen_range(0..8))
}

fn vreg(rng: &mut StdRng) -> VReg {
    VReg::from_index(rng.gen_range(0..6))
}

fn operand(rng: &mut StdRng) -> Operand {
    if rng.gen_bool(0.5) {
        Operand::Imm(rng.gen_range(-1024..1024))
    } else {
        Operand::Reg(xreg(rng))
    }
}

/// A structurally valid, mostly-plausible program (the `differential`
/// suite's generator, trimmed): a well-formed `<OI>`/`<VL>` preamble
/// most of the time, base registers biased toward in-bounds addresses,
/// arbitrary compute/memory/predication in the body. Dependent
/// reductions (`ReduceAdd` feeding scalar arithmetic) are generated
/// often, because the resulting interlock stalls are exactly the idle
/// spans the event kernel elides.
fn plausible_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();

    if rng.gen_bool(0.8) {
        b.set_tag(InstTag::PhasePrologue);
        b.em_simd(EmSimdInst::Msr {
            reg: DedicatedReg::Oi,
            src: Operand::Imm(
                OperationalIntensity::uniform(rng.gen_range(0.01..64.0)).to_bits() as i64
            ),
        });
        b.em_simd(EmSimdInst::Msr {
            reg: DedicatedReg::Vl,
            src: Operand::Imm(rng.gen_range(0..12)),
        });
        b.set_tag(InstTag::Body);
    }
    for r in 0..4 {
        let imm = if rng.gen_bool(0.85) {
            rng.gen_range(0..(MEM_BYTES / 2) as i64) & !3
        } else {
            rng.gen_range(-64..64)
        };
        b.scalar(ScalarInst::MovImm { dst: XReg::from_index(r), imm });
    }

    let len = rng.gen_range(0..40);
    let n_labels = rng.gen_range(0..3usize);
    let mut labels: Vec<_> = (0..n_labels).map(|i| b.fresh_label(&format!("l{i}"))).collect();
    for _ in 0..len {
        if !labels.is_empty() && rng.gen_bool(0.3) {
            b.bind(labels.swap_remove(rng.gen_range(0..labels.len())));
        }
        match rng.gen_range(0..12) {
            0 => {
                b.scalar(ScalarInst::Add {
                    dst: xreg(&mut rng),
                    a: xreg(&mut rng),
                    b: operand(&mut rng),
                });
            }
            1 => {
                b.scalar(ScalarInst::Ldr {
                    dst: xreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            2 => {
                b.scalar(ScalarInst::Str {
                    src: xreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            3 => {
                if let Some(&target) = labels.first() {
                    b.scalar(ScalarInst::Bne {
                        a: xreg(&mut rng),
                        b: operand(&mut rng),
                        target,
                    });
                }
            }
            4 => {
                b.set_tag(InstTag::Reconfigure);
                b.em_simd(EmSimdInst::Msr {
                    reg: [DedicatedReg::Oi, DedicatedReg::Vl, DedicatedReg::Status]
                        [rng.gen_range(0..3usize)],
                    src: Operand::Imm(rng.gen_range(-8..1_000_000)),
                });
                b.set_tag(InstTag::Body);
            }
            5 => {
                b.set_tag(InstTag::Monitor);
                b.em_simd(EmSimdInst::Mrs {
                    dst: xreg(&mut rng),
                    reg: [
                        DedicatedReg::Oi,
                        DedicatedReg::Vl,
                        DedicatedReg::Decision,
                        DedicatedReg::Status,
                        DedicatedReg::Al,
                    ][rng.gen_range(0..5usize)],
                });
                b.set_tag(InstTag::Body);
            }
            6 => {
                b.vector(VectorInst::Load {
                    dst: vreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            7 => {
                b.vector(VectorInst::Store {
                    src: vreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            8 => {
                let op = [VBinOp::Fadd, VBinOp::Fsub, VBinOp::Fmul, VBinOp::Fdiv, VBinOp::Fmax]
                    [rng.gen_range(0..5usize)];
                b.vector(VectorInst::Binary {
                    op,
                    dst: vreg(&mut rng),
                    a: vreg(&mut rng),
                    b: vreg(&mut rng),
                });
            }
            9 => {
                b.vector(VectorInst::DupImm {
                    dst: vreg(&mut rng),
                    imm: rng.gen_range(-8.0..8.0),
                });
            }
            _ => {
                // The idle-span workhorse: a reduction whose scalar
                // result immediately feeds dependent arithmetic, so the
                // front end interlocks until the vector pipe drains.
                let dst = xreg(&mut rng);
                b.vector(VectorInst::ReduceAdd { dst, src: vreg(&mut rng) });
                b.scalar(ScalarInst::Add {
                    dst: xreg(&mut rng),
                    a: dst,
                    b: operand(&mut rng),
                });
            }
        }
    }
    for label in labels {
        b.bind(label);
    }
    if rng.gen_bool(0.95) {
        b.halt();
    }
    b.build()
}

/// Deterministic pseudo-random fill so loads see varied data.
fn seeded_memory(seed: u64) -> Memory {
    let mut mem = Memory::new(MEM_BYTES);
    let mut s = seed as u32 ^ 0x2545_f491;
    for i in 0..(MEM_BYTES / 4) as u64 {
        s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        mem.write_f32(4 * i, 0.25 + (s >> 20) as f32 / 4096.0);
    }
    mem
}

/// The four architectures, by index. `SimConfig::paper(1)` has four
/// granules, so the static partition is `[3]` on one core and `[3, 5]`
/// on two.
fn architecture(index: usize, cores: usize) -> Architecture {
    match index {
        0 => Architecture::Private,
        1 => Architecture::TemporalSharing,
        2 => Architecture::StaticSpatialSharing {
            partition: if cores == 1 { vec![3] } else { vec![3, 5] },
        },
        _ => Architecture::Occamy,
    }
}

/// `observe` turns on the event log and the cycle-attribution profiler,
/// whose jumped spans the skip path must classify as ticks would.
fn build_machine(seed: u64, cores: usize, arch: usize, observe: bool) -> Machine {
    let cfg = if cores == 1 { SimConfig::paper(1) } else { SimConfig::paper_2core() };
    let mut m = Machine::new(cfg, architecture(arch, cores), seeded_memory(seed))
        .expect("paper config is valid");
    m.set_watchdog(WATCHDOG);
    if observe {
        m.enable_events(1 << 14);
        m.enable_profile();
    }
    for c in 0..cores {
        m.load_program(c, plausible_program(seed.wrapping_add(c as u64 * 0x9e37)));
    }
    m
}

/// The machine's full debug dump minus the kernel's own bookkeeping
/// (skip counters and the reference-mode flag — the one part of the
/// state *allowed* to differ between the two paths). Dump comparison
/// rather than `Machine: PartialEq` because arbitrary programs put
/// NaNs in the physical register file, and `NaN != NaN` would fail
/// `==` on bit-identical machines.
fn kernel_blind_dump(m: &Machine) -> String {
    let kernel_fields = ["reference:", "cycles_skipped:", "skips:", "expose_metric:"];
    format!("{m:#?}")
        .lines()
        .filter(|l| !kernel_fields.iter().any(|f| l.trim_start().starts_with(f)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the same machine configuration under the per-cycle reference
/// kernel and the event-driven kernel, then requires full equality:
/// the typed result (including fault kinds and watchdog trip cycles),
/// the complete `Machine` state (memory, registers, pipelines, RNG
/// position, statistics, profiler), and the structured event log.
fn assert_kernels_agree(mut reference: Machine, mut event: Machine, label: &str) {
    reference.set_reference_kernel(true);
    let want = reference.run(BUDGET);
    let got = event.run(BUDGET);

    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "{label}: run results diverged between reference and event kernels"
    );
    // Fast path: `Machine: PartialEq` (kernel counters excluded by
    // design). It reports false negatives when NaNs are live in the
    // register files, so only fall back to the (slow, NaN-tolerant)
    // dump comparison when it fails.
    assert!(
        reference == event || kernel_blind_dump(&reference) == kernel_blind_dump(&event),
        "{label}: machine state diverged between reference and event kernels"
    );
    let ref_events: Vec<_> = reference.events().events().collect();
    let evt_events: Vec<_> = event.events().events().collect();
    assert_eq!(ref_events, evt_events, "{label}: event logs diverged");
    assert_eq!(
        reference.events().dropped(),
        event.events().dropped(),
        "{label}: event-log eviction diverged"
    );
    assert_eq!(reference.cycles_skipped(), 0, "{label}: reference kernel must not skip");
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(300)))]

    /// Arbitrary single-core programs on every architecture, with the
    /// event log and profiler on or off: the event kernel is observationally
    /// identical to per-cycle stepping — completions, faults and
    /// watchdog trips all land on the same cycle with the same state.
    #[test]
    fn event_kernel_matches_reference_on_arbitrary_programs(
        seed in 0u64..1u64 << 48,
        arch in 0usize..4,
        observe in any::<bool>(),
    ) {
        assert_kernels_agree(
            build_machine(seed, 1, arch, observe),
            build_machine(seed, 1, arch, observe),
            &format!("seed {seed}, arch {arch}, observe {observe}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(100)))]

    /// Two co-running cores on every architecture, with the event log
    /// and profiler on or off: cross-core EM-SIMD negotiation, lane-manager
    /// repartitions and shared issue slots must serialize identically
    /// when idle spans of one core are skipped while the other is
    /// mid-flight.
    #[test]
    fn event_kernel_matches_reference_on_two_cores(
        seed in 0u64..1u64 << 48,
        arch in 0usize..4,
        observe in any::<bool>(),
    ) {
        assert_kernels_agree(
            build_machine(seed, 2, arch, observe),
            build_machine(seed, 2, arch, observe),
            &format!("seed {seed}, arch {arch}, observe {observe} (2-core)"),
        );
    }
}

/// The recovery suite's elastic scale kernel: acquire `<VL>`, stream
/// `a[i] * k` into `c[i]`, release. Long enough to cross checkpoint and
/// self-test timer boundaries.
fn scale_program(a: u64, c: u64, n: usize, k: f32, granules: i64) -> Program {
    const BASE_A: XReg = XReg::X0;
    const BASE_C: XReg = XReg::X2;
    const I: XReg = XReg::X3;
    const N: XReg = XReg::X4;
    const LANES: XReg = XReg::X5;
    const STATUS: XReg = XReg::X6;
    const NEXT: XReg = XReg::X8;
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

fn recovery_machine(granule: usize, onset: u64, strikes: u32, g0: i64, g1: i64) -> Machine {
    let n = 1024usize;
    let mut mem = Memory::new(1 << 20);
    let a0 = mem.alloc_f32(n as u64);
    let c0 = mem.alloc_f32(n as u64);
    let a1 = mem.alloc_f32(n as u64);
    let c1 = mem.alloc_f32(n as u64);
    for i in 0..n as u64 {
        let v = ((i * 37 + 13) % 251) as f32 / 251.0 - 0.5;
        mem.write_f32(a0 + 4 * i, v);
        mem.write_f32(a1 + 4 * i, -2.0 * v + 0.125);
    }
    let mut m =
        Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).expect("paper config");
    m.enable_events(1 << 14);
    m.load_program(0, scale_program(a0, c0, n, 3.0, g0));
    m.load_program(1, scale_program(a1, c1, n, -2.0, g1));
    m.set_fault_plan(&FaultPlan {
        seed: 7,
        permanent_lane: Some(granule),
        permanent_lane_from: onset,
        ..FaultPlan::default()
    });
    m.enable_recovery(RecoveryPolicy {
        checkpoint_interval: 500,
        selftest_interval: 1_500,
        strike_threshold: strikes,
        max_rollbacks: 256,
        quarantine: true,
    });
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(16)))]

    /// Under an injected permanent fault with the full recovery
    /// subsystem live (periodic checkpoints, rollbacks, lazy-drain
    /// quarantine), the event kernel reproduces the reference run
    /// exactly: same detection cycles, same rollbacks, same quarantine
    /// set, same survivor values. The fault-plan RNG only advances on
    /// real issue/access events, so skipped inert spans cannot
    /// desynchronize it.
    #[test]
    fn event_kernel_matches_reference_under_fault_plans(
        granule in 0usize..8,
        onset in 0u64..4_000,
        strikes in 1u32..5,
        g0 in 1i64..5,
        g1 in 1i64..5,
    ) {
        let mut reference = recovery_machine(granule, onset, strikes, g0, g1);
        reference.set_reference_kernel(true);
        let want = reference.run(200_000);

        let mut event = recovery_machine(granule, onset, strikes, g0, g1);
        let got = event.run(200_000);

        prop_assert_eq!(
            format!("{:?}", want),
            format!("{:?}", got),
            "fault-plan run results diverged"
        );
        prop_assert!(reference == event, "machine state diverged under fault plan");
        prop_assert_eq!(
            reference.quarantined_granules(),
            event.quarantined_granules(),
            "quarantine set diverged"
        );
        let ref_events: Vec<_> = reference.events().events().collect();
        let evt_events: Vec<_> = event.events().events().collect();
        prop_assert_eq!(ref_events, evt_events, "recovery event logs diverged");
    }
}

// ---------------------------------------------------------------------
// Deterministic idle-heavy cases: the skip path must actually engage.
// ---------------------------------------------------------------------

/// A serial pointer-chase-shaped loop: each iteration vector-loads with
/// a large stride (cold misses all the way to DRAM), reduces into a
/// scalar register and immediately consumes it, so the core spends most
/// of its life provably inert waiting on memory.
fn idle_heavy_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Oi,
        src: Operand::Imm(OperationalIntensity::uniform(0.05).to_bits() as i64),
    });
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(2) });
    b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 0 });
    b.scalar(ScalarInst::MovImm { dst: XReg::X3, imm: 0 });
    b.scalar(ScalarInst::MovImm { dst: XReg::X4, imm: iters });
    let head = b.fresh_label("chase");
    b.bind(head);
    b.vector(VectorInst::Load { dst: VReg::Z1, base: XReg::X0, index: XReg::X3 });
    b.vector(VectorInst::ReduceAdd { dst: XReg::X1, src: VReg::Z1 });
    // Dependent use: interlocks the front end until the reduce lands.
    b.scalar(ScalarInst::Add { dst: XReg::X2, a: XReg::X1, b: Operand::Imm(1) });
    b.scalar(ScalarInst::Add { dst: XReg::X3, a: XReg::X3, b: Operand::Imm(1_024) });
    b.scalar(ScalarInst::Add { dst: XReg::X4, a: XReg::X4, b: Operand::Imm(-1) });
    b.scalar(ScalarInst::Bne { a: XReg::X4, b: Operand::Imm(0), target: head });
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
    b.halt();
    b.build()
}

fn idle_heavy_machine() -> Machine {
    let mut m =
        Machine::new(SimConfig::paper(1), Architecture::Occamy, seeded_memory(11))
            .expect("paper config");
    m.enable_events(1 << 12);
    m.load_program(0, idle_heavy_program(12));
    m
}

/// On a memory-latency-bound loop the skip path must engage (otherwise
/// the whole kernel is dead code) and still match the reference run
/// cycle-for-cycle.
#[test]
fn idle_heavy_run_skips_and_matches_reference() {
    let mut reference = idle_heavy_machine();
    reference.set_reference_kernel(true);
    let want = reference.run(BUDGET).expect("reference run completes");
    assert!(want.completed, "idle-heavy workload must complete");

    let mut event = idle_heavy_machine();
    let got = event.run(BUDGET).expect("event-kernel run completes");

    assert_eq!(want, got, "stats diverged on the idle-heavy loop");
    assert!(reference == event, "machine state diverged on the idle-heavy loop");
    assert!(
        event.cycles_skipped() > 0,
        "the event kernel must skip on a memory-latency-bound loop \
         (skipped {} over {} cycles)",
        event.cycles_skipped(),
        got.cycles
    );
    assert!(event.skip_count() > 0);
    assert!(
        event.cycles_skipped() < got.cycles,
        "skipped cycles are a strict subset of simulated cycles"
    );
}

/// The watchdog must trip at the identical cycle whether the stagnant
/// span was ticked through or jumped: the kernel schedules the trip as
/// a timer event and executes the tripping step for real.
#[test]
fn watchdog_trips_at_the_same_cycle_under_skips() {
    let build = || {
        let mut m = Machine::new(SimConfig::paper(1), Architecture::Occamy, seeded_memory(13))
            .expect("paper config");
        m.enable_events(1 << 10);
        // Long-latency waits with a watchdog shorter than the memory
        // round-trip: the machine stagnates mid-wait and must trip.
        m.set_watchdog(40);
        m.load_program(0, idle_heavy_program(12));
        m
    };
    let mut reference = build();
    reference.set_reference_kernel(true);
    let want = reference.run(BUDGET);
    assert!(want.is_err(), "watchdog 40 must trip inside a DRAM wait");

    let mut event = build();
    let got = event.run(BUDGET);

    assert_eq!(format!("{want:?}"), format!("{got:?}"), "watchdog trips diverged");
    assert_eq!(reference.cycle(), event.cycle(), "trip cycle diverged");
    assert!(event.cycles_skipped() > 0, "the stagnant span should have been jumped");
    let ref_events: Vec<_> = reference.events().events().collect();
    let evt_events: Vec<_> = event.events().events().collect();
    assert_eq!(ref_events, evt_events, "watchdog event records diverged");
}

/// `OCCAMY_REFERENCE_KERNEL` aside, the in-process switch must be
/// enough: flipping a machine to reference mode mid-flight stops
/// skipping without perturbing the run.
#[test]
fn reference_switch_stops_skipping() {
    let mut m = idle_heavy_machine();
    m.run(BUDGET).expect("event-kernel run completes");
    let skipped = m.cycles_skipped();
    assert!(skipped > 0);

    let mut m2 = idle_heavy_machine();
    m2.set_reference_kernel(true);
    m2.run(BUDGET).expect("reference run completes");
    assert_eq!(m2.cycles_skipped(), 0, "reference mode must never skip");
}

/// The skip horizon is the earliest scheduled completion, and a
/// completion already due at the current cycle bounds it there: the
/// event kernel then takes no jump and executes the cycle for real.
#[test]
fn completion_due_now_yields_no_jump() {
    // Tick the idle-heavy loop one reference cycle at a time until a
    // reduction result lands in x1: the tick at that cycle completes an
    // in-flight instruction whose deadline is exactly that cycle (the
    // tick before it left x1 alone).
    let mut m = idle_heavy_machine();
    m.set_reference_kernel(true);
    let mut prev = m.clone();
    loop {
        assert!(!m.done() && m.cycle() < BUDGET, "a reduction must land before the loop ends");
        let before = m.clone();
        m.step().expect("reference step");
        if m.xregs(0)[1] != before.xregs(0)[1] {
            let due = before;
            let landed = m;

            let mut event = due.clone();
            event.set_reference_kernel(false);
            event.step_bounded(BUDGET).expect("event-kernel step");
            assert_eq!(event.cycles_skipped(), 0, "a completion due now must not be jumped");
            assert_eq!(event.cycle(), due.cycle() + 1, "exactly one real step");
            assert!(event == landed, "the step at the due cycle diverged from the reference");

            // One cycle earlier the reduction is still in flight: the
            // kernel jumps exactly to its deadline and executes it.
            let mut early = prev;
            assert_eq!(early.cycle() + 1, due.cycle());
            early.set_reference_kernel(false);
            early.step_bounded(BUDGET).expect("event-kernel step");
            assert_eq!(early.cycles_skipped(), 1, "the in-flight cycle is jumped");
            assert!(early == landed, "the jump overshot or undershot the completion");
            return;
        }
        prev = before;
    }
}
