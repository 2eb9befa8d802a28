//! Lockstep differential suite: the functional engine against the
//! cycle-accurate timing model on arbitrary single-core programs.
//!
//! The two-speed contract (see `src/functional.rs`) is that functional
//! fast-forward is *architecturally* identical to timing execution:
//! same memory image, same scalar/vector/predicate registers, same
//! issue counters, same completed-phase record, and the same typed
//! fault on bad programs. This suite generates structurally valid but
//! semantically arbitrary programs (the `no_panic_fuzz` generator,
//! biased toward plausible addresses so most cases complete), runs each
//! one to termination under both modes, and requires zero divergences.
//!
//! Single-core only by design: multi-core functional execution
//! interleaves cores in deterministic round-robin slices, which is a
//! *different* deterministic order than the cycle-level interleaving,
//! so cross-core EM-SIMD negotiation outcomes can legitimately differ.
//! Real-kernel multi-architecture differentials live in the workspace
//! suite `tests/differential.rs`.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, PReg, Program, ProgramBuilder,
    ScalarInst, VBinOp, VCmpOp, VReg, VUnOp, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{Architecture, Machine, SimConfig, SimError, SimMode};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Memory capacity of every machine. Most generated addresses land in
/// bounds (plausible-address bias); the rest exercise the fault path.
const MEM_BYTES: usize = 1 << 16;
/// Timing-mode cycle budget per case.
const BUDGET: u64 = 30_000;
const WATCHDOG: u64 = 3_000;

fn xreg(rng: &mut StdRng) -> XReg {
    XReg::from_index(rng.gen_range(0..8))
}

fn vreg(rng: &mut StdRng) -> VReg {
    VReg::from_index(rng.gen_range(0..6))
}

fn preg(rng: &mut StdRng) -> PReg {
    PReg::from_index(rng.gen_range(0..4))
}

fn operand(rng: &mut StdRng) -> Operand {
    if rng.gen_bool(0.5) {
        Operand::Imm(rng.gen_range(-1024..1024))
    } else {
        Operand::Reg(xreg(rng))
    }
}

/// A structurally valid, mostly-plausible program: a well-formed
/// `<OI>`/`<VL>` preamble most of the time, register seeds biased
/// toward in-bounds addresses, arbitrary compute/memory/predication in
/// the body, and (usually) a final `HALT`.
fn plausible_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();

    if rng.gen_bool(0.8) {
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
    }
    // Plausible-address bias: base registers usually point well inside
    // the memory image so loads/stores mostly succeed.
    for r in 0..4 {
        let imm = if rng.gen_bool(0.8) {
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
        match rng.gen_range(0..14) {
            0 => {
                b.scalar(ScalarInst::MovImm {
                    dst: xreg(&mut rng),
                    imm: rng.gen_range(-4096..4096),
                });
            }
            1 => {
                b.scalar(ScalarInst::Add {
                    dst: xreg(&mut rng),
                    a: xreg(&mut rng),
                    b: operand(&mut rng),
                });
            }
            2 => {
                b.scalar(ScalarInst::Mul {
                    dst: xreg(&mut rng),
                    a: xreg(&mut rng),
                    b: operand(&mut rng),
                });
            }
            3 => {
                b.scalar(ScalarInst::Ldr {
                    dst: xreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            4 => {
                b.scalar(ScalarInst::Str {
                    src: xreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            5 => {
                if let Some(&target) = labels.first() {
                    b.scalar(ScalarInst::Bne {
                        a: xreg(&mut rng),
                        b: operand(&mut rng),
                        target,
                    });
                }
            }
            6 => {
                b.em_simd(EmSimdInst::Msr {
                    reg: [DedicatedReg::Oi, DedicatedReg::Vl, DedicatedReg::Status]
                        [rng.gen_range(0..3usize)],
                    src: Operand::Imm(rng.gen_range(-8..1_000_000)),
                });
            }
            7 => {
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
            }
            8 => {
                b.vector(VectorInst::Load {
                    dst: vreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            9 => {
                b.vector(VectorInst::Store {
                    src: vreg(&mut rng),
                    base: xreg(&mut rng),
                    index: xreg(&mut rng),
                });
            }
            10 => {
                let op = [VBinOp::Fadd, VBinOp::Fsub, VBinOp::Fmul, VBinOp::Fdiv, VBinOp::Fmax]
                    [rng.gen_range(0..5usize)];
                b.vector(VectorInst::Binary {
                    op,
                    dst: vreg(&mut rng),
                    a: vreg(&mut rng),
                    b: vreg(&mut rng),
                });
            }
            11 => {
                let op = [VUnOp::Fneg, VUnOp::Fabs, VUnOp::Fsqrt][rng.gen_range(0..3usize)];
                b.vector(VectorInst::Unary { op, dst: vreg(&mut rng), src: vreg(&mut rng) });
            }
            12 => match rng.gen_range(0..4) {
                0 => {
                    b.vector(VectorInst::DupImm {
                        dst: vreg(&mut rng),
                        imm: rng.gen_range(-8.0..8.0),
                    });
                }
                1 => {
                    b.vector(VectorInst::Dup { dst: vreg(&mut rng), src: xreg(&mut rng) });
                }
                2 => {
                    b.vector(VectorInst::Fma {
                        dst: vreg(&mut rng),
                        a: vreg(&mut rng),
                        b: vreg(&mut rng),
                    });
                }
                _ => {
                    b.vector(VectorInst::ReduceAdd { dst: xreg(&mut rng), src: vreg(&mut rng) });
                }
            },
            _ => match rng.gen_range(0..3) {
                0 => {
                    b.vector(VectorInst::Whilelo {
                        dst: preg(&mut rng),
                        a: xreg(&mut rng),
                        b: xreg(&mut rng),
                    });
                }
                1 => {
                    let op = [VCmpOp::Gt, VCmpOp::Le, VCmpOp::Ne][rng.gen_range(0..3usize)];
                    b.vector(VectorInst::Fcm {
                        op,
                        dst: preg(&mut rng),
                        a: vreg(&mut rng),
                        b: vreg(&mut rng),
                    });
                }
                _ => {
                    b.vector(VectorInst::Sel {
                        dst: vreg(&mut rng),
                        sel: preg(&mut rng),
                        a: vreg(&mut rng),
                        b: vreg(&mut rng),
                    });
                }
            },
        }
    }
    for label in labels {
        b.bind(label);
    }
    // A missing HALT must trip the same SimError::Decode in both modes.
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

fn build_machine(seed: u64) -> Machine {
    let mut m = Machine::new(SimConfig::paper(1), Architecture::Occamy, seeded_memory(seed))
        .expect("paper config is valid");
    m.set_watchdog(WATCHDOG);
    m.load_program(0, plausible_program(seed));
    m
}

/// Full architectural comparison of two terminated machines.
fn assert_architecturally_equal(timing: &Machine, functional: &Machine, seed: u64) {
    assert!(
        timing.memory() == functional.memory(),
        "seed {seed}: memory image diverged between timing and functional execution"
    );
    assert_eq!(timing.xregs(0), functional.xregs(0), "seed {seed}: scalar registers diverged");
    assert_eq!(timing.vl(0), functional.vl(0), "seed {seed}: <VL> diverged");
    for v in 0..8 {
        let v = VReg::from_index(v);
        assert_eq!(
            timing.vreg(0, v).iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            functional.vreg(0, v).iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            "seed {seed}: {v:?} diverged"
        );
    }
    for p in 0..4 {
        let p = PReg::from_index(p);
        assert_eq!(timing.preg(0, p), functional.preg(0, p), "seed {seed}: {p:?} diverged");
    }
    let (t, f) = (timing.stats(), functional.stats());
    assert_eq!(
        t.cores[0].scalar_executed, f.cores[0].scalar_executed,
        "seed {seed}: scalar instruction count diverged"
    );
    assert_eq!(
        t.cores[0].vector_compute_issued, f.cores[0].vector_compute_issued,
        "seed {seed}: vector-compute count diverged"
    );
    assert_eq!(
        t.cores[0].vector_mem_issued, f.cores[0].vector_mem_issued,
        "seed {seed}: vector-memory count diverged"
    );
    // Completed-phase records agree on everything except cycle stamps
    // (meaningless under fast-forward) and `compute_issued`: timing
    // snapshots that counter when the phase-end `<OI>` write *executes*,
    // while the decoupled vector pool may still hold unissued body
    // instructions — a time-skewed attribution functional execution has
    // no time to reproduce. The per-core totals above are exact.
    assert_eq!(t.cores[0].phases.len(), f.cores[0].phases.len(), "seed {seed}: phase count");
    for (tp, fp) in t.cores[0].phases.iter().zip(&f.cores[0].phases) {
        assert_eq!(tp.oi, fp.oi, "seed {seed}: phase <OI> diverged");
        assert_eq!(
            tp.configured_granules, fp.configured_granules,
            "seed {seed}: phase granules diverged"
        );
    }
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(700)))]

    /// The lockstep differential: run the same seed under both modes;
    /// completed runs must be architecturally identical, faulted runs
    /// must fault with the same typed error kind.
    #[test]
    fn functional_execution_matches_timing(seed in 0u64..1u64 << 48) {
        let mut timing = build_machine(seed);
        let timing_result = timing.run(BUDGET);

        let mut functional = build_machine(seed);
        functional.set_mode(SimMode::Functional).expect("fresh machine accepts the mode");
        let functional_result = functional.run(BUDGET);

        match (&timing_result, &functional_result) {
            // Watchdog stagnation and budget time-outs depend on cycle
            // accounting the functional engine does not model: the
            // run-away-loop cases are covered by `no_panic_fuzz`.
            (Ok(t), _) if t.timed_out => {}
            (Err(SimError::Watchdog { .. }), _) => {}
            (Ok(t), Ok(f)) => {
                prop_assert!(t.completed, "timing terminal state must be completed here");
                prop_assert!(
                    f.completed,
                    "seed {seed}: timing completed but functional did not \
                     (functional timed_out = {})",
                    f.timed_out
                );
                prop_assert!(f.estimated, "functional stats must be marked estimated");
                assert_architecturally_equal(&timing, &functional, seed);
            }
            (Err(te), Err(fe)) => {
                // Both faulted — the architectural guarantee. The *kinds*
                // may differ: the timing front end runs ahead of the
                // decoupled vector pool, so it latches the first fault in
                // *temporal* order (imprecise, like real decoupled
                // vector units), while the functional engine latches the
                // first in *program* order.
                let _ = (te, fe);
            }
            (Ok(_), Err(fe)) => {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}: timing completed but functional faulted: {fe:?}"
                )));
            }
            (Err(te), Ok(_)) => {
                return Err(TestCaseError::fail(format!(
                    "seed {seed}: timing faulted ({te:?}) but functional completed"
                )));
            }
        }
    }
}
