//! No-panic / no-hang fuzz suite.
//!
//! The simulator's contract on untrusted input (arbitrary programs,
//! configurations, and fault plans) is: [`Machine::run`] returns either
//! `Ok(stats)` or a typed [`SimError`] — it never panics, and it never
//! runs past `min(max_cycles, watchdog-bounded stagnation)`.
//!
//! Programs here are *structurally valid* (every label bound once, built
//! through [`ProgramBuilder`]) but semantically arbitrary: wild
//! addresses, `<VL>` = 0 vector work, back-branches that never halt,
//! missing `HALT`s, and the bit-flipped/truncated variants a
//! [`FaultPlan`]'s program clauses make of them. Run with `PROPTEST_CASES=<n>` to
//! scale the campaign; the default exceeds the 1,000-case acceptance
//! bar across the properties below.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, PReg, Program, ProgramBuilder,
    ScalarInst, VBinOp, VCmpOp, VReg, VUnOp, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{Architecture, FaultPlan, Machine, SimConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Memory capacity of every fuzzed machine (small, so wild addresses
/// routinely land out of bounds and exercise `SimError::MemoryFault`).
const MEM_BYTES: usize = 1 << 16;
/// Cycle budget per case; the watchdog is set well below it.
const BUDGET: u64 = 20_000;
const WATCHDOG: u64 = 2_000;

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

/// A structurally valid but semantically arbitrary program: every label
/// is bound exactly once, but control flow, addresses, `<OI>`/`<VL>`
/// values and data flow are random.
fn arbitrary_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();

    // Sometimes a well-formed preamble, so vector work actually runs on
    // acquired lanes instead of faulting immediately on `<VL>` = 0.
    if rng.gen_bool(0.7) {
        b.em_simd(EmSimdInst::Msr {
            reg: DedicatedReg::Oi,
            src: Operand::Imm(OperationalIntensity::uniform(rng.gen_range(0.01..64.0)).to_bits() as i64),
        });
        b.em_simd(EmSimdInst::Msr {
            reg: DedicatedReg::Vl,
            src: Operand::Imm(rng.gen_range(0..12)),
        });
    }
    // Seed a few registers with plausible addresses and small integers.
    for r in 0..4 {
        let imm = if rng.gen_bool(0.5) {
            rng.gen_range(0..MEM_BYTES as i64)
        } else {
            rng.gen_range(-64..64)
        };
        b.scalar(ScalarInst::MovImm { dst: XReg::from_index(r), imm });
    }

    let len = rng.gen_range(0..32);
    let n_labels = rng.gen_range(0..3usize);
    let mut labels: Vec<_> = (0..n_labels).map(|i| b.fresh_label(&format!("l{i}"))).collect();
    for _ in 0..len {
        // Bind a pending label here with some probability.
        if !labels.is_empty() && rng.gen_bool(0.3) {
            b.bind(labels.swap_remove(rng.gen_range(0..labels.len())));
        }
        match rng.gen_range(0..14) {
            0 => {
                b.scalar(ScalarInst::MovImm { dst: xreg(&mut rng), imm: rng.gen_range(-4096..4096) });
            }
            1 => {
                b.scalar(ScalarInst::Add { dst: xreg(&mut rng), a: xreg(&mut rng), b: operand(&mut rng) });
            }
            2 => {
                b.scalar(ScalarInst::Mul { dst: xreg(&mut rng), a: xreg(&mut rng), b: operand(&mut rng) });
            }
            3 => {
                b.scalar(ScalarInst::Ldr { dst: xreg(&mut rng), base: xreg(&mut rng), index: xreg(&mut rng) });
            }
            4 => {
                b.scalar(ScalarInst::Str { src: xreg(&mut rng), base: xreg(&mut rng), index: xreg(&mut rng) });
            }
            5 => {
                // Forward-only conditional branches keep most cases
                // terminating; run-away loops are cut by the budget.
                if let Some(&target) = labels.first() {
                    b.scalar(ScalarInst::Bne { a: xreg(&mut rng), b: operand(&mut rng), target });
                }
            }
            6 => {
                b.em_simd(EmSimdInst::Msr {
                    reg: [DedicatedReg::Oi, DedicatedReg::Vl, DedicatedReg::Status][rng.gen_range(0..3usize)],
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
                b.vector(VectorInst::Load { dst: vreg(&mut rng), base: xreg(&mut rng), index: xreg(&mut rng) });
            }
            9 => {
                b.vector(VectorInst::Store { src: vreg(&mut rng), base: xreg(&mut rng), index: xreg(&mut rng) });
            }
            10 => {
                let op = [VBinOp::Fadd, VBinOp::Fsub, VBinOp::Fmul, VBinOp::Fdiv, VBinOp::Fmax][rng.gen_range(0..5usize)];
                b.vector(VectorInst::Binary { op, dst: vreg(&mut rng), a: vreg(&mut rng), b: vreg(&mut rng) });
            }
            11 => {
                let op = [VUnOp::Fneg, VUnOp::Fabs, VUnOp::Fsqrt][rng.gen_range(0..3usize)];
                b.vector(VectorInst::Unary { op, dst: vreg(&mut rng), src: vreg(&mut rng) });
            }
            12 => match rng.gen_range(0..4) {
                0 => {
                    b.vector(VectorInst::DupImm { dst: vreg(&mut rng), imm: rng.gen_range(-8.0..8.0) });
                }
                1 => {
                    b.vector(VectorInst::Dup { dst: vreg(&mut rng), src: xreg(&mut rng) });
                }
                2 => {
                    b.vector(VectorInst::Fma { dst: vreg(&mut rng), a: vreg(&mut rng), b: vreg(&mut rng) });
                }
                _ => {
                    b.vector(VectorInst::ReduceAdd { dst: xreg(&mut rng), src: vreg(&mut rng) });
                }
            },
            _ => match rng.gen_range(0..3) {
                0 => {
                    b.vector(VectorInst::Whilelo { dst: preg(&mut rng), a: xreg(&mut rng), b: xreg(&mut rng) });
                }
                1 => {
                    let op = [VCmpOp::Gt, VCmpOp::Le, VCmpOp::Ne][rng.gen_range(0..3usize)];
                    b.vector(VectorInst::Fcm { op, dst: preg(&mut rng), a: vreg(&mut rng), b: vreg(&mut rng) });
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
    // Bind any labels still pending (branch targets at program end).
    for label in labels {
        b.bind(label);
    }
    // Occasionally omit the HALT: the PC runs off the end, which must
    // surface as SimError::Decode, not a panic.
    if rng.gen_bool(0.9) {
        b.halt();
    }
    b.build()
}

fn arbitrary_plan(seed: u64) -> FaultPlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xfa17_1a60);
    let rate = |rng: &mut StdRng| [0.0, 0.01, 0.1, 0.5][rng.gen_range(0..4usize)];
    FaultPlan {
        seed,
        oi_corrupt_rate: rate(&mut rng),
        decision_perturb_rate: rate(&mut rng),
        mem_spike_rate: rate(&mut rng),
        mem_spike_cycles: rng.gen_range(0..2_000),
        program_truncate_rate: rate(&mut rng),
        program_bitflip_rate: rate(&mut rng),
        lane_transient_rate: [0.0, 0.001, 0.05][rng.gen_range(0..3usize)],
        permanent_lane: if rng.gen_bool(0.25) { Some(rng.gen_range(0..10usize)) } else { None },
        permanent_lane_from: rng.gen_range(0..5_000),
    }
}

/// Accepted terminal outcomes: completion, a clean time-out within the
/// budget, or a typed error. Anything else (panic, overrun) fails.
fn run_bounded(m: &mut Machine) {
    match m.run(BUDGET) {
        Ok(stats) => assert!(stats.completed || stats.timed_out),
        Err(e) => {
            // A typed fault latches: re-stepping reports the same kind.
            let again = m.step().expect_err("fault must stay latched");
            assert_eq!(again.kind(), e.kind());
        }
    }
    assert!(m.cycle() <= BUDGET, "ran past the cycle budget: {}", m.cycle());
}

fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(600)))]

    /// Arbitrary programs on the pristine machine: `run` terminates with
    /// `Ok` or a typed `SimError`, within the bound, on every architecture.
    #[test]
    fn arbitrary_programs_never_panic_or_hang(seed in 0u64..1u64 << 48, arch_pick in 0usize..4) {
        let arch = match arch_pick {
            0 => Architecture::Private,
            1 => Architecture::TemporalSharing,
            2 => Architecture::StaticSpatialSharing { partition: vec![3, 5] },
            _ => Architecture::Occamy,
        };
        let mut m = Machine::new(SimConfig::paper_2core(), arch, Memory::new(MEM_BYTES))
            .expect("paper config is valid");
        m.set_watchdog(WATCHDOG);
        m.load_program(0, arbitrary_program(seed));
        m.load_program(1, arbitrary_program(seed.wrapping_add(1)));
        run_bounded(&mut m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(300)))]

    /// The same guarantee with a fault plan active: runtime injection plus
    /// pre-run program corruption never escalate to a panic or a hang.
    #[test]
    fn fault_injection_never_panics_or_hangs(seed in 0u64..1u64 << 48) {
        let plan = arbitrary_plan(seed);
        let mut m = Machine::new(
            SimConfig::paper_2core(),
            Architecture::Occamy,
            Memory::new(MEM_BYTES),
        )
        .expect("paper config is valid");
        m.set_watchdog(WATCHDOG);
        for core in 0..2 {
            m.load_program(core as usize, arbitrary_program(seed.wrapping_add(core)));
        }
        m.set_fault_plan(&plan);
        run_bounded(&mut m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(200)))]

    /// Arbitrary configuration perturbations either validate cleanly or
    /// are rejected by `Machine::new` as a typed `ConfigError` — and the
    /// machines that do build still honour the no-panic/no-hang bound.
    #[test]
    fn perturbed_configs_are_rejected_or_simulable(seed in 0u64..1u64 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cfg = SimConfig::paper_2core();
        for _ in 0..rng.gen_range(0..3) {
            match rng.gen_range(0..6) {
                0 => cfg.total_granules = rng.gen_range(0..20),
                1 => cfg.rob_entries = rng.gen_range(0..8),
                2 => cfg.pool_entries = rng.gen_range(0..4),
                3 => cfg.lsu_entries = rng.gen_range(0..4),
                4 => cfg.vregs_per_block = rng.gen_range(0..80),
                _ => cfg.transmit_width = rng.gen_range(0..4),
            }
        }
        match Machine::new(cfg, Architecture::Occamy, Memory::new(MEM_BYTES)) {
            Err(e) => {
                // Typed rejection with a non-empty diagnostic.
                prop_assert!(!e.to_string().is_empty());
            }
            Ok(mut m) => {
                m.set_watchdog(WATCHDOG);
                m.load_program(0, arbitrary_program(seed));
                run_bounded(&mut m);
            }
        }
    }
}
