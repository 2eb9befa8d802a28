//! Property: OS context switches (§5) are *transparent* — preempting a
//! core at any cycle, running the co-runner for a while, and resuming
//! produces the same results as an undisturbed run, for any number of
//! switch points (bit-identical element-wise; numerically identical for
//! reductions, whose association legitimately depends on the VL
//! schedule). This exercises the save/restore path for all five
//! dedicated registers plus the vector and predicate state, and the
//! lane manager's release/re-acquire cycle.

use occamy_compiler::{ArrayLayout, CodeGenOptions, Compiler, Expr, Kernel, VlMode};
use em_simd::VectorLength;
use mem_sim::Memory;
use occamy_sim::{Architecture, Machine, SimConfig};
use proptest::prelude::*;

const N: usize = 1536;
const HALO: u64 = 16;

/// A kernel that holds state in loop-invariant broadcasts and a running
/// reduction — the state most easily corrupted by a context switch.
fn victim_kernel() -> Kernel {
    Kernel::new("victim")
        .assign(
            "y",
            (Expr::load("x") * Expr::constant(1.5) + Expr::constant(0.25)).abs(),
        )
        .reduce_add("s", Expr::load("x") - Expr::constant(0.5))
}

fn corunner_kernel() -> Kernel {
    Kernel::new("corunner").assign("c", Expr::load("a") + Expr::load("b"))
}

fn build(seeded: u64) -> (Machine, u64, u64) {
    let mut mem = Memory::new(1 << 20);
    let mut layout0 = ArrayLayout::new();
    let mut layout1 = ArrayLayout::new();
    let mut y_addr = 0;
    let mut s_addr = 0;
    for (kernel, layout, core) in
        [(victim_kernel(), &mut layout0, 0usize), (corunner_kernel(), &mut layout1, 1)]
    {
        for name in kernel.base_arrays() {
            let addr = mem.alloc_f32(N as u64 + 2 * HALO) + 4 * HALO;
            for i in 0..N as u64 + 2 * HALO {
                let v = ((i * 37 + 13 + seeded * 101 + core as u64) % 251) as f32 / 251.0 - 0.5;
                mem.write_f32(addr - 4 * HALO + 4 * i, v);
            }
            if name == "y" {
                y_addr = addr;
            }
            if name == "s" {
                s_addr = addr;
            }
            layout.bind(name, addr);
        }
    }
    let compiler = Compiler::new(CodeGenOptions {
        mode: VlMode::Elastic { default: VectorLength::new(2) },
        ..CodeGenOptions::default()
    });
    let p0 = compiler.compile(&[(victim_kernel(), N)], &layout0).expect("compile victim");
    let p1 = compiler.compile(&[(corunner_kernel(), N)], &layout1).expect("compile corunner");
    let mut m = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).unwrap();
    m.load_program(0, p0);
    m.load_program(1, p1);
    (m, y_addr, s_addr)
}

fn outputs(m: &Machine, y: u64, s: u64) -> (Vec<u32>, f32) {
    let ys = (0..N as u64).map(|i| m.memory().read_f32(y + 4 * i).to_bits()).collect();
    (ys, m.memory().read_f32(s))
}

/// Element-wise outputs must match bit-for-bit. The reduction is only
/// required to be *numerically* equal: preemption shifts when the
/// elastic monitor changes VL, which re-associates the partial sums —
/// a legitimate reordering, not corruption.
fn assert_transparent(got: (Vec<u32>, f32), want: &(Vec<u32>, f32)) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.0, &want.0, "element-wise outputs must be bit-identical");
    let (a, b) = (got.1, want.1);
    prop_assert!(
        (a - b).abs() <= 1e-4 * b.abs().max(1.0),
        "reduction diverged: {a} vs {b}"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One preemption at an arbitrary cycle, an arbitrary switched-out
    /// dwell, then resume: results match the undisturbed run of the
    /// same machine.
    #[test]
    fn single_preemption_is_transparent(
        seed in 0u64..64,
        preempt_at in 50usize..4_000,
        dwell in 0usize..3_000,
    ) {
        let (mut golden, y, s) = build(seed);
        let stats = golden.run(20_000_000).expect("simulation fault");
        prop_assert!(stats.completed);
        let want = outputs(&golden, y, s);

        let (mut m, y, s) = build(seed);
        for _ in 0..preempt_at {
            m.step().expect("simulation fault");
        }
        let task = m.preempt(0, 100_000).expect("preempt drains in budget");
        prop_assert!(m.vl(0).is_zero(), "lanes released on switch-out");
        for _ in 0..dwell {
            m.step().expect("simulation fault");
        }
        m.resume(0, task, 100_000).expect("resume re-acquires lanes");
        let stats = m.run(20_000_000).expect("simulation fault");
        prop_assert!(stats.completed);
        assert_transparent(outputs(&m, y, s), &want)?;
    }

    /// A storm of back-to-back preemptions at random points: still
    /// transparent.
    #[test]
    fn repeated_preemption_is_transparent(
        seed in 0u64..64,
        gaps in proptest::collection::vec(30usize..1_200, 1..6),
    ) {
        let (mut golden, y, s) = build(seed);
        prop_assert!(golden.run(20_000_000).expect("simulation fault").completed);
        let want = outputs(&golden, y, s);

        let (mut m, y, s) = build(seed);
        for gap in gaps {
            if m.done() {
                break;
            }
            for _ in 0..gap {
                m.step().expect("simulation fault");
            }
            // `preempt` requires a live program on the core; a finished
            // core is preempted trivially.
            let task = m.preempt(0, 100_000).expect("preempt drains in budget");
            for _ in 0..gap / 2 {
                m.step().expect("simulation fault");
            }
            m.resume(0, task, 100_000).expect("resume re-acquires lanes");
        }
        let stats = m.run(20_000_000).expect("simulation fault");
        prop_assert!(stats.completed);
        assert_transparent(outputs(&m, y, s), &want)?;
    }
}
