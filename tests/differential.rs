//! Real-kernel lockstep differential: compiled Table-3 kernels executed
//! to completion under the timing model and under functional
//! fast-forward must leave *bit-identical* architectural outcomes.
//!
//! The crate-level suite (`crates/occamy-sim/tests/differential.rs`)
//! covers arbitrary hand-built programs, including fault paths; this
//! workspace suite closes the loop at the other end of the stack: the
//! code the Occamy *compiler* actually emits — elastic acquire loops,
//! predicated remainders, reductions, multi-phase `<OI>` bracketing —
//! run on every sharing architecture. The differential contract is
//! machine-vs-machine (memory image, issue counters, phase records),
//! not machine-vs-reference: semantic correctness against a scalar
//! reference is `tests/table3_functional.rs`'s job.

use occamy::bench_workloads::table3;
use occamy::prelude::*;
use occamy::sim::SimMode;
use proptest::prelude::*;

/// The four sharing architectures with a compatible code shape each,
/// mirroring `tests/compile_and_run.rs`.
fn arch_mode(pick: usize) -> (Architecture, VlMode) {
    match pick {
        0 => (Architecture::Private, VlMode::Fixed(VectorLength::new(3))),
        1 => (Architecture::TemporalSharing, VlMode::Fixed(VectorLength::new(8))),
        2 => (
            Architecture::StaticSpatialSharing { partition: vec![3, 5] },
            VlMode::Fixed(VectorLength::new(3)),
        ),
        _ => (Architecture::Occamy, VlMode::Elastic { default: VectorLength::new(2) }),
    }
}

/// Compiles `name` for `n` elements and builds one machine per mode on
/// identical seeded memory images.
fn build_pair(name: &str, mode: VlMode, arch: &Architecture, n: usize, seed: u64) -> (Machine, Machine) {
    let kernel = table3::kernel(name);
    let mut mem = Memory::new(4 << 20);
    let mut layout = ArrayLayout::new();
    let mut state = seed | 1;
    for array in kernel.arrays() {
        let addr = mem.alloc_f32(n as u64);
        for i in 0..n {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let v = 0.25 + (state >> 40) as f32 / (1u64 << 25) as f32;
            mem.write_f32(addr + 4 * i as u64, v);
        }
        layout.bind(array, addr);
    }
    let program = Compiler::new(CodeGenOptions { mode, min_vec_trip: 16, ..CodeGenOptions::default() })
        .compile(&[(kernel, n)], &layout)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut timing = Machine::new(SimConfig::paper_2core(), arch.clone(), mem).expect("machine");
    timing.load_program(0, program);
    let fast = timing.clone();
    (timing, fast)
}

/// Full-state comparison after both machines completed: the memory
/// image bit for bit, the architectural issue counters, and the
/// completed-phase record (operational intensity and granules; per-phase
/// `compute_issued` is excluded — timing snapshots it when the phase-end
/// `<OI>` write executes, while the decoupled vector pool may still hold
/// unissued body instructions, a time-skewed attribution functional
/// execution cannot reproduce. The per-core totals are exact).
fn assert_outcomes_match(
    timing: &Machine,
    fast: &Machine,
    t: &MachineStats,
    f: &MachineStats,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        timing.memory() == fast.memory(),
        "{label}: memory image diverged between timing and fast execution"
    );
    let (tc, fc) = (&t.cores[0], &f.cores[0]);
    prop_assert_eq!(tc.scalar_executed, fc.scalar_executed, "{}: scalar count", label);
    prop_assert_eq!(tc.vector_compute_issued, fc.vector_compute_issued, "{}: vector compute", label);
    prop_assert_eq!(tc.vector_mem_issued, fc.vector_mem_issued, "{}: vector mem", label);
    prop_assert_eq!(tc.phases.len(), fc.phases.len(), "{}: phase count", label);
    for (i, (tp, fp)) in tc.phases.iter().zip(&fc.phases).enumerate() {
        prop_assert_eq!(tp.oi, fp.oi, "{}: phase {} OI", label, i);
        prop_assert_eq!(
            tp.configured_granules,
            fp.configured_granules,
            "{}: phase {} granules",
            label,
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 140, ..ProptestConfig::default() })]

    /// Compiled kernels finish with identical architectural outcomes
    /// under pure functional execution, on every architecture.
    #[test]
    fn compiled_kernels_match_timing_under_functional_execution(
        kernel_pick in 0usize..25,
        arch_pick in 0usize..4,
        n in 17usize..400,
        seed in any::<u64>(),
    ) {
        let names = table3::kernel_names();
        let name = names[kernel_pick % names.len()];
        let (mode, arch) = {
            let (a, m) = arch_mode(arch_pick);
            (m, a)
        };
        let label = format!("{name} n={n} on {arch}");
        let (mut timing, mut fast) = build_pair(name, mode, &arch, n, seed);

        let t = timing.run(50_000_000).expect("timing fault");
        prop_assert!(t.completed, "{}: timing run timed out", label);
        fast.set_mode(SimMode::Functional).expect("fresh machine");
        let f = fast.run(50_000_000).expect("functional fault");
        prop_assert!(f.completed, "{}: functional run timed out", label);
        prop_assert!(f.estimated, "{}: functional cycles must be marked estimated", label);
        prop_assert!(!t.estimated, "{}: timing cycles must stay exact", label);
        assert_outcomes_match(&timing, &fast, &t, &f, &label)?;
    }
}
