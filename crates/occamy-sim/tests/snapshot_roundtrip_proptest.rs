//! Property: a mid-run [`MachineSnapshot`] survives the full binary
//! round trip — encode, decode, re-encode is byte-identical, and a
//! machine restored from the decoded snapshot finishes the run with
//! bit-identical outputs and the exact cycle count of an undisturbed
//! run. Exercised over all four architectures (temporal sharing
//! arbitrates shared issue slots, so the rebuilt scheduling state must
//! resume exactly there too), arbitrary kernel shapes, trip counts, data
//! seeds, and snapshot points (including cycle 0 and past completion).

use em_simd::VectorLength;
use mem_sim::Memory;
use occamy_compiler::{ArrayLayout, CodeGenOptions, Compiler, Expr, Kernel, VlMode};
use occamy_sim::{snapshot_from_bytes, snapshot_to_bytes, Architecture, Machine, SimConfig};
use proptest::prelude::*;

/// A small family of kernels covering element-wise chains, `abs`, a
/// second input stream, and running reductions.
fn victim_kernel(shape: u8) -> Kernel {
    match shape % 4 {
        0 => Kernel::new("k")
            .assign("y", Expr::load("x") * Expr::constant(1.5) + Expr::constant(0.25)),
        1 => Kernel::new("k").assign("y", (Expr::load("x") - Expr::constant(0.5)).abs()),
        2 => Kernel::new("k")
            .assign("y", Expr::load("x") + Expr::load("b"))
            .reduce_add("s", Expr::load("x")),
        _ => Kernel::new("k")
            .assign("y", (Expr::load("x") * Expr::load("b")).abs())
            .reduce_add("s", Expr::load("b") - Expr::constant(0.25)),
    }
}

fn corunner_kernel() -> Kernel {
    Kernel::new("corunner").assign("c", Expr::load("a") + Expr::load("b"))
}

/// The four architectures of Fig. 1 on the two-core machine.
fn architecture(pick: u8) -> Architecture {
    match pick % 4 {
        0 => Architecture::Private,
        1 => Architecture::TemporalSharing,
        2 => Architecture::StaticSpatialSharing { partition: vec![3, 5] },
        _ => Architecture::Occamy,
    }
}

fn build(arch: &Architecture, shape: u8, trip: usize, seed: u64) -> (Machine, u64) {
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let mut layout0 = ArrayLayout::new();
    let mut layout1 = ArrayLayout::new();
    let mut y_addr = 0;
    for (kernel, layout, core) in
        [(victim_kernel(shape), &mut layout0, 0u64), (corunner_kernel(), &mut layout1, 1)]
    {
        for name in kernel.base_arrays() {
            let addr = mem.alloc_f32(trip as u64);
            for i in 0..trip as u64 {
                let v = ((i * 37 + 13 + seed * 101 + core) % 251) as f32 / 251.0 - 0.5;
                mem.write_f32(addr + 4 * i, v);
            }
            if core == 0 && name == "y" {
                y_addr = addr;
            }
            layout.bind(name, addr);
        }
    }
    // Elastic code on Occamy, fixed-length code on the baselines.
    let compiler = |core| {
        let mode = arch
            .fixed_vl(core, &cfg)
            .map_or(VlMode::Elastic { default: VectorLength::new(2) }, VlMode::Fixed);
        Compiler::new(CodeGenOptions { mode, ..CodeGenOptions::default() })
    };
    let p0 =
        compiler(0).compile(&[(victim_kernel(shape), trip)], &layout0).expect("compile victim");
    let p1 = compiler(1).compile(&[(corunner_kernel(), trip)], &layout1).expect("compile corunner");
    let mut m = Machine::new(cfg, arch.clone(), mem).expect("machine builds");
    m.load_program(0, p0);
    m.load_program(1, p1);
    (m, y_addr)
}

fn outputs(m: &Machine, y: u64, trip: usize) -> Vec<u32> {
    (0..trip as u64).map(|i| m.memory().read_f32(y + 4 * i).to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_roundtrip_is_byte_identical_and_replays_exactly(
        arch in 0u8..4,
        shape in 0u8..4,
        seed in 0u64..32,
        trip in 256usize..1024,
        pre in 0u64..60_000,
    ) {
        // The undisturbed reference run.
        let arch = architecture(arch);
        let (mut golden, y) = build(&arch, shape, trip, seed);
        let stats = golden.run(40_000_000).expect("simulation fault");
        prop_assert!(stats.completed);
        let want = outputs(&golden, y, trip);
        let want_cycles = stats.cycles;

        // Run to an arbitrary point (possibly 0, possibly past the
        // end — `run` treats the budget as an absolute deadline), then
        // snapshot through the binary codec.
        let (mut m, _) = build(&arch, shape, trip, seed);
        let _ = m.run(pre).expect("pre-run fault");
        let bytes = snapshot_to_bytes(&m.snapshot()).expect("plain machine must snapshot");
        let decoded = snapshot_from_bytes(&bytes).expect("round trip decodes");

        // Re-encoding the decoded snapshot must reproduce the bytes.
        let reencoded = snapshot_to_bytes(&decoded).expect("decoded snapshot re-encodes");
        prop_assert_eq!(&bytes, &reencoded, "re-encode must be byte-identical");

        // Restoring into an unrelated machine and finishing the run
        // must be indistinguishable from never having stopped.
        let mut resumed =
            Machine::new(SimConfig::paper_2core(), Architecture::Occamy, Memory::new(1 << 16))
                .expect("fresh machine");
        resumed.restore_snapshot(&decoded);
        let stats = resumed.run(40_000_000).expect("resumed run fault");
        prop_assert!(stats.completed);
        prop_assert_eq!(stats.cycles, want_cycles, "cycle count must replay exactly");
        prop_assert_eq!(outputs(&resumed, y, trip), want, "outputs must be bit-identical");
    }
}
