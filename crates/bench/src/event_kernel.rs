//! The idle-heavy workload for the event-driven timing kernel
//! (`Machine::step_bounded`): a serial pointer-chase-shaped loop whose
//! every iteration waits out a DRAM round trip. It is the kernel's best
//! case, where almost every cycle is provably inert and jumped in O(1).
//! The repository benchmark (`perfbench`, workload `dram-chase`) times
//! it; the tier-1 purity suite checks both kernels agree on it.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder, ScalarInst,
    VReg, VectorInst, XReg,
};
use mem_sim::Memory;
use occamy_sim::{Architecture, Machine, SimConfig};

/// The serial DRAM-latency chase: each iteration vector-loads with a
/// cache-hostile stride, reduces into a scalar register and immediately
/// consumes the result, so the core sits provably inert for most of
/// every memory round trip.
fn chase_program(iters: i64, stride_elems: i64) -> Program {
    let mut b = ProgramBuilder::new();
    // X5 carries the stride so the loop body stays position-independent.
    b.scalar(ScalarInst::MovImm { dst: XReg::X5, imm: stride_elems });
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
    b.scalar(ScalarInst::Add { dst: XReg::X3, a: XReg::X3, b: Operand::Reg(XReg::X5) });
    b.scalar(ScalarInst::Add { dst: XReg::X4, a: XReg::X4, b: Operand::Imm(-1) });
    b.scalar(ScalarInst::Bne { a: XReg::X4, b: Operand::Imm(0), target: head });
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
    b.halt();
    b.build()
}

/// Builds the chase machine: `iters` dependent DRAM round trips on a
/// single-core paper config with the given DRAM latency. Public so the
/// benchmark can time it and the tier-1 tests can assert the skip path
/// engages on a real idle-heavy workload.
///
/// # Errors
///
/// Returns a message if the machine fails to build.
pub fn chase_machine(iters: i64, stride_elems: i64, dram_latency: u64) -> Result<Machine, String> {
    let mut cfg = SimConfig::paper(1);
    cfg.mem.dram_latency = dram_latency;
    // Memory sized so the whole walk stays in bounds: iters * stride
    // f32 elements plus the vector span, rounded up to a power of two.
    let span_bytes = (iters * stride_elems * 4 + (1 << 12)) as usize;
    let mut m = Machine::new(cfg, Architecture::Occamy, Memory::new(span_bytes.next_power_of_two()))
        .map_err(|e| format!("chase machine: {e}"))?;
    m.load_program(0, chase_program(iters, stride_elems));
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUDGET: u64 = 50_000_000;

    #[test]
    fn chase_machine_is_idle_heavy_and_exact() {
        let mut reference = chase_machine(200, 128, 120).expect("builds");
        reference.set_reference_kernel(true);
        let want = reference.run(BUDGET).expect("completes");
        assert!(want.completed);

        let mut event = chase_machine(200, 128, 120).expect("builds");
        let got = event.run(BUDGET).expect("completes");
        assert_eq!(want, got, "kernels diverged on the chase workload");
        assert!(
            event.cycles_skipped() > got.cycles / 2,
            "the chase must be idle-heavy: skipped {} of {}",
            event.cycles_skipped(),
            got.cycles
        );
    }
}
