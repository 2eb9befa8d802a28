//! The scalar (CPU) core model.
//!
//! Scalar cores are deliberately simple — the paper's phenomena live in
//! the co-processor. Each core executes its program in order at up to
//! `scalar_width` instructions per cycle, with perfect branch prediction,
//! single-cycle ALU/FP operations and blocking scalar memory accesses.
//! Vector and EM-SIMD instructions are *transmitted* to the co-processor
//! once non-speculative (§4.1.1), with their scalar operands (addresses,
//! broadcast values) captured at transmission time; the ordering rules of
//! Table 2 that involve a scalar instruction are enforced here:
//!
//! * a scalar instruction reading a register with a pending co-processor
//!   writeback (a reduction or `MRS`) stalls until the writeback arrives;
//! * a scalar memory access overlapping an in-flight vector memory
//!   operation stalls until the MOB entry drains;
//! * the core blocks on `MSR`/`MRS` to dedicated registers until the
//!   EM-SIMD data path responds — except `MRS <decision>`, which is
//!   speculatively satisfied immediately (§4.1.1).

use em_simd::{EmSimdInst, InstTag, Operand, Program, RegList, ScalarInst, XReg, NUM_XREGS};
use mem_sim::Cycle;

use crate::error::SimError;

/// What a scalar core is currently blocked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Wait {
    /// Not blocked.
    #[default]
    Ready,
    /// Blocked on the EM-SIMD data path's response.
    EmAck,
}

/// A decoded scalar memory access (`Ldr`/`Str`): the effective address
/// and the register the access loads into or stores from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScalarAccess {
    pub addr: u64,
    pub reg: XReg,
    pub store: bool,
}

impl ScalarAccess {
    /// The typed fault of an access that leaves a `capacity`-byte
    /// memory image, if it does.
    pub fn bounds_fault(&self, core: usize, capacity: u64) -> Option<SimError> {
        self.addr
            .checked_add(4)
            .is_none_or(|end| end > capacity)
            .then_some(SimError::MemoryFault { core, addr: self.addr, bytes: 4, capacity })
    }
}

/// One simple in-order scalar core.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScalarCore {
    pub program: Option<Program>,
    pub pc: usize,
    pub x: [u64; NUM_XREGS],
    pub pending_x: [bool; NUM_XREGS],
    pub halted: bool,
    pub wait: Wait,
    /// Tag of the instruction the core is blocked on (for overhead
    /// attribution while `wait == Wait::EmAck`).
    pub wait_tag: InstTag,
    /// Scalar loads in flight: (completion cycle, destination register).
    /// Loads are non-blocking; dependents interlock via `pending_x`.
    pub pending_loads: Vec<(Cycle, XReg)>,
    /// Set while the OS has preempted this core (§5 context switch): the
    /// core fetches nothing until resumed.
    pub frozen: bool,
    /// Whether a fault plan's program clauses corrupted `program` (at
    /// most once; the flag travels with a preempted task).
    pub corrupted: bool,
}

impl ScalarCore {
    /// A core with no program loaded (immediately halted).
    pub fn idle() -> Self {
        ScalarCore {
            program: None,
            pc: 0,
            x: [0; NUM_XREGS],
            pending_x: [false; NUM_XREGS],
            halted: true,
            wait: Wait::Ready,
            wait_tag: InstTag::Body,
            pending_loads: Vec::new(),
            frozen: false,
            corrupted: false,
        }
    }

    /// Loads a program and resets architectural state.
    pub fn load(&mut self, program: Program) {
        *self = ScalarCore {
            program: Some(program),
            pc: 0,
            x: [0; NUM_XREGS],
            pending_x: [false; NUM_XREGS],
            halted: false,
            wait: Wait::Ready,
            wait_tag: InstTag::Body,
            pending_loads: Vec::new(),
            frozen: false,
            corrupted: false,
        };
    }

    /// Resolves an operand against the register file.
    pub fn operand(&self, op: Operand) -> i64 {
        match op {
            Operand::Reg(r) => self.x[r.index()] as i64,
            Operand::Imm(i) => i,
        }
    }

    /// The operand an EM-SIMD instruction carries to the co-processor,
    /// captured at dispatch: an `MSR`'s source value (0 for an `MRS`).
    pub fn em_operand(&self, e: EmSimdInst) -> u64 {
        match e {
            EmSimdInst::Msr { src, .. } => self.operand(src) as u64,
            EmSimdInst::Mrs { .. } => 0,
        }
    }

    /// Executes `e` at dispatch if it is the speculative `MRS <decision>`
    /// (§4.1.1): writes `decision` to its destination and steps past it.
    /// Returns whether it did.
    pub fn speculative_read(&mut self, e: EmSimdInst, decision: u64) -> bool {
        match e {
            EmSimdInst::Mrs { dst, .. } if e.is_speculative_read() => {
                self.x[dst.index()] = decision;
                self.pc += 1;
                true
            }
            _ => false,
        }
    }

    /// The low 32 bits of a register as `f32`.
    pub fn read_f32(&self, r: XReg) -> f32 {
        f32::from_bits(self.x[r.index()] as u32)
    }

    /// Writes an `f32` into a register's low bits.
    pub fn write_f32(&mut self, r: XReg, v: f32) {
        self.x[r.index()] = u64::from(v.to_bits());
    }

    /// The scalar registers an instruction reads (for pending-writeback
    /// interlocks).
    pub fn scalar_reads(inst: &ScalarInst) -> RegList<XReg> {
        // A register operand plus an optional register-or-immediate.
        fn reg_op(a: XReg, b: &Operand) -> RegList<XReg> {
            match b {
                Operand::Reg(r) => [a, *r].into(),
                Operand::Imm(_) => [a].into(),
            }
        }
        match inst {
            ScalarInst::MovImm { .. } | ScalarInst::FmovImm { .. } | ScalarInst::Nop => {
                RegList::new()
            }
            ScalarInst::Mov { src, .. } => [*src].into(),
            ScalarInst::Add { a, b, .. }
            | ScalarInst::Sub { a, b, .. }
            | ScalarInst::Mul { a, b, .. }
            | ScalarInst::Div { a, b, .. }
            | ScalarInst::Rem { a, b, .. } => reg_op(*a, b),
            ScalarInst::ShlImm { a, .. } => [*a].into(),
            ScalarInst::Fadd { a, b, .. }
            | ScalarInst::Fsub { a, b, .. }
            | ScalarInst::Fmul { a, b, .. }
            | ScalarInst::Fdiv { a, b, .. } => [*a, *b].into(),
            ScalarInst::Ldr { base, index, .. } => [*base, *index].into(),
            ScalarInst::Str { src, base, index } => [*src, *base, *index].into(),
            ScalarInst::B { .. } => RegList::new(),
            ScalarInst::Beq { a, b, .. }
            | ScalarInst::Bne { a, b, .. }
            | ScalarInst::Blt { a, b, .. }
            | ScalarInst::Bge { a, b, .. } => reg_op(*a, b),
        }
    }

    /// The scalar register an instruction writes, if any.
    pub fn scalar_write(inst: &ScalarInst) -> Option<XReg> {
        match inst {
            ScalarInst::MovImm { dst, .. }
            | ScalarInst::Mov { dst, .. }
            | ScalarInst::Add { dst, .. }
            | ScalarInst::Sub { dst, .. }
            | ScalarInst::Mul { dst, .. }
            | ScalarInst::Div { dst, .. }
            | ScalarInst::Rem { dst, .. }
            | ScalarInst::ShlImm { dst, .. }
            | ScalarInst::FmovImm { dst, .. }
            | ScalarInst::Fadd { dst, .. }
            | ScalarInst::Fsub { dst, .. }
            | ScalarInst::Fmul { dst, .. }
            | ScalarInst::Fdiv { dst, .. }
            | ScalarInst::Ldr { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Whether the instruction must wait: it reads a register with a
    /// pending writeback (RAW) or overwrites one (WAW).
    pub fn blocked_on_pending(&self, inst: &ScalarInst) -> bool {
        Self::scalar_reads(inst).iter().any(|r| self.pending_x[r.index()])
            || Self::scalar_write(inst).is_some_and(|r| self.pending_x[r.index()])
    }

    /// Decodes `inst` as a scalar memory access against the current
    /// registers; `None` for every non-memory instruction.
    pub fn mem_access(&self, inst: &ScalarInst) -> Option<ScalarAccess> {
        let (reg, base, index, store) = match *inst {
            ScalarInst::Ldr { dst, base, index } => (dst, base, index, false),
            ScalarInst::Str { src, base, index } => (src, base, index, true),
            _ => return None,
        };
        let addr = self.x[base.index()].wrapping_add(self.x[index.index()].wrapping_mul(4));
        Some(ScalarAccess { addr, reg, store })
    }

    /// The earliest in-flight scalar load: the cycle its data arrives
    /// and its index in `pending_loads` (ties go to the older load).
    pub fn next_load(&self) -> Option<(Cycle, usize)> {
        self.pending_loads.iter().enumerate().map(|(i, &(at, _))| (at, i)).min()
    }

    /// Retires the scalar loads whose data has arrived by `now`, earliest
    /// first.
    pub fn complete_scalar_loads(&mut self, now: Cycle) {
        while let Some((at, i)) = self.next_load() {
            if at > now {
                break;
            }
            let (_, reg) = self.pending_loads.remove(i);
            self.pending_x[reg.index()] = false;
        }
    }

    /// Executes a non-memory scalar instruction, updating registers and
    /// the program counter (branches resolve immediately against
    /// `program`, which the caller holds outside the core while it
    /// executes: for a cycle in the timing model, for a slice in the
    /// functional engine).
    ///
    /// # Panics
    ///
    /// Panics if called with a memory instruction.
    pub(crate) fn exec_pure_in(&mut self, inst: &ScalarInst, program: &Program) {
        let mut next = self.pc + 1;
        match inst {
            ScalarInst::MovImm { dst, imm } => self.x[dst.index()] = *imm as u64,
            ScalarInst::Mov { dst, src } => self.x[dst.index()] = self.x[src.index()],
            ScalarInst::Add { dst, a, b } => {
                self.x[dst.index()] =
                    (self.x[a.index()] as i64).wrapping_add(self.operand(*b)) as u64;
            }
            ScalarInst::Sub { dst, a, b } => {
                self.x[dst.index()] =
                    (self.x[a.index()] as i64).wrapping_sub(self.operand(*b)) as u64;
            }
            ScalarInst::Mul { dst, a, b } => {
                self.x[dst.index()] =
                    (self.x[a.index()] as i64).wrapping_mul(self.operand(*b)) as u64;
            }
            ScalarInst::Div { dst, a, b } => {
                let d = self.operand(*b);
                self.x[dst.index()] =
                    if d == 0 { 0 } else { (self.x[a.index()] as i64).wrapping_div(d) as u64 };
            }
            ScalarInst::Rem { dst, a, b } => {
                let d = self.operand(*b);
                self.x[dst.index()] = if d == 0 {
                    self.x[a.index()]
                } else {
                    (self.x[a.index()] as i64).wrapping_rem(d) as u64
                };
            }
            ScalarInst::ShlImm { dst, a, shift } => {
                self.x[dst.index()] = self.x[a.index()].wrapping_shl(u32::from(*shift));
            }
            ScalarInst::FmovImm { dst, imm } => self.write_f32(*dst, *imm),
            ScalarInst::Fadd { dst, a, b } => {
                let v = self.read_f32(*a) + self.read_f32(*b);
                self.write_f32(*dst, v);
            }
            ScalarInst::Fsub { dst, a, b } => {
                let v = self.read_f32(*a) - self.read_f32(*b);
                self.write_f32(*dst, v);
            }
            ScalarInst::Fmul { dst, a, b } => {
                let v = self.read_f32(*a) * self.read_f32(*b);
                self.write_f32(*dst, v);
            }
            ScalarInst::Fdiv { dst, a, b } => {
                let v = self.read_f32(*a) / self.read_f32(*b);
                self.write_f32(*dst, v);
            }
            ScalarInst::B { target } => next = program.resolve(*target),
            ScalarInst::Beq { a, b, target } => {
                if (self.x[a.index()] as i64) == self.operand(*b) {
                    next = program.resolve(*target);
                }
            }
            ScalarInst::Bne { a, b, target } => {
                if (self.x[a.index()] as i64) != self.operand(*b) {
                    next = program.resolve(*target);
                }
            }
            ScalarInst::Blt { a, b, target } => {
                if (self.x[a.index()] as i64) < self.operand(*b) {
                    next = program.resolve(*target);
                }
            }
            ScalarInst::Bge { a, b, target } => {
                if (self.x[a.index()] as i64) >= self.operand(*b) {
                    next = program.resolve(*target);
                }
            }
            ScalarInst::Nop => {}
            ScalarInst::Ldr { .. } | ScalarInst::Str { .. } => {
                unreachable!("memory instructions are handled by the machine")
            }
        }
        self.pc = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_simd::ProgramBuilder;

    fn core_with(insts: impl FnOnce(&mut ProgramBuilder)) -> ScalarCore {
        let mut b = ProgramBuilder::new();
        insts(&mut b);
        b.halt();
        let mut c = ScalarCore::idle();
        c.load(b.build());
        c
    }

    /// Executes `inst` against the core's own program.
    fn exec(c: &mut ScalarCore, inst: &ScalarInst) {
        let program = c.program.take().expect("program loaded");
        c.exec_pure_in(inst, &program);
        c.program = Some(program);
    }

    #[test]
    fn integer_alu_ops() {
        let mut c = core_with(|b| {
            b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 10 });
            b.scalar(ScalarInst::Add { dst: XReg::X1, a: XReg::X0, b: Operand::Imm(5) });
            b.scalar(ScalarInst::Mul { dst: XReg::X2, a: XReg::X1, b: Operand::Reg(XReg::X0) });
            b.scalar(ScalarInst::Sub { dst: XReg::X3, a: XReg::X2, b: Operand::Imm(50) });
        });
        for _ in 0..4 {
            let i = match c.program.as_ref().unwrap().fetch(c.pc) {
                em_simd::Inst::Scalar(s) => *s,
                _ => panic!(),
            };
            exec(&mut c, &i);
        }
        assert_eq!(c.x[1], 15);
        assert_eq!(c.x[2], 150);
        assert_eq!(c.x[3], 100);
    }

    #[test]
    fn float_ops_use_low_bits() {
        let mut c = core_with(|_| {});
        c.write_f32(XReg::X5, 2.5);
        c.write_f32(XReg::X6, 4.0);
        exec(&mut c, &ScalarInst::Fmul { dst: XReg::X7, a: XReg::X5, b: XReg::X6 });
        assert_eq!(c.read_f32(XReg::X7), 10.0);
    }

    #[test]
    fn division_by_zero_is_zero() {
        let mut c = core_with(|_| {});
        c.x[0] = 42;
        exec(&mut c, &ScalarInst::Div { dst: XReg::X1, a: XReg::X0, b: Operand::Imm(0) });
        assert_eq!(c.x[1], 0);
        exec(&mut c, &ScalarInst::Rem { dst: XReg::X2, a: XReg::X0, b: Operand::Imm(0) });
        assert_eq!(c.x[2], 42);
    }

    #[test]
    fn branches_resolve_against_labels() {
        let mut b = ProgramBuilder::new();
        let skip = b.fresh_label("skip");
        b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 1 });
        b.scalar(ScalarInst::Beq { a: XReg::X0, b: Operand::Imm(1), target: skip });
        b.scalar(ScalarInst::MovImm { dst: XReg::X1, imm: 99 });
        b.bind(skip);
        b.halt();
        let mut c = ScalarCore::idle();
        c.load(b.build());
        exec(&mut c, &ScalarInst::MovImm { dst: XReg::X0, imm: 1 });
        exec(&mut c, &ScalarInst::Beq { a: XReg::X0, b: Operand::Imm(1), target: skip });
        assert_eq!(c.pc, 3, "branch skipped the mov");
        assert_eq!(c.x[1], 0);
    }

    #[test]
    fn pending_interlock_detection() {
        let mut c = core_with(|_| {});
        c.pending_x[4] = true;
        let inst = ScalarInst::Add { dst: XReg::X0, a: XReg::X4, b: Operand::Imm(1) };
        assert!(c.blocked_on_pending(&inst));
        let clear = ScalarInst::Add { dst: XReg::X0, a: XReg::X5, b: Operand::Imm(1) };
        assert!(!c.blocked_on_pending(&clear));
        // Overwriting a pending register also blocks (WAW with an
        // in-flight writeback would lose the ordering).
        let write_only = ScalarInst::MovImm { dst: XReg::X4, imm: 0 };
        assert!(c.blocked_on_pending(&write_only));
        // Unrelated writes are fine.
        let other = ScalarInst::MovImm { dst: XReg::X6, imm: 0 };
        assert!(!c.blocked_on_pending(&other));
    }

    #[test]
    fn scalar_reads_cover_branch_operands() {
        let l = em_simd::Label::from_raw(0);
        let reads = ScalarCore::scalar_reads(&ScalarInst::Blt {
            a: XReg::X2,
            b: Operand::Reg(XReg::X9),
            target: l,
        });
        assert_eq!(reads, vec![XReg::X2, XReg::X9]);
    }

    #[test]
    fn idle_core_is_halted() {
        assert!(ScalarCore::idle().halted);
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(Wait {
    0 => Ready,
    1 => EmAck,
});

statecodec::impl_codec!(ScalarCore {
    program,
    pc,
    x,
    pending_x,
    halted,
    wait,
    wait_tag,
    pending_loads,
    frozen,
    corrupted,
});
