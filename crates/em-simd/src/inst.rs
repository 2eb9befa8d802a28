//! Instruction definitions for the three EM-SIMD instruction families.

use std::fmt;

use crate::dedicated::DedicatedReg;
use crate::program::Label;
use crate::reglist::RegList;
use crate::regs::{PReg, VReg, XReg};

/// A scalar operand: either a register or an immediate.
///
/// # Examples
///
/// ```
/// use em_simd::{Operand, XReg};
///
/// assert_eq!(Operand::Imm(3).to_string(), "#3");
/// assert_eq!(Operand::Reg(XReg::X5).to_string(), "x5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A scalar register operand.
    Reg(XReg),
    /// An immediate operand.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "#{i}"),
        }
    }
}

/// A scalar instruction, executed entirely in the scalar core pipeline.
///
/// Scalar floating-point operations interpret the low 32 bits of their
/// operand registers as `f32`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarInst {
    /// `dst = imm`.
    MovImm { dst: XReg, imm: i64 },
    /// `dst = src`.
    Mov { dst: XReg, src: XReg },
    /// `dst = a + b` (integer).
    Add { dst: XReg, a: XReg, b: Operand },
    /// `dst = a - b` (integer).
    Sub { dst: XReg, a: XReg, b: Operand },
    /// `dst = a * b` (integer).
    Mul { dst: XReg, a: XReg, b: Operand },
    /// `dst = a / b` (integer; division by zero yields zero, like ARM `UDIV`).
    Div { dst: XReg, a: XReg, b: Operand },
    /// `dst = a % b` (integer; modulo by zero yields `a`).
    Rem { dst: XReg, a: XReg, b: Operand },
    /// `dst = a << shift`.
    ShlImm { dst: XReg, a: XReg, shift: u8 },
    /// `dst = f32(imm)` stored in the low bits.
    FmovImm { dst: XReg, imm: f32 },
    /// `dst = a + b` (f32).
    Fadd { dst: XReg, a: XReg, b: XReg },
    /// `dst = a - b` (f32).
    Fsub { dst: XReg, a: XReg, b: XReg },
    /// `dst = a * b` (f32).
    Fmul { dst: XReg, a: XReg, b: XReg },
    /// `dst = a / b` (f32).
    Fdiv { dst: XReg, a: XReg, b: XReg },
    /// Scalar 32-bit load: `dst = mem[base + index*4]` (f32/u32 bits).
    Ldr { dst: XReg, base: XReg, index: XReg },
    /// Scalar 32-bit store: `mem[base + index*4] = src`.
    Str { src: XReg, base: XReg, index: XReg },
    /// Unconditional branch.
    B { target: Label },
    /// Branch if `a == b`.
    Beq { a: XReg, b: Operand, target: Label },
    /// Branch if `a != b`.
    Bne { a: XReg, b: Operand, target: Label },
    /// Branch if `a < b` (signed).
    Blt { a: XReg, b: Operand, target: Label },
    /// Branch if `a >= b` (signed).
    Bge { a: XReg, b: Operand, target: Label },
    /// No operation.
    Nop,
}

impl ScalarInst {
    /// The branch target, if this is a control-flow instruction.
    pub fn branch_target(&self) -> Option<Label> {
        match self {
            ScalarInst::B { target }
            | ScalarInst::Beq { target, .. }
            | ScalarInst::Bne { target, .. }
            | ScalarInst::Blt { target, .. }
            | ScalarInst::Bge { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// Whether this instruction is a memory access.
    pub fn is_mem(&self) -> bool {
        matches!(self, ScalarInst::Ldr { .. } | ScalarInst::Str { .. })
    }
}

/// A unary vector arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VUnOp {
    /// Lane-wise negation.
    Fneg,
    /// Lane-wise absolute value.
    Fabs,
    /// Lane-wise square root.
    Fsqrt,
}

/// A lane-wise floating-point comparison (SVE `FCMxx`), producing a
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VCmpOp {
    /// `a > b`.
    Gt,
    /// `a >= b`.
    Ge,
    /// `a == b`.
    Eq,
    /// `a != b`.
    Ne,
    /// `a < b`.
    Lt,
    /// `a <= b`.
    Le,
}

impl VCmpOp {
    /// Evaluates the comparison for one lane.
    pub fn eval(self, a: f32, b: f32) -> bool {
        match self {
            VCmpOp::Gt => a > b,
            VCmpOp::Ge => a >= b,
            VCmpOp::Eq => a == b,
            VCmpOp::Ne => a != b,
            VCmpOp::Lt => a < b,
            VCmpOp::Le => a <= b,
        }
    }
}

/// A binary vector arithmetic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VBinOp {
    /// Lane-wise addition.
    Fadd,
    /// Lane-wise subtraction.
    Fsub,
    /// Lane-wise multiplication.
    Fmul,
    /// Lane-wise division.
    Fdiv,
    /// Lane-wise maximum.
    Fmax,
    /// Lane-wise minimum.
    Fmin,
}

/// A vector (SVE-like) instruction, transmitted to the SIMD co-processor.
///
/// All vector instructions are vector-length agnostic: they operate on
/// however many granules the issuing core's `<VL>` is configured to at the
/// time the instruction executes (§4.2.2).
///
/// Memory accesses are contiguous over 32-bit elements:
/// `address = x[base] + x[index] * 4`.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorInst {
    /// Lane-wise unary compute: `dst[i] = op(src[i])`.
    Unary { op: VUnOp, dst: VReg, src: VReg },
    /// Lane-wise binary compute: `dst[i] = op(a[i], b[i])`.
    Binary { op: VBinOp, dst: VReg, a: VReg, b: VReg },
    /// Fused multiply-add: `dst[i] += a[i] * b[i]` (SVE `FMLA`).
    Fma { dst: VReg, a: VReg, b: VReg },
    /// Broadcast an immediate to all lanes: `dst[i] = imm`.
    DupImm { dst: VReg, imm: f32 },
    /// Broadcast a scalar register (low 32 bits as f32): `dst[i] = f32(src)`.
    Dup { dst: VReg, src: XReg },
    /// Horizontal reduction: `dst = Σ src[i]` over the configured lanes,
    /// written to a scalar register as f32 bits (SVE `FADDV`).
    ReduceAdd { dst: XReg, src: VReg },
    /// Contiguous vector load of `lanes` f32 elements (SVE `LD1W`).
    Load { dst: VReg, base: XReg, index: XReg },
    /// Contiguous vector store of `lanes` f32 elements (SVE `ST1W`).
    Store { src: VReg, base: XReg, index: XReg },
    /// Computes a loop-boundary predicate (SVE `WHILELO`): lane `i` is
    /// active iff `x[a] + i < x[b]`.
    Whilelo { dst: PReg, a: XReg, b: XReg },
    /// Lane-wise comparison into a predicate (SVE `FCMxx`):
    /// `dst[i] = op(a[i], b[i])`.
    Fcm { op: VCmpOp, dst: PReg, a: VReg, b: VReg },
    /// Lane select (SVE `SEL`): `dst[i] = sel[i] ? a[i] : b[i]`.
    Sel { dst: VReg, sel: PReg, a: VReg, b: VReg },
    /// A governed instruction: inactive lanes keep the destination's
    /// prior value (compute, merging `/m`), load zero (loads — SVE `LD1`
    /// is zeroing), are not written (stores) or not accumulated
    /// (reductions).
    Predicated {
        /// The governing predicate.
        pred: PReg,
        /// The governed instruction (never itself predicated).
        inst: Box<VectorInst>,
    },
}

impl VectorInst {
    /// Wraps the instruction under a governing predicate.
    ///
    /// # Panics
    ///
    /// Panics when applied to an already-predicated instruction, a
    /// `Whilelo` (predicates are computed unconditionally) or a
    /// broadcast (SVE `DUP` is unpredicated).
    #[must_use]
    pub fn predicated(self, pred: PReg) -> VectorInst {
        assert!(
            self.can_be_predicated(),
            "instruction cannot be predicated: {self}"
        );
        VectorInst::Predicated { pred, inst: Box::new(self) }
    }

    /// Whether [`predicated`](Self::predicated) accepts this instruction.
    pub fn can_be_predicated(&self) -> bool {
        !matches!(
            self,
            VectorInst::Predicated { .. }
                | VectorInst::Whilelo { .. }
                | VectorInst::Fcm { .. }
                | VectorInst::Sel { .. }
                | VectorInst::Dup { .. }
                | VectorInst::DupImm { .. }
        )
    }

    /// The governing predicate, if the instruction is predicated.
    pub fn governing_pred(&self) -> Option<PReg> {
        match self {
            VectorInst::Predicated { pred, .. } => Some(*pred),
            _ => None,
        }
    }

    /// The predicate register written, if any (`Whilelo`, `Fcm`).
    pub fn pred_dst(&self) -> Option<PReg> {
        match self {
            VectorInst::Whilelo { dst, .. } | VectorInst::Fcm { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The predicate registers read as *data* (`Sel`'s selector; the
    /// governing predicate of a predicated instruction is reported by
    /// [`governing_pred`](Self::governing_pred) instead).
    pub fn pred_srcs(&self) -> RegList<PReg> {
        match self.inner() {
            VectorInst::Sel { sel, .. } => [*sel].into(),
            _ => RegList::new(),
        }
    }

    /// The governed instruction (`self` when unpredicated).
    pub fn inner(&self) -> &VectorInst {
        match self {
            VectorInst::Predicated { inst, .. } => inst,
            other => other,
        }
    }

    /// Whether this is a vector memory-access instruction (routed to the
    /// SIMD ld/st data path rather than the compute data path, Fig. 4).
    pub fn is_mem(&self) -> bool {
        matches!(self.inner(), VectorInst::Load { .. } | VectorInst::Store { .. })
    }

    /// The destination vector register, if any.
    pub fn vector_dst(&self) -> Option<VReg> {
        match self.inner() {
            VectorInst::Unary { dst, .. }
            | VectorInst::Binary { dst, .. }
            | VectorInst::Fma { dst, .. }
            | VectorInst::DupImm { dst, .. }
            | VectorInst::Dup { dst, .. }
            | VectorInst::Sel { dst, .. }
            | VectorInst::Load { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// The vector registers read by this instruction. Merging predication
    /// additionally reads the old destination; the micro-architecture
    /// tracks that dependency separately at rename.
    pub fn vector_srcs(&self) -> RegList<VReg> {
        match self.inner() {
            VectorInst::Unary { src, .. } => [*src].into(),
            VectorInst::Binary { a, b, .. } => [*a, *b].into(),
            // FMLA also reads its accumulator.
            VectorInst::Fma { dst, a, b } => [*dst, *a, *b].into(),
            VectorInst::ReduceAdd { src, .. } => [*src].into(),
            VectorInst::Store { src, .. } => [*src].into(),
            VectorInst::Fcm { a, b, .. } | VectorInst::Sel { a, b, .. } => [*a, *b].into(),
            _ => RegList::new(),
        }
    }

    /// The scalar registers read by this instruction (address operands,
    /// broadcast sources and `Whilelo` bounds).
    pub fn scalar_srcs(&self) -> RegList<XReg> {
        match self.inner() {
            VectorInst::Dup { src, .. } => [*src].into(),
            VectorInst::Load { base, index, .. } | VectorInst::Store { base, index, .. } => {
                [*base, *index].into()
            }
            VectorInst::Whilelo { a, b, .. } => [*a, *b].into(),
            _ => RegList::new(),
        }
    }

    /// The scalar register written by this instruction (reductions write
    /// back into the scalar core, Fig. 5's scalar-result path).
    pub fn scalar_dst(&self) -> Option<XReg> {
        match self.inner() {
            VectorInst::ReduceAdd { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

/// An EM-SIMD instruction: an `MSR`/`MRS` access to one of the five
/// dedicated registers (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EmSimdInst {
    /// `MSR <reg>, src` — write a dedicated register.
    Msr { reg: DedicatedReg, src: Operand },
    /// `MRS dst, <reg>` — read a dedicated register into a scalar register.
    Mrs { dst: XReg, reg: DedicatedReg },
}

impl EmSimdInst {
    /// Whether this read of `<decision>` may be speculatively transmitted
    /// to the co-processor (§4.1.1: the only speculative transmission).
    pub fn is_speculative_read(&self) -> bool {
        matches!(self, EmSimdInst::Mrs { reg: DedicatedReg::Decision, .. })
    }

    /// Whether this is a write requesting vector-length reconfiguration.
    pub fn is_vl_write(&self) -> bool {
        matches!(self, EmSimdInst::Msr { reg: DedicatedReg::Vl, .. })
    }
}

/// A machine instruction of any family.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// A scalar instruction.
    Scalar(ScalarInst),
    /// A vector instruction.
    Vector(VectorInst),
    /// An EM-SIMD dedicated-register access.
    EmSimd(EmSimdInst),
    /// Stop the workload.
    Halt,
}

/// Coarse classification of instructions, used by the ordering rules of
/// Table 2 and by the statistics counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Scalar instruction (including branches).
    Scalar,
    /// Vector compute instruction.
    VectorCompute,
    /// Vector memory instruction.
    VectorMem,
    /// EM-SIMD dedicated-register access.
    EmSimd,
    /// Halt marker.
    Halt,
}

impl Inst {
    /// This instruction's [`InstClass`].
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Scalar(_) => InstClass::Scalar,
            Inst::Vector(v) if v.is_mem() => InstClass::VectorMem,
            Inst::Vector(_) => InstClass::VectorCompute,
            Inst::EmSimd(_) => InstClass::EmSimd,
            Inst::Halt => InstClass::Halt,
        }
    }
}

impl From<ScalarInst> for Inst {
    fn from(i: ScalarInst) -> Inst {
        Inst::Scalar(i)
    }
}

impl From<VectorInst> for Inst {
    fn from(i: VectorInst) -> Inst {
        Inst::Vector(i)
    }
}

impl From<EmSimdInst> for Inst {
    fn from(i: EmSimdInst) -> Inst {
        Inst::EmSimd(i)
    }
}

impl fmt::Display for ScalarInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarInst::MovImm { dst, imm } => write!(f, "mov {dst}, #{imm}"),
            ScalarInst::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            ScalarInst::Add { dst, a, b } => write!(f, "add {dst}, {a}, {b}"),
            ScalarInst::Sub { dst, a, b } => write!(f, "sub {dst}, {a}, {b}"),
            ScalarInst::Mul { dst, a, b } => write!(f, "mul {dst}, {a}, {b}"),
            ScalarInst::Div { dst, a, b } => write!(f, "udiv {dst}, {a}, {b}"),
            ScalarInst::Rem { dst, a, b } => write!(f, "urem {dst}, {a}, {b}"),
            ScalarInst::ShlImm { dst, a, shift } => write!(f, "lsl {dst}, {a}, #{shift}"),
            ScalarInst::FmovImm { dst, imm } => write!(f, "fmov {dst}, #{imm}"),
            ScalarInst::Fadd { dst, a, b } => write!(f, "fadd {dst}, {a}, {b}"),
            ScalarInst::Fsub { dst, a, b } => write!(f, "fsub {dst}, {a}, {b}"),
            ScalarInst::Fmul { dst, a, b } => write!(f, "fmul {dst}, {a}, {b}"),
            ScalarInst::Fdiv { dst, a, b } => write!(f, "fdiv {dst}, {a}, {b}"),
            ScalarInst::Ldr { dst, base, index } => write!(f, "ldr {dst}, [{base}, {index}, lsl #2]"),
            ScalarInst::Str { src, base, index } => write!(f, "str {src}, [{base}, {index}, lsl #2]"),
            ScalarInst::B { target } => write!(f, "b {target}"),
            ScalarInst::Beq { a, b, target } => write!(f, "beq {a}, {b}, {target}"),
            ScalarInst::Bne { a, b, target } => write!(f, "bne {a}, {b}, {target}"),
            ScalarInst::Blt { a, b, target } => write!(f, "blt {a}, {b}, {target}"),
            ScalarInst::Bge { a, b, target } => write!(f, "bge {a}, {b}, {target}"),
            ScalarInst::Nop => f.write_str("nop"),
        }
    }
}

impl fmt::Display for VectorInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectorInst::Unary { op, dst, src } => {
                let name = match op {
                    VUnOp::Fneg => "fneg",
                    VUnOp::Fabs => "fabs",
                    VUnOp::Fsqrt => "fsqrt",
                };
                write!(f, "{name} {dst}.s, {src}.s")
            }
            VectorInst::Binary { op, dst, a, b } => {
                let name = match op {
                    VBinOp::Fadd => "fadd",
                    VBinOp::Fsub => "fsub",
                    VBinOp::Fmul => "fmul",
                    VBinOp::Fdiv => "fdiv",
                    VBinOp::Fmax => "fmax",
                    VBinOp::Fmin => "fmin",
                };
                write!(f, "{name} {dst}.s, {a}.s, {b}.s")
            }
            VectorInst::Fma { dst, a, b } => write!(f, "fmla {dst}.s, {a}.s, {b}.s"),
            VectorInst::DupImm { dst, imm } => write!(f, "fdup {dst}.s, #{imm}"),
            VectorInst::Dup { dst, src } => write!(f, "dup {dst}.s, {src}"),
            VectorInst::ReduceAdd { dst, src } => write!(f, "faddv {dst}, {src}.s"),
            VectorInst::Load { dst, base, index } => {
                write!(f, "ld1w {dst}.s, [{base}, {index}, lsl #2]")
            }
            VectorInst::Store { src, base, index } => {
                write!(f, "st1w {src}.s, [{base}, {index}, lsl #2]")
            }
            VectorInst::Whilelo { dst, a, b } => write!(f, "whilelo {dst}.s, {a}, {b}"),
            VectorInst::Fcm { op, dst, a, b } => {
                let name = match op {
                    VCmpOp::Gt => "fcmgt",
                    VCmpOp::Ge => "fcmge",
                    VCmpOp::Eq => "fcmeq",
                    VCmpOp::Ne => "fcmne",
                    VCmpOp::Lt => "fcmlt",
                    VCmpOp::Le => "fcmle",
                };
                write!(f, "{name} {dst}.s, {a}.s, {b}.s")
            }
            VectorInst::Sel { dst, sel, a, b } => {
                write!(f, "sel {dst}.s, {sel}, {a}.s, {b}.s")
            }
            VectorInst::Predicated { pred, inst } => write!(f, "{inst} [{pred}/m]"),
        }
    }
}

impl fmt::Display for EmSimdInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmSimdInst::Msr { reg, src } => write!(f, "msr {reg}, {src}"),
            EmSimdInst::Mrs { dst, reg } => write!(f, "mrs {dst}, {reg}"),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Scalar(i) => i.fmt(f),
            Inst::Vector(i) => i.fmt(f),
            Inst::EmSimd(i) => i.fmt(f),
            Inst::Halt => f.write_str("halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let ld = Inst::Vector(VectorInst::Load { dst: VReg::Z0, base: XReg::X0, index: XReg::X1 });
        assert_eq!(ld.class(), InstClass::VectorMem);
        let add = Inst::Vector(VectorInst::Binary {
            op: VBinOp::Fadd,
            dst: VReg::Z2,
            a: VReg::Z0,
            b: VReg::Z1,
        });
        assert_eq!(add.class(), InstClass::VectorCompute);
        assert_eq!(Inst::Halt.class(), InstClass::Halt);
    }

    #[test]
    fn fma_reads_accumulator() {
        let fma = VectorInst::Fma { dst: VReg::Z3, a: VReg::Z1, b: VReg::Z2 };
        assert_eq!(fma.vector_srcs(), vec![VReg::Z3, VReg::Z1, VReg::Z2]);
        assert_eq!(fma.vector_dst(), Some(VReg::Z3));
    }

    #[test]
    fn reduce_writes_scalar() {
        let red = VectorInst::ReduceAdd { dst: XReg::X9, src: VReg::Z4 };
        assert_eq!(red.scalar_dst(), Some(XReg::X9));
        assert_eq!(red.vector_dst(), None);
    }

    #[test]
    fn decision_read_is_speculative() {
        let mrs = EmSimdInst::Mrs { dst: XReg::X4, reg: DedicatedReg::Decision };
        assert!(mrs.is_speculative_read());
        let mrs_status = EmSimdInst::Mrs { dst: XReg::X4, reg: DedicatedReg::Status };
        assert!(!mrs_status.is_speculative_read());
    }

    #[test]
    fn vl_write_detection() {
        let msr_vl = EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(2) };
        assert!(msr_vl.is_vl_write());
        let msr_oi = EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Reg(XReg::X1) };
        assert!(!msr_oi.is_vl_write());
    }

    #[test]
    fn disassembly_is_readable() {
        let i = Inst::Vector(VectorInst::Fma { dst: VReg::Z3, a: VReg::Z1, b: VReg::Z2 });
        assert_eq!(i.to_string(), "fmla z3.s, z1.s, z2.s");
        let m = Inst::EmSimd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(4) });
        assert_eq!(m.to_string(), "msr <VL>, #4");
    }

    #[test]
    fn predication_wrapper_delegates() {
        let ld = VectorInst::Load { dst: VReg::Z1, base: XReg::X0, index: XReg::X1 };
        let p = ld.clone().predicated(PReg::P2);
        assert!(p.is_mem());
        assert_eq!(p.governing_pred(), Some(PReg::P2));
        assert_eq!(p.vector_dst(), Some(VReg::Z1));
        assert_eq!(p.scalar_srcs(), ld.scalar_srcs());
        assert_eq!(p.to_string(), "ld1w z1.s, [x0, x1, lsl #2] [p2/m]");
    }

    #[test]
    #[should_panic(expected = "cannot be predicated")]
    fn double_predication_panics() {
        let i = VectorInst::DupImm { dst: VReg::Z0, imm: 1.0 };
        let _ = i.predicated(PReg::P0);
    }

    #[test]
    fn whilelo_and_fcm_write_predicates() {
        let w = VectorInst::Whilelo { dst: PReg::P3, a: XReg::X1, b: XReg::X2 };
        assert_eq!(w.pred_dst(), Some(PReg::P3));
        assert_eq!(w.vector_dst(), None);
        assert_eq!(w.scalar_srcs(), vec![XReg::X1, XReg::X2]);
        assert_eq!(w.to_string(), "whilelo p3.s, x1, x2");

        let f = VectorInst::Fcm { op: VCmpOp::Ge, dst: PReg::P1, a: VReg::Z1, b: VReg::Z2 };
        assert_eq!(f.pred_dst(), Some(PReg::P1));
        assert_eq!(f.vector_srcs(), vec![VReg::Z1, VReg::Z2]);
        assert_eq!(f.to_string(), "fcmge p1.s, z1.s, z2.s");
    }

    #[test]
    fn sel_reads_its_selector_as_data() {
        let s = VectorInst::Sel { dst: VReg::Z5, sel: PReg::P4, a: VReg::Z1, b: VReg::Z2 };
        assert_eq!(s.pred_srcs(), vec![PReg::P4]);
        assert_eq!(s.vector_dst(), Some(VReg::Z5));
        assert_eq!(s.governing_pred(), None);
        assert_eq!(s.to_string(), "sel z5.s, p4, z1.s, z2.s");
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(VCmpOp::Gt.eval(2.0, 1.0));
        assert!(!VCmpOp::Gt.eval(1.0, 1.0));
        assert!(VCmpOp::Ge.eval(1.0, 1.0));
        assert!(VCmpOp::Eq.eval(0.0, -0.0), "IEEE: 0 == -0");
        assert!(VCmpOp::Ne.eval(1.0, 2.0));
        assert!(VCmpOp::Lt.eval(-1.0, 0.0));
        assert!(VCmpOp::Le.eval(-1.0, -1.0));
        assert!(!VCmpOp::Eq.eval(f32::NAN, f32::NAN), "NaN compares false");
    }

    #[test]
    fn scalar_branch_targets() {
        let l = Label::from_raw(7);
        assert_eq!(ScalarInst::B { target: l }.branch_target(), Some(l));
        assert_eq!(
            ScalarInst::Blt { a: XReg::X0, b: Operand::Imm(10), target: l }.branch_target(),
            Some(l)
        );
        assert_eq!(ScalarInst::Nop.branch_target(), None);
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(Operand {
    0 => Reg(r),
    1 => Imm(v),
});

statecodec::impl_codec_enum!(ScalarInst {
    0 => MovImm { dst, imm },
    1 => Mov { dst, src },
    2 => Add { dst, a, b },
    3 => Sub { dst, a, b },
    4 => Mul { dst, a, b },
    5 => Div { dst, a, b },
    6 => Rem { dst, a, b },
    7 => ShlImm { dst, a, shift },
    8 => FmovImm { dst, imm },
    9 => Fadd { dst, a, b },
    10 => Fsub { dst, a, b },
    11 => Fmul { dst, a, b },
    12 => Fdiv { dst, a, b },
    13 => Ldr { dst, base, index },
    14 => Str { src, base, index },
    15 => B { target },
    16 => Beq { a, b, target },
    17 => Bne { a, b, target },
    18 => Blt { a, b, target },
    19 => Bge { a, b, target },
    20 => Nop,
});

statecodec::impl_codec_enum!(VUnOp {
    0 => Fneg,
    1 => Fabs,
    2 => Fsqrt,
});

statecodec::impl_codec_enum!(VCmpOp {
    0 => Gt,
    1 => Ge,
    2 => Eq,
    3 => Ne,
    4 => Lt,
    5 => Le,
});

statecodec::impl_codec_enum!(VBinOp {
    0 => Fadd,
    1 => Fsub,
    2 => Fmul,
    3 => Fdiv,
    4 => Fmax,
    5 => Fmin,
});

statecodec::impl_codec_enum!(VectorInst {
    0 => Unary { op, dst, src },
    1 => Binary { op, dst, a, b },
    2 => Fma { dst, a, b },
    3 => DupImm { dst, imm },
    4 => Dup { dst, src },
    5 => ReduceAdd { dst, src },
    6 => Load { dst, base, index },
    7 => Store { src, base, index },
    8 => Whilelo { dst, a, b },
    9 => Fcm { op, dst, a, b },
    10 => Sel { dst, sel, a, b },
    11 => Predicated { pred, inst },
});

statecodec::impl_codec_enum!(EmSimdInst {
    0 => Msr { reg, src },
    1 => Mrs { dst, reg },
});

statecodec::impl_codec_enum!(Inst {
    0 => Scalar(s),
    1 => Vector(v),
    2 => EmSimd(e),
    3 => Halt,
});
