//! # EM-SIMD ISA
//!
//! The instruction set shared by the Occamy hardware (the cycle-level
//! simulator in `occamy-sim`) and software (the vectorizing compiler in
//! `occamy-compiler`).
//!
//! The ISA has three instruction families, mirroring §3–§4 of the paper:
//!
//! * **Scalar** instructions ([`ScalarInst`]) — integer/FP bookkeeping,
//!   loop control and branches, executed by the scalar cores.
//! * **Vector** instructions ([`VectorInst`]) — SVE-like *vector-length
//!   agnostic* compute and contiguous load/store instructions, transmitted
//!   to the SIMD co-processor.
//! * **EM-SIMD** instructions ([`EmSimdInst`]) — `MSR`/`MRS` accesses to the
//!   five dedicated registers of Table 1 ([`DedicatedReg`]), through which
//!   software describes phase behaviours and requests vector-length
//!   reconfiguration.
//!
//! Vector lengths are expressed in 128-bit *granules* ([`VectorLength`]),
//! exactly as in the paper (`<VL> = 2` means a 256-bit vector). One granule
//! holds four 32-bit lanes.
//!
//! # Examples
//!
//! Build a tiny program that configures a vector length and halts:
//!
//! ```
//! use em_simd::{ProgramBuilder, ScalarInst, EmSimdInst, DedicatedReg, XReg, Operand};
//!
//! let mut b = ProgramBuilder::new();
//! let retry = b.fresh_label("retry");
//! b.scalar(ScalarInst::MovImm { dst: XReg::X2, imm: 2 });
//! b.bind(retry);
//! b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Reg(XReg::X2) });
//! b.em_simd(EmSimdInst::Mrs { dst: XReg::X3, reg: DedicatedReg::Status });
//! b.scalar(ScalarInst::Bne { a: XReg::X3, b: Operand::Imm(1), target: retry });
//! b.halt();
//! let program = b.build();
//! assert_eq!(program.len(), 5);
//! ```

mod dedicated;
mod inst;
mod oi;
mod program;
mod reglist;
mod regs;
mod tag;
mod vl;

pub use dedicated::DedicatedReg;
pub use inst::{
    EmSimdInst, Inst, InstClass, Operand, ScalarInst, VectorInst, VBinOp, VCmpOp, VUnOp,
};
pub use oi::OperationalIntensity;
pub use program::{Label, Program, ProgramBuilder};
pub use reglist::RegList;
pub use regs::{PReg, VReg, XReg, NUM_PREGS, NUM_VREGS, NUM_XREGS};
pub use tag::InstTag;
pub use vl::{VectorLength, LANES_PER_GRANULE, LANE_BYTES};
