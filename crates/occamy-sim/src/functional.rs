//! The functional engine: batch execution of vector programs directly
//! over architectural state (the fast half of the two-speed simulator,
//! in the spirit of gem5's AtomicSimpleCPU).
//!
//! Each instruction executes in one step, in program order per core,
//! with whole-`<VL>` lane loops lowered to slice operations over the
//! architectural register values (the [`crate::exec`] kernels, which the
//! compiler auto-vectorizes over contiguous `f32` slices). The engine
//! reuses the *semantic* layers of the timing model — [`crate::exec`]
//! for vector semantics, [`ScalarCore::exec_pure_in`] for scalar arithmetic,
//! and [`CoProcessor::exec_em`] for the EM-SIMD dedicated registers
//! (phase records, `<OI>` sanitization, lane-manager replans and
//! `<VL>` reconfiguration are all bit-identical) — while bypassing the
//! pipeline stages, the LSU and the memory-hierarchy timing entirely.
//!
//! What is architecturally identical to the timing path (and checked by
//! the lockstep differential suite in `tests/differential.rs`):
//! memory images, scalar and vector registers, predicate registers,
//! dedicated registers, issue counters and the completed-phase record
//! (phase `<OI>` values and granule configurations; per-phase
//! `compute_issued` is excluded from the contract — the timing model
//! snapshots it when the phase-end `<OI>` write executes, while the
//! decoupled vector pool may still hold unissued body instructions,
//! a time-skewed attribution that has no functional analogue).
//! What is not modelled: cycles (extrapolated by the caller and marked
//! `estimated`), cache/DRAM statistics, lane-occupancy timelines, and
//! the observability streams (trace and event log are suppressed for
//! the window — functional execution has no meaningful timestamps).
//!
//! Fault injection and recovery are timing constructs; the machine
//! refuses to enter a functional mode while either is active
//! ([`SimError::Config`]), so the engine never sees them.

use em_simd::{DedicatedReg, EmSimdInst, Inst, Operand, ScalarInst, VectorInst};

use crate::error::SimError;
use crate::exec;
use crate::machine::Machine;
use crate::scalar::Wait;

/// Instructions a core executes per round-robin turn. Multi-core
/// functional execution interleaves cores in bounded slices so the
/// EM-SIMD interaction order (phase records, replans) is deterministic
/// — a different deterministic order than the cycle-level interleaving,
/// which is why the differential suite pins full-state equality to
/// single-core programs.
const SLICE: u64 = 1024;

/// Outcome of executing one instruction on one core.
enum Step {
    /// The instruction executed; the core continues.
    Retired,
    /// The core halted (or was already halted/frozen).
    Halted,
}

/// Batch-executes programs over a quiesced [`Machine`]'s architectural
/// state. Create one per functional window.
pub(crate) struct FunctionalEngine<'m> {
    m: &'m mut Machine,
    /// The buffer each vector result is computed into. Writing the
    /// result swaps it with the destination register's buffer, so the
    /// old value's storage computes the next result.
    value: Vec<f32>,
}

impl<'m> FunctionalEngine<'m> {
    pub(crate) fn new(m: &'m mut Machine) -> Self {
        FunctionalEngine { m, value: Vec::new() }
    }

    /// Executes up to `fuel` instructions on every live core,
    /// round-robin in [`SLICE`]-instruction turns, until every core
    /// halts or runs out of fuel. Returns per-core executed counts.
    ///
    /// # Errors
    ///
    /// Surfaces the first architectural fault (decode, memory,
    /// invalid-VL) a program trips, latched on the machine exactly as
    /// the timing path would latch it.
    pub(crate) fn run_window(&mut self, fuel: u64) -> Result<Vec<u64>, SimError> {
        let cores = self.m.scalar.len();
        let mut executed = vec![0u64; cores];
        let mut live: Vec<bool> = (0..cores)
            .map(|c| {
                let s = &self.m.scalar[c];
                !s.halted && !s.frozen && s.program.is_some()
            })
            .collect();
        loop {
            let mut progressed = false;
            for c in 0..cores {
                if !live[c] {
                    continue;
                }
                let budget = SLICE.min(fuel.saturating_sub(executed[c]));
                if budget == 0 {
                    live[c] = false;
                    continue;
                }
                // Borrow the program for the whole slice: fetching by
                // reference keeps `Predicated` boxes off the per-
                // instruction path (cloning them allocates).
                let Some(program) = self.m.scalar[c].program.take() else {
                    live[c] = false;
                    continue;
                };
                let mut slice_result = Ok(());
                for _ in 0..budget {
                    match self.step_core(c, &program) {
                        Ok(Step::Retired) => {
                            executed[c] += 1;
                            progressed = true;
                        }
                        Ok(Step::Halted) => {
                            live[c] = false;
                            break;
                        }
                        Err(e) => {
                            slice_result = Err(e);
                            break;
                        }
                    }
                }
                self.m.scalar[c].program = Some(program);
                slice_result?;
            }
            if !progressed {
                break;
            }
        }
        Ok(executed)
    }

    /// Latches a fault on the machine (first fault wins, mirroring the
    /// timing path's poisoning) and returns it for propagation.
    fn trip(&mut self, e: SimError) -> SimError {
        if self.m.fault.is_none() {
            self.m.fault = Some(e.clone());
        }
        e
    }

    /// Executes one instruction on core `c` from `program` (taken out
    /// of the core for the duration of the slice).
    fn step_core(&mut self, c: usize, program: &em_simd::Program) -> Result<Step, SimError> {
        if self.m.scalar[c].halted || self.m.scalar[c].frozen {
            return Ok(Step::Halted);
        }
        debug_assert!(
            self.m.scalar[c].wait == Wait::Ready && self.m.scalar[c].pending_loads.is_empty(),
            "functional windows start from a quiesced machine"
        );
        let pc = self.m.scalar[c].pc;
        if pc >= program.len() {
            return Err(self.trip(SimError::Decode {
                core: c,
                pc,
                detail: "program counter ran off the end of the program (missing HALT?)".into(),
            }));
        }
        match program.fetch(pc) {
            Inst::Halt => {
                self.m.scalar[c].halted = true;
                // The core is trivially drained here, so the workload
                // finishes now (stamped at the frozen timing cycle).
                if self.m.core_stats[c].finish_cycle.is_none() {
                    self.m.core_stats[c].finish_cycle = Some(self.m.cycle);
                }
                Ok(Step::Halted)
            }
            Inst::Scalar(s) if s.is_mem() => self.exec_scalar_mem(c, s),
            Inst::Scalar(s) => {
                self.m.scalar[c].exec_pure_in(s, program);
                self.m.core_stats[c].scalar_executed += 1;
                Ok(Step::Retired)
            }
            Inst::Vector(v) => self.exec_vector(c, v),
            Inst::EmSimd(e) => self.exec_em(c, *e),
        }
    }

    /// A scalar load or store, immediately against the functional
    /// memory image (same address arithmetic and bounds check as the
    /// timing path; no MLP or latency modelling).
    fn exec_scalar_mem(&mut self, c: usize, s: &ScalarInst) -> Result<Step, SimError> {
        let (base, index) = match s {
            ScalarInst::Ldr { base, index, .. } | ScalarInst::Str { base, index, .. } => {
                (*base, *index)
            }
            _ => return Ok(Step::Retired),
        };
        let addr = self.m.scalar[c].x[base.index()]
            .wrapping_add(self.m.scalar[c].x[index.index()].wrapping_mul(4));
        if addr.checked_add(4).is_none_or(|end| end > self.m.mem.capacity() as u64) {
            return Err(self.trip(SimError::MemoryFault {
                core: c,
                addr,
                bytes: 4,
                capacity: self.m.mem.capacity() as u64,
            }));
        }
        match s {
            ScalarInst::Ldr { dst, .. } => {
                let v = self.m.mem.read_u32(addr);
                self.m.scalar[c].x[dst.index()] = u64::from(v);
            }
            ScalarInst::Str { src, .. } => {
                let v = self.m.scalar[c].x[src.index()] as u32;
                self.m.mem.write_u32(addr, v);
            }
            _ => {}
        }
        self.m.scalar[c].pc += 1;
        self.m.core_stats[c].scalar_executed += 1;
        Ok(Step::Retired)
    }

    /// A vector instruction over the architectural register state: the
    /// whole-`<VL>` lane loop is one slice operation from
    /// [`crate::exec`], at the core's currently configured width.
    fn exec_vector(&mut self, c: usize, v: &VectorInst) -> Result<Step, SimError> {
        let lanes = self.m.coproc.cur_vl(c).lanes();
        if lanes == 0 {
            return Err(self.trip(SimError::InvalidVl {
                core: c,
                granules: 0,
                detail: "vector instruction executed with <VL> = 0".into(),
            }));
        }
        if v.is_mem() {
            return self.exec_vector_mem(c, v, lanes);
        }

        // Register reads borrow the physical register file directly, and
        // the result is computed into the engine's recycled buffer.
        let m = &mut *self.m;
        let value = &mut self.value;
        let coproc = &m.coproc;
        let mask: Option<&[f32]> = v.governing_pred().map(|p| coproc.preg(c, p));
        let srcs = v.vector_srcs();
        let src = |i: usize| coproc.vreg(c, srcs[i]);
        let x = &m.scalar[c].x;
        let mut scalar_wb = None;
        match v.inner() {
            VectorInst::Unary { op, .. } => exec::exec_unary(*op, src(0), value),
            VectorInst::Binary { op, .. } => exec::exec_binary(*op, src(0), src(1), value),
            VectorInst::Fma { .. } => exec::exec_fma(src(0), src(1), src(2), value),
            VectorInst::DupImm { imm, .. } => exec::broadcast(*imm, lanes, value),
            VectorInst::Dup { src, .. } => {
                exec::broadcast(f32::from_bits(x[src.index()] as u32), lanes, value);
            }
            VectorInst::ReduceAdd { dst, .. } => {
                let sum = match mask {
                    Some(mk) => exec::reduce_add_masked(mk, src(0)),
                    None => exec::reduce_add(src(0)),
                };
                scalar_wb = Some((*dst, sum));
            }
            VectorInst::Whilelo { a, b, .. } => {
                let lo = x[a.index()] as u32;
                let hi = x[b.index()] as u32;
                exec::whilelo(u64::from(lo), u64::from(hi), lanes, value);
            }
            VectorInst::Fcm { op, .. } => exec::compare(*op, src(0), src(1), value),
            VectorInst::Sel { sel, .. } => {
                exec::blend(coproc.preg(c, *sel), src(0), src(1), value);
            }
            VectorInst::Load { .. } | VectorInst::Store { .. } | VectorInst::Predicated { .. } => {
                // inner() strips predication and memory ops were routed
                // above; nothing reaches here.
                debug_assert!(false, "non-compute instruction in the compute path");
                exec::broadcast(0.0, lanes, value);
            }
        }
        // Merging predication: inactive lanes keep the old destination.
        if let (Some(mk), Some(d)) = (mask, v.vector_dst()) {
            exec::merge(mk, value, coproc.vreg(c, d));
        }
        if let Some(d) = v.vector_dst() {
            m.coproc.write_vreg(c, d, value);
        } else if let Some(p) = v.pred_dst() {
            m.coproc.write_preg(c, p, value);
        }
        if let Some((reg, sum)) = scalar_wb {
            m.scalar[c].write_f32(reg, sum);
        }
        m.scalar[c].pc += 1;
        m.core_stats[c].vector_compute_issued += 1;
        m.coproc.retired += 1;
        Ok(Step::Retired)
    }

    /// A vector load or store, immediately against the functional
    /// memory image: same span arithmetic, bounds check, zeroing-load
    /// and active-lane-store semantics as the timing LSU path.
    fn exec_vector_mem(&mut self, c: usize, v: &VectorInst, lanes: usize) -> Result<Step, SimError> {
        let m = &mut *self.m;
        let (base, index) = match v.inner() {
            VectorInst::Load { base, index, .. } | VectorInst::Store { base, index, .. } => {
                (*base, *index)
            }
            _ => return Ok(Step::Retired),
        };
        let addr = m.scalar[c].x[base.index()]
            .wrapping_add(m.scalar[c].x[index.index()].wrapping_mul(4));
        let bytes = (lanes * 4) as u64;
        let mask: Option<&[f32]> = v.governing_pred().map(|p| m.coproc.preg(c, p));
        // Predicated accesses only touch active lanes (SVE fault
        // suppression): the checked span ends at the last active lane.
        let span = mask.map_or(bytes, exec::active_span);
        if span > 0 && addr.checked_add(span).is_none_or(|end| end > m.mem.capacity() as u64) {
            let e = SimError::MemoryFault {
                core: c,
                addr,
                bytes: span,
                capacity: m.mem.capacity() as u64,
            };
            // First fault wins, mirroring `trip` (which can't be called
            // while the predicate mask borrows the register file).
            if m.fault.is_none() {
                m.fault = Some(e.clone());
            }
            return Err(e);
        }
        match v.inner() {
            VectorInst::Load { dst, .. } => {
                exec::load(&m.mem, addr, lanes, mask, &mut self.value);
                m.coproc.write_vreg(c, *dst, &mut self.value);
            }
            VectorInst::Store { src, .. } => {
                exec::store(&mut m.mem, addr, m.coproc.vreg(c, *src), mask);
            }
            _ => {}
        }
        m.scalar[c].pc += 1;
        m.core_stats[c].vector_mem_issued += 1;
        m.coproc.retired += 1;
        Ok(Step::Retired)
    }

    /// An EM-SIMD dedicated-register access, executed synchronously on
    /// the (drained) EM-SIMD data path — the shared
    /// [`CoProcessor::exec_em`] gives bit-identical `<OI>`
    /// sanitization, phase records, lane-manager replans and `<VL>`
    /// reconfiguration semantics.
    fn exec_em(&mut self, c: usize, e: EmSimdInst) -> Result<Step, SimError> {
        // MRS <decision> is satisfied speculatively (§4.1.1), exactly as
        // in the timing front end.
        if let EmSimdInst::Mrs { dst, reg: DedicatedReg::Decision } = e {
            self.m.scalar[c].x[dst.index()] = self.m.coproc.read_decision(c);
            self.m.scalar[c].pc += 1;
            return Ok(Step::Retired);
        }
        let operand = match e {
            EmSimdInst::Msr { src: Operand::Reg(r), .. } => self.m.scalar[c].x[r.index()],
            EmSimdInst::Msr { src: Operand::Imm(i), .. } => i as u64,
            EmSimdInst::Mrs { .. } => 0,
        };
        let now = self.m.cycle;
        // The pipeline is drained (nothing enters the ROB in functional
        // mode), so the MSR <VL> drain-wait case cannot occur and
        // exec_em always completes. Fault injection is rejected before
        // any functional window, so `faults` is always `None` here.
        let mut no_faults = None;
        let resp =
            self.m.coproc.exec_em(c, e, operand, now, &mut self.m.core_stats, &mut no_faults);
        if let Some(r) = resp {
            if let Some((reg, value)) = r.write_x {
                self.m.scalar[c].x[reg.index()] = value;
            }
        } else {
            debug_assert!(false, "EM-SIMD access waited on a drained pipeline");
        }
        self.m.scalar[c].pc += 1;
        Ok(Step::Retired)
    }
}
