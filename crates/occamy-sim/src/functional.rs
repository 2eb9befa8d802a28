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

use em_simd::{DedicatedReg, EmSimdInst, Inst, Operand, PReg, VectorInst};

use crate::error::SimError;
use crate::exec;
use crate::machine::Machine;
use crate::scalar::{ScalarAccess, Wait};

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
            Inst::Scalar(s) => match self.m.scalar[c].mem_access(s) {
                Some(access) => self.exec_scalar_mem(c, access),
                None => {
                    self.m.scalar[c].exec_pure_in(s, program);
                    self.m.core_stats[c].scalar_executed += 1;
                    Ok(Step::Retired)
                }
            },
            Inst::Vector(v) => self.exec_vector(c, v),
            Inst::EmSimd(e) => self.exec_em(c, *e),
        }
    }

    /// A scalar load or store, immediately against the functional
    /// memory image (same address arithmetic and bounds check as the
    /// timing path; no MLP or latency modelling).
    fn exec_scalar_mem(&mut self, c: usize, access: ScalarAccess) -> Result<Step, SimError> {
        if let Some(e) = access.bounds_fault(c, self.m.mem.capacity() as u64) {
            return Err(self.trip(e));
        }
        if access.store {
            let v = self.m.scalar[c].x[access.reg.index()] as u32;
            self.m.mem.write_u32(access.addr, v);
        } else {
            let v = self.m.mem.read_u32(access.addr);
            self.m.scalar[c].x[access.reg.index()] = u64::from(v);
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
        let (inst, pred) = (v.inner(), v.governing_pred());
        let payload = exec::scalar_payload(inst, &self.m.scalar[c].x);
        if v.is_mem() {
            return self.exec_vector_mem(c, inst, pred, lanes, payload.unwrap_or(0));
        }

        // Register reads borrow the physical register file directly, and
        // the result is computed into the engine's recycled buffer.
        let m = &mut *self.m;
        let coproc = &m.coproc;
        let srcs = v.vector_srcs();
        let ops = exec::Operands {
            src: |i| coproc.vreg(c, srcs[i]),
            sel: v.pred_srcs().first().map(|&p| coproc.preg(c, p)),
            mask: pred.map(|p| coproc.preg(c, p)),
            old: pred.and_then(|_| v.vector_dst()).map(|d| coproc.vreg(c, d)),
            payload,
            lanes,
        };
        let scalar_wb = exec::compute(inst, &ops, &mut self.value);
        if let Some(d) = v.vector_dst() {
            m.coproc.write_vreg(c, d, &mut self.value);
        } else if let Some(p) = v.pred_dst() {
            m.coproc.write_preg(c, p, &mut self.value);
        }
        if let Some((reg, sum)) = scalar_wb {
            m.scalar[c].write_f32(reg, sum);
        }
        m.scalar[c].pc += 1;
        m.core_stats[c].vector_compute_issued += 1;
        m.coproc.retired += 1;
        Ok(Step::Retired)
    }

    /// A vector load or store of `addr`, immediately against the
    /// functional memory image: same bounds check, zeroing-load and
    /// active-lane-store semantics as the timing LSU path.
    fn exec_vector_mem(
        &mut self,
        c: usize,
        inst: &VectorInst,
        pred: Option<PReg>,
        lanes: usize,
        addr: u64,
    ) -> Result<Step, SimError> {
        let capacity = self.m.mem.capacity() as u64;
        let mask = pred.map(|p| self.m.coproc.preg(c, p));
        if let Some(bytes) = exec::out_of_bounds(addr, (lanes * 4) as u64, mask, capacity) {
            return Err(self.trip(SimError::MemoryFault { core: c, addr, bytes, capacity }));
        }
        let m = &mut *self.m;
        let mask = pred.map(|p| m.coproc.preg(c, p));
        match inst {
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
