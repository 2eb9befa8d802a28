//! The SIMD co-processor micro-architecture (Fig. 5).
//!
//! Pipeline stages, executed once per machine cycle in this order:
//!
//! 1. [`CoProcessor::complete`] — writebacks (compute results, load data,
//!    store acknowledgements), ROB retirement (freeing previous physical
//!    registers), scalar-result forwarding.
//! 2. [`CoProcessor::issue`] — selects ready compute instructions from the
//!    issue queues (out-of-order within a core) and vector memory
//!    operations from the LSUs; under temporal sharing (FTS) the issue
//!    slots are shared and arbitrated round-robin between the cores.
//! 3. [`CoProcessor::rename`] — pops the per-core in-order instruction
//!    pools, allocates physical registers from the per-RegBlk free lists,
//!    and processes EM-SIMD instructions on the in-order EM-SIMD data
//!    path, including the pipeline-drain rule for `MSR <VL>` (§4.2.2).

use std::collections::VecDeque;

use em_simd::{
    DedicatedReg, EmSimdInst, OperationalIntensity, PReg, RegList, VReg, VectorInst,
    VectorLength, XReg, NUM_PREGS, NUM_VREGS,
};
use lane_manager::{LaneManager, PhaseDemand, ResourceTable};
use mem_sim::{Cycle, Memory, MemorySystem};
use roofline::{MachineCeilings, MemLevel};

use crate::config::{Architecture, SimConfig};
use crate::error::SimError;
use crate::events::{Event, EventKind, EventLog, Track};
use crate::exec;
use crate::fault::FaultState;
use crate::lsu::{Lsu, LsuEntry};
use crate::regblocks::{BlockOwner, LaneHealth, PhysId, PhysRegFile, RegBlocks};
use crate::stats::{CoreStats, PhaseStats};
use crate::trace::{Trace, TraceEvent, TraceStage};

/// An entry of a core's in-order instruction pool.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PoolEntry {
    /// A vector instruction with its scalar payload, captured at
    /// transmit ([`exec::scalar_payload`]). The instruction is held
    /// unwrapped ([`VectorInst::inner`]) next to its governing predicate,
    /// so moving it down the pipeline never clones a boxed `Predicated`
    /// wrapper.
    Vector { inst: VectorInst, pred: Option<PReg>, aux: Option<u64> },
    /// An EM-SIMD instruction with its pre-resolved write operand.
    Em { inst: EmSimdInst, operand: u64 },
}

/// Response of the EM-SIMD data path to the issuing scalar core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EmResponse {
    pub core: usize,
    /// Value to write into a scalar register (for `MRS`).
    pub write_x: Option<(XReg, u64)>,
}

/// A scalar-register writeback from the co-processor (reductions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScalarWriteback {
    pub core: usize,
    pub reg: XReg,
    pub value: f32,
}

/// A saved EM-SIMD context: the five dedicated registers plus the
/// architectural vector state (§5: the OS saves these across context
/// switches).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OsContext {
    pub oi: u64,
    pub decision: u64,
    pub vl: usize,
    pub status: u64,
    pub vregs: Vec<Vec<f32>>,
    pub pregs: Vec<Vec<f32>>,
}

/// Outcome of the event kernel's per-core co-processor inertness probe
/// ([`CoProcessor::core_activity`]): whether a `tick` at the probed cycle
/// would change any co-processor state for the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoprocActivity {
    /// Nothing would happen this cycle. `reg_stall` reports whether the
    /// pool head is a vector instruction stalled on register-block
    /// exhaustion — the one inert case with a per-cycle statistics
    /// side-effect (`rename_stall_cycles`), which the skip path must
    /// replay in bulk.
    Inert { reg_stall: bool },
    /// A stage would do real work (or trip a fault) — do not skip.
    Active,
}

/// What memory issue's gate ([`CoProcessor::pick_mem`]) found: the
/// first LSU entry that can act this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemPick {
    /// The entry at this LSU index issues.
    Issue(usize),
    /// The entry's access leaves the memory arena: a typed fault.
    Fault { addr: u64, bytes: u64 },
}

/// What rename's gate ([`CoProcessor::rename_gate`]) decided for the
/// vector instruction at the head of a core's pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameGate {
    /// The ROB, or the issue queue or LSU the instruction needs, is full.
    Full,
    /// `<VL>` is zero: renaming trips [`SimError::InvalidVl`].
    InvalidVl,
    /// The destination's register blocks are exhausted (charging
    /// `rename_stall_cycles`).
    RegStall,
    /// The instruction renames.
    Go,
}

/// Per-core issue counts for one cycle (consumed by the machine's
/// statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct IssueCounts {
    pub compute: u64,
    pub mem: u64,
}

/// Which physical register file a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegClass {
    Vector,
    Pred,
}

#[derive(Debug, Clone, PartialEq)]
struct IqEntry {
    seq: u64,
    /// The governed instruction ([`VectorInst::inner`]).
    inst: VectorInst,
    /// The architectural governing predicate, if predicated (checkpoints
    /// record the instruction as written; execution uses `pred`).
    gov: Option<PReg>,
    srcs: RegList<PhysId>,
    dst: Option<PhysId>,
    dst_class: RegClass,
    /// Governing predicate (physical), if predicated.
    pred: Option<PhysId>,
    /// Predicate registers read as data (SEL's selector).
    psrcs: RegList<PhysId>,
    /// Old destination value for merging predication.
    merge: Option<PhysId>,
    /// Scalar payload captured at transmit ([`exec::scalar_payload`]).
    aux: Option<u64>,
    lanes: usize,
}

impl IqEntry {
    /// Whether every operand is ready, so the entry can issue.
    fn ready(&self, prf: &PhysRegFile, ppf: &PhysRegFile) -> bool {
        self.srcs.iter().all(|&s| prf.is_ready(s))
            && self.pred.is_none_or(|p| ppf.is_ready(p))
            && self.psrcs.iter().all(|&p| ppf.is_ready(p))
            && self.merge.is_none_or(|m| prf.is_ready(m))
    }
}

/// Rewraps an unwrapped instruction under its governing predicate — the
/// form the instruction was written in (checkpoints, trace disassembly).
fn governed(inst: &VectorInst, pred: Option<PReg>) -> VectorInst {
    match pred {
        Some(pred) => VectorInst::Predicated { pred, inst: Box::new(inst.clone()) },
        None => inst.clone(),
    }
}

/// Splits an instruction into its governed instruction and governing
/// predicate (the inverse of [`governed`]).
fn ungoverned(inst: VectorInst) -> (VectorInst, Option<PReg>) {
    match inst {
        VectorInst::Predicated { pred, inst } => (*inst, Some(pred)),
        other => (other, None),
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RobEntry {
    seq: u64,
    done: bool,
    prev_phys: Option<(PhysId, RegClass)>,
}

/// Extra cycles charged when a corrupted result on an already-quarantined
/// granule is corrected in place (re-execution on a healthy granule)
/// instead of tripping another rollback.
const RETRY_PENALTY: Cycle = 12;

/// Bit XORed into a corrupted lane (mantissa bit 22: visibly wrong on any
/// normal operand without manufacturing NaN/Inf out of thin air).
const LANE_FLIP: u32 = 0x0040_0000;

#[derive(Debug, Clone, PartialEq)]
struct InflightCompute {
    complete_at: Cycle,
    core: usize,
    dst: Option<PhysId>,
    dst_class: RegClass,
    value: Vec<f32>,
    scalar_wb: Option<(XReg, f32)>,
    rob_seq: u64,
    /// Set when a lane fault corrupted this result: the granule hit and
    /// the injection cycle. The residue check at writeback turns the tag
    /// into a [`SimError::LaneFault`].
    faulted: Option<(usize, Cycle)>,
}

#[derive(Debug, Clone, PartialEq)]
struct CoreCtx {
    pool: VecDeque<PoolEntry>,
    iq: Vec<IqEntry>,
    lsu: Lsu,
    rob: VecDeque<RobEntry>,
    rename_map: [PhysId; NUM_VREGS],
    pred_rename: [PhysId; NUM_PREGS],
    cur_vl: VectorLength,
    status: u64,
    /// Blocks the core's registers currently span.
    spans: Vec<usize>,
    /// Index of the open phase in the stats, if any.
    open_phase: Option<usize>,
    /// `vector_compute_issued` snapshot at phase start.
    phase_start_issued: u64,
    /// Cycle an `MSR <VL>` began waiting for the pipeline drain
    /// (event-log bookkeeping only; stays `None` when events are off).
    drain_start: Option<Cycle>,
    /// Cycle the current rename-stall streak began (event-log
    /// bookkeeping only; stays `None` when events are off).
    stall_since: Option<Cycle>,
}

/// The shared SIMD co-processor: register blocks, per-core pipeline
/// contexts, the resource table and (for Occamy) the lane manager.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoProcessor {
    cfg: SimConfig,
    arch: Architecture,
    blocks: RegBlocks,
    prf: PhysRegFile,
    /// Physical predicate registers (masks stored as 1.0/0.0 lanes).
    ppf: PhysRegFile,
    cores: Vec<CoreCtx>,
    table: ResourceTable,
    mgr: Option<LaneManager>,
    inflight: Vec<InflightCompute>,
    next_seq: u64,
    /// Total instructions retired from the ROBs (forward-progress
    /// signal for the machine's watchdog).
    pub(crate) retired: u64,
    /// First fault latched by the co-processor pipeline; surfaced by
    /// `Machine::step` at the end of the cycle.
    pub(crate) fault: Option<SimError>,
    /// Lane-fault corruptions absorbed in place because they hit an
    /// already-quarantined granule (charged [`RETRY_PENALTY`] instead of
    /// another rollback).
    pub(crate) corrected_inline: u64,
    /// `<OI>` hints rejected by sanitization and replaced with the
    /// hardware monitor's measured intensity.
    pub(crate) hints_sanitized: u64,
    /// Monotonic replan counter; rotates the oversubscription
    /// round-robin so no core is starved when workloads outnumber
    /// surviving granules (invisible otherwise). Also published as
    /// `sim.lanemgr.replans` in the metrics registry.
    pub(crate) replan_epoch: usize,
    /// Instruction-lifecycle trace (disabled by default).
    pub(crate) trace: Trace,
    /// Cross-layer structured event log (disabled by default).
    pub(crate) events: EventLog,
}

impl CoProcessor {
    pub(crate) fn new(cfg: SimConfig, arch: Architecture) -> Self {
        let mut blocks =
            RegBlocks::new(cfg.total_granules, cfg.vregs_per_block, cfg.pregs_per_block);
        if arch == Architecture::TemporalSharing {
            blocks.set_all_shared();
        }
        let mut prf = PhysRegFile::new();
        let mut ppf = PhysRegFile::new();
        let cores = (0..cfg.cores)
            .map(|_| CoreCtx {
                pool: VecDeque::new(),
                iq: Vec::new(),
                lsu: Lsu::new(cfg.lsu_entries),
                rob: VecDeque::new(),
                rename_map: std::array::from_fn(|_| {
                    prf.alloc_zeroed(&[], 0, cfg.total_granules)
                }),
                pred_rename: std::array::from_fn(|_| {
                    ppf.alloc_zeroed(&[], 0, cfg.total_granules)
                }),
                cur_vl: VectorLength::ZERO,
                status: 0,
                spans: Vec::new(),
                open_phase: None,
                phase_start_issued: 0,
                drain_start: None,
                stall_since: None,
            })
            .collect();
        let mgr = if arch == Architecture::Occamy {
            let ceilings = MachineCeilings {
                veccache_bytes_cycle: cfg.mem.veccache_bytes_cycle as f64,
                l2_bytes_cycle: cfg.mem.l2_bytes_cycle as f64,
                dram_bytes_cycle: cfg.mem.dram_bytes_cycle as f64,
                ..MachineCeilings::paper_default()
            };
            Some(
                LaneManager::new(ceilings, cfg.total_granules, MemLevel::Dram)
                    .with_contention_awareness(cfg.contention_aware_planning),
            )
        } else {
            None
        };
        let table = ResourceTable::new(cfg.cores, cfg.total_granules);
        CoProcessor {
            cfg,
            arch,
            blocks,
            prf,
            ppf,
            cores,
            table,
            mgr,
            inflight: Vec::new(),
            next_seq: 0,
            retired: 0,
            fault: None,
            corrected_inline: 0,
            hints_sanitized: 0,
            replan_epoch: 0,
            trace: Trace::disabled(),
            events: EventLog::disabled(),
        }
    }

    /// Latches the first pipeline fault; later faults are dropped (the
    /// machine is already poisoned by the first).
    fn trip(&mut self, e: SimError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// Instruction-pool occupancy (watchdog diagnostics).
    pub(crate) fn pool_len(&self, core: usize) -> usize {
        self.cores[core].pool.len()
    }

    /// Reorder-buffer occupancy (watchdog diagnostics).
    pub(crate) fn rob_len(&self, core: usize) -> usize {
        self.cores[core].rob.len()
    }

    /// Outstanding LSU requests (watchdog diagnostics).
    pub(crate) fn lsu_outstanding(&self, core: usize) -> usize {
        self.cores[core].lsu.len()
    }

    fn trace_event(&mut self, cycle: Cycle, core: usize, seq: u64, stage: TraceStage, disasm: String) {
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent { cycle, core, seq, stage, disasm });
        }
    }

    /// Records a structured event (no-op unless the event log is on).
    pub(crate) fn event(&mut self, cycle: Cycle, track: Track, kind: EventKind) {
        if self.events.is_enabled() {
            self.events.record(Event { cycle, track, kind });
        }
    }

    pub(crate) fn table(&self) -> &ResourceTable {
        &self.table
    }

    pub(crate) fn cur_vl(&self, core: usize) -> VectorLength {
        self.cores[core].cur_vl
    }

    pub(crate) fn pool_has_space(&self, core: usize) -> bool {
        self.cores[core].pool.len() < self.cfg.pool_entries
    }

    /// Transmits a vector instruction: `inst` is the governed
    /// instruction ([`VectorInst::inner`]) and `pred` its governing
    /// predicate.
    pub(crate) fn push_vector(
        &mut self,
        core: usize,
        inst: VectorInst,
        pred: Option<PReg>,
        aux: Option<u64>,
    ) {
        debug_assert!(self.pool_has_space(core));
        debug_assert!(
            !matches!(inst, VectorInst::Predicated { .. }),
            "pool holds unwrapped instructions"
        );
        self.cores[core].pool.push_back(PoolEntry::Vector { inst, pred, aux });
    }

    pub(crate) fn push_em(&mut self, core: usize, inst: EmSimdInst, operand: u64) {
        debug_assert!(self.pool_has_space(core));
        self.cores[core].pool.push_back(PoolEntry::Em { inst, operand });
    }

    /// The speculative `MRS <decision>` fast path (§4.1.1).
    pub(crate) fn read_decision(&self, core: usize) -> u64 {
        self.table.read(core, DedicatedReg::Decision)
    }

    /// Index into `stats[core].phases` of the phase currently open on
    /// `core`, if any (profiler bucketing).
    pub(crate) fn open_phase(&self, core: usize) -> Option<usize> {
        self.cores[core].open_phase
    }

    /// Whether the core has no instructions anywhere in the co-processor.
    pub(crate) fn is_drained(&self, core: usize) -> bool {
        self.cores[core].pool.is_empty() && self.cores[core].rob.is_empty()
    }

    /// MOB query: whether any in-flight vector memory operation of `core`
    /// overlaps the byte range — covering both the LSU and vector memory
    /// instructions still queued in the instruction pool (transmitted but
    /// not yet renamed), using the maximum possible vector width for the
    /// latter since their lanes are not fixed until rename.
    pub(crate) fn any_mem_overlap(&self, core: usize, addr: u64, bytes: u64) -> bool {
        if self.cores[core].lsu.any_overlap(addr, bytes) {
            return true;
        }
        let max_width = (self.cfg.total_granules * 16) as u64;
        self.cores[core].pool.iter().any(|e| match e {
            PoolEntry::Vector { inst, aux: Some(a), .. } if inst.is_mem() => {
                // Saturating: wild (near-u64::MAX) addresses from untrusted
                // programs must not overflow the span arithmetic.
                *a < addr.saturating_add(bytes) && addr < a.saturating_add(max_width)
            }
            _ => false,
        })
    }

    /// Whether any in-flight compute result is due at `now` — a machine-
    /// wide activity signal the event kernel checks before probing cores.
    pub(crate) fn inflight_due(&self, now: Cycle) -> bool {
        self.inflight.iter().any(|f| f.complete_at <= now)
    }

    /// The earliest pending completion — an in-flight compute writeback
    /// or an issued LSU access — if any: the co-processor's term of the
    /// event kernel's skip horizon.
    pub(crate) fn next_completion(&self) -> Option<Cycle> {
        let compute = self.inflight.iter().map(|f| f.complete_at);
        let memory = self.cores.iter().flat_map(|ctx| ctx.lsu.issued_completions());
        compute.chain(memory).min()
    }

    /// The event kernel's inertness probe for one core: decides — without
    /// mutating anything — whether a `tick` at cycle `now` would change
    /// co-processor state for `core`. Built from the stages' own gates
    /// ([`oldest_ready`](Self::oldest_ready),
    /// [`pick_mem`](Self::pick_mem), [`rename_gate`](Self::rename_gate),
    /// [`em_must_wait`](Self::em_must_wait)); only the event-log edges
    /// are checked here. When in doubt the probe answers
    /// [`CoprocActivity::Active`], which merely forgoes a skip and can
    /// never change results.
    pub(crate) fn core_activity(
        &self,
        core: usize,
        now: Cycle,
        mem_capacity: u64,
    ) -> CoprocActivity {
        let ctx = &self.cores[core];
        // Stage 1 (complete): a retirement-ready ROB head or a due LSU
        // completion. (Due in-flight compute results are ruled out
        // machine-wide by `inflight_due` before cores are probed.)
        // Stage 2: an issuable compute or memory operation.
        if ctx.rob.front().is_some_and(|h| h.done)
            || ctx.lsu.issued_completions().any(|at| at <= now)
            || self.oldest_ready(core).is_some()
            || self.pick_mem(core, mem_capacity).is_some()
        {
            return CoprocActivity::Active;
        }
        // Stage 3 (rename / EM-SIMD path): only the pool head can act.
        let reg_stall = match ctx.pool.front() {
            None => false,
            Some(PoolEntry::Vector { inst, .. }) => match self.rename_gate(core, inst) {
                RenameGate::Full => false,
                RenameGate::RegStall => true,
                RenameGate::InvalidVl | RenameGate::Go => return CoprocActivity::Active,
            },
            // A zero `em_width` would also block the head, but then no
            // cycle can drain it — treating it as active just forgoes
            // the skip, conservatively. `exec_em` stamps `drain_start`
            // on the first waiting cycle when events are on.
            Some(PoolEntry::Em { inst, .. }) => {
                if !self.em_must_wait(core, inst)
                    || (self.events.is_enabled() && ctx.drain_start.is_none())
                {
                    return CoprocActivity::Active;
                }
                false
            }
        };
        // Event-log edges: `rename` records RenameStallBegin/End whenever
        // the stall flag flips, so a flip cycle is not inert.
        if self.events.is_enabled() && (ctx.stall_since.is_some() != reg_stall) {
            return CoprocActivity::Active;
        }
        CoprocActivity::Inert { reg_stall }
    }

    fn mark_rob_done(rob: &mut VecDeque<RobEntry>, seq: u64) {
        let Some(e) = rob.iter_mut().find(|e| e.seq == seq) else {
            debug_assert!(false, "ROB entry {seq} vanished");
            return;
        };
        debug_assert!(!e.done);
        e.done = true;
    }

    /// Stage 1: writebacks, load/store completion, retirement. Scalar
    /// results bound for the cores (reductions) are appended to `wbs`.
    pub(crate) fn complete(&mut self, now: Cycle, wbs: &mut Vec<ScalarWriteback>) {
        // Compute writebacks, in place: due entries hand their value
        // buffer to the destination register and leave the list.
        let mut inflight = std::mem::take(&mut self.inflight);
        inflight.retain_mut(|f| {
            if f.complete_at > now {
                return true;
            }
            // Residue check at writeback (§ detection & recovery): a
            // corrupted result is *detected* here, not corrected — the
            // value still lands, and the machine's recovery layer decides
            // whether to roll back to the last checkpoint.
            if let Some((granule, injected_at)) = f.faulted {
                self.trip(SimError::LaneFault {
                    core: f.core,
                    granule,
                    injected_at,
                    detected_at: now,
                });
            }
            if let Some(dst) = f.dst {
                let value = std::mem::take(&mut f.value);
                match f.dst_class {
                    RegClass::Vector => self.prf.write(dst, value),
                    RegClass::Pred => self.ppf.write(dst, value),
                }
            }
            if let Some((reg, value)) = f.scalar_wb {
                wbs.push(ScalarWriteback { core: f.core, reg, value });
            }
            self.trace_event(now, f.core, f.rob_seq, TraceStage::Complete, String::new());
            Self::mark_rob_done(&mut self.cores[f.core].rob, f.rob_seq);
            false
        });
        self.inflight = inflight;

        // Memory completions: load data moves into its register.
        for core in 0..self.cores.len() {
            let ctx = &mut self.cores[core];
            let (prf, trace) = (&mut self.prf, &mut self.trace);
            ctx.lsu.drain_completed(now, |e| {
                if let Some(dst) = e.dst {
                    debug_assert!(e.data.is_some(), "load data captured at issue");
                    prf.write(dst, e.data.unwrap_or_default());
                }
                if trace.is_enabled() {
                    trace.record(TraceEvent {
                        cycle: now,
                        core,
                        seq: e.seq,
                        stage: TraceStage::Complete,
                        disasm: String::new(),
                    });
                }
                Self::mark_rob_done(&mut ctx.rob, e.seq);
            });
        }

        // Retirement: free previous physical registers in order.
        for core in 0..self.cores.len() {
            let mut budget = self.cfg.retire_width;
            while budget > 0 {
                match self.cores[core].rob.front() {
                    Some(head) if head.done => {
                        let Some(head) = self.cores[core].rob.pop_front() else { break };
                        self.retired += 1;
                        self.trace_event(now, core, head.seq, TraceStage::Retire, String::new());
                        match head.prev_phys {
                            Some((prev, RegClass::Vector)) => {
                                self.prf.free(prev, |b| self.blocks.release(b));
                            }
                            Some((prev, RegClass::Pred)) => {
                                self.ppf.free(prev, |b| self.blocks.release_pred(b));
                            }
                            None => {}
                        }
                        budget -= 1;
                    }
                    _ => break,
                }
            }
        }
    }

    /// Stage 2: compute and memory issue. Adds the per-core issue counts
    /// to `counts` (one entry per core).
    pub(crate) fn issue(
        &mut self,
        now: Cycle,
        mem: &mut Memory,
        memsys: &mut MemorySystem,
        faults: &mut Option<FaultState>,
        counts: &mut [IssueCounts],
    ) {
        let ncores = self.cores.len();
        let shared = self.arch == Architecture::TemporalSharing;

        // Compute issue. Under temporal sharing the whole datapath is
        // owned by one core per cycle (rotating), and other cores only
        // steal slots the owner leaves idle — which is what produces the
        // paper's halved per-core issue rates when both cores are busy
        // (Fig. 2(f)) while still letting a lone core run at full speed.
        if shared {
            let mut budget = self.cfg.compute_width;
            let start = (now as usize) % ncores;
            for k in 0..ncores {
                let c = (start + k) % ncores;
                while budget > 0 && self.try_issue_compute(c, now, faults) {
                    counts[c].compute += 1;
                    budget -= 1;
                }
            }
        } else {
            for c in 0..ncores {
                for _ in 0..self.cfg.compute_width {
                    if self.try_issue_compute(c, now, faults) {
                        counts[c].compute += 1;
                    } else {
                        break;
                    }
                }
            }
        }

        // Memory issue (same ownership rotation under temporal sharing).
        if shared {
            let mut budget = self.cfg.mem_width;
            let start = (now as usize) % ncores;
            for k in 0..ncores {
                let c = (start + k) % ncores;
                while budget > 0 && self.try_issue_mem(c, now, mem, memsys, faults) {
                    counts[c].mem += 1;
                    budget -= 1;
                }
            }
        } else {
            for c in 0..ncores {
                for _ in 0..self.cfg.mem_width {
                    if self.try_issue_mem(c, now, mem, memsys, faults) {
                        counts[c].mem += 1;
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Compute issue's gate: the issue-queue position of `core`'s oldest
    /// ready instruction, if any.
    fn oldest_ready(&self, core: usize) -> Option<usize> {
        let iq = &self.cores[core].iq;
        // Rename pushes in `seq` order and issue removes in place, so the
        // first ready entry is the oldest ready one.
        debug_assert!(iq.windows(2).all(|w| w[0].seq < w[1].seq), "issue queue out of age order");
        iq.iter().position(|e| e.ready(&self.prf, &self.ppf))
    }

    /// Issues the oldest ready compute instruction of `core`, if any.
    /// The result is computed into the destination register's own value
    /// buffer, which travels with the in-flight entry until writeback.
    fn try_issue_compute(
        &mut self,
        core: usize,
        now: Cycle,
        faults: &mut Option<FaultState>,
    ) -> bool {
        let Some(pos) = self.oldest_ready(core) else {
            return false;
        };
        let e = self.cores[core].iq.remove(pos);
        self.trace_event(now, core, e.seq, TraceStage::Issue, String::new());
        let latency = match e.inst {
            VectorInst::Binary { op: em_simd::VBinOp::Fdiv, .. }
            | VectorInst::Unary { op: em_simd::VUnOp::Fsqrt, .. } => self.cfg.exe_latency_long,
            _ => self.cfg.exe_latency,
        };
        let mut value = match (e.dst, e.dst_class) {
            (Some(d), RegClass::Vector) => self.prf.take_buffer(d),
            (Some(d), RegClass::Pred) => self.ppf.take_buffer(d),
            (None, _) => Vec::new(),
        };
        let (prf, ppf) = (&self.prf, &self.ppf);
        let ops = exec::Operands {
            src: |i| prf.read(e.srcs[i]),
            sel: e.psrcs.first().map(|&p| ppf.read(p)),
            mask: e.pred.map(|p| ppf.read(p)),
            old: e.merge.map(|m| prf.read(m)),
            payload: e.aux,
            lanes: e.lanes,
        };
        let mut scalar_wb = exec::compute(&e.inst, &ops, &mut value);
        // Lane-fault injection (§ detection & recovery): a transient or
        // permanent ExeBU fault flips a bit in the lanes one granule of
        // this core computes. A hit on an already-quarantined granule is
        // corrected in place at a re-execution penalty — the recovery
        // layer has retired it, so no rollback is owed — while a hit on a
        // healthy granule corrupts the result and tags it for the residue
        // check at writeback.
        let mut complete_at = now + latency;
        let mut faulted = None;
        if let Some(f) = faults.as_mut() {
            if let Some(g) = f.lane_fault(&self.cores[core].spans, now) {
                if self.blocks.is_quarantined(g) {
                    self.corrected_inline += 1;
                    complete_at += RETRY_PENALTY;
                } else {
                    let spans = &self.cores[core].spans;
                    let per_granule = e.lanes / spans.len().max(1);
                    let li =
                        spans.iter().position(|&s| s == g).unwrap_or(0) * per_granule;
                    if let Some(v) = value.get_mut(li) {
                        *v = f32::from_bits(v.to_bits() ^ LANE_FLIP);
                    } else if let Some((_, sum)) = scalar_wb.as_mut() {
                        // Reductions write back a scalar; the corrupted
                        // lane surfaces in the sum.
                        *sum = f32::from_bits(sum.to_bits() ^ LANE_FLIP);
                    }
                    faulted = Some((g, now));
                }
            }
        }
        self.inflight.push(InflightCompute {
            complete_at,
            core,
            dst: e.dst,
            dst_class: e.dst_class,
            value,
            scalar_wb,
            rob_seq: e.seq,
            faulted,
        });
        true
    }

    /// Memory issue's gate: the first LSU entry of `core` that can act
    /// this cycle, in issue order. Unissued entries whose governing
    /// predicate is not ready are skipped; an entry whose access leaves
    /// the `capacity`-byte arena is a fault (checked before the ordering
    /// rules); a store waits for its ordering and its data, a load for
    /// its ordering.
    fn pick_mem(&self, core: usize, capacity: u64) -> Option<MemPick> {
        let lsu = &self.cores[core].lsu;
        lsu.entries().iter().enumerate().find_map(|(idx, e)| {
            if e.issued || e.pred.is_some_and(|p| !self.ppf.is_ready(p)) {
                return None;
            }
            let mask = e.pred.map(|p| self.ppf.read(p));
            if let Some(bytes) = exec::out_of_bounds(e.addr, e.bytes, mask, capacity) {
                return Some(MemPick::Fault { addr: e.addr, bytes });
            }
            let ready = if e.store {
                !lsu.store_blocked(idx) && e.src.is_some_and(|src| self.prf.is_ready(src))
            } else {
                !lsu.load_blocked(idx)
            };
            ready.then_some(MemPick::Issue(idx))
        })
    }

    /// Issues one eligible memory operation of `core`, if any. Load data
    /// is read into the destination register's own value buffer.
    fn try_issue_mem(
        &mut self,
        core: usize,
        now: Cycle,
        mem: &mut Memory,
        memsys: &mut MemorySystem,
        faults: &mut Option<FaultState>,
    ) -> bool {
        let capacity = mem.capacity() as u64;
        let idx = match self.pick_mem(core, capacity) {
            None => return false,
            // An out-of-range vector access is a typed fault, not a crash.
            Some(MemPick::Fault { addr, bytes }) => {
                self.trip(SimError::MemoryFault { core, addr, bytes, capacity });
                return false;
            }
            Some(MemPick::Issue(idx)) => idx,
        };
        let (store, addr, bytes, lanes, dst, src, pred) = {
            let e = &self.cores[core].lsu.entries()[idx];
            (e.store, e.addr, e.bytes, e.lanes, e.dst, e.src, e.pred)
        };
        let data = if store {
            // `pick_mem` only picks a store whose data source is ready.
            if let Some(src) = src {
                exec::store(mem, addr, self.prf.read(src), pred.map(|p| self.ppf.read(p)));
            }
            None
        } else {
            let mut data = dst.map_or_else(Vec::new, |d| self.prf.take_buffer(d));
            exec::load(mem, addr, lanes, pred.map(|p| self.ppf.read(p)), &mut data);
            Some(data)
        };
        let (served, level) = memsys.vector_access_traced(now, core, addr, bytes, store);
        let done = served + faults.as_mut().map_or(0, FaultState::spike_mem);
        if level != mem_sim::ServiceLevel::FirstLevel {
            self.event(now, Track::Memory, EventKind::CacheMiss { core, level });
        }
        let e = &mut self.cores[core].lsu.entries_mut()[idx];
        e.issued = true;
        e.complete_at = Some(done);
        e.data = data;
        let seq = e.seq;
        self.trace_event(now, core, seq, TraceStage::Issue, String::new());
        true
    }

    /// Stage 3: rename + the EM-SIMD data path. Updates rename-stall and
    /// phase statistics in `stats`; appends responses for waiting scalar
    /// cores to `resps`.
    pub(crate) fn rename(
        &mut self,
        now: Cycle,
        stats: &mut [CoreStats],
        faults: &mut Option<FaultState>,
        resps: &mut Vec<EmResponse>,
    ) {
        let mut em_budget = self.cfg.em_width;
        // Rotate the service order so the shared EM-SIMD data path cannot
        // be starved by other cores' vector-length retry loops (with a
        // fixed order, two spinning cores would consume every EM slot and
        // a third core's lane release would never execute — deadlock).
        let ncores = self.cores.len();
        let start = (now as usize) % ncores;
        for k in 0..ncores {
            let core = (start + k) % ncores;
            let mut budget = self.cfg.transmit_width;
            let mut stalled_on_regs = false;
            while budget > 0 && !self.cores[core].pool.is_empty() {
                let Some(front) = self.cores[core].pool.front().cloned() else { break };
                match front {
                    PoolEntry::Vector { inst, pred, aux } => {
                        if !self.rename_vector(core, inst, pred, aux, now, &mut stalled_on_regs) {
                            break;
                        }
                        self.cores[core].pool.pop_front();
                        budget -= 1;
                    }
                    PoolEntry::Em { inst, operand } => {
                        if em_budget == 0 {
                            break;
                        }
                        match self.exec_em(core, inst, operand, now, stats, faults) {
                            Some(resp) => {
                                resps.push(resp);
                                self.cores[core].pool.pop_front();
                                em_budget -= 1;
                                budget -= 1;
                            }
                            // Waiting for the pipeline to drain.
                            None => break,
                        }
                    }
                }
            }
            if stalled_on_regs {
                stats[core].rename_stall_cycles += 1;
            }
            if self.events.is_enabled() {
                if stalled_on_regs {
                    if self.cores[core].stall_since.is_none() {
                        self.cores[core].stall_since = Some(now);
                        self.event(now, Track::Core(core), EventKind::RenameStallBegin);
                    }
                } else if self.cores[core].stall_since.take().is_some() {
                    self.event(now, Track::Core(core), EventKind::RenameStallEnd);
                }
            }
        }
    }

    /// Rename's gate for the vector instruction `inst` at the head of
    /// `core`'s pool: structural space first, then a valid `<VL>`, then a
    /// free register entry in every block the destination spans.
    fn rename_gate(&self, core: usize, inst: &VectorInst) -> RenameGate {
        let ctx = &self.cores[core];
        let full = if inst.is_mem() {
            ctx.lsu.is_full()
        } else {
            ctx.iq.len() >= self.cfg.iq_entries
        };
        if full || ctx.rob.len() >= self.cfg.rob_entries {
            return RenameGate::Full;
        }
        if ctx.cur_vl.lanes() == 0 {
            return RenameGate::InvalidVl;
        }
        let regs_free = if inst.vector_dst().is_some() {
            self.blocks.can_reserve(&ctx.spans)
        } else if inst.pred_dst().is_some() {
            self.blocks.can_reserve_pred(&ctx.spans)
        } else {
            // Stores rename without reserving a destination.
            true
        };
        if regs_free {
            RenameGate::Go
        } else {
            RenameGate::RegStall
        }
    }

    /// Renames one vector instruction (`inst` governed by `pred`).
    /// Returns `false` when a structural or register-file stall blocks
    /// the pool head.
    fn rename_vector(
        &mut self,
        core: usize,
        inst: VectorInst,
        pred: Option<PReg>,
        aux: Option<u64>,
        now: Cycle,
        stalled_on_regs: &mut bool,
    ) -> bool {
        match self.rename_gate(core, &inst) {
            RenameGate::Full => return false,
            RenameGate::InvalidVl => {
                self.trip(SimError::InvalidVl {
                    core,
                    granules: 0,
                    detail: "vector instruction executed with <VL> = 0".into(),
                });
                return false;
            }
            RenameGate::RegStall => {
                *stalled_on_regs = true;
                return false;
            }
            RenameGate::Go => {}
        }
        let lanes = self.cores[core].cur_vl.lanes();

        // Read source mappings before redefining the destination (FMLA
        // reads its accumulator; merging predication reads the old
        // destination).
        let ctx = &self.cores[core];
        let srcs: RegList<PhysId> =
            inst.vector_srcs().iter().map(|v| ctx.rename_map[v.index()]).collect();
        let pred_phys = pred.map(|p| ctx.pred_rename[p.index()]);
        let psrcs: RegList<PhysId> =
            inst.pred_srcs().iter().map(|p| ctx.pred_rename[p.index()]).collect();
        // Merging predication needs the prior destination value — but only
        // for compute; predicated loads are zeroing.
        let merge = match (pred, inst.vector_dst()) {
            (Some(_), Some(d)) if !inst.is_mem() => Some(ctx.rename_map[d.index()]),
            _ => None,
        };

        let mut prev_phys = None;
        let mut dst_phys = None;
        let mut dst_class = RegClass::Vector;
        if let Some(d) = inst.vector_dst() {
            let ctx = &mut self.cores[core];
            let reserved = self.blocks.try_reserve(&ctx.spans);
            debug_assert!(reserved, "the rename gate checked the free entries");
            let id = self.prf.alloc(&ctx.spans, self.cfg.total_granules);
            prev_phys = Some((ctx.rename_map[d.index()], RegClass::Vector));
            ctx.rename_map[d.index()] = id;
            dst_phys = Some(id);
        } else if let Some(p) = inst.pred_dst() {
            let ctx = &mut self.cores[core];
            let reserved = self.blocks.try_reserve_pred(&ctx.spans);
            debug_assert!(reserved, "the rename gate checked the free entries");
            let id = self.ppf.alloc(&ctx.spans, self.cfg.total_granules);
            prev_phys = Some((ctx.pred_rename[p.index()], RegClass::Pred));
            ctx.pred_rename[p.index()] = id;
            dst_phys = Some(id);
            dst_class = RegClass::Pred;
        }

        let seq = self.next_seq;
        self.next_seq += 1;
        self.cores[core].rob.push_back(RobEntry { seq, done: false, prev_phys });
        if self.trace.is_enabled() {
            self.trace_event(now, core, seq, TraceStage::Rename, governed(&inst, pred).to_string());
        }

        if inst.is_mem() {
            let store = matches!(inst, VectorInst::Store { .. });
            let src = match &inst {
                VectorInst::Store { src, .. } => Some(self.cores[core].rename_map[src.index()]),
                _ => None,
            };
            self.cores[core].lsu.push(LsuEntry {
                seq,
                store,
                addr: {
                    debug_assert!(aux.is_some(), "memory instruction carries its address");
                    aux.unwrap_or(0)
                },
                bytes: (lanes * 4) as u64,
                lanes,
                dst: dst_phys,
                src,
                issued: false,
                complete_at: None,
                data: None,
                pred: pred_phys,
            });
        } else {
            self.cores[core].iq.push(IqEntry {
                seq,
                inst,
                gov: pred,
                srcs,
                dst: dst_phys,
                dst_class,
                pred: pred_phys,
                psrcs,
                merge,
                aux,
                lanes,
            });
        }
        true
    }

    /// The EM-SIMD data path's gate: whether `inst` must wait this cycle.
    /// Only `MSR <VL>` waits, for `core`'s SIMD pipeline to drain — the
    /// vector length only changes once the pipeline is empty (§4.2.2).
    fn em_must_wait(&self, core: usize, inst: &EmSimdInst) -> bool {
        matches!(inst, EmSimdInst::Msr { reg: DedicatedReg::Vl, .. })
            && !self.cores[core].rob.is_empty()
    }

    /// Executes one EM-SIMD instruction on the in-order EM-SIMD data
    /// path. Returns `None` when the instruction must wait (pipeline not
    /// drained for `MSR <VL>`). Also the EM-SIMD semantic core of the
    /// functional engine (`crate::functional`), which calls it on a
    /// drained pipeline so the wait case cannot occur there.
    pub(crate) fn exec_em(
        &mut self,
        core: usize,
        inst: EmSimdInst,
        operand: u64,
        now: Cycle,
        stats: &mut [CoreStats],
        faults: &mut Option<FaultState>,
    ) -> Option<EmResponse> {
        if self.em_must_wait(core, &inst) {
            if self.events.is_enabled() && self.cores[core].drain_start.is_none() {
                self.cores[core].drain_start = Some(now);
            }
            return None;
        }
        match inst {
            EmSimdInst::Msr { reg, .. } => {
                match reg {
                    DedicatedReg::Oi => self.write_oi(core, operand, now, stats, faults),
                    DedicatedReg::Vl => {
                        debug_assert!(self.cores[core].lsu.is_empty());
                        let from_granules = self.cores[core].cur_vl.granules();
                        let granules = (operand as usize).min(64);
                        let ok = self.try_set_vl(core, granules);
                        self.cores[core].status = u64::from(ok);
                        if ok {
                            if let Some(p) = self.cores[core].open_phase {
                                stats[core].phases[p].configured_granules = granules;
                            }
                        }
                        if self.events.is_enabled() {
                            let drain_cycles = self.cores[core]
                                .drain_start
                                .take()
                                .map_or(0, |s| now.saturating_sub(s));
                            self.event(
                                now,
                                Track::Core(core),
                                EventKind::VlReconfig {
                                    from_granules,
                                    to_granules: granules,
                                    drain_cycles,
                                    ok,
                                },
                            );
                        }
                    }
                    DedicatedReg::Decision => self.table.write(core, DedicatedReg::Decision, operand),
                    DedicatedReg::Status => self.cores[core].status = operand,
                    DedicatedReg::Al => { /* read-only to software; ignore */ }
                }
                Some(EmResponse { core, write_x: None })
            }
            EmSimdInst::Mrs { dst, reg } => {
                let value = self.read_dedicated(core, reg);
                Some(EmResponse { core, write_x: Some((dst, value)) })
            }
        }
    }

    fn read_dedicated(&self, core: usize, reg: DedicatedReg) -> u64 {
        match reg {
            DedicatedReg::Oi | DedicatedReg::Decision => self.table.read(core, reg),
            DedicatedReg::Vl => self.cores[core].cur_vl.granules() as u64,
            DedicatedReg::Status => self.cores[core].status,
            DedicatedReg::Al => {
                if self.arch == Architecture::TemporalSharing {
                    0
                } else {
                    self.table.free_granules() as u64
                }
            }
        }
    }

    /// Handles a write to `<OI>`: records phase boundaries and (on
    /// Occamy) triggers the lane manager to publish a new partition plan
    /// in every core's `<decision>` (§5).
    fn write_oi(
        &mut self,
        core: usize,
        operand: u64,
        now: Cycle,
        stats: &mut [CoreStats],
        faults: &mut Option<FaultState>,
    ) {
        let operand = match faults {
            Some(f) => f.corrupt_oi(operand),
            None => operand,
        };
        let operand = self.sanitize_oi(core, operand, stats);
        self.table.write(core, DedicatedReg::Oi, operand);
        let oi = OperationalIntensity::from_bits(operand);
        if oi.is_phase_end() {
            if let Some(p) = self.cores[core].open_phase.take() {
                let phase = &mut stats[core].phases[p];
                phase.end_cycle = Some(now);
                phase.compute_issued = stats[core].vector_compute_issued
                    + stats[core].vector_mem_issued
                    - self.cores[core].phase_start_issued;
                self.event(now, Track::Core(core), EventKind::PhaseEnd);
            }
        } else {
            self.cores[core].phase_start_issued =
                stats[core].vector_compute_issued + stats[core].vector_mem_issued;
            stats[core].phases.push(PhaseStats {
                oi,
                start_cycle: now,
                end_cycle: None,
                compute_issued: 0,
                configured_granules: self.cores[core].cur_vl.granules(),
            });
            self.cores[core].open_phase = Some(stats[core].phases.len() - 1);
            self.event(
                now,
                Track::Core(core),
                EventKind::PhaseBegin { oi_issue: oi.issue(), oi_mem: oi.mem() },
            );
        }

        self.replan(now, faults);
    }

    /// Validates a software `<OI>` hint against the roofline model's
    /// plausible range (§ detection & recovery). A hint that decodes to
    /// NaN/Inf, a negative intensity, or a value orders of magnitude past
    /// any machine balance point cannot come from an honest kernel, and
    /// feeding it to the planner would wreck the partition for every
    /// co-runner. Such hints fall back to the hardware monitor's measured
    /// intensity for the core; valid hints (and the phase-end marker)
    /// pass through bit-unchanged. Baselines have no planner to poison,
    /// so they keep the raw write.
    fn sanitize_oi(&mut self, core: usize, operand: u64, stats: &[CoreStats]) -> u64 {
        let Some(mgr) = &self.mgr else { return operand };
        let oi = OperationalIntensity::from_bits(operand);
        if oi.is_phase_end() {
            return operand;
        }
        let max = mgr.plausible_oi_max();
        let plausible = |x: f64| x.is_finite() && x >= 0.0 && x <= max;
        if plausible(oi.issue()) && plausible(oi.mem()) {
            return operand;
        }
        // Monitor path: FLOPs per byte from the issue counters (each
        // vector memory instruction moves ~4 bytes per lane), defaulting
        // to the machine balance point before any traffic exists. Clamped
        // away from zero so the fallback can never alias the phase-end
        // marker.
        let s = &stats[core];
        let measured = if s.vector_mem_issued == 0 {
            mgr.balance_point_oi()
        } else {
            s.vector_compute_issued as f64 / (4.0 * s.vector_mem_issued as f64)
        };
        self.hints_sanitized += 1;
        OperationalIntensity::uniform(measured.clamp(1e-6, max)).to_bits()
    }

    /// Re-runs the lane manager over the current `<OI>` registers and
    /// publishes the plan in every core's `<decision>` (no-op on the
    /// baseline architectures, which have no lane manager). Publishes a
    /// [`EventKind::Repartition`] event when the plan actually changed
    /// some core's `<decision>`.
    fn replan(&mut self, now: Cycle, faults: &mut Option<FaultState>) {
        let epoch = self.replan_epoch;
        self.replan_epoch = self.replan_epoch.wrapping_add(1);
        if self.mgr.is_none() {
            return;
        }
        let record = self.events.is_enabled();
        let old = if record { self.table.decisions() } else { Vec::new() };
        if let Some(mgr) = &self.mgr {
            let demands: Vec<PhaseDemand> = (0..self.cores.len())
                .map(|c| {
                    let oi =
                        OperationalIntensity::from_bits(self.table.read(c, DedicatedReg::Oi));
                    if oi.is_phase_end() {
                        PhaseDemand::Idle
                    } else {
                        PhaseDemand::Active(oi)
                    }
                })
                .collect();
            let plan = mgr.plan_rotated(&demands, epoch);
            for c in 0..self.cores.len() {
                let mut granules = plan.vl(c).granules() as u64;
                if let Some(f) = faults {
                    granules = f.perturb_decision(granules, self.cfg.total_granules as u64);
                }
                self.table.write(c, DedicatedReg::Decision, granules);
            }
        }
        if record {
            let new = self.table.decisions();
            if new != old {
                self.event(now, Track::LaneManager, EventKind::Repartition { epoch, old, new });
            }
        }
    }

    /// Whether this co-processor has a lane manager (Occamy) — the only
    /// architecture that can repartition around a retired granule.
    pub(crate) fn has_lane_manager(&self) -> bool {
        self.mgr.is_some()
    }

    /// Whether a corrupted (tagged) compute result is still in flight —
    /// checkpoints must not be taken while one is, or the rollback would
    /// replay the corruption forever.
    pub(crate) fn inflight_tainted(&self) -> bool {
        self.inflight.iter().any(|f| f.faulted.is_some())
    }

    /// Starts quarantining `granule` (§ detection & recovery): the block
    /// is marked for lazy drain (retired immediately when free), the lane
    /// manager stops planning over it, and a fresh plan is published so
    /// the owning core sheds it at its next partition point. Returns
    /// `false` when the granule was already quarantined, is out of range,
    /// or there is no lane manager to repartition around it.
    pub(crate) fn begin_quarantine(&mut self, granule: usize, now: Cycle) -> bool {
        if self.mgr.is_none() || granule >= self.cfg.total_granules {
            return false;
        }
        if !self.blocks.begin_quarantine(granule) {
            return false;
        }
        if let Some(mgr) = &mut self.mgr {
            mgr.retire_granule();
        }
        if self.blocks.health(granule) == LaneHealth::Retired {
            // The block was free, so it leaves the resource table now;
            // owned blocks retire in `maintain_quarantine` once drained.
            let retired = self.table.retire_granule();
            debug_assert!(retired, "a free block implies a free table slot");
        }
        self.event(now, Track::Recovery, EventKind::QuarantineBegin { granule });
        self.replan(now, &mut None);
        true
    }

    /// Finishes quarantines whose owner has shed the block since the last
    /// cycle, shrinking the resource table to the survivors. A block only
    /// retires when the table has a free slot to give up (always true on
    /// planner-driven machines; adversarial programs can briefly
    /// over-acquire, in which case the block stays draining until a slot
    /// frees). Returns the number of granules newly retired.
    pub(crate) fn maintain_quarantine(&mut self, now: Cycle) -> usize {
        let mut retired = 0;
        for b in self.blocks.draining_blocks() {
            if self.blocks.owner(b) == BlockOwner::Free
                && self.table.retire_granule()
                && self.blocks.try_finish_drain(b)
            {
                retired += 1;
                self.event(now, Track::Recovery, EventKind::GranuleRetired { granule: b });
            }
        }
        retired
    }

    /// The `(draining, retired)` granule counts of the quarantine state
    /// machine.
    pub(crate) fn quarantine_counts(&self) -> (usize, usize) {
        (self.blocks.draining_blocks().len(), self.blocks.retired_blocks().len())
    }

    /// Cross-checks the lane bookkeeping after quarantine and elastic
    /// repartitioning: no block assigned to two cores, no retired block
    /// still spanned, spans consistent with block ownership, occupancy
    /// bounded by the surviving granules, and the resource-table
    /// conservation invariant intact.
    pub(crate) fn lane_audit(&self) -> Result<(), String> {
        let mut seen = vec![false; self.blocks.num_blocks()];
        for (c, ctx) in self.cores.iter().enumerate() {
            for &b in &ctx.spans {
                if b >= seen.len() {
                    return Err(format!("core {c} spans out-of-range block {b}"));
                }
                if self.arch != Architecture::TemporalSharing {
                    if seen[b] {
                        return Err(format!("block {b} assigned to two cores"));
                    }
                    if self.blocks.owner(b) != BlockOwner::Core(c) {
                        return Err(format!("core {c} spans block {b} it does not own"));
                    }
                }
                seen[b] = true;
                if self.blocks.health(b) == LaneHealth::Retired {
                    return Err(format!("core {c} still spans retired block {b}"));
                }
            }
        }
        let retired = self.blocks.retired_blocks().len();
        let surviving = self.cfg.total_granules.saturating_sub(retired);
        if self.arch != Architecture::TemporalSharing {
            let occupied: usize = self.cores.iter().map(|c| c.spans.len()).sum();
            if occupied > surviving {
                return Err(format!(
                    "{occupied} granules occupied but only {surviving} survive"
                ));
            }
        }
        if !self.table.invariant_holds() {
            return Err("resource-table conservation (VL + AL == total) violated".into());
        }
        Ok(())
    }

    /// OS context save (§5): with the core's pipelines drained, captures
    /// the dedicated registers and the architectural vector state, then
    /// releases the core's lanes and re-triggers partitioning so the
    /// co-running workloads can absorb them.
    ///
    /// # Panics
    ///
    /// Panics if the core is not drained.
    pub(crate) fn os_save(&mut self, core: usize, now: Cycle) -> OsContext {
        assert!(self.is_drained(core), "context save requires drained pipelines (§5)");
        let ctx = OsContext {
            oi: self.table.read(core, DedicatedReg::Oi),
            decision: self.table.read(core, DedicatedReg::Decision),
            vl: self.cores[core].cur_vl.granules(),
            status: self.cores[core].status,
            vregs: (0..NUM_VREGS)
                .map(|v| self.prf.read(self.cores[core].rename_map[v]).to_vec())
                .collect(),
            pregs: (0..NUM_PREGS)
                .map(|p| self.ppf.read(self.cores[core].pred_rename[p]).to_vec())
                .collect(),
        };
        let released = self.try_set_vl(core, 0);
        debug_assert!(released, "releasing lanes cannot fail");
        self.table.write(core, DedicatedReg::Oi, 0);
        self.replan(now, &mut None);
        ctx
    }

    /// OS context restore (§5): re-declares the saved `<OI>` (triggering
    /// a new partition), then attempts to re-acquire the saved vector
    /// length and vector state. Returns `false` while the lanes are not
    /// yet available — the OS retries as co-runners shed lanes.
    pub(crate) fn os_try_restore(&mut self, core: usize, ctx: &OsContext, now: Cycle) -> bool {
        assert!(self.is_drained(core), "context restore requires a quiesced core");
        self.table.write(core, DedicatedReg::Oi, ctx.oi);
        self.replan(now, &mut None);
        if !self.try_set_vl(core, ctx.vl) {
            return false;
        }
        self.cores[core].status = ctx.status;
        self.table.write(core, DedicatedReg::Decision, ctx.decision);
        // Restore the architectural vector values at the re-acquired
        // width (alloc_arch_regs left them zeroed).
        for (v, value) in ctx.vregs.iter().enumerate() {
            self.prf.swap_value(self.cores[core].rename_map[v], &mut value.clone());
        }
        for (p, value) in ctx.pregs.iter().enumerate() {
            self.ppf.swap_value(self.cores[core].pred_rename[p], &mut value.clone());
        }
        true
    }

    /// Attempts the architecture-specific vector-length reconfiguration.
    /// The caller has verified the core's pipeline is drained.
    fn try_set_vl(&mut self, core: usize, granules: usize) -> bool {
        let total = self.cfg.total_granules;
        if self.arch == Architecture::TemporalSharing {
            // Temporal sharing runs every core at full width.
            if granules != 0 && granules != total {
                return false;
            }
            // The free lists are shared: the other cores' in-flight
            // registers may leave no room for this core's architectural
            // state. Fail (status 0) and let the software retry — a real
            // contention cost of temporal sharing.
            let old = &self.cores[core].spans;
            let fits = granules == 0
                || (0..total).all(|b| {
                    let released = if old.contains(&b) { NUM_VREGS } else { 0 };
                    let released_p = if old.contains(&b) { NUM_PREGS } else { 0 };
                    self.blocks.free_entries(b) + released >= NUM_VREGS
                        && self.blocks.free_pred_entries(b) + released_p >= NUM_PREGS
                });
            if !fits {
                return false;
            }
        } else if self.table.try_reconfigure(core, VectorLength::new(granules)).is_err() {
            return false;
        }
        self.release_arch_regs(core);
        let mut spans = std::mem::take(&mut self.cores[core].spans);
        if self.arch == Architecture::TemporalSharing {
            spans.clear();
            if granules != 0 {
                spans.extend(0..total);
            }
        } else {
            self.blocks.reassign(core, granules, &mut spans);
        }
        self.alloc_arch_regs(core, spans, granules);
        true
    }

    fn release_arch_regs(&mut self, core: usize) {
        for v in 0..NUM_VREGS {
            self.prf.free(self.cores[core].rename_map[v], |b| self.blocks.release(b));
        }
        for p in 0..NUM_PREGS {
            self.ppf.free(self.cores[core].pred_rename[p], |b| self.blocks.release_pred(b));
        }
    }

    fn alloc_arch_regs(&mut self, core: usize, spans: Vec<usize>, granules: usize) {
        debug_assert!(
            spans.iter().all(|&b| {
                let owner = self.blocks.owner(b);
                owner == BlockOwner::Shared || owner == BlockOwner::Core(core)
            }),
            "core {core} allocating registers in blocks it does not own"
        );
        let lanes = granules * em_simd::LANES_PER_GRANULE;
        for v in 0..NUM_VREGS {
            let reserved = self.blocks.try_reserve(&spans);
            debug_assert!(reserved, "architectural registers must always fit (32 of {})",
                self.cfg.vregs_per_block);
            if !reserved {
                self.trip(SimError::RegBlockExhausted {
                    core,
                    requested: NUM_VREGS,
                    detail: format!(
                        "architectural vector registers do not fit ({NUM_VREGS} of {})",
                        self.cfg.vregs_per_block
                    ),
                });
            }
            let id = self.prf.alloc_zeroed(&spans, lanes, self.cfg.total_granules);
            self.cores[core].rename_map[v] = id;
        }
        for p in 0..NUM_PREGS {
            let reserved = self.blocks.try_reserve_pred(&spans);
            debug_assert!(reserved, "architectural predicates must always fit (8 of {})",
                self.cfg.pregs_per_block);
            if !reserved {
                self.trip(SimError::RegBlockExhausted {
                    core,
                    requested: NUM_PREGS,
                    detail: format!(
                        "architectural predicate registers do not fit ({NUM_PREGS} of {})",
                        self.cfg.pregs_per_block
                    ),
                });
            }
            let id = self.ppf.alloc_zeroed(&spans, lanes, self.cfg.total_granules);
            self.cores[core].pred_rename[p] = id;
        }
        self.cores[core].cur_vl = VectorLength::new(granules);
        self.cores[core].spans = spans;
    }

    /// Debug/test hook: the number of free entries in each block.
    pub(crate) fn block_free_entries(&self) -> Vec<usize> {
        (0..self.blocks.num_blocks()).map(|b| self.blocks.free_entries(b)).collect()
    }

    /// Borrows the current architectural value of a vector register —
    /// the allocation-free read path of the functional engine's
    /// instruction loop.
    pub(crate) fn vreg(&self, core: usize, v: VReg) -> &[f32] {
        self.prf.read(self.cores[core].rename_map[v.index()])
    }

    /// Borrows the current architectural value of a predicate register
    /// (see [`vreg`](Self::vreg)).
    pub(crate) fn preg(&self, core: usize, p: PReg) -> &[f32] {
        self.ppf.read(self.cores[core].pred_rename[p.index()])
    }

    /// Overwrites an architectural vector register in place (functional
    /// engine) by swapping buffers: `value` receives the old value's
    /// buffer for reuse. The physical entry and its register blocks are
    /// unchanged.
    pub(crate) fn write_vreg(&mut self, core: usize, v: VReg, value: &mut Vec<f32>) {
        self.prf.swap_value(self.cores[core].rename_map[v.index()], value);
    }

    /// Overwrites an architectural predicate register in place
    /// (functional engine; see [`write_vreg`](Self::write_vreg)).
    pub(crate) fn write_preg(&mut self, core: usize, p: PReg, value: &mut Vec<f32>) {
        self.ppf.swap_value(self.cores[core].pred_rename[p.index()], value);
    }
}

impl CoProcessor {
    /// The configuration this co-processor was built with; checkpoint
    /// decoding cross-checks it against the machine's copy.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.cfg
    }
}

// --- Checkpoint serialization --------------------------------------------
//
// `trace`, `events` and the latched `fault` are NOT serialized: snapshot
// I/O refuses machines with any of them active (see
// `Machine::snapshot_io_refusal`), and decode reconstructs the disabled /
// empty defaults. Everything else — including the out-of-order windows —
// round-trips exactly.

// Hand-written so a pool entry encodes exactly like the instruction it
// was transmitted as: the governing predicate is written as the
// `Predicated` wrapper it was split from.
impl statecodec::Codec for PoolEntry {
    fn encode(&self, sink: &mut statecodec::Sink) {
        match self {
            PoolEntry::Vector { inst, pred, aux } => {
                sink.put_byte(0);
                statecodec::Codec::encode(&governed(inst, *pred), sink);
                statecodec::Codec::encode(aux, sink);
            }
            PoolEntry::Em { inst, operand } => {
                sink.put_byte(1);
                statecodec::Codec::encode(inst, sink);
                statecodec::Codec::encode(operand, sink);
            }
        }
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        match <u8 as statecodec::Codec>::decode(src)? {
            0 => {
                let (inst, pred) = ungoverned(statecodec::Codec::decode(src)?);
                Ok(PoolEntry::Vector { inst, pred, aux: statecodec::Codec::decode(src)? })
            }
            1 => Ok(PoolEntry::Em {
                inst: statecodec::Codec::decode(src)?,
                operand: statecodec::Codec::decode(src)?,
            }),
            other => {
                Err(statecodec::DecodeError::at(src, format!("invalid tag {other} for PoolEntry")))
            }
        }
    }
}

statecodec::impl_codec_enum!(RegClass {
    0 => Vector,
    1 => Pred,
});

// Hand-written for the same reason as `PoolEntry`: `inst` and `gov`
// encode as the one instruction they were split from.
impl statecodec::Codec for IqEntry {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.seq, sink);
        statecodec::Codec::encode(&governed(&self.inst, self.gov), sink);
        statecodec::Codec::encode(&self.srcs, sink);
        statecodec::Codec::encode(&self.dst, sink);
        statecodec::Codec::encode(&self.dst_class, sink);
        statecodec::Codec::encode(&self.pred, sink);
        statecodec::Codec::encode(&self.psrcs, sink);
        statecodec::Codec::encode(&self.merge, sink);
        statecodec::Codec::encode(&self.aux, sink);
        statecodec::Codec::encode(&self.lanes, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let seq = statecodec::Codec::decode(src)?;
        let (inst, gov) = ungoverned(statecodec::Codec::decode(src)?);
        Ok(IqEntry {
            seq,
            inst,
            gov,
            srcs: statecodec::Codec::decode(src)?,
            dst: statecodec::Codec::decode(src)?,
            dst_class: statecodec::Codec::decode(src)?,
            pred: statecodec::Codec::decode(src)?,
            psrcs: statecodec::Codec::decode(src)?,
            merge: statecodec::Codec::decode(src)?,
            aux: statecodec::Codec::decode(src)?,
            lanes: statecodec::Codec::decode(src)?,
        })
    }
}
statecodec::impl_codec!(RobEntry { seq, done, prev_phys });
statecodec::impl_codec!(InflightCompute {
    complete_at,
    core,
    dst,
    dst_class,
    value,
    scalar_wb,
    rob_seq,
    faulted,
});
statecodec::impl_codec!(CoreCtx {
    pool,
    iq,
    lsu,
    rob,
    rename_map,
    pred_rename,
    cur_vl,
    status,
    spans,
    open_phase,
    phase_start_issued,
    drain_start,
    stall_since,
});

// Hand-written so decode re-validates the configuration and the
// cross-structure invariants a later pipeline step would otherwise
// index-panic on.
impl statecodec::Codec for CoProcessor {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.cfg, sink);
        statecodec::Codec::encode(&self.arch, sink);
        statecodec::Codec::encode(&self.blocks, sink);
        statecodec::Codec::encode(&self.prf, sink);
        statecodec::Codec::encode(&self.ppf, sink);
        statecodec::Codec::encode(&self.cores, sink);
        statecodec::Codec::encode(&self.table, sink);
        statecodec::Codec::encode(&self.mgr, sink);
        statecodec::Codec::encode(&self.inflight, sink);
        statecodec::Codec::encode(&self.next_seq, sink);
        statecodec::Codec::encode(&self.retired, sink);
        statecodec::Codec::encode(&self.corrected_inline, sink);
        statecodec::Codec::encode(&self.hints_sanitized, sink);
        statecodec::Codec::encode(&self.replan_epoch, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let cfg: SimConfig = statecodec::Codec::decode(src)?;
        let arch: Architecture = statecodec::Codec::decode(src)?;
        let blocks: RegBlocks = statecodec::Codec::decode(src)?;
        let prf: PhysRegFile = statecodec::Codec::decode(src)?;
        let ppf: PhysRegFile = statecodec::Codec::decode(src)?;
        let cores: Vec<CoreCtx> = statecodec::Codec::decode(src)?;
        let table: ResourceTable = statecodec::Codec::decode(src)?;
        let mgr: Option<LaneManager> = statecodec::Codec::decode(src)?;
        let inflight: Vec<InflightCompute> = statecodec::Codec::decode(src)?;
        let next_seq = <u64 as statecodec::Codec>::decode(src)?;
        let retired = <u64 as statecodec::Codec>::decode(src)?;
        let corrected_inline = <u64 as statecodec::Codec>::decode(src)?;
        let hints_sanitized = <u64 as statecodec::Codec>::decode(src)?;
        let replan_epoch = <usize as statecodec::Codec>::decode(src)?;

        cfg.validate().map_err(|e| statecodec::DecodeError::at(src, e))?;
        cfg.validate_arch(&arch).map_err(|e| statecodec::DecodeError::at(src, e))?;
        if cores.len() != cfg.cores {
            return Err(statecodec::DecodeError::at(
                src,
                format!("co-processor holds {} core contexts for {} cores", cores.len(), cfg.cores),
            ));
        }
        if blocks.num_blocks() != cfg.total_granules {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "{} register blocks for {} granules",
                    blocks.num_blocks(),
                    cfg.total_granules
                ),
            ));
        }
        if table.num_cores() != cfg.cores {
            return Err(statecodec::DecodeError::at(
                src,
                format!("resource table serves {} of {} cores", table.num_cores(), cfg.cores),
            ));
        }
        let nv = prf.slot_count();
        let np = ppf.slot_count();
        for ctx in &cores {
            if ctx.rename_map.iter().any(|p| p.0 as usize >= nv)
                || ctx.pred_rename.iter().any(|p| p.0 as usize >= np)
            {
                return Err(statecodec::DecodeError::at(
                    src,
                    "rename map references a physical register beyond the file",
                ));
            }
            if ctx.spans.iter().any(|&b| b >= blocks.num_blocks()) {
                return Err(statecodec::DecodeError::at(
                    src,
                    "core spanning set references a register block beyond the machine",
                ));
            }
            // Compute issue takes the first ready entry as the oldest.
            if ctx.iq.windows(2).any(|w| w[0].seq >= w[1].seq) {
                return Err(statecodec::DecodeError::at(src, "issue queue out of age order"));
            }
        }
        Ok(CoProcessor {
            cfg,
            arch,
            blocks,
            prf,
            ppf,
            cores,
            table,
            mgr,
            inflight,
            next_seq,
            retired,
            fault: None,
            corrected_inline,
            hints_sanitized,
            replan_epoch,
            trace: Trace::disabled(),
            events: EventLog::disabled(),
        })
    }
}
