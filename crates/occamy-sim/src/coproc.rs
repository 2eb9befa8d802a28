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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use em_simd::{
    DedicatedReg, EmSimdInst, OperationalIntensity, PReg, RegList, VReg, VectorInst,
    VectorLength, XReg,
};
use lane_manager::{LaneManager, PhaseDemand, ResourceTable};
use mem_sim::{Cycle, Memory, MemorySystem};
use roofline::{MachineCeilings, MemLevel};

use crate::config::{Architecture, SimConfig};
use crate::error::SimError;
use crate::events::{Event, EventKind, EventLog, TraceStage, Track};
use crate::exec;
use crate::fault::FaultState;
use crate::lsu::{Lsu, LsuEntry};
use crate::regblocks::{
    ArchReg, BlockOwner, LaneHealth, PhysId, PhysRegFile, RegBlocks, RegClass, SameBits,
    ARCH_REGS, NO_WAITER,
};
use crate::slotset::SlotSet;
use crate::stats::{CoreStats, PhaseStats};

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
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarWriteback {
    pub core: usize,
    pub reg: XReg,
    pub value: f32,
}

impl PartialEq for ScalarWriteback {
    fn eq(&self, other: &Self) -> bool {
        let ScalarWriteback { core, reg, value } = self;
        *core == other.core && *reg == other.reg && value.same_bits(&other.value)
    }
}

/// A saved EM-SIMD context: the five dedicated registers plus the
/// architectural vector and predicate state (§5: the OS saves these
/// across context switches).
#[derive(Debug, Clone)]
pub(crate) struct OsContext {
    pub oi: u64,
    pub decision: u64,
    pub vl: usize,
    pub status: u64,
    /// Each class's architectural values, in register order.
    pub regs: [Vec<Vec<f32>>; 2],
}

impl PartialEq for OsContext {
    fn eq(&self, other: &Self) -> bool {
        let OsContext { oi, decision, vl, status, regs } = self;
        *oi == other.oi
            && *decision == other.decision
            && *vl == other.vl
            && *status == other.status
            && regs.same_bits(&other.regs)
    }
}

/// Outcome of the event kernel's per-core co-processor inertness probe
/// ([`CoProcessor::core_activity`]): whether a `tick` at the probed cycle
/// would change any co-processor state for the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CoprocActivity {
    /// Nothing would happen this cycle. `reg_stall` reports whether the
    /// pool head is a vector instruction stalled on register-block
    /// exhaustion — the one inert case with a per-cycle statistics
    /// side-effect (`rename_stall_cycles`), which a jump charges once
    /// for its whole span.
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
    /// The entry's ROB position (derived; see [`Rob`]).
    rob: u64,
    /// Operands not yet written back (derived; see [`IssueQueue`]).
    unready: u8,
}

impl IqEntry {
    /// The operands the entry reads, with their classes: the vector
    /// sources, the merge source, the governing predicate and the
    /// predicate sources, in the order issue subscribes to them.
    fn operands(&self) -> impl Iterator<Item = (RegClass, PhysId)> + '_ {
        let vector = self.srcs.iter().chain(&self.merge).map(|&id| (RegClass::Vector, id));
        vector.chain(self.pred.iter().chain(self.psrcs.iter()).map(|&id| (RegClass::Pred, id)))
    }

    /// Whether every operand is ready, so the entry can issue.
    fn ready(&self, files: &[PhysRegFile; 2]) -> bool {
        self.operands().all(|(class, id)| files[class].is_ready(id))
    }
}

/// The destination register `inst` renames, with its class, as a
/// position in a core's rename map.
fn dst_reg(inst: &VectorInst) -> Option<(RegClass, usize)> {
    let vector = inst.vector_dst().map(|d| (RegClass::Vector, d.map_index()));
    vector.or_else(|| inst.pred_dst().map(|p| (RegClass::Pred, p.map_index())))
}

/// The event of an instruction reaching a stage after rename (only
/// the rename event carries the disassembly).
fn stage_kind(core: usize, seq: u64, stage: TraceStage) -> EventKind {
    EventKind::Stage { core, seq, stage, disasm: String::new() }
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

/// Operand occurrences an IQ entry can wait on: its vector sources, the
/// merge source, the governing predicate and its predicate sources.
const WAITS_PER_ENTRY: usize = 2 * RegList::<PhysId>::CAPACITY + 2;

/// One core's issue queue, kept so that compute issue never scans it.
///
/// Entries live in a ring: the `n`-th entry enqueued takes slot
/// `n % span`.
/// Every live entry holds a ROB entry that cannot retire before it, so
/// with a ROB-sized span no two live entries share a slot, and the walk
/// from the slot the next entry will take visits live entries oldest
/// first. Each entry counts its operands not yet written back
/// (`IqEntry::unready`) and is subscribed to each such register's
/// waiter list (the head lives in the [`PhysRegFile`] slot, the links
/// here); a writeback walks the list and decrements the counts. Entries
/// at zero sit in `ready`, so the oldest ready entry is one bitset walk
/// away. All of this is derived from the entries and the register
/// files' readiness: snapshots encode only the entries.
#[derive(Debug, Clone, PartialEq)]
struct IssueQueue {
    slots: Vec<Option<IqEntry>>,
    /// Next-links of the waiter nodes, [`WAITS_PER_ENTRY`] per slot.
    links: Vec<u32>,
    ready: SlotSet,
    /// The slot the next entry takes, where the age-order walk starts.
    next: usize,
    len: usize,
}

impl IssueQueue {
    fn new(span: usize) -> Self {
        let span = span.max(1);
        IssueQueue {
            slots: vec![None; span],
            links: vec![NO_WAITER; span * WAITS_PER_ENTRY],
            ready: SlotSet::new(span),
            next: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn span(&self) -> usize {
        self.slots.len()
    }

    /// Stores `e` in the next slot, ready if none of its operands is
    /// outstanding.
    fn insert(&mut self, e: IqEntry) {
        let slot = self.next;
        debug_assert!(self.slots[slot].is_none(), "issue-queue ring overrun");
        if e.unready == 0 {
            self.ready.insert(slot);
        }
        self.slots[slot] = Some(e);
        self.next = if slot + 1 == self.span() { 0 } else { slot + 1 };
        self.len += 1;
    }

    /// One outstanding operand of the entry in `slot` was written back.
    fn operand_ready(&mut self, slot: usize) {
        if let Some(e) = &mut self.slots[slot] {
            debug_assert!(e.unready > 0, "wake-up of a ready entry");
            e.unready = e.unready.saturating_sub(1);
            if e.unready == 0 {
                self.ready.insert(slot);
            }
        }
    }

    /// The slot of the oldest entry whose operands are all ready.
    fn oldest_ready(&self) -> Option<usize> {
        self.ready.first_from(self.next)
    }

    /// Removes the entry in `slot` (it issues).
    fn take(&mut self, slot: usize) -> Option<IqEntry> {
        let e = self.slots[slot].take()?;
        self.ready.remove(slot);
        self.len -= 1;
        Some(e)
    }

    /// The live entries in age order, with their slots.
    fn entries(&self) -> impl Iterator<Item = (usize, &IqEntry)> + '_ {
        let (start, span) = (self.next, self.span());
        (0..span).filter_map(move |i| {
            let slot = (start + i) % span;
            Some((slot, self.slots[slot].as_ref()?))
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RobEntry {
    seq: u64,
    done: bool,
    prev_phys: Option<(PhysId, RegClass)>,
}

/// A core's reorder buffer. Entries are addressed by position — the
/// number of entries pushed before them — so a completion marks its
/// entry done by index instead of searching for its `seq`.
#[derive(Debug, Clone, PartialEq, Default)]
struct Rob {
    entries: VecDeque<RobEntry>,
    /// Entries retired so far: the position of the head.
    retired: u64,
}

impl Rob {
    /// Appends `e` and returns its position.
    fn push(&mut self, e: RobEntry) -> u64 {
        self.entries.push_back(e);
        self.retired + self.entries.len() as u64 - 1
    }

    fn front(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    fn pop_front(&mut self) -> Option<RobEntry> {
        let e = self.entries.pop_front()?;
        self.retired += 1;
        Some(e)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marks the entry at position `pos` (instruction `seq`) done.
    fn mark_done(&mut self, pos: u64, seq: u64) {
        let entry = pos
            .checked_sub(self.retired)
            .and_then(|i| self.entries.get_mut(usize::try_from(i).ok()?));
        let Some(e) = entry else {
            debug_assert!(false, "ROB entry {seq} vanished");
            return;
        };
        debug_assert!(e.seq == seq && !e.done, "ROB position {pos} is not pending {seq}");
        e.done = true;
    }

    /// The position of the pending (not done) entry for `seq`: how
    /// snapshot decode re-derives the positions it does not encode.
    fn position(&self, seq: u64) -> Option<u64> {
        let i = self.entries.binary_search_by_key(&seq, |e| e.seq).ok()?;
        (!self.entries[i].done).then_some(self.retired + i as u64)
    }
}

/// The writeback schedule: a min-heap of `(cycle, completion)`, each
/// completion packed into one `u64` that sorts like [`Completion`].
#[derive(Debug, Clone, Default)]
struct Completions(BinaryHeap<Reverse<(Cycle, u64)>>);

/// The packed [`Completion::Memory`] tag: above every compute index.
const MEMORY: u64 = 1 << 63;
/// A packed memory completion holds the core (below 64, per
/// `SimConfig::validate`) above its LSU position's low `POS_BITS` bits.
const POS_BITS: u32 = 57;
const POS_MASK: u64 = (1 << POS_BITS) - 1;

impl Completions {
    fn with_capacity(n: usize) -> Self {
        Completions(BinaryHeap::with_capacity(n))
    }

    fn push(&mut self, at: Cycle, c: Completion) {
        let packed = match c {
            Completion::Compute(n) => n & !MEMORY,
            Completion::Memory { core, pos } => {
                MEMORY | ((core as u64) << POS_BITS) | (pos & POS_MASK)
            }
        };
        self.0.push(Reverse((at, packed)));
    }

    /// The earliest scheduled cycle.
    fn next(&self) -> Option<Cycle> {
        self.0.peek().map(|&Reverse((at, _))| at)
    }

    /// Removes and returns the first completion due by `now`.
    fn pop_due(&mut self, now: Cycle) -> Option<Completion> {
        if self.next()? > now {
            return None;
        }
        let Reverse((_, packed)) = self.0.pop()?;
        Some(if packed & MEMORY == 0 {
            Completion::Compute(packed)
        } else {
            let core = ((packed & !MEMORY) >> POS_BITS) as usize;
            Completion::Memory { core, pos: packed & POS_MASK }
        })
    }
}

// Heaps built by the same pushes and pops have the same layout.
impl PartialEq for Completions {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_slice() == other.0.as_slice()
    }
}

/// A scheduled writeback. Within a cycle, completions order the way
/// `complete` has always processed one: compute results in issue order,
/// then each core's memory accesses in age order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Completion {
    /// The in-flight compute result issued `n`-th (see
    /// `CoProcessor::inflight`).
    Compute(u64),
    /// The access at LSU position `pos` of `core`.
    Memory { core: usize, pos: u64 },
}

/// Extra cycles charged when a corrupted result on an already-quarantined
/// granule is corrected in place (re-execution on a healthy granule)
/// instead of tripping another rollback.
const RETRY_PENALTY: Cycle = 12;

/// Bit XORed into a corrupted lane (mantissa bit 22: visibly wrong on any
/// normal operand without manufacturing NaN/Inf out of thin air).
const LANE_FLIP: u32 = 0x0040_0000;

#[derive(Debug, Clone)]
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
    /// The ROB position of `rob_seq` (derived; see [`Rob`]).
    rob: u64,
}

impl PartialEq for InflightCompute {
    fn eq(&self, other: &Self) -> bool {
        let InflightCompute {
            complete_at,
            core,
            dst,
            dst_class,
            value,
            scalar_wb,
            rob_seq,
            faulted,
            rob,
        } = self;
        let wb_bits = |wb: &Option<(XReg, f32)>| wb.map(|(reg, v)| (reg, v.to_bits()));
        *complete_at == other.complete_at
            && *core == other.core
            && *dst == other.dst
            && *dst_class == other.dst_class
            && value.same_bits(&other.value)
            && wb_bits(scalar_wb) == wb_bits(&other.scalar_wb)
            && *rob_seq == other.rob_seq
            && *faulted == other.faulted
            && *rob == other.rob
    }
}

#[derive(Debug, Clone, PartialEq)]
struct CoreCtx {
    pool: VecDeque<PoolEntry>,
    iq: IssueQueue,
    lsu: Lsu,
    rob: Rob,
    /// The physical register each architectural register maps to, both
    /// classes in one map ([`RegClass::arch_regs`]).
    rename: [PhysId; ARCH_REGS],
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
    /// The physical register file of each class.
    files: [PhysRegFile; 2],
    cores: Vec<CoreCtx>,
    table: ResourceTable,
    mgr: Option<LaneManager>,
    /// In-flight compute results in issue order: slot `n - inflight_base`
    /// holds the `n`-th issued, emptied when it completes and dropped
    /// once every older one has completed too.
    inflight: VecDeque<Option<InflightCompute>>,
    inflight_base: u64,
    /// Every scheduled writeback — in-flight compute and issued LSU
    /// accesses — by cycle: the earliest is the co-processor's term of
    /// the skip horizon, and `complete` touches only what is due.
    completions: Completions,
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
    /// Structured event log: instruction stages and machine events
    /// (disabled by default).
    pub(crate) events: EventLog,
}

impl CoProcessor {
    pub(crate) fn new(cfg: SimConfig, arch: Architecture) -> Self {
        let mut blocks =
            RegBlocks::new(cfg.total_granules, RegClass::ALL.map(|c| cfg.regs_per_block(c)));
        if arch == Architecture::TemporalSharing {
            blocks.set_all_shared();
        }
        let cores = (0..cfg.cores)
            .map(|_| CoreCtx {
                pool: VecDeque::new(),
                iq: IssueQueue::new(cfg.rob_entries),
                lsu: Lsu::new(cfg.lsu_entries, cfg.rob_entries),
                rob: Rob::default(),
                rename: [PhysId::default(); ARCH_REGS],
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
        let completions = Completions::with_capacity(cfg.cores * cfg.rob_entries);
        let mut co = CoProcessor {
            cfg,
            arch,
            blocks,
            files: Default::default(),
            cores,
            table,
            mgr,
            inflight: VecDeque::new(),
            inflight_base: 0,
            completions,
            next_seq: 0,
            retired: 0,
            fault: None,
            corrected_inline: 0,
            hints_sanitized: 0,
            replan_epoch: 0,
            events: EventLog::disabled(),
        };
        // Zero-width architectural registers spanning no block.
        for core in 0..co.cores.len() {
            co.alloc_arch_regs(core, Vec::new(), 0);
        }
        co
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

    /// Whether any writeback — an in-flight compute result or an issued
    /// LSU access — is due at `now`: a machine-wide activity signal the
    /// event kernel checks before probing cores.
    pub(crate) fn completion_due(&self, now: Cycle) -> bool {
        self.next_completion().is_some_and(|at| at <= now)
    }

    /// The earliest pending writeback, if any: the co-processor's term
    /// of the event kernel's skip horizon.
    pub(crate) fn next_completion(&self) -> Option<Cycle> {
        self.completions.next()
    }

    /// The event kernel's inertness probe for one core: decides — without
    /// mutating anything — whether a `tick` at the current cycle would
    /// change co-processor state for `core`, given no writeback is due
    /// ([`completion_due`](Self::completion_due)). Built from the
    /// stages' own gates ([`oldest_ready`](Self::oldest_ready),
    /// [`pick_mem`](Self::pick_mem), [`rename_gate`](Self::rename_gate),
    /// [`em_must_wait`](Self::em_must_wait)); only the event-log edges
    /// are checked here. When in doubt the probe answers
    /// [`CoprocActivity::Active`], which merely forgoes a skip and can
    /// never change results.
    pub(crate) fn core_activity(&self, core: usize, mem_capacity: u64) -> CoprocActivity {
        let ctx = &self.cores[core];
        // Stage 1 (complete): a retirement-ready ROB head. (Due
        // writebacks are ruled out machine-wide by `completion_due`
        // before cores are probed.)
        // Stage 2: an issuable compute or memory operation.
        if ctx.rob.front().is_some_and(|h| h.done)
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

    /// Writes back a result, waking the issue-queue entries waiting on
    /// it.
    fn writeback(&mut self, class: RegClass, dst: PhysId, value: Vec<f32>) {
        let file = &mut self.files[class];
        file.write(dst, value);
        let mut node = file.take_waiters(dst);
        // Waiter node `n` is operand `n % WAITS_PER_ENTRY` of issue-queue
        // slot `n / WAITS_PER_ENTRY`, counting across the cores' rings.
        let per_core = self.cfg.rob_entries.max(1) * WAITS_PER_ENTRY;
        while node != NO_WAITER {
            let (core, local) = (node as usize / per_core, node as usize % per_core);
            let iq = &mut self.cores[core].iq;
            node = iq.links[local];
            iq.operand_ready(local / WAITS_PER_ENTRY);
        }
    }

    /// Stage 1: writebacks, load/store completion, retirement. Scalar
    /// results bound for the cores (reductions) are appended to `wbs`.
    pub(crate) fn complete(&mut self, now: Cycle, wbs: &mut Vec<ScalarWriteback>) {
        while let Some(due) = self.completions.pop_due(now) {
            match due {
                Completion::Compute(n) => self.complete_compute(n, now, wbs),
                Completion::Memory { core, pos } => self.complete_mem(core, pos, now),
            }
        }

        // Retirement: free previous physical registers in order.
        for core in 0..self.cores.len() {
            let mut budget = self.cfg.retire_width;
            while budget > 0 {
                match self.cores[core].rob.front() {
                    Some(head) if head.done => {
                        let Some(head) = self.cores[core].rob.pop_front() else { break };
                        self.retired += 1;
                        let kind = stage_kind(core, head.seq, TraceStage::Retire);
                        self.event(now, Track::Coproc, kind);
                        if let Some((prev, class)) = head.prev_phys {
                            self.files[class].free(prev, |b| self.blocks.release(class, b));
                        }
                        budget -= 1;
                    }
                    _ => break,
                }
            }
        }
    }

    /// Writes back the `n`-th issued compute result.
    fn complete_compute(&mut self, n: u64, now: Cycle, wbs: &mut Vec<ScalarWriteback>) {
        let slot = n.checked_sub(self.inflight_base).and_then(|i| usize::try_from(i).ok());
        let Some(mut f) = slot.and_then(|i| self.inflight.get_mut(i)).and_then(Option::take) else {
            debug_assert!(false, "in-flight result {n} vanished");
            return;
        };
        while self.inflight.front().is_some_and(Option::is_none) {
            self.inflight.pop_front();
            self.inflight_base += 1;
        }
        // Residue check at writeback (§ detection & recovery): a
        // corrupted result is *detected* here, not corrected — the value
        // still lands, and the machine's recovery layer decides whether
        // to roll back to the last checkpoint.
        if let Some((granule, injected_at)) = f.faulted {
            self.trip(SimError::LaneFault { core: f.core, granule, injected_at, detected_at: now });
        }
        if let Some(dst) = f.dst {
            self.writeback(f.dst_class, dst, std::mem::take(&mut f.value));
        }
        if let Some((reg, value)) = f.scalar_wb {
            wbs.push(ScalarWriteback { core: f.core, reg, value });
        }
        self.event(now, Track::Coproc, stage_kind(f.core, f.rob_seq, TraceStage::Complete));
        self.cores[f.core].rob.mark_done(f.rob, f.rob_seq);
    }

    /// Completes the access at LSU position `pos` of `core`: load data
    /// moves into its register.
    fn complete_mem(&mut self, core: usize, pos: u64, now: Cycle) {
        let Some((e, rob)) = self.cores[core].lsu.complete(pos) else { return };
        if let Some(dst) = e.dst {
            debug_assert!(e.data.is_some(), "load data captured at issue");
            self.writeback(RegClass::Vector, dst, e.data.unwrap_or_default());
        }
        self.event(now, Track::Coproc, stage_kind(core, e.seq, TraceStage::Complete));
        self.cores[core].rob.mark_done(rob, e.seq);
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
        let slot = iq.oldest_ready();
        debug_assert_eq!(
            slot,
            iq.entries().find(|(_, e)| e.ready(&self.files)).map(|(s, _)| s),
            "the ready set disagrees with IqEntry::ready"
        );
        slot
    }

    /// Enqueues a renamed compute instruction on `core`'s issue queue,
    /// subscribing it to the writeback of every operand not yet ready.
    fn enqueue_compute(&mut self, core: usize, mut e: IqEntry) {
        let iq = &mut self.cores[core].iq;
        // `writeback` decodes node numbers with the same span.
        debug_assert_eq!(iq.span(), self.cfg.rob_entries.max(1));
        let slot = iq.next;
        let first = (core * iq.span() + slot) * WAITS_PER_ENTRY;
        let links = &mut iq.links[slot * WAITS_PER_ENTRY..][..WAITS_PER_ENTRY];
        let mut unready = 0;
        for (class, id) in e.operands() {
            let file = &mut self.files[class];
            if !file.is_ready(id) {
                links[unready] = file.add_waiter(id, (first + unready) as u32);
                unready += 1;
            }
        }
        e.unready = unready as u8;
        debug_assert_eq!(unready == 0, e.ready(&self.files));
        self.cores[core].iq.insert(e);
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
        let Some(e) = self.oldest_ready(core).and_then(|slot| self.cores[core].iq.take(slot))
        else {
            return false;
        };
        self.event(now, Track::Coproc, stage_kind(core, e.seq, TraceStage::Issue));
        let latency = match e.inst {
            VectorInst::Binary { op: em_simd::VBinOp::Fdiv, .. }
            | VectorInst::Unary { op: em_simd::VUnOp::Fsqrt, .. } => self.cfg.exe_latency_long,
            _ => self.cfg.exe_latency,
        };
        let mut value = e.dst.map_or_else(Vec::new, |d| self.files[e.dst_class].take_buffer(d));
        let [prf, ppf] = &self.files;
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
        let n = self.inflight_base + self.inflight.len() as u64;
        self.inflight.push_back(Some(InflightCompute {
            complete_at,
            core,
            dst: e.dst,
            dst_class: e.dst_class,
            value,
            scalar_wb,
            rob_seq: e.seq,
            faulted,
            rob: e.rob,
        }));
        self.completions.push(complete_at, Completion::Compute(n));
        true
    }

    /// Memory issue's gate: the first unissued LSU entry of `core` that
    /// can act this cycle, in age order: the oldest, then the other
    /// [`Lsu::candidates`](crate::lsu::Lsu::candidates) (the entries it
    /// leaves out cannot act). Entries whose governing predicate is not
    /// ready are skipped; an entry whose access leaves the
    /// `capacity`-byte arena is a fault (checked before the ordering
    /// rules); a store waits for its ordering and its data, a load for
    /// its ordering.
    fn pick_mem(&self, core: usize, capacity: u64) -> Option<MemPick> {
        let lsu = &self.cores[core].lsu;
        let [prf, ppf] = &self.files;
        let oldest = lsu.oldest_unissued()?;
        let act = |slot: usize| {
            let e = lsu.get(slot)?;
            if e.pred.is_some_and(|p| !ppf.is_ready(p)) {
                return None;
            }
            let mask = e.pred.map(|p| ppf.read(p));
            if let Some(bytes) = exec::out_of_bounds(e.addr, e.bytes, mask, capacity) {
                return Some(MemPick::Fault { addr: e.addr, bytes });
            }
            let ready = !lsu.blocked(slot, oldest)
                && (!e.store || e.src.is_some_and(|src| prf.is_ready(src)));
            ready.then_some(MemPick::Issue(slot))
        };
        act(oldest).or_else(|| lsu.candidates(capacity).filter(|&s| s != oldest).find_map(act))
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
        let slot = match self.pick_mem(core, capacity) {
            None => return false,
            // An out-of-range vector access is a typed fault, not a crash.
            Some(MemPick::Fault { addr, bytes }) => {
                self.trip(SimError::MemoryFault { core, addr, bytes, capacity });
                return false;
            }
            Some(MemPick::Issue(slot)) => slot,
        };
        let Some(e) = self.cores[core].lsu.get(slot) else { return false };
        let (seq, store, addr, bytes, lanes, dst, src, pred) =
            (e.seq, e.store, e.addr, e.bytes, e.lanes, e.dst, e.src, e.pred);
        let [prf, ppf] = &mut self.files;
        let data = if store {
            // `pick_mem` only picks a store whose data source is ready.
            if let Some(src) = src {
                exec::store(mem, addr, prf.read(src), pred.map(|p| ppf.read(p)));
            }
            None
        } else {
            let mut data = dst.map_or_else(Vec::new, |d| prf.take_buffer(d));
            exec::load(mem, addr, lanes, pred.map(|p| ppf.read(p)), &mut data);
            Some(data)
        };
        let (served, level) = memsys.vector_access(now, core, addr, bytes, store);
        let done = served + faults.as_mut().map_or(0, FaultState::spike_mem);
        if level != mem_sim::ServiceLevel::FirstLevel {
            self.event(now, Track::Memory, EventKind::CacheMiss { core, level });
        }
        let pos = self.cores[core].lsu.issue(slot, done, data);
        // `complete` runs before issue within a cycle, so an access
        // already served by `now` writes back next cycle.
        self.completions.push(done.max(now + 1), Completion::Memory { core, pos });
        self.event(now, Track::Coproc, stage_kind(core, seq, TraceStage::Issue));
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
            while budget > 0 {
                // The head leaves the pool only once it can act, so a
                // stalled head costs no copy per cycle.
                match self.cores[core].pool.front() {
                    None => break,
                    Some(PoolEntry::Vector { inst, .. }) => {
                        match self.rename_gate(core, inst) {
                            RenameGate::Full => break,
                            RenameGate::InvalidVl => {
                                self.trip(SimError::InvalidVl {
                                    core,
                                    granules: 0,
                                    detail: "vector instruction executed with <VL> = 0".into(),
                                });
                                break;
                            }
                            RenameGate::RegStall => {
                                stalled_on_regs = true;
                                break;
                            }
                            RenameGate::Go => {}
                        }
                        let Some(PoolEntry::Vector { inst, pred, aux }) =
                            self.cores[core].pool.pop_front()
                        else {
                            break;
                        };
                        self.rename_vector(core, inst, pred, aux, now);
                        budget -= 1;
                    }
                    Some(&PoolEntry::Em { inst, operand }) => {
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
                stats[core].charge_rename_stall(1);
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
        // Stores rename without reserving a destination.
        let regs_free =
            dst_reg(inst).is_none_or(|(class, _)| self.blocks.can_reserve(class, &ctx.spans));
        if regs_free {
            RenameGate::Go
        } else {
            RenameGate::RegStall
        }
    }

    /// Renames one vector instruction (`inst` governed by `pred`) that
    /// [`rename_gate`](Self::rename_gate) let through.
    fn rename_vector(
        &mut self,
        core: usize,
        inst: VectorInst,
        pred: Option<PReg>,
        aux: Option<u64>,
        now: Cycle,
    ) {
        debug_assert_eq!(self.rename_gate(core, &inst), RenameGate::Go);
        let lanes = self.cores[core].cur_vl.lanes();

        // Read source mappings before redefining the destination (FMLA
        // reads its accumulator; merging predication reads the old
        // destination).
        let ctx = &self.cores[core];
        let srcs: RegList<PhysId> =
            inst.vector_srcs().iter().map(|v| ctx.rename[v.map_index()]).collect();
        let pred_phys = pred.map(|p| ctx.rename[p.map_index()]);
        let psrcs: RegList<PhysId> =
            inst.pred_srcs().iter().map(|p| ctx.rename[p.map_index()]).collect();
        // Merging predication needs the prior destination value — but only
        // for compute; predicated loads are zeroing.
        let merge = match (pred, inst.vector_dst()) {
            (Some(_), Some(d)) if !inst.is_mem() => Some(ctx.rename[d.map_index()]),
            _ => None,
        };

        let mut prev_phys = None;
        let mut dst_phys = None;
        let mut dst_class = RegClass::Vector;
        if let Some((class, r)) = dst_reg(&inst) {
            let ctx = &mut self.cores[core];
            let reserved = self.blocks.try_reserve(class, &ctx.spans);
            debug_assert!(reserved, "the rename gate checked the free entries");
            let id = self.files[class].alloc(&ctx.spans, self.cfg.total_granules);
            prev_phys = Some((std::mem::replace(&mut ctx.rename[r], id), class));
            dst_phys = Some(id);
            dst_class = class;
        }

        let seq = self.next_seq;
        self.next_seq += 1;
        let rob = self.cores[core].rob.push(RobEntry { seq, done: false, prev_phys });
        if self.events.is_enabled() {
            let disasm = governed(&inst, pred).to_string();
            let kind = EventKind::Stage { core, seq, stage: TraceStage::Rename, disasm };
            self.event(now, Track::Coproc, kind);
        }

        if inst.is_mem() {
            let store = matches!(inst, VectorInst::Store { .. });
            let src = match &inst {
                VectorInst::Store { src, .. } => Some(self.cores[core].rename[src.map_index()]),
                _ => None,
            };
            let entry = LsuEntry {
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
            };
            self.cores[core].lsu.push(entry, rob);
        } else {
            self.enqueue_compute(core, IqEntry {
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
                rob,
                unready: 0,
            });
        }
    }

    /// The EM-SIMD data path's gate: whether `inst` must wait this cycle.
    /// Only `MSR <VL>` waits, for `core`'s SIMD pipeline to drain — the
    /// vector length only changes once the pipeline is empty (§4.2.2).
    fn em_must_wait(&self, core: usize, inst: &EmSimdInst) -> bool {
        inst.is_vl_write() && !self.cores[core].rob.is_empty()
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
        self.inflight.iter().flatten().any(|f| f.faulted.is_some())
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
            regs: RegClass::ALL.map(|class| {
                let (file, map) = (&self.files[class], &self.cores[core].rename);
                class.arch_regs().map(|r| file.read(map[r]).to_vec()).collect()
            }),
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
        // Restore the architectural vector and predicate values at the
        // re-acquired width (alloc_arch_regs left them zeroed).
        for class in RegClass::ALL {
            for (r, value) in class.arch_regs().zip(&ctx.regs[class]) {
                let id = self.cores[core].rename[r];
                self.files[class].swap_value(id, &mut value.clone());
            }
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
                    RegClass::ALL.iter().all(|&class| {
                        let need = class.arch_regs().len();
                        let released = if old.contains(&b) { need } else { 0 };
                        self.blocks.free_entries(class, b) + released >= need
                    })
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
        for class in RegClass::ALL {
            for r in class.arch_regs() {
                let id = self.cores[core].rename[r];
                self.files[class].free(id, |b| self.blocks.release(class, b));
            }
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
        for class in RegClass::ALL {
            let (requested, per_block) = (class.arch_regs().len(), self.cfg.regs_per_block(class));
            for r in class.arch_regs() {
                if !self.blocks.try_reserve(class, &spans) {
                    let detail = format!(
                        "architectural {} registers do not fit ({requested} of {per_block})",
                        class.noun()
                    );
                    debug_assert!(false, "{detail}");
                    self.trip(SimError::RegBlockExhausted { core, requested, detail });
                }
                let id = self.files[class].alloc_zeroed(&spans, lanes, self.cfg.total_granules);
                self.cores[core].rename[r] = id;
            }
        }
        self.cores[core].cur_vl = VectorLength::new(granules);
        self.cores[core].spans = spans;
    }

    /// Debug/test hook: the number of free vector entries in each block.
    pub(crate) fn block_free_entries(&self) -> Vec<usize> {
        let blocks = 0..self.blocks.num_blocks();
        blocks.map(|b| self.blocks.free_entries(RegClass::Vector, b)).collect()
    }

    /// Borrows the current architectural value of register `r` — the
    /// allocation-free read path of the functional engine's instruction
    /// loop.
    fn arch_value<R: ArchReg>(&self, core: usize, r: R) -> &[f32] {
        self.files[R::CLASS].read(self.cores[core].rename[r.map_index()])
    }

    /// Overwrites the `class` register at rename-map position `r` in
    /// place (functional engine) by swapping buffers: `value` receives
    /// the old value's buffer for reuse. The physical entry and its
    /// register blocks are unchanged.
    fn write_arch(&mut self, core: usize, class: RegClass, r: usize, value: &mut Vec<f32>) {
        let id = self.cores[core].rename[r];
        self.files[class].swap_value(id, value);
    }

    pub(crate) fn vreg(&self, core: usize, v: VReg) -> &[f32] {
        self.arch_value(core, v)
    }

    pub(crate) fn preg(&self, core: usize, p: PReg) -> &[f32] {
        self.arch_value(core, p)
    }

    pub(crate) fn write_vreg(&mut self, core: usize, v: VReg, value: &mut Vec<f32>) {
        self.write_arch(core, RegClass::Vector, v.map_index(), value);
    }

    /// Overwrites `inst`'s destination register, if it has one.
    pub(crate) fn write_dst(&mut self, core: usize, inst: &VectorInst, value: &mut Vec<f32>) {
        if let Some((class, r)) = dst_reg(inst) {
            self.write_arch(core, class, r, value);
        }
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
// `events` and the latched `fault` are NOT serialized: snapshot
// I/O refuses machines with any of them active (see
// `Machine::snapshot_io_refusal`), and decode reconstructs the disabled /
// empty defaults. Neither is the scheduling state derived from the
// out-of-order windows (ring slots, waiter lists, ready sets, ROB
// positions, the completion heap): decode rebuilds it
// (`CoProcessor::rebuild`). Everything else — including the windows
// themselves — round-trips exactly.

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
            rob: 0,
            unready: 0,
        })
    }
}

// Encodes as the entry list in age order, as the queue has always been
// encoded. Decode stages the entries in a ring of their own length;
// `CoProcessor::rebuild` re-enqueues them into the machine's span.
impl statecodec::Codec for IssueQueue {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.len, sink);
        for (_, e) in self.entries() {
            statecodec::Codec::encode(e, sink);
        }
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let entries: Vec<IqEntry> = statecodec::Codec::decode(src)?;
        if entries.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return Err(statecodec::DecodeError::at(src, "issue queue out of age order"));
        }
        let mut iq = IssueQueue::new(entries.len());
        for e in entries {
            iq.insert(e);
        }
        Ok(iq)
    }
}

statecodec::impl_codec!(RobEntry { seq, done, prev_phys });

// Encodes as the entry deque; positions restart at zero on decode.
impl statecodec::Codec for Rob {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.entries, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let entries: VecDeque<RobEntry> = statecodec::Codec::decode(src)?;
        if entries.iter().zip(entries.iter().skip(1)).any(|(a, b)| a.seq >= b.seq) {
            return Err(statecodec::DecodeError::at(src, "reorder buffer out of age order"));
        }
        Ok(Rob { entries, retired: 0 })
    }
}

// Hand-written so the derived ROB position stays out of the encoding.
impl statecodec::Codec for InflightCompute {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.complete_at, sink);
        statecodec::Codec::encode(&self.core, sink);
        statecodec::Codec::encode(&self.dst, sink);
        statecodec::Codec::encode(&self.dst_class, sink);
        statecodec::Codec::encode(&self.value, sink);
        statecodec::Codec::encode(&self.scalar_wb, sink);
        statecodec::Codec::encode(&self.rob_seq, sink);
        statecodec::Codec::encode(&self.faulted, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        Ok(InflightCompute {
            complete_at: statecodec::Codec::decode(src)?,
            core: statecodec::Codec::decode(src)?,
            dst: statecodec::Codec::decode(src)?,
            dst_class: statecodec::Codec::decode(src)?,
            value: statecodec::Codec::decode(src)?,
            scalar_wb: statecodec::Codec::decode(src)?,
            rob_seq: statecodec::Codec::decode(src)?,
            faulted: statecodec::Codec::decode(src)?,
            rob: 0,
        })
    }
}
statecodec::impl_codec!(CoreCtx {
    pool,
    iq,
    lsu,
    rob,
    rename,
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
        statecodec::Codec::encode(&self.files, sink);
        statecodec::Codec::encode(&self.cores, sink);
        statecodec::Codec::encode(&self.table, sink);
        statecodec::Codec::encode(&self.mgr, sink);
        // The in-flight results encode as the list they always were.
        statecodec::Codec::encode(&self.inflight.iter().flatten().count(), sink);
        for f in self.inflight.iter().flatten() {
            statecodec::Codec::encode(f, sink);
        }
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
        let files: [PhysRegFile; 2] = statecodec::Codec::decode(src)?;
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
        for ctx in &cores {
            if RegClass::ALL.iter().any(|&class| {
                let slots = files[class].slot_count();
                ctx.rename[class.arch_regs()].iter().any(|p| p.0 as usize >= slots)
            }) {
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
        }
        let completions = Completions::with_capacity(cfg.cores * cfg.rob_entries);
        let mut co = CoProcessor {
            cfg,
            arch,
            blocks,
            files,
            cores,
            table,
            mgr,
            inflight: VecDeque::new(),
            inflight_base: 0,
            completions,
            next_seq,
            retired,
            fault: None,
            corrected_inline,
            hints_sanitized,
            replan_epoch,
            events: EventLog::disabled(),
        };
        co.rebuild(inflight).map_err(|e| statecodec::DecodeError::at(src, e))?;
        Ok(co)
    }
}

impl CoProcessor {
    /// Rebuilds the derived scheduling state a snapshot does not encode
    /// — ROB positions, the issue-queue and LSU rings with their waiter
    /// lists and ready sets, and the completion heap — from the decoded
    /// entries, through the same enqueue paths rename uses. Rejects
    /// entries that name no pending ROB entry or a register beyond the
    /// files.
    fn rebuild(&mut self, inflight: Vec<InflightCompute>) -> Result<(), String> {
        let span = self.cfg.rob_entries;
        let rob_of = |ctx: &CoreCtx, what: &str, seq: u64| {
            ctx.rob.position(seq).ok_or_else(|| format!("{what} {seq} has no pending ROB entry"))
        };
        for core in 0..self.cores.len() {
            let ctx = &mut self.cores[core];
            let iq = std::mem::replace(&mut ctx.iq, IssueQueue::new(span));
            let lsu = ctx.lsu.respan(span);
            if iq.len() > span || lsu.len() > span {
                return Err(format!("core {core}'s queues outgrow a {span}-entry ROB"));
            }
            for e in lsu {
                let rob = rob_of(ctx, "LSU entry", e.seq)?;
                let due = e.complete_at.filter(|_| e.issued);
                if let (Some(pos), Some(at)) = (ctx.lsu.push(e, rob), due) {
                    self.completions.push(at, Completion::Memory { core, pos });
                }
            }
            for (_, e) in iq.entries() {
                if e.operands().any(|(class, p)| p.0 as usize >= self.files[class].slot_count()) {
                    let seq = e.seq;
                    return Err(format!("issue-queue entry {seq} reads a register beyond the file"));
                }
                let rob = rob_of(&self.cores[core], "issue-queue entry", e.seq)?;
                self.enqueue_compute(core, IqEntry { rob, ..e.clone() });
            }
        }
        for mut f in inflight {
            let ctx =
                self.cores.get(f.core).ok_or("in-flight result of a core beyond the machine")?;
            f.rob = rob_of(ctx, "in-flight result", f.rob_seq)?;
            let n = self.inflight.len() as u64;
            self.completions.push(f.complete_at, Completion::Compute(n));
            self.inflight.push_back(Some(f));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use em_simd::VBinOp;

    use super::*;

    /// A one-core co-processor with all four granules configured.
    fn coproc() -> CoProcessor {
        let mut co = CoProcessor::new(SimConfig::paper(1), Architecture::Private);
        assert!(co.try_set_vl(0, 4));
        co
    }

    fn binary(op: VBinOp, dst: VReg, a: VReg, b: VReg) -> VectorInst {
        VectorInst::Binary { op, dst, a, b }
    }

    /// Renames `inst` on core 0.
    fn rename(co: &mut CoProcessor, inst: VectorInst, aux: Option<u64>) {
        assert_eq!(co.rename_gate(0, &inst), RenameGate::Go);
        co.rename_vector(0, inst, None, aux, 0);
    }

    /// The `seq` of core 0's oldest ready IQ entry.
    fn oldest_ready_seq(co: &CoProcessor) -> Option<u64> {
        let iq = &co.cores[0].iq;
        co.oldest_ready(0).and_then(|slot| iq.slots[slot].as_ref()).map(|e| e.seq)
    }

    /// Issues core 0's oldest ready compute instruction at `now`.
    fn issue_one(co: &mut CoProcessor, now: Cycle) {
        assert!(co.try_issue_compute(0, now, &mut None), "nothing ready at {now}");
    }

    fn complete(co: &mut CoProcessor, now: Cycle) {
        co.complete(now, &mut Vec::new());
    }

    #[test]
    fn an_entry_wakes_only_on_its_last_operand() {
        let mut co = coproc();
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z2, VReg::Z0, VReg::Z0), None); // seq 0
        rename(&mut co, binary(VBinOp::Fdiv, VReg::Z3, VReg::Z0, VReg::Z0), None); // seq 1
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z1, VReg::Z2, VReg::Z3), None); // seq 2
        issue_one(&mut co, 0);
        issue_one(&mut co, 0);
        assert_eq!(oldest_ready_seq(&co), None);
        complete(&mut co, 4); // the FADD writes z2
        assert_eq!(oldest_ready_seq(&co), None, "z3 is still outstanding");
        complete(&mut co, 12); // the FDIV writes z3
        assert_eq!(oldest_ready_seq(&co), Some(2));
    }

    #[test]
    fn out_of_order_wake_ups_still_select_the_oldest_entry() {
        let mut co = coproc();
        rename(&mut co, binary(VBinOp::Fdiv, VReg::Z2, VReg::Z0, VReg::Z0), None); // seq 0
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z3, VReg::Z0, VReg::Z0), None); // seq 1
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z4, VReg::Z2, VReg::Z0), None); // seq 2
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z5, VReg::Z3, VReg::Z0), None); // seq 3
        issue_one(&mut co, 0);
        issue_one(&mut co, 0);
        complete(&mut co, 4);
        assert_eq!(oldest_ready_seq(&co), Some(3), "only the younger consumer is ready");
        complete(&mut co, 12);
        assert_eq!(oldest_ready_seq(&co), Some(2), "the older consumer woke later but goes first");
        issue_one(&mut co, 12);
        assert_eq!(oldest_ready_seq(&co), Some(3));
    }

    #[test]
    fn a_source_named_twice_is_counted_twice() {
        let mut co = coproc();
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z2, VReg::Z0, VReg::Z0), None); // seq 0
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z1, VReg::Z2, VReg::Z2), None); // seq 1
        let unready = |co: &CoProcessor| {
            co.cores[0].iq.entries().find(|(_, e)| e.seq == 1).map(|(_, e)| e.unready)
        };
        assert_eq!(unready(&co), Some(2));
        issue_one(&mut co, 0);
        complete(&mut co, 4);
        assert_eq!(unready(&co), Some(0));
        assert_eq!(oldest_ready_seq(&co), Some(1));
    }

    #[test]
    fn a_dram_latency_access_stays_scheduled_behind_compute_writebacks() {
        let mut co = coproc();
        let mut mem = Memory::new(1 << 16);
        let mut memsys = MemorySystem::new(co.cfg.mem);
        let load = VectorInst::Load { dst: VReg::Z6, base: XReg::X0, index: XReg::X1 };
        rename(&mut co, load, Some(0x4000)); // seq 0
        assert!(co.try_issue_mem(0, 0, &mut mem, &mut memsys, &mut None));
        let dram = co.next_completion().expect("the load is scheduled");
        assert!(dram > 100, "a cold miss goes to DRAM (completes at {dram})");
        rename(&mut co, binary(VBinOp::Fadd, VReg::Z2, VReg::Z0, VReg::Z0), None); // seq 1
        issue_one(&mut co, 1);
        assert_eq!(co.next_completion(), Some(5), "the compute result is due first");
        assert!(!co.completion_due(4) && co.completion_due(5));
        complete(&mut co, 5);
        assert_eq!(co.next_completion(), Some(dram));
        complete(&mut co, dram - 1);
        assert!(co.cores[0].rob.front().is_some_and(|h| !h.done), "the load is still in flight");
        complete(&mut co, dram);
        assert_eq!(co.next_completion(), None);
        assert!(co.is_drained(0), "both instructions retired");
        assert_eq!(co.retired, 2);
    }
}
