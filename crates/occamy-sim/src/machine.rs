//! The top-level machine: scalar cores + co-processor + memory.

use em_simd::{DedicatedReg, EmSimdInst, Inst, InstTag, Operand, Program};
use mem_sim::{Cycle, MemStats, Memory, MemorySystem};

use crate::config::{Architecture, SimConfig};
use crate::coproc::{
    CoProcessor, CoprocActivity, EmResponse, IssueCounts, OsContext, ScalarWriteback,
};
use crate::error::{CoreDump, SimError, WatchdogDump};
use crate::events::{EventKind, EventLog, Track};
use crate::exec;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::profile::{CycleClass, ProfileState};
use crate::recovery::{RecoveryPolicy, RecoveryStats};
use crate::scalar::{ScalarCore, Wait};
use crate::stats::{CoreStats, MachineStats, Timeline};

/// Width of the timeline buckets, matching the paper's plots
/// ("each point represents a set of 1000 consecutive cycles", Fig. 2).
const TIMELINE_BUCKET: Cycle = 1000;

/// Default forward-progress watchdog bound: if no core retires an
/// instruction and no lane-manager decision changes for this many
/// consecutive cycles, [`Machine::step`] trips [`SimError::Watchdog`]
/// instead of spinning to the cycle budget.
const DEFAULT_WATCHDOG: Cycle = 1_000_000;

/// A complete simulated machine: `C` scalar cores sharing one SIMD
/// co-processor (of the selected [`Architecture`]) and the Table 4 memory
/// hierarchy.
///
/// # Examples
///
/// Run a one-instruction workload on core 0 of an Occamy machine:
///
/// ```
/// use occamy_sim::{Machine, SimConfig, Architecture};
/// use mem_sim::Memory;
/// use em_simd::ProgramBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = ProgramBuilder::new();
/// b.halt();
/// let mut m = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, Memory::new(4096))?;
/// m.load_program(0, b.build());
/// let stats = m.run(1_000)?;
/// assert!(stats.completed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Machine {
    pub(crate) cfg: SimConfig,
    pub(crate) mem: Memory,
    pub(crate) memsys: MemorySystem,
    pub(crate) scalar: Vec<ScalarCore>,
    pub(crate) coproc: CoProcessor,
    pub(crate) cycle: Cycle,
    pub(crate) core_stats: Vec<CoreStats>,
    timeline: Timeline,
    /// First scalar-side fault, if any; once latched the machine is
    /// poisoned and [`step`](Machine::step) keeps returning the error.
    pub(crate) fault: Option<SimError>,
    /// Deterministic fault-injection state (`None` on the fault-free
    /// path, which therefore stays byte-identical to a build without
    /// the injection layer).
    faults: Option<FaultState>,
    /// Forward-progress bound (see [`set_watchdog`](Machine::set_watchdog)).
    watchdog: Cycle,
    /// Consecutive cycles without observable progress.
    stagnant: Cycle,
    /// Last observed progress signature: (co-processor retirements,
    /// total scalar retirements, hash of the `<decision>` registers).
    last_sig: (u64, u64, u64),
    /// Detection-and-recovery controller (`None` unless
    /// [`enable_recovery`](Machine::enable_recovery) was called; the
    /// fault-free fast path is untouched).
    recovery: Option<Box<RecoveryCtl>>,
    /// Cycle-attribution profiler (`None` unless
    /// [`enable_profile`](Machine::enable_profile) was called). Part of
    /// the machine so rollbacks rewind it, keeping the attribution
    /// exact.
    profile: Option<Box<ProfileState>>,
    /// Execution mode (see [`SimMode`]). `Timing` is the default and
    /// leaves every output byte-identical to builds without the
    /// two-speed layer.
    mode: SimMode,
    /// Two-speed bookkeeping: per-core functionally-executed instruction
    /// counts and the extrapolated cycle estimate. Stays at its default
    /// (and therefore preserves full-machine `==`) until a functional
    /// window actually runs.
    twospeed: TwoSpeed,
    /// Event-driven timing-kernel control (see
    /// [`step_bounded`](Machine::step_bounded)): the reference-mode flag,
    /// skip accounting and the per-cycle scratch buffers. Not
    /// architectural state — excluded from machine equality, snapshots
    /// and rollbacks, so a run that jumped its idle spans compares `==`
    /// to one that ticked through them.
    kernel: KernelCtl,
}

/// Control state of the event-driven timing kernel.
#[derive(Debug, Clone, Default)]
struct KernelCtl {
    /// `true` forces the per-cycle reference path (no idle-span jumps);
    /// seeded from the `OCCAMY_REFERENCE_KERNEL` environment variable so
    /// differential harnesses can flip whole binaries without plumbing.
    reference: bool,
    /// Idle cycles jumped (still simulated: every per-cycle statistic is
    /// applied in bulk, so `sim.cycles` and all outputs are unchanged).
    cycles_skipped: u64,
    /// Number of jumped spans.
    skips: u64,
    /// Whether to publish `sim.cycles_skipped` in the metrics registry
    /// (off by default: golden documents embed registry snapshots).
    expose_metric: bool,
    /// Buffers the per-cycle stages fill and clear, reused from cycle to
    /// cycle so a steady-state step allocates nothing.
    scratch: Scratch,
}

/// Per-cycle working storage of [`Machine::tick`],
/// [`Machine::probe_inert`] and [`Machine::apply_skip`]. Every user
/// clears what it fills; contents never carry over between cycles, so a
/// clone starts empty and debug dumps leave the contents out.
#[derive(Default)]
struct Scratch {
    /// Per-core issue counts of the current cycle.
    issued: Vec<IssueCounts>,
    /// Per-core busy lanes of the current cycle.
    busy: Vec<f64>,
    /// Per-core allocated lanes of the current cycle (or skipped span).
    alloc: Vec<usize>,
    /// Per-core overhead counters before rename, for the profiler.
    prof_base: Vec<(f64, f64, u64)>,
    /// Scalar writebacks from the co-processor's complete stage.
    wbs: Vec<ScalarWriteback>,
    /// EM-SIMD responses from the rename stage.
    resps: Vec<EmResponse>,
    /// Per-core findings of the inertness probe.
    inert: Vec<InertCore>,
    /// Tags of the overhead instructions a scalar core executed this
    /// cycle, charged only if its front end saturates.
    deferred: Vec<InstTag>,
}

impl Clone for Scratch {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scratch")
    }
}

impl KernelCtl {
    fn from_env() -> Self {
        let reference = std::env::var("OCCAMY_REFERENCE_KERNEL")
            .is_ok_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
        KernelCtl { reference, ..KernelCtl::default() }
    }
}

/// The kernel choice and its skip history are measurement details, not
/// machine state: two machines in identical architectural state must
/// compare equal regardless of how their cycles were driven (the
/// differential and mode-switch tests rely on exactly that).
impl PartialEq for KernelCtl {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// What the event kernel's probe found for one inert core: the per-cycle
/// side-effects a real tick would have had, which
/// [`Machine::apply_skip`] replays in bulk over the jumped span.
#[derive(Debug, Clone, Copy)]
struct InertCore {
    /// `Some(tag)` when the core is parked in `Wait::EmAck` and charges
    /// its wait tag to the overhead counters every cycle.
    overhead: Option<InstTag>,
    /// Whether the core's pool head stalls on register-block exhaustion
    /// (charging `rename_stall_cycles` every cycle).
    reg_stall: bool,
}

/// The machine's execution mode (the gem5 Atomic-vs-O3 split): the
/// cycle-accurate default or a pure functional fast-forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Cycle-accurate simulation (the default; byte-identical to
    /// pre-two-speed builds).
    #[default]
    Timing,
    /// Functional fast-forward: whole programs batch-execute directly
    /// over architectural state, bypassing the pipeline and memory
    /// timing. Cycle totals are extrapolated (IPC = 1) and marked
    /// `estimated` in [`MachineStats`].
    Functional,
}

impl SimMode {
    /// Parses a mode specification: `timing` or `functional`.
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown specification.
    pub fn parse(spec: &str) -> Result<SimMode, String> {
        match spec {
            "timing" => Ok(SimMode::Timing),
            "functional" => Ok(SimMode::Functional),
            _ => Err(format!("unknown mode '{spec}' (expected timing or functional)")),
        }
    }
}

impl std::fmt::Display for SimMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimMode::Timing => write!(f, "timing"),
            SimMode::Functional => write!(f, "functional"),
        }
    }
}

/// Two-speed bookkeeping (see [`SimMode`]). All fields stay at their
/// defaults until a functional window runs, so a machine that never
/// fast-forwards compares `==` to one without the two-speed layer.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct TwoSpeed {
    /// Functionally-executed instructions per core (empty until the
    /// first functional window; sized lazily to keep `Default` pure).
    pub insts: Vec<u64>,
    /// Extrapolated cycles accumulated over functional windows.
    pub est_cycles: f64,
    /// Functional windows executed.
    pub windows: u64,
}

impl TwoSpeed {
    /// Total functionally-executed instructions across cores.
    pub fn total_insts(&self) -> u64 {
        self.insts.iter().sum()
    }
}

/// A deterministic architectural snapshot of a whole [`Machine`], taken
/// by [`Machine::snapshot`]. Opaque: hand it back to
/// [`Machine::restore_snapshot`]. Restoring reproduces the captured run
/// bit-identically because the simulator is deterministic and the
/// snapshot includes the cycle counter, all pipeline state, the memory
/// image and the fault-injection stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSnapshot(Box<Machine>);

impl MachineSnapshot {
    /// The cycle at which the snapshot was taken.
    pub fn cycle(&self) -> Cycle {
        self.0.cycle
    }
}

/// Private state of the detection-and-recovery subsystem.
#[derive(Debug, Clone, PartialEq)]
struct RecoveryCtl {
    policy: RecoveryPolicy,
    stats: RecoveryStats,
    /// Residue-check strikes per granule (persistence classifier).
    strikes: Vec<u32>,
    /// Granules classified persistently faulty. Quarantine marks live in
    /// the co-processor's (checkpointed) block state; this list is the
    /// classifier's verdict, re-applied idempotently after a rollback so
    /// the two can never drift apart.
    quarantined: Vec<usize>,
    /// The rollback target. Always present after `enable_recovery`.
    checkpoint: Option<MachineSnapshot>,
}

/// A task preempted by [`Machine::preempt`]: the scalar core state plus
/// the EM-SIMD context (§5). Opaque; hand it back to
/// [`Machine::resume`].
#[derive(Debug, Clone)]
pub struct SavedTask {
    scalar: ScalarCore,
    em: OsContext,
}

/// Error returned when a machine configuration and architecture are
/// inconsistent (e.g. an over-subscribed static partition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid machine configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Machine {
    /// Builds a machine over the given functional memory image.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `arch` is inconsistent with `cfg`.
    pub fn new(cfg: SimConfig, arch: Architecture, mem: Memory) -> Result<Self, ConfigError> {
        cfg.validate().map_err(ConfigError)?;
        cfg.validate_arch(&arch).map_err(ConfigError)?;
        let memsys = MemorySystem::new(cfg.mem);
        let scalar = (0..cfg.cores).map(|_| ScalarCore::idle()).collect();
        let coproc = CoProcessor::new(cfg.clone(), arch);
        let core_stats = vec![CoreStats::default(); cfg.cores];
        let timeline = Timeline::new(cfg.cores, TIMELINE_BUCKET);
        Ok(Machine {
            cfg,
            mem,
            memsys,
            scalar,
            coproc,
            cycle: 0,
            core_stats,
            timeline,
            fault: None,
            faults: None,
            watchdog: DEFAULT_WATCHDOG,
            stagnant: 0,
            last_sig: (0, 0, 0),
            recovery: None,
            profile: None,
            mode: SimMode::Timing,
            twospeed: TwoSpeed::default(),
            kernel: KernelCtl::from_env(),
        })
    }

    /// The current execution mode (see [`SimMode`]).
    pub fn mode(&self) -> SimMode {
        self.mode
    }

    /// Switches the execution mode. Switching into `Functional`
    /// requires a quiesced machine (see
    /// [`quiesce`](Machine::quiesce)) and is refused while a fault plan
    /// or the recovery subsystem is active: injected faults perturb
    /// *timing* state the functional engine does not model, so they can
    /// neither fire nor replay identically in a functional window.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] (leaving the machine untouched) when
    /// the switch is refused.
    pub fn set_mode(&mut self, mode: SimMode) -> Result<(), SimError> {
        if mode != SimMode::Timing {
            if self.faults.is_some() {
                return Err(SimError::Config(
                    "functional fast-forward is incompatible with an active fault plan \
                     (injected faults cannot replay without the timing model)"
                        .into(),
                ));
            }
            if self.recovery.is_some() {
                return Err(SimError::Config(
                    "functional fast-forward is incompatible with the recovery subsystem \
                     (checkpoints and rollbacks are timing constructs)"
                        .into(),
                ));
            }
            if !self.is_quiesced() {
                return Err(SimError::Config(
                    "mode switches require a quiesced machine (drained pipelines and no \
                     pending scalar loads); call quiesce() first"
                        .into(),
                ));
            }
        }
        self.mode = mode;
        Ok(())
    }

    /// Whether every core's pipelines are drained and no scalar load or
    /// EM-SIMD acknowledgement is pending — the precondition for a mode
    /// switch (all architectural state is in registers and memory).
    pub fn is_quiesced(&self) -> bool {
        (0..self.scalar.len()).all(|c| {
            self.coproc.is_drained(c)
                && self.scalar[c].wait == Wait::Ready
                && self.scalar[c].pending_loads.is_empty()
        })
    }

    /// Runs the machine (in timing mode) with every front end frozen
    /// until all in-flight work drains, then unfreezes. A quiesced
    /// machine can switch execution modes with all architectural state
    /// in registers and memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Watchdog`] (with a diagnostic dump) if the
    /// machine fails to drain within `max_cycles`, or any fault tripped
    /// while draining.
    pub fn quiesce(&mut self, max_cycles: Cycle) -> Result<(), SimError> {
        if self.is_quiesced() {
            return Ok(());
        }
        let deadline = self.cycle + max_cycles;
        while !self.is_quiesced() {
            for s in &mut self.scalar {
                s.frozen = true;
            }
            if self.cycle >= deadline {
                for s in &mut self.scalar {
                    s.frozen = false;
                }
                let e = SimError::Watchdog {
                    cycle: self.cycle,
                    dump: self
                        .dump(format!("machine failed to quiesce within {max_cycles} cycles")),
                };
                self.fault = Some(e.clone());
                return Err(e);
            }
            if let Err(e) = self.step_bounded(deadline) {
                for s in &mut self.scalar {
                    s.frozen = false;
                }
                return Err(e);
            }
        }
        for s in &mut self.scalar {
            s.frozen = false;
        }
        Ok(())
    }

    /// Installs a deterministic fault-injection plan (replacing any
    /// previous one). A no-op plan removes the injection layer entirely,
    /// restoring the byte-identical fault-free path.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        self.faults = (!plan.is_noop()).then(|| FaultState::new(plan.clone()));
    }

    /// Counters of the injections performed so far (`None` when no fault
    /// plan is installed).
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| &f.stats)
    }

    /// Sets the forward-progress watchdog bound: [`step`](Machine::step)
    /// returns [`SimError::Watchdog`] after `cycles` consecutive cycles
    /// in which no core (scalar or vector) retires an instruction and no
    /// lane-manager `<decision>` changes. Values below 1 clamp to 1.
    pub fn set_watchdog(&mut self, cycles: Cycle) {
        self.watchdog = cycles.max(1);
        self.stagnant = 0;
    }

    /// Selects the per-cycle reference kernel (`true`) instead of the
    /// event-driven kernel (`false`, the default). The two produce
    /// byte-identical results — the reference path exists for the
    /// differential test harnesses that prove exactly that. Also
    /// settable process-wide via the `OCCAMY_REFERENCE_KERNEL`
    /// environment variable (`1` or `true`), read at machine
    /// construction.
    pub fn set_reference_kernel(&mut self, on: bool) {
        self.kernel.reference = on;
    }

    /// Idle cycles the event kernel jumped so far. The jumped cycles are
    /// still fully accounted (statistics, profiler, timeline, watchdog),
    /// just not individually ticked; `sim.cycles` includes them.
    pub fn cycles_skipped(&self) -> u64 {
        self.kernel.cycles_skipped
    }

    /// Number of idle spans the event kernel jumped so far.
    pub fn skip_count(&self) -> u64 {
        self.kernel.skips
    }

    /// Publishes `sim.cycles_skipped` in the metrics registry. Off by
    /// default: golden documents embed registry snapshots, and the skip
    /// counter is the one quantity that legitimately differs between the
    /// kernels.
    pub fn expose_kernel_metric(&mut self, on: bool) {
        self.kernel.expose_metric = on;
    }

    /// Captures a deterministic architectural snapshot of the whole
    /// machine (pipelines, memory image, statistics, cycle counter and
    /// fault-injection stream). The recovery controller itself is not
    /// part of the snapshot, so checkpoints never nest.
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut image = self.clone();
        image.recovery = None;
        MachineSnapshot(Box::new(image))
    }

    /// Restores the machine to `snapshot` with full fidelity (including
    /// the fault-injection stream position, so the captured run replays
    /// bit-identically). The current recovery controller, if any, is
    /// kept.
    pub fn restore_snapshot(&mut self, snapshot: &MachineSnapshot) {
        let ctl = self.recovery.take();
        let kernel = std::mem::take(&mut self.kernel);
        *self = (*snapshot.0).clone();
        self.recovery = ctl;
        // Kernel choice and skip accounting are measurement state, not
        // part of the captured run.
        self.kernel = kernel;
    }

    /// Arms the detection-and-recovery subsystem (§ detection &
    /// recovery): the residue check turns corrupted lane results into
    /// rollbacks to a periodic checkpoint, persistent faults quarantine
    /// their granule (on Occamy, where the lane manager can repartition
    /// the survivors), and a periodic self-test sweeps for permanent
    /// faults. Call after loading programs — the initial checkpoint is
    /// taken here.
    pub fn enable_recovery(&mut self, policy: RecoveryPolicy) {
        let mut ctl = Box::new(RecoveryCtl {
            policy,
            stats: RecoveryStats::default(),
            strikes: vec![0; self.cfg.total_granules],
            quarantined: Vec::new(),
            checkpoint: None,
        });
        ctl.checkpoint = Some(self.snapshot());
        self.recovery = Some(ctl);
    }

    /// Counters of the recovery subsystem so far (`None` unless
    /// [`enable_recovery`](Machine::enable_recovery) was called), with
    /// the live inline-correction and quarantine gauges folded in.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery.as_ref().map(|ctl| {
            let mut s = ctl.stats;
            s.corrected_inline = self.coproc.corrected_inline;
            let (draining, retired) = self.coproc.quarantine_counts();
            s.lanes_quarantined = draining as u64;
            s.lanes_retired = retired as u64;
            s
        })
    }

    /// Granules classified persistently faulty so far.
    pub fn quarantined_granules(&self) -> Vec<usize> {
        self.recovery.as_ref().map_or_else(Vec::new, |ctl| ctl.quarantined.clone())
    }

    /// `<OI>` hints rejected by sanitization and replaced with the
    /// hardware monitor's measured intensity.
    pub fn hints_sanitized(&self) -> u64 {
        self.coproc.hints_sanitized
    }

    /// Cross-checks the lane bookkeeping invariants (no granule assigned
    /// to two cores, no retired granule still in use, occupancy bounded
    /// by the survivors, resource-table conservation).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn lane_audit(&self) -> Result<(), String> {
        self.coproc.lane_audit()
    }

    /// The fault latched by a previous [`step`](Machine::step) /
    /// [`run`](Machine::run), if any. A faulted machine is poisoned:
    /// `step` keeps returning the same error.
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref().or(self.coproc.fault.as_ref())
    }

    /// The machine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Loads `program` onto `core` (resetting that core's registers).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    /// The program currently loaded on `core`, if any. Fault-injection
    /// harnesses use this to corrupt and reload a built machine's code
    /// before the first cycle.
    pub fn program(&self, core: usize) -> Option<&Program> {
        self.scalar.get(core).and_then(|s| s.program.as_ref())
    }

    pub fn load_program(&mut self, core: usize, program: Program) {
        self.scalar[core].load(program);
    }

    /// The functional memory image (for reading back results).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the functional memory (for initialising inputs
    /// after construction).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Memory-hierarchy statistics.
    pub fn mem_stats(&self) -> MemStats {
        self.memsys.stats()
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The co-processor's resource table (dedicated-register state).
    pub fn resource_table(&self) -> &lane_manager::ResourceTable {
        self.coproc.table()
    }

    /// The vector length currently configured for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn vl(&self, core: usize) -> em_simd::VectorLength {
        self.coproc.cur_vl(core)
    }

    /// Diagnostic: the architectural value of a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn vreg(&self, core: usize, v: em_simd::VReg) -> Vec<f32> {
        self.coproc.vreg(core, v).to_vec()
    }

    /// Diagnostic: the architectural value of a predicate register.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn preg(&self, core: usize, p: em_simd::PReg) -> Vec<f32> {
        self.coproc.preg(core, p).to_vec()
    }

    /// Diagnostic: the architectural scalar register file of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn xregs(&self, core: usize) -> &[u64] {
        &self.scalar[core].x
    }

    /// Diagnostic: free physical-register entries per RegBlk.
    pub fn block_free_entries(&self) -> Vec<usize> {
        self.coproc.block_free_entries()
    }

    /// Enables instruction-lifecycle tracing, retaining the most recent
    /// `capacity` events (see [`render_pipeview`](crate::render_pipeview)).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.coproc.trace = crate::trace::Trace::with_capacity(capacity);
    }

    /// The recorded trace (empty unless [`enable_trace`](Self::enable_trace)
    /// was called).
    pub fn trace(&self) -> &crate::trace::Trace {
        &self.coproc.trace
    }

    /// Enables cross-layer structured event recording, retaining the
    /// most recent `capacity` events (see [`crate::events`] and
    /// [`crate::to_chrome_trace`]).
    pub fn enable_events(&mut self, capacity: usize) {
        self.coproc.events = EventLog::with_capacity(capacity);
    }

    /// The recorded event log (empty unless
    /// [`enable_events`](Self::enable_events) was called).
    pub fn events(&self) -> &EventLog {
        &self.coproc.events
    }

    /// Exports the recorded events (and the instruction trace, if one was
    /// enabled) as Chrome `trace_event` JSON for Perfetto.
    pub fn chrome_trace(&self) -> String {
        crate::events::to_chrome_trace(&self.coproc.events, &self.coproc.trace, self.cfg.cores)
    }

    /// Enables the cycle-attribution profiler (see [`crate::profile`]):
    /// from now on every cycle is classified per core into
    /// compute/memory-bound/drain-reconfig/monitor/idle/other.
    pub fn enable_profile(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Box::new(ProfileState::new(self.cfg.cores)));
        }
    }

    /// The profiler state (`None` unless
    /// [`enable_profile`](Self::enable_profile) was called).
    pub fn profile(&self) -> Option<&ProfileState> {
        self.profile.as_deref()
    }

    /// Whether every workload has halted and the co-processor is drained.
    pub fn done(&self) -> bool {
        (0..self.scalar.len()).all(|c| self.core_done(c))
    }

    /// Whether `core`'s current program has halted and its co-processor
    /// context is drained (i.e. the core can take a new program or a
    /// [`resume`](Machine::resume) without a drain).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_done(&self, core: usize) -> bool {
        self.scalar[core].halted && self.coproc.is_drained(core)
    }

    /// Runs until every workload completes or `max_cycles` elapse, then
    /// returns the statistics. [`MachineStats::completed`] /
    /// [`MachineStats::timed_out`] distinguish the two outcomes.
    ///
    /// # Errors
    ///
    /// Returns the first [`SimError`] the machine trips: a decode or
    /// memory fault on an untrusted program, a register-block or
    /// vector-length inconsistency, or the forward-progress watchdog.
    pub fn run(&mut self, max_cycles: Cycle) -> Result<MachineStats, SimError> {
        match self.mode {
            SimMode::Timing => self.run_timing(max_cycles),
            SimMode::Functional => self.run_functional(max_cycles),
        }
    }

    fn run_timing(&mut self, max_cycles: Cycle) -> Result<MachineStats, SimError> {
        while self.cycle < max_cycles && !self.done() {
            self.step_bounded(max_cycles)?;
        }
        // A program epilogue may shed its last blocks on the final step;
        // finish any pending quarantine drains so the run's end-state
        // reflects every retirement the fault campaign should count.
        self.recovery_maintenance();
        let mut stats = self.stats();
        stats.timed_out = !stats.completed;
        Ok(stats)
    }

    /// Pure functional fast-forward: batch-executes every program to
    /// completion over architectural state, with a per-core fuel bound of
    /// `max_cycles × scalar_width` instructions (the most the timing
    /// model could retire in the same budget). Cycle extrapolation
    /// assumes one instruction per cycle on the slowest core.
    fn run_functional(&mut self, max_cycles: Cycle) -> Result<MachineStats, SimError> {
        let fuel = max_cycles.saturating_mul(self.cfg.scalar_width as u64);
        self.fast_forward(fuel)?;
        let mut stats = self.stats();
        stats.timed_out = !stats.completed;
        Ok(stats)
    }

    /// Fast-forwards every core to completion (or until it has executed
    /// `fuel` instructions) over architectural state, with observability
    /// (trace, events) suppressed, extrapolating cycles at IPC = 1 on the
    /// slowest core.
    ///
    /// # Errors
    ///
    /// Surfaces any architectural fault (decode, memory, invalid-VL) the
    /// programs trip, exactly as the timing path would.
    fn fast_forward(&mut self, fuel: u64) -> Result<(), SimError> {
        debug_assert!(self.is_quiesced(), "functional windows start quiesced");
        if self.twospeed.insts.is_empty() {
            self.twospeed.insts = vec![0; self.cfg.cores];
        }
        // Suppress observability during the window: functional execution
        // has no meaningful cycle timestamps, so recording events would
        // interleave wrong-clock entries into the timing streams.
        let trace = std::mem::replace(&mut self.coproc.trace, crate::trace::Trace::disabled());
        let events = std::mem::replace(&mut self.coproc.events, EventLog::disabled());
        let result = crate::functional::FunctionalEngine::new(self).run_window(fuel);
        self.coproc.trace = trace;
        self.coproc.events = events;
        let executed = result?;
        for (c, &n) in executed.iter().enumerate() {
            self.twospeed.insts[c] += n;
        }
        self.twospeed.windows += 1;
        let est = executed.iter().copied().max().unwrap_or(0);
        self.twospeed.est_cycles += est as f64;
        Ok(())
    }

    /// Advances the machine by one cycle, surfacing any fault tripped by
    /// this (or an earlier) cycle. A faulted machine is poisoned: `step`
    /// returns the same error again without advancing.
    ///
    /// # Errors
    ///
    /// See [`run`](Machine::run).
    pub fn step(&mut self) -> Result<(), SimError> {
        if let Some(e) = self.fault() {
            return Err(e.clone());
        }
        self.recovery_maintenance();
        self.tick();
        if self.try_recover()? {
            // Rolled back to the last checkpoint: the cycle counter and
            // watchdog state were restored with it.
            return Ok(());
        }
        if let Some(e) = self.fault() {
            return Err(e.clone());
        }
        self.check_watchdog()
    }

    /// Advances the machine by one *real* step toward `bound` (an
    /// exclusive cycle limit the caller's loop is running to), first
    /// letting the event-driven kernel jump any leading span of provably
    /// inert cycles. Equivalent to calling [`step`](Machine::step) in a
    /// loop — same statistics, same outputs, same faults at the same
    /// cycles — but idle spans cost O(1) instead of O(span).
    ///
    /// How the jump stays exact: the inertness probe
    /// ([`probe_inert`](Machine::probe_inert)) proves that a tick at the
    /// current cycle would change nothing, the earliest of every
    /// scheduled future action (pipeline and memory completions, scalar
    /// load arrivals, watchdog/checkpoint/self-test timers) bounds how
    /// long that stays true, and [`apply_skip`](Machine::apply_skip)
    /// replays the span's per-cycle accounting in bulk. The cycle at the
    /// horizon itself is always executed as a real step.
    ///
    /// # Errors
    ///
    /// See [`run`](Machine::run).
    pub fn step_bounded(&mut self, bound: Cycle) -> Result<(), SimError> {
        if !self.kernel.reference && self.fault().is_none() {
            self.try_skip_idle(bound);
        }
        self.step()
    }

    /// The skip decision: probes for inertness, folds the event horizon,
    /// and jumps `cycle` to `min(horizon, bound - 1)` when that is in the
    /// future. Leaves the machine untouched otherwise.
    fn try_skip_idle(&mut self, bound: Cycle) {
        let now = self.cycle;
        // Capping at `bound - 1` keeps the loop's final cycle a real
        // step, so `cycle` lands exactly on `bound` and never overshoots
        // a `while cycle < bound` driver.
        if bound <= now + 1 {
            return;
        }
        // Quarantined granules draining toward retirement can retire on
        // any cycle an owner sheds them — too entangled with the lane
        // manager to predict, so never skip while one is in flight.
        if self.recovery.is_some() && self.coproc.quarantine_counts().0 != 0 {
            return;
        }
        let mut inert = std::mem::take(&mut self.kernel.scratch.inert);
        if self.probe_inert(&mut inert) {
            let horizon = self.skip_horizon(bound);
            if horizon > now {
                self.apply_skip(horizon - now, &inert);
            }
        }
        self.kernel.scratch.inert = inert;
    }

    /// The earliest cycle at which anything is scheduled to act, capped
    /// at `bound - 1`: a running minimum over every component's next
    /// wake-up. A deadline at or before the current cycle yields a
    /// horizon that is not in the future, so nothing is skipped.
    fn skip_horizon(&self, bound: Cycle) -> Cycle {
        let now = self.cycle;
        let scalar_loads = self
            .scalar
            .iter()
            .flat_map(|s| s.pending_loads.iter().map(|&(done, _)| done))
            .min();
        // Watchdog timer: inert cycles are by definition stagnant, so
        // the trip step (which must execute for real, recording the
        // event and the dump) comes `watchdog - stagnant` steps out; the
        // step *starting* at that cycle performs the trip.
        let watchdog = (!self.done())
            .then(|| now + self.watchdog.saturating_sub(self.stagnant).saturating_sub(1));
        let (checkpoint, selftest) = match self.recovery.as_ref() {
            None => (None, None),
            Some(ctl) => {
                // Checkpoint timer: the next multiple of the interval
                // (`recovery_maintenance` checkpoints when `cycle %
                // interval == 0`), or right now if the initial checkpoint
                // is owed.
                let checkpoint = if ctl.checkpoint.is_none() {
                    now
                } else {
                    let i = ctl.policy.checkpoint_interval.max(1);
                    now.div_ceil(i) * i
                };
                // Self-test timer — only when the sweep can observe
                // anything (mirrors the guards in `recovery_maintenance`;
                // without a fault plan the sweep is a no-op).
                let selftest = (ctl.policy.selftest_interval > 0
                    && ctl.policy.quarantine
                    && self.coproc.has_lane_manager()
                    && self.faults.is_some())
                .then(|| {
                    let i = ctl.policy.selftest_interval;
                    now.max(1).div_ceil(i) * i
                });
                (Some(checkpoint), selftest)
            }
        };
        [self.coproc.next_completion(), scalar_loads, watchdog, checkpoint, selftest]
            .into_iter()
            .flatten()
            .fold(bound - 1, Cycle::min)
    }

    /// Proves — without mutating anything — that a `tick` at the current
    /// cycle would change no machine state, and captures each core's
    /// per-cycle statistics side-effects into `cores` for bulk replay.
    /// Built from the stages' own gates (the same functions the stages
    /// call before acting), so it holds no copy of any stage rule.
    /// Returns `false` as soon as any component would act; a
    /// conservative `false` merely forgoes the skip.
    fn probe_inert(&self, cores: &mut Vec<InertCore>) -> bool {
        let now = self.cycle;
        cores.clear();
        if self.coproc.inflight_due(now) {
            return false;
        }
        let mem_capacity = self.mem.capacity() as u64;
        for c in 0..self.cfg.cores {
            if self.scalar[c].pending_loads.iter().any(|&(done, _)| done <= now)
                || self.finish_due(c)
            {
                return false;
            }
            let CoprocActivity::Inert { reg_stall } =
                self.coproc.core_activity(c, now, mem_capacity)
            else {
                return false;
            };
            // Scalar dispatch: a parked core acts only through its
            // overhead charge; otherwise only the first fetched
            // instruction matters — if it blocks, nothing after it runs.
            let overhead = match self.scalar_parked(c) {
                Some(charge) => charge,
                None => {
                    let s = &self.scalar[c];
                    match s.program.as_ref().and_then(|p| fetch(p, s.pc)) {
                        Some(inst) if self.dispatch_blocked(c, inst) => None,
                        // Executes, or trips a decode fault off the end.
                        _ => return false,
                    }
                }
            };
            cores.push(InertCore { overhead, reg_stall });
        }
        true
    }

    /// Replays `span` inert cycles' worth of per-cycle accounting in one
    /// shot: lane-allocation integrals, rename-stall and overhead
    /// charges, profiler attribution, the timeline series, watchdog
    /// stagnation, and the cycle counter itself. Exact by construction —
    /// every quantity below is what `span` consecutive inert `tick`s
    /// would have accumulated (integer counters add exactly; the f64
    /// overhead counters hold dyadic multiples of 1/8 far below 2^52,
    /// where repeated `+1.0` equals one `+span`; busy-lane terms are
    /// identically zero on an inert cycle).
    fn apply_skip(&mut self, span: Cycle, inert: &[InertCore]) {
        let start = self.cycle;
        let mut alloc = std::mem::take(&mut self.kernel.scratch.alloc);
        alloc.clear();
        let mut prof = self.profile.take();
        for c in 0..self.cfg.cores {
            let lanes = self.coproc.cur_vl(c).lanes();
            alloc.push(lanes);
            self.core_stats[c].alloc_lane_cycles += lanes as u64 * span;
            if inert[c].reg_stall {
                self.core_stats[c].rename_stall_cycles += span;
            }
            let base = self.overhead_base(c);
            if let Some(tag) = inert[c].overhead {
                self.attribute_overhead(c, tag, span as f64);
            }
            if let Some(prof) = prof.as_mut() {
                let class = self.cycle_class(c, base, IssueCounts::default());
                prof.attribute_span(c, self.coproc.open_phase(c), class, span);
            }
        }
        self.profile = prof;
        self.timeline.record_idle_span(start, &alloc, span);
        self.kernel.scratch.alloc = alloc;
        // Inert cycles are stagnant by definition; `check_watchdog`
        // would have reset to zero each cycle only if the machine were
        // done.
        if self.done() {
            self.stagnant = 0;
        } else {
            self.stagnant += span;
        }
        self.cycle += span;
        self.kernel.cycles_skipped += span;
        self.kernel.skips += 1;
    }

    /// Housekeeping of the recovery subsystem, run before each cycle:
    /// finishes lazy quarantine drains, runs the periodic lane
    /// self-test, and takes the periodic checkpoint. No-op when recovery
    /// is disabled.
    fn recovery_maintenance(&mut self) {
        let Some(mut ctl) = self.recovery.take() else { return };
        // Granules whose owner shed them since last cycle retire now.
        self.coproc.maintain_quarantine(self.cycle);
        // Periodic lane self-test: catches permanent faults on granules
        // that are not currently computing (a lightly-loaded machine
        // would otherwise never detect them through the residue check).
        // `faults.is_none()` means `hit` below is constant-false: skip
        // the whole granule sweep (it used to run — a pure waste — on
        // every interval boundary of a fault-free recovery-enabled run,
        // and the event kernel's self-test timer assumes it is a no-op
        // then).
        if ctl.policy.selftest_interval > 0
            && ctl.policy.quarantine
            && self.cycle > 0
            && self.cycle % ctl.policy.selftest_interval == 0
            && self.coproc.has_lane_manager()
            && self.faults.is_some()
        {
            for g in 0..self.cfg.total_granules {
                let hit =
                    self.faults.as_ref().is_some_and(|f| f.permanent_faulty(g, self.cycle));
                if hit
                    && !ctl.quarantined.contains(&g)
                    && self.coproc.begin_quarantine(g, self.cycle)
                {
                    ctl.quarantined.push(g);
                    ctl.stats.selftest_detections += 1;
                    self.coproc.event(
                        self.cycle,
                        Track::Recovery,
                        EventKind::SelftestDetect { granule: g },
                    );
                }
            }
        }
        // Periodic checkpoint — but never while a core is frozen
        // mid-preemption (a rollback must not cross a context-switch
        // boundary) and never while a corrupted result is still in
        // flight (the checkpoint would capture the corruption and the
        // rollback would replay it forever).
        let frozen = self.scalar.iter().any(|s| s.frozen);
        if !frozen
            && !self.coproc.inflight_tainted()
            && (ctl.checkpoint.is_none()
                || self.cycle % ctl.policy.checkpoint_interval == 0)
        {
            ctl.checkpoint = Some(self.snapshot());
        }
        self.recovery = Some(ctl);
    }

    /// Re-takes the checkpoint after an OS-visible transition (context
    /// save/restore): a rollback must never undo a context switch the OS
    /// has already observed.
    fn refresh_checkpoint(&mut self) {
        if let Some(mut ctl) = self.recovery.take() {
            ctl.checkpoint = Some(self.snapshot());
            self.recovery = Some(ctl);
        }
    }

    /// Consumes a freshly-latched [`SimError::LaneFault`] when recovery
    /// is enabled: classifies the granule (transient vs persistent),
    /// quarantines persistent offenders, and rolls the machine back to
    /// the last checkpoint for a deterministic replay. Returns
    /// `Ok(true)` when a rollback happened this cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RecoveryFailed`] once the rollback budget is
    /// spent — the machine stays poisoned with that error.
    fn try_recover(&mut self) -> Result<bool, SimError> {
        let Some(mut ctl) = self.recovery.take() else { return Ok(false) };
        let (victim_core, granule, injected_at, detected_at) = match &self.coproc.fault {
            Some(SimError::LaneFault { core, granule, injected_at, detected_at }) => {
                (*core, *granule, *injected_at, *detected_at)
            }
            _ => {
                self.recovery = Some(ctl);
                return Ok(false);
            }
        };
        ctl.stats.detections += 1;
        ctl.stats.detection_latency_sum += detected_at.saturating_sub(injected_at);
        // Classification: repeated strikes on the same granule mean the
        // fault moved in for good, so quarantine it before replaying —
        // further hits there are then corrected in place instead of
        // burning another rollback.
        if let Some(s) = ctl.strikes.get_mut(granule) {
            *s += 1;
        }
        let persistent =
            ctl.strikes.get(granule).is_some_and(|&s| s >= ctl.policy.strike_threshold);
        if persistent
            && ctl.policy.quarantine
            && self.coproc.has_lane_manager()
            && !ctl.quarantined.contains(&granule)
        {
            ctl.quarantined.push(granule);
        }
        if ctl.stats.rollbacks >= ctl.policy.max_rollbacks {
            let e = SimError::RecoveryFailed {
                cycle: self.cycle,
                rollbacks: ctl.stats.rollbacks,
                detail: format!(
                    "granule {granule} faulted again after the rollback budget was spent"
                ),
            };
            self.coproc.fault = None;
            self.fault = Some(e.clone());
            self.recovery = Some(ctl);
            return Err(e);
        }
        let Some(image) = ctl.checkpoint.clone() else {
            // Unreachable in practice: enable_recovery takes the initial
            // checkpoint. Surface the raw lane fault.
            let e = SimError::LaneFault { core: 0, granule, injected_at, detected_at };
            self.recovery = Some(ctl);
            self.fault = Some(e.clone());
            return Err(e);
        };
        ctl.stats.rollbacks += 1;
        let replayed = self.cycle.saturating_sub(image.cycle());
        ctl.stats.replayed_cycles += replayed;
        // Roll the architectural state back but keep the *live* fault
        // stream: the replay draws fresh randomness, so a transient does
        // not recur deterministically, while a permanent fault keeps
        // firing until classification quarantines its granule.
        let keep_faults = self.faults.take();
        let keep_kernel = std::mem::take(&mut self.kernel);
        *self = (*image.0).clone();
        self.faults = keep_faults;
        // Skip accounting survives the rollback: it measures the driver,
        // not the replayed architectural history.
        self.kernel = keep_kernel;
        // The event log and profiler rewound with the restore; record the
        // detection and rollback *after* it so they survive, stamped at
        // the restored cycle (which keeps track timestamps monotone).
        self.coproc.event(
            self.cycle,
            Track::Recovery,
            EventKind::FaultDetected {
                core: victim_core,
                granule,
                latency: detected_at.saturating_sub(injected_at),
            },
        );
        self.coproc.event(
            self.cycle,
            Track::Recovery,
            EventKind::Rollback { granule, to_cycle: image.cycle(), replayed },
        );
        if let Some(p) = self.profile.as_mut() {
            for cp in &mut p.cores {
                cp.rollback_replay += replayed;
            }
        }
        // Re-apply the classifier's verdicts: the checkpoint predates
        // any quarantine begun after it (idempotent for the rest).
        for g in ctl.quarantined.clone() {
            self.coproc.begin_quarantine(g, self.cycle);
        }
        self.recovery = Some(ctl);
        Ok(true)
    }

    /// A snapshot of the statistics so far.
    pub fn stats(&self) -> MachineStats {
        let functional_insts = self.twospeed.total_insts();
        let estimated = functional_insts > 0;
        MachineStats {
            cycles: self.cycle,
            cores: self.core_stats.clone(),
            timeline: self.timeline.snapshot(self.cycle),
            total_lanes: self.cfg.total_lanes(),
            completed: self.done(),
            timed_out: false,
            estimated,
            estimated_cycles: if estimated {
                self.cycle + self.twospeed.est_cycles.round() as Cycle
            } else {
                self.cycle
            },
            functional_insts,
            metrics: self.metrics(),
        }
    }

    /// Walks every live counter into a fresh hierarchical
    /// [`MetricsRegistry`] snapshot (see [`crate::metrics`] for the
    /// naming scheme). Taking a snapshot never perturbs the simulation.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        r.counter("sim.cycles", self.cycle, "total simulated cycles");
        r.counter("sim.completed", u64::from(self.done()), "1 when every workload halted");
        // Opt-in (see `expose_kernel_metric`): golden documents embed
        // registry snapshots, and this is the one counter that
        // legitimately differs between the event and reference kernels.
        if self.kernel.expose_metric {
            r.counter(
                "sim.cycles_skipped",
                self.kernel.cycles_skipped,
                "idle cycles jumped by the event-driven kernel (included in sim.cycles)",
            );
        }
        // Two-speed metrics are emitted only after a functional window
        // has run, so pure-timing registries stay byte-identical to
        // pre-two-speed builds.
        if self.twospeed.total_insts() > 0 {
            r.counter(
                "sim.cycles.estimated",
                self.cycle + self.twospeed.est_cycles.round() as Cycle,
                "ESTIMATED total cycles (timing windows + extrapolated functional windows)",
            );
            r.counter(
                "sim.functional.insts",
                self.twospeed.total_insts(),
                "instructions executed by the functional engine",
            );
            r.counter(
                "sim.functional.windows",
                self.twospeed.windows,
                "functional fast-forward windows executed",
            );
        }
        for (c, cs) in self.core_stats.iter().enumerate() {
            let p = format!("sim.core{c}");
            r.counter(
                &format!("{p}.vector_compute_issued"),
                cs.vector_compute_issued,
                "vector compute instructions issued to ExeBUs",
            );
            r.counter(
                &format!("{p}.vector_mem_issued"),
                cs.vector_mem_issued,
                "vector memory instructions issued to the LSU",
            );
            r.counter(&format!("{p}.scalar_executed"), cs.scalar_executed, "scalar instructions");
            r.counter(
                &format!("{p}.rename_stall_cycles"),
                cs.rename_stall_cycles,
                "cycles stalled in rename for physical registers",
            );
            r.counter(
                &format!("{p}.alloc_lane_cycles"),
                cs.alloc_lane_cycles,
                "lane-cycles allocated (<VL> integrated over time)",
            );
            r.gauge(
                &format!("{p}.busy_lane_cycles"),
                cs.busy_lane_cycles,
                "lane-cycles actually busy",
            );
            r.gauge(
                &format!("{p}.monitor_cycles"),
                cs.monitor_cycles,
                "cycles attributed to the partition monitor",
            );
            r.gauge(
                &format!("{p}.reconfig_cycles"),
                cs.reconfig_cycles,
                "cycles attributed to vector-length reconfiguration",
            );
            r.counter(&format!("{p}.phases"), cs.phases.len() as u64, "phases started");
        }
        r.counter("sim.coproc.retired", self.coproc.retired, "vector instructions retired");
        r.counter(
            "sim.coproc.hints_sanitized",
            self.coproc.hints_sanitized,
            "<OI> hints rejected by sanitization",
        );
        r.counter(
            "sim.coproc.corrected_inline",
            self.coproc.corrected_inline,
            "lane corruptions corrected in place",
        );
        r.counter(
            "sim.lanemgr.replans",
            self.coproc.replan_epoch as u64,
            "lane-manager planning epochs",
        );
        r.counter(
            "sim.lanemgr.free_granules",
            self.coproc.table().free_granules() as u64,
            "granules currently free (<AL>)",
        );
        r.counter(
            "sim.lanemgr.total_granules",
            self.coproc.table().total_granules() as u64,
            "granules still owned by the machine",
        );
        let mem = self.memsys.stats();
        for (c, l1) in mem.l1.iter().enumerate() {
            r.counter(&format!("sim.mem.l1.core{c}.hits"), l1.hits, "L1D hits");
            r.counter(&format!("sim.mem.l1.core{c}.misses"), l1.misses, "L1D misses");
        }
        r.counter("sim.mem.veccache.hits", mem.veccache.hits, "vector-cache hits");
        r.counter("sim.mem.veccache.misses", mem.veccache.misses, "vector-cache misses");
        r.counter(
            "sim.mem.veccache.writebacks",
            mem.veccache.writebacks,
            "vector-cache write-backs",
        );
        r.counter("sim.mem.l2.hits", mem.l2.hits, "shared L2 hits");
        r.counter("sim.mem.l2.misses", mem.l2.misses, "shared L2 misses");
        r.counter("sim.mem.dram.bytes_served", mem.dram_traffic.bytes_served, "DRAM bytes moved");
        r.counter("sim.mem.dram.requests", mem.dram_traffic.requests, "DRAM requests");
        r.counter(
            "sim.mem.vec_served.first_level",
            mem.vec_served[0],
            "vector accesses served by the vector cache",
        );
        r.counter("sim.mem.vec_served.l2", mem.vec_served[1], "vector accesses served by L2");
        r.counter("sim.mem.vec_served.dram", mem.vec_served[2], "vector accesses served by DRAM");
        if let Some(f) = self.fault_stats() {
            r.counter("sim.fault.oi_corruptions", f.oi_corruptions, "<OI> writes corrupted");
            r.counter(
                "sim.fault.decision_perturbations",
                f.decision_perturbations,
                "partition decisions perturbed",
            );
            r.counter("sim.fault.mem_spikes", f.mem_spikes, "memory accesses delayed");
            r.counter("sim.fault.lane_corruptions", f.lane_corruptions, "lane results corrupted");
        }
        if let Some(s) = self.recovery_stats() {
            r.counter("sim.recovery.detections", s.detections, "residue-check detections");
            r.counter(
                "sim.recovery.selftest_detections",
                s.selftest_detections,
                "permanent faults caught by the self-test",
            );
            r.counter("sim.recovery.rollbacks", s.rollbacks, "rollbacks to a checkpoint");
            r.counter("sim.recovery.replayed_cycles", s.replayed_cycles, "cycles re-executed");
            r.counter(
                "sim.recovery.corrected_inline",
                s.corrected_inline,
                "corruptions corrected without a rollback",
            );
            r.counter(
                "sim.recovery.detection_latency_sum",
                s.detection_latency_sum,
                "summed inject-to-detect latency",
            );
            r.counter("sim.recovery.lanes_quarantined", s.lanes_quarantined, "granules draining");
            r.counter("sim.recovery.lanes_retired", s.lanes_retired, "granules retired");
        }
        r.counter(
            "sim.events.recorded",
            self.coproc.events.len() as u64,
            "structured events currently retained",
        );
        r.counter(
            "sim.events.dropped",
            self.coproc.events.dropped(),
            "structured events evicted by the ring",
        );
        let mut phase_len = Histogram::new(&[100, 1_000, 10_000, 100_000]);
        for cs in &self.core_stats {
            for p in &cs.phases {
                if p.end_cycle.is_some() {
                    phase_len.observe(p.duration());
                }
            }
        }
        r.histogram("sim.phase_len", phase_len, "completed-phase durations in cycles");
        r
    }

    /// A progress signature that changes whenever any core retires a
    /// scalar or vector instruction or any `<decision>` register moves.
    /// Retry loops (e.g. an `MSR <VL>` acquire spin) retire scalar
    /// branches every iteration, so they never look stagnant; only a
    /// machine in which *every* core is wedged does.
    fn progress_signature(&self) -> (u64, u64, u64) {
        let scalar: u64 = self.core_stats.iter().map(|s| s.scalar_executed).sum();
        let decisions = (0..self.cfg.cores).fold(0u64, |h, c| {
            h ^ self
                .coproc
                .read_decision(c)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(c as u32)
        });
        (self.coproc.retired, scalar, decisions)
    }

    fn check_watchdog(&mut self) -> Result<(), SimError> {
        let sig = self.progress_signature();
        if sig != self.last_sig || self.done() {
            self.last_sig = sig;
            self.stagnant = 0;
            return Ok(());
        }
        self.stagnant += 1;
        if self.stagnant < self.watchdog {
            return Ok(());
        }
        self.coproc.event(
            self.cycle,
            Track::Recovery,
            EventKind::WatchdogTrip { stagnant_for: self.stagnant },
        );
        let e = SimError::Watchdog {
            cycle: self.cycle,
            dump: self.dump(
                "no core retired an instruction and no lane-manager decision changed".into(),
            ),
        };
        self.fault = Some(e.clone());
        Err(e)
    }

    /// A structured diagnostic snapshot: per-core PC, wait state, lane
    /// occupancy, `<decision>`, and queue depths.
    fn dump(&self, reason: String) -> WatchdogDump {
        let cores = (0..self.cfg.cores)
            .map(|c| CoreDump {
                core: c,
                pc: self.scalar[c].pc,
                halted: self.scalar[c].halted,
                waiting: self.scalar[c].wait != Wait::Ready,
                lanes: self.coproc.cur_vl(c).lanes(),
                decision: self.coproc.read_decision(c),
                pool: self.coproc.pool_len(c),
                rob: self.coproc.rob_len(c),
                lsu_outstanding: self.coproc.lsu_outstanding(c),
            })
            .collect();
        WatchdogDump { reason, stagnant_for: self.stagnant, cores }
    }

    /// Latches a scalar-side fault (first fault wins).
    fn trip(&mut self, e: SimError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// OS context switch, part 1 (§5): freezes `core`'s front end, runs
    /// the machine until the core's pipelines drain (the co-runners keep
    /// executing), saves the EM-SIMD context and the scalar state, and
    /// releases the core's lanes — triggering a repartition that lets the
    /// co-running workloads absorb them.
    ///
    /// The core is left idle; load a new program or [`resume`] a saved
    /// task onto it.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Watchdog`] (with a diagnostic dump) if the
    /// core fails to drain within `max_drain_cycles` (a wedged
    /// workload), or any fault tripped while draining.
    ///
    /// [`resume`]: Machine::resume
    pub fn preempt(&mut self, core: usize, max_drain_cycles: Cycle) -> Result<SavedTask, SimError> {
        self.scalar[core].frozen = true;
        let deadline = self.cycle + max_drain_cycles;
        while !(self.coproc.is_drained(core) && self.scalar[core].wait == Wait::Ready) {
            // A recovery rollback may restore an image from before the
            // freeze; re-assert it so the drain still converges.
            self.scalar[core].frozen = true;
            if self.cycle >= deadline {
                let e = SimError::Watchdog {
                    cycle: self.cycle,
                    dump: self.dump(format!(
                        "core {core} failed to drain for preemption within {max_drain_cycles} cycles"
                    )),
                };
                self.fault = Some(e.clone());
                return Err(e);
            }
            self.step_bounded(deadline)?;
        }
        let em = self.coproc.os_save(core, self.cycle);
        let scalar = std::mem::replace(&mut self.scalar[core], ScalarCore::idle());
        // The OS has observed the context switch: rollbacks must not
        // cross it.
        self.refresh_checkpoint();
        Ok(SavedTask { scalar, em })
    }

    /// OS context switch, part 2 (§5): restores a preempted task onto
    /// `core`. Re-declares the task's `<OI>` (triggering a repartition)
    /// and retries acquiring its saved vector length while the machine
    /// runs, exactly as an OS restore loop would; the task then continues
    /// from where it was preempted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if `core` is not idle, or
    /// [`SimError::Watchdog`] if the lanes cannot be re-acquired within
    /// `max_wait_cycles`.
    pub fn resume(
        &mut self,
        core: usize,
        task: SavedTask,
        max_wait_cycles: Cycle,
    ) -> Result<(), SimError> {
        if !((self.scalar[core].program.is_none() || self.scalar[core].halted)
            && self.coproc.is_drained(core))
        {
            return Err(SimError::Config(format!("resume target core {core} is busy")));
        }
        let deadline = self.cycle + max_wait_cycles;
        while !self.coproc.os_try_restore(core, &task.em, self.cycle) {
            if self.cycle >= deadline {
                let e = SimError::Watchdog {
                    cycle: self.cycle,
                    dump: self.dump(format!(
                        "core {core} could not re-acquire its lanes within {max_wait_cycles} cycles"
                    )),
                };
                self.fault = Some(e.clone());
                return Err(e);
            }
            self.step()?;
        }
        let mut scalar = task.scalar;
        scalar.frozen = false;
        self.scalar[core] = scalar;
        // The workload was mid-run before; clear its finish marker in
        // case the drain recorded one.
        self.core_stats[core].finish_cycle = None;
        // As with preemption: the restore is OS-visible, so rollbacks
        // must not cross it.
        self.refresh_checkpoint();
        Ok(())
    }

    /// Advances the machine by one cycle without fault reporting (a
    /// faulted machine does not advance; prefer [`step`](Machine::step),
    /// which surfaces the error).
    pub fn tick(&mut self) {
        if self.fault.is_some() || self.coproc.fault.is_some() {
            return;
        }
        let now = self.cycle;
        let cores = self.cfg.cores;
        let mut s = std::mem::take(&mut self.kernel.scratch);

        // Stage 1: completions and scalar writebacks.
        for core in &mut self.scalar {
            core.complete_scalar_loads(now);
        }
        s.wbs.clear();
        self.coproc.complete(now, &mut s.wbs);
        for wb in &s.wbs {
            self.scalar[wb.core].write_f32(wb.reg, wb.value);
            self.scalar[wb.core].pending_x[wb.reg.index()] = false;
        }

        // Stage 2: issue; accumulate occupancy statistics.
        s.issued.clear();
        s.issued.resize(cores, IssueCounts::default());
        self.coproc.issue(now, &mut self.mem, &mut self.memsys, &mut self.faults, &mut s.issued);
        s.busy.clear();
        s.alloc.clear();
        for c in 0..cores {
            let lanes = self.coproc.cur_vl(c).lanes();
            let issued = s.issued[c];
            self.core_stats[c].vector_compute_issued += issued.compute;
            self.core_stats[c].vector_mem_issued += issued.mem;
            // Average occupancy over the compute and ld/st data paths.
            let busy = lanes as f64
                * (issued.compute as f64 / self.cfg.compute_width as f64
                    + issued.mem as f64 / self.cfg.mem_width as f64)
                / 2.0;
            self.core_stats[c].busy_lane_cycles += busy;
            s.busy.push(busy);
            s.alloc.push(lanes);
            self.core_stats[c].alloc_lane_cycles += lanes as u64;
        }

        // Snapshot the overhead counters so the profiler can classify
        // this cycle by what actually moved during it.
        if self.profile.is_some() {
            s.prof_base.clear();
            s.prof_base.extend((0..cores).map(|c| self.overhead_base(c)));
        }

        // Stage 3: rename + EM-SIMD data path.
        s.resps.clear();
        self.coproc.rename(now, &mut self.core_stats, &mut self.faults, &mut s.resps);
        for resp in &s.resps {
            if let Some((reg, value)) = resp.write_x {
                self.scalar[resp.core].x[reg.index()] = value;
            }
            self.scalar[resp.core].wait = Wait::Ready;
        }

        // Stage 4: scalar cores execute and transmit.
        for c in 0..cores {
            self.step_scalar(c, now, &mut s.deferred);
        }

        // A workload is finished once its core halted *and* its last
        // vector instructions drained from the co-processor.
        for c in 0..cores {
            if self.finish_due(c) {
                self.core_stats[c].finish_cycle = Some(now);
            }
        }

        // Classify the cycle per core. Every core gets exactly one
        // category per cycle, so the per-core attribution sums to the
        // total simulated cycles (checked by `render_profile`).
        if let Some(mut prof) = self.profile.take() {
            for c in 0..cores {
                let class = self.cycle_class(c, s.prof_base[c], s.issued[c]);
                prof.attribute(c, self.coproc.open_phase(c), class);
            }
            self.profile = Some(prof);
        }

        self.timeline.record(now, &s.busy, &s.alloc);
        self.kernel.scratch = s;
        self.cycle += 1;
    }

    /// Whether `tick` records core `c`'s finish marker this cycle: the
    /// first cycle its halted workload's co-processor context drains.
    fn finish_due(&self, c: usize) -> bool {
        self.scalar[c].halted
            && self.core_stats[c].finish_cycle.is_none()
            && self.coproc.is_drained(c)
            && self.scalar[c].program.is_some()
    }

    /// Core `c`'s monitor, reconfiguration and scalar-retirement counters,
    /// snapshotted before a cycle so [`cycle_class`](Machine::cycle_class)
    /// can tell what moved during it.
    fn overhead_base(&self, c: usize) -> (f64, f64, u64) {
        let st = &self.core_stats[c];
        (st.monitor_cycles, st.reconfig_cycles, st.scalar_executed)
    }

    /// The profiler's classification of core `c`'s cycle, given the
    /// counters before it (`base`, from
    /// [`overhead_base`](Machine::overhead_base)) and its issue counts.
    /// Shared by `tick` and `apply_skip`, so a jumped cycle lands in the
    /// class a ticked one would.
    fn cycle_class(&self, c: usize, base: (f64, f64, u64), issued: IssueCounts) -> CycleClass {
        let (mon0, rec0, sc0) = base;
        let st = &self.core_stats[c];
        if st.monitor_cycles > mon0 {
            CycleClass::Monitor
        } else if st.reconfig_cycles > rec0 {
            CycleClass::DrainReconfig
        } else if issued.compute > 0 {
            CycleClass::Compute
        } else if issued.mem > 0
            || self.coproc.lsu_outstanding(c) + self.scalar[c].pending_loads.len() > 0
        {
            CycleClass::MemoryBound
        } else if st.scalar_executed > sc0 {
            CycleClass::Compute
        } else if self.scalar[c].halted && self.coproc.is_drained(c) {
            CycleClass::Idle
        } else {
            CycleClass::Other
        }
    }

    fn attribute_overhead(&mut self, core: usize, tag: InstTag, amount: f64) {
        match tag {
            InstTag::Monitor => self.core_stats[core].monitor_cycles += amount,
            InstTag::Reconfigure | InstTag::PhasePrologue | InstTag::PhaseEpilogue => {
                self.core_stats[core].reconfig_cycles += amount;
            }
            InstTag::Body => {}
        }
    }

    /// Executes up to `scalar_width` instructions on core `c`.
    /// `deferred` is scratch for the cycle's overhead-instruction tags.
    fn step_scalar(&mut self, c: usize, now: Cycle, deferred: &mut Vec<InstTag>) {
        if let Some(charge) = self.scalar_parked(c) {
            if let Some(tag) = charge {
                self.attribute_overhead(c, tag, 1.0);
            }
            return;
        }
        // Borrow the program for the cycle, as the functional engine
        // does for a slice: fetching by reference keeps `Predicated`
        // boxes off the per-cycle path.
        let Some(program) = self.scalar[c].program.take() else {
            debug_assert!(false, "running core has a program");
            self.trip_off_the_end(c);
            return;
        };
        self.step_scalar_in(c, now, &program, deferred);
        self.scalar[c].program = Some(program);
    }

    /// The preamble of scalar dispatch: `Some(charge)` when core `c`
    /// fetches nothing this cycle. A frozen core charges nothing; a core
    /// parked on an EM-SIMD acknowledgement (e.g. a pipeline drain for
    /// `MSR <VL>`) charges its wait tag to the overhead counters; a
    /// halted core charges nothing.
    fn scalar_parked(&self, c: usize) -> Option<Option<InstTag>> {
        let s = &self.scalar[c];
        if s.frozen {
            Some(None)
        } else if s.wait == Wait::EmAck {
            Some(Some(s.wait_tag))
        } else if s.halted {
            Some(None)
        } else {
            None
        }
    }

    /// Scalar dispatch's gate: whether core `c` must hold `inst` (and
    /// everything after it) this cycle. The Table 2 ordering rules that
    /// involve a scalar instruction live here: the pending-register
    /// interlock, the bound on in-flight scalar loads, address overlap
    /// with in-flight vector memory operations, instruction-pool space,
    /// and the pending source of an `MSR`. `MRS <decision>` executes
    /// speculatively, always (§4.1.1).
    fn dispatch_blocked(&self, c: usize, inst: &Inst) -> bool {
        let s = &self.scalar[c];
        match inst {
            Inst::Halt => false,
            Inst::Scalar(sc) => {
                s.blocked_on_pending(sc)
                    || s.mem_access(sc).is_some_and(|access| {
                        // Bound scalar memory-level parallelism.
                        s.pending_loads.len() >= 8
                            || self.coproc.any_mem_overlap(c, access.addr, 4)
                    })
            }
            Inst::Vector(v) => {
                v.scalar_srcs().iter().any(|r| s.pending_x[r.index()])
                    || !self.coproc.pool_has_space(c)
            }
            Inst::EmSimd(e) => match e {
                EmSimdInst::Mrs { reg: DedicatedReg::Decision, .. } => false,
                EmSimdInst::Msr { src: Operand::Reg(r), .. } if s.pending_x[r.index()] => true,
                _ => !self.coproc.pool_has_space(c),
            },
        }
    }

    /// Latches the decode fault of a core whose PC left its program.
    fn trip_off_the_end(&mut self, c: usize) {
        self.trip(SimError::Decode {
            core: c,
            pc: self.scalar[c].pc,
            detail: "program counter ran off the end of the program (missing HALT?)".into(),
        });
    }

    /// [`step_scalar`](Machine::step_scalar) over a program taken out of
    /// the core for the duration of the cycle.
    fn step_scalar_in(
        &mut self,
        c: usize,
        now: Cycle,
        program: &Program,
        deferred: &mut Vec<InstTag>,
    ) {
        let weight = 1.0 / self.cfg.scalar_width as f64;
        let mut budget = self.cfg.scalar_width;
        // Overhead instructions (partition monitor, prologue/epilogue)
        // are only charged when the front end is saturated this cycle —
        // on an 8-issue core they usually ride in slack slots, which is
        // why the paper measures monitoring at ~0.3%.
        deferred.clear();
        while budget > 0 && !self.scalar[c].halted {
            let pc = self.scalar[c].pc;
            let Some(inst) = fetch(program, pc) else {
                self.trip_off_the_end(c);
                return;
            };
            if self.dispatch_blocked(c, inst) {
                break;
            }
            let tag = program.tag(pc);
            match inst {
                Inst::Halt => {
                    self.scalar[c].halted = true;
                }
                Inst::Scalar(s) => {
                    let Some(access) = self.scalar[c].mem_access(s) else {
                        self.scalar[c].exec_pure_in(s, program);
                        self.core_stats[c].scalar_executed += 1;
                        deferred.push(tag);
                        budget -= 1;
                        continue;
                    };
                    let capacity = self.mem.capacity() as u64;
                    if let Some(e) = access.bounds_fault(c, capacity) {
                        self.trip(e);
                        return;
                    }
                    let done = self.memsys.scalar_access(now, c, access.addr, access.store)
                        + self.faults.as_mut().map_or(0, FaultState::spike_mem);
                    let reg = access.reg.index();
                    if access.store {
                        let v = self.scalar[c].x[reg] as u32;
                        self.mem.write_u32(access.addr, v);
                    } else {
                        // Non-blocking: dependents interlock on the
                        // pending flag until the data arrives.
                        self.scalar[c].x[reg] = u64::from(self.mem.read_u32(access.addr));
                        self.scalar[c].pending_x[reg] = true;
                        self.scalar[c].pending_loads.push((done, access.reg));
                    }
                    self.scalar[c].pc += 1;
                    self.core_stats[c].scalar_executed += 1;
                    self.attribute_overhead(c, tag, weight);
                    budget -= 1;
                }
                Inst::Vector(v) => {
                    let aux = exec::scalar_payload(v.inner(), &self.scalar[c].x);
                    if let Some(d) = v.scalar_dst() {
                        self.scalar[c].pending_x[d.index()] = true;
                    }
                    self.coproc.push_vector(c, v.inner().clone(), v.governing_pred(), aux);
                    self.scalar[c].pc += 1;
                    deferred.push(tag);
                    budget -= 1;
                }
                &Inst::EmSimd(e) => {
                    // MRS <decision> is satisfied speculatively (§4.1.1).
                    if let EmSimdInst::Mrs { dst, reg: DedicatedReg::Decision } = e {
                        self.scalar[c].x[dst.index()] = self.coproc.read_decision(c);
                        self.scalar[c].pc += 1;
                        deferred.push(tag);
                        budget -= 1;
                        continue;
                    }
                    let operand = match e {
                        EmSimdInst::Msr { src: Operand::Reg(r), .. } => self.scalar[c].x[r.index()],
                        EmSimdInst::Msr { src: Operand::Imm(i), .. } => i as u64,
                        EmSimdInst::Mrs { .. } => 0,
                    };
                    self.coproc.push_em(c, e, operand);
                    self.scalar[c].pc += 1;
                    self.scalar[c].wait = Wait::EmAck;
                    self.scalar[c].wait_tag = tag;
                    deferred.push(tag);
                    break;
                }
            }
        }
        if budget == 0 {
            for &tag in deferred.iter() {
                self.attribute_overhead(c, tag, weight);
            }
        }
    }
}

/// The instruction at `pc`, or `None` when the PC has left the program.
fn fetch(program: &Program, pc: usize) -> Option<&Inst> {
    (pc < program.len()).then(|| program.fetch(pc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use em_simd::{Operand, ProgramBuilder, ScalarInst, XReg};
    use mem_sim::Memory;

    fn two_core_machine() -> Machine {
        Machine::new(SimConfig::paper_2core(), Architecture::Occamy, Memory::new(1 << 20))
            .expect("valid config")
    }

    #[test]
    fn watchdog_trips_on_a_wedged_core() {
        let mut m = two_core_machine();
        let mut b = ProgramBuilder::new();
        b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 1 });
        b.halt();
        m.load_program(0, b.build());
        // Wedge core 0 on an EM acknowledgement that will never arrive.
        m.scalar[0].wait = Wait::EmAck;
        m.set_watchdog(500);
        let err = m.run(1_000_000).expect_err("wedged machine must trip the watchdog");
        let SimError::Watchdog { dump, .. } = &err else {
            panic!("expected a watchdog trip, got {err}");
        };
        assert!(dump.cores[0].waiting, "dump records the wedged core: {dump}");
        assert!(m.cycle() < 1_000_000, "tripped well before the cycle budget");
        // The fault latches: further steps re-return it instead of running on.
        assert_eq!(m.step().expect_err("fault is latched").kind(), "watchdog");
    }

    #[test]
    fn spin_loops_that_retire_do_not_trip_the_watchdog() {
        // A scalar busy-loop retires an instruction every cycle; stagnation
        // means *nothing* in the machine progresses, not "no vector work".
        let mut b = ProgramBuilder::new();
        b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 0 });
        let spin = b.fresh_label("spin");
        b.bind(spin);
        b.scalar(ScalarInst::Bne { a: XReg::X0, b: Operand::Imm(1), target: spin });
        b.halt();
        let mut m = two_core_machine();
        m.load_program(0, b.build());
        m.set_watchdog(100);
        let stats = m.run(10_000).expect("a retiring loop must not trip the watchdog");
        assert!(stats.timed_out && !stats.completed, "the spin loop runs out the budget");
    }

    #[test]
    fn running_off_the_program_end_is_a_decode_fault() {
        let mut b = ProgramBuilder::new();
        b.scalar(ScalarInst::MovImm { dst: XReg::X0, imm: 1 });
        // No halt: the PC walks off the end.
        let mut m = two_core_machine();
        m.load_program(0, b.build());
        let err = m.run(1_000).expect_err("missing HALT must fault");
        assert_eq!(err.kind(), "decode");
    }
}

// --- Checkpoint serialization --------------------------------------------
//
// The machine's binary checkpoint format. Kept as `pub(crate)` free
// functions rather than a public `Codec` impl so the only external entry
// point is [`crate::snapshot_io`], whose refusal gate
// ([`Machine::snapshot_io_refusal`]) runs first.

statecodec::impl_codec_enum!(SimMode {
    0 => Timing,
    1 => Functional,
});
statecodec::impl_codec!(TwoSpeed { insts, est_cycles, windows });

impl Machine {
    /// Why this machine cannot be serialized, if anything: observer and
    /// controller state (tracing, event logs, the profiler, the recovery
    /// controller, fault injection, a latched fault) is deliberately
    /// outside the checkpoint format — resuming such a machine could not
    /// be bit-faithful, so snapshot I/O refuses it up front instead of
    /// silently dropping state.
    pub(crate) fn snapshot_io_refusal(&self) -> Option<&'static str> {
        if self.coproc.trace.is_enabled() {
            return Some("instruction tracing is enabled");
        }
        if self.coproc.events.is_enabled() {
            return Some("event logging is enabled");
        }
        if self.profile.is_some() {
            return Some("the cycle-attribution profiler is enabled");
        }
        if self.recovery.is_some() {
            return Some("the detection-and-recovery controller is enabled");
        }
        if self.fault.is_some() || self.coproc.fault.is_some() {
            return Some("a fault is latched");
        }
        None
    }
}

pub(crate) fn encode_machine(m: &Machine, sink: &mut statecodec::Sink) {
    statecodec::Codec::encode(&m.cfg, sink);
    statecodec::Codec::encode(&m.mem, sink);
    statecodec::Codec::encode(&m.memsys, sink);
    statecodec::Codec::encode(&m.scalar, sink);
    statecodec::Codec::encode(&m.coproc, sink);
    statecodec::Codec::encode(&m.cycle, sink);
    statecodec::Codec::encode(&m.core_stats, sink);
    statecodec::Codec::encode(&m.timeline, sink);
    statecodec::Codec::encode(&m.faults, sink);
    statecodec::Codec::encode(&m.watchdog, sink);
    statecodec::Codec::encode(&m.stagnant, sink);
    statecodec::Codec::encode(&m.last_sig, sink);
    statecodec::Codec::encode(&m.mode, sink);
    statecodec::Codec::encode(&m.twospeed, sink);
}

pub(crate) fn decode_machine(
    src: &mut statecodec::Src<'_>,
) -> Result<Machine, statecodec::DecodeError> {
    let cfg: SimConfig = statecodec::Codec::decode(src)?;
    let mem: Memory = statecodec::Codec::decode(src)?;
    let memsys: MemorySystem = statecodec::Codec::decode(src)?;
    let scalar: Vec<ScalarCore> = statecodec::Codec::decode(src)?;
    let coproc: CoProcessor = statecodec::Codec::decode(src)?;
    let cycle = <Cycle as statecodec::Codec>::decode(src)?;
    let core_stats: Vec<CoreStats> = statecodec::Codec::decode(src)?;
    let timeline: Timeline = statecodec::Codec::decode(src)?;
    let faults: Option<FaultState> = statecodec::Codec::decode(src)?;
    let watchdog = <Cycle as statecodec::Codec>::decode(src)?;
    let stagnant = <Cycle as statecodec::Codec>::decode(src)?;
    let last_sig = <(u64, u64, u64) as statecodec::Codec>::decode(src)?;
    let mode: SimMode = statecodec::Codec::decode(src)?;
    let twospeed: TwoSpeed = statecodec::Codec::decode(src)?;

    cfg.validate().map_err(|e| statecodec::DecodeError::at(src, e))?;
    if scalar.len() != cfg.cores || core_stats.len() != cfg.cores {
        return Err(statecodec::DecodeError::at(
            src,
            format!(
                "{} scalar cores / {} stat blocks for a {}-core machine",
                scalar.len(),
                core_stats.len(),
                cfg.cores
            ),
        ));
    }
    if timeline.num_cores() != cfg.cores {
        return Err(statecodec::DecodeError::at(
            src,
            format!("timeline sized for {} of {} cores", timeline.num_cores(), cfg.cores),
        ));
    }
    if *coproc.config() != cfg {
        return Err(statecodec::DecodeError::at(
            src,
            "co-processor and machine disagree on the configuration",
        ));
    }
    if *memsys.config() != cfg.mem {
        return Err(statecodec::DecodeError::at(
            src,
            "memory system and machine disagree on the configuration",
        ));
    }
    Ok(Machine {
        cfg,
        mem,
        memsys,
        scalar,
        coproc,
        cycle,
        core_stats,
        timeline,
        fault: None,
        faults,
        watchdog,
        stagnant,
        last_sig,
        recovery: None,
        profile: None,
        mode,
        twospeed,
        // Measurement state, not part of the checkpoint format: the
        // resuming process picks its own kernel.
        kernel: KernelCtl::from_env(),
    })
}

impl MachineSnapshot {
    /// The snapshotted machine, for checkpoint I/O.
    pub(crate) fn inner(&self) -> &Machine {
        &self.0
    }

    /// Wraps a decoded machine as a snapshot, for checkpoint I/O.
    pub(crate) fn from_inner(m: Machine) -> Self {
        MachineSnapshot(Box::new(m))
    }
}
