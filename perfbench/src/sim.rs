//! The three simulation workloads, run serially on one thread:
//!
//! - `fig10-timing`: the 25 Table-3 pairs × 4 architectures in timing
//!   mode with the event kernel on. The pipelines are busy nearly every
//!   cycle, so host time goes to the per-cycle tick stages.
//! - `dram-chase`: the single-core serial DRAM chase at three memory
//!   latencies. Almost every cycle is jumped, so host time goes to the
//!   inertness probe, the jump path and `mem-sim`.
//! - `fig10-functional`: the `fig10-timing` population in functional
//!   mode: host time is all `FunctionalEngine`, with no pipeline.
//!
//! A pass runs every point once, in an order drawn from the seed. An
//! untraced pass times `build` and `Machine::run` per point in thread
//! CPU time, which leaves out time the host ran other tenants. A traced
//! pass drives `Machine::step_bounded` in the same loop as
//! `Machine::run`, timing every call and classifying it by how far the
//! cycle counter moved: one cycle is a tick, more is a jump.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench::json::Value;
use em_simd::{Program, VectorLength};
use mem_sim::Memory;
use occamy_compiler::{ArrayLayout, CodeGenOptions, Compiler, VlMode};
use occamy_sim::{Architecture, Machine, MachineStats, SimConfig, SimMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{corun, table3, WorkloadSpec};

use crate::digest::{self, Goldens};
use crate::metrics::{cpu_time, median, p90, peak_rss_mb, quantile, ratio, CpuClock, Outcome};
use crate::trace::{Recorder, SpanId};

/// Trip-count multiplier of the Fig. 10 population.
pub const FIG10_SCALE: f64 = 0.25;
/// Iterations of each DRAM chase.
pub const CHASE_ITERS: i64 = 20_000;
/// Chase stride in f32 elements (512 bytes: defeats every cache level).
const CHASE_STRIDE: i64 = 128;
/// DRAM round trips of the chase points: the paper's 120 cycles, 4× and
/// 16× that.
pub const CHASE_LATENCIES: [u64; 3] = [120, 480, 1920];
/// Relative difference a reduction result may show between timing and
/// functional runs (reassociated f32 sums).
pub const REDUCTION_TOLERANCE: f32 = 1e-5;
/// Words per point that may show such a difference.
pub const MAX_REORDERED_WORDS: usize = 16;
/// Share of a traced pass its leaf spans (tick, jump, functional,
/// build) must cover.
const MIN_ACCOUNTED: f64 = 0.95;
/// Cycle budget of every point.
const MAX_CYCLES: u64 = bench::MAX_CYCLES;

/// One of the simulation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Fig. 10 population, timing mode, event kernel.
    Fig10Timing,
    /// Serial DRAM chase, timing mode, event kernel.
    DramChase,
    /// Fig. 10 population, functional mode.
    Fig10Functional,
}

impl SimWorkload {
    fn mode(self) -> SimMode {
        match self {
            SimWorkload::Fig10Functional => SimMode::Functional,
            _ => SimMode::Timing,
        }
    }

    fn goldens(self) -> Result<Goldens, String> {
        match self {
            SimWorkload::DramChase => Goldens::parse(digest::DRAM_CHASE),
            _ => Goldens::parse(digest::FIG10),
        }
    }
}

#[derive(Debug, Clone)]
enum PointKind {
    Corun {
        specs: Vec<WorkloadSpec>,
        arch: Architecture,
        scale: f64,
    },
    Chase {
        dram_latency: u64,
    },
}

/// The compiler calls behind one point, timed.
#[derive(Debug)]
pub struct Compiled {
    /// Before the first call.
    pub start: Instant,
    /// After the last call.
    pub end: Instant,
    /// Time inside `Compiler::compile_repeated`.
    pub busy: Duration,
    /// One program per core.
    pub programs: Vec<Program>,
}

/// One simulation point: a machine to build and run.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Stable label, the key of the golden tables.
    pub label: String,
    kind: PointKind,
}

impl SimPoint {
    /// A co-run point: `specs` on `arch`, trip counts multiplied by
    /// `scale` at build time.
    pub fn corun(label: String, specs: Vec<WorkloadSpec>, arch: Architecture, scale: f64) -> Self {
        SimPoint {
            label,
            kind: PointKind::Corun { specs, arch, scale },
        }
    }

    /// Builds the point's machine.
    ///
    /// # Errors
    ///
    /// Returns the build error, naming the point.
    pub fn build(&self) -> Result<Machine, String> {
        match &self.kind {
            PointKind::Corun { specs, arch, scale } => {
                corun::build_machine(specs, &SimConfig::paper_2core(), arch, *scale)
                    .map_err(|e| format!("{}: build: {e}", self.label))
            }
            PointKind::Chase { dram_latency } => {
                bench::event_kernel::chase_machine(CHASE_ITERS, CHASE_STRIDE, *dram_latency)
            }
        }
    }

    /// Compiles the point's programs again with
    /// `Compiler::compile_repeated`, laid out exactly as
    /// `corun::build_machine` lays them out, timing the compiler calls.
    /// Chase points are built without the compiler and return `None`.
    ///
    /// # Errors
    ///
    /// Returns the compile error, naming the point.
    pub fn compile(&self) -> Result<Option<Compiled>, String> {
        let PointKind::Corun { specs, arch, scale } = &self.kind else {
            return Ok(None);
        };
        let cfg = SimConfig::paper_2core();
        let trip = |t: usize| ((t as f64 * scale) as usize).max(64);
        let mut arena = 1u64 << 20;
        for phase in specs.iter().flat_map(|s| &s.phases) {
            arena += phase.kernel.arrays().len() as u64 * (trip(phase.trip) as u64 * 4 + 64);
        }
        let mut mem = Memory::new(arena as usize);
        let mut layouts = Vec::new();
        let mut phases = Vec::new();
        for (core, spec) in specs.iter().enumerate() {
            let prefix = format!("c{core}_");
            let mut layout = ArrayLayout::new();
            let mut core_phases = Vec::new();
            for phase in &spec.phases {
                let kernel = phase.kernel.with_array_prefix(&prefix);
                let trip = trip(phase.trip);
                for array in kernel.base_arrays() {
                    if layout.addr(&array).is_none() {
                        let halo = 16u64;
                        let addr = mem.alloc_f32(trip as u64 + 2 * halo) + 4 * halo;
                        layout.bind(array, addr);
                    }
                }
                core_phases.push((kernel, trip, phase.repeat.max(1)));
            }
            layouts.push(layout);
            phases.push(core_phases);
        }
        let start = Instant::now();
        let mut busy = Duration::ZERO;
        let mut programs = Vec::new();
        for (core, (core_phases, layout)) in phases.iter().zip(&layouts).enumerate() {
            let mode = match arch.fixed_vl(core, &cfg) {
                Some(vl) => VlMode::Fixed(vl),
                None => VlMode::Elastic {
                    default: VectorLength::new(2),
                },
            };
            let compiler = Compiler::new(CodeGenOptions {
                mode,
                ..CodeGenOptions::default()
            });
            let t = Instant::now();
            let program = compiler
                .compile_repeated(core_phases, layout)
                .map_err(|e| format!("{}: compile: {e}", self.label))?;
            busy += t.elapsed();
            programs.push(program);
        }
        Ok(Some(Compiled {
            start,
            end: Instant::now(),
            busy,
            programs,
        }))
    }
}

/// The workload's points in canonical order.
pub fn population(workload: SimWorkload) -> Vec<SimPoint> {
    match workload {
        SimWorkload::DramChase => CHASE_LATENCIES
            .iter()
            .map(|&lat| SimPoint {
                label: format!("chase-{CHASE_ITERS}/dram-{lat}"),
                kind: PointKind::Chase { dram_latency: lat },
            })
            .collect(),
        _ => {
            let cfg = SimConfig::paper_2core();
            table3::all_pairs(FIG10_SCALE)
                .into_iter()
                .flat_map(|pair| {
                    let specs = pair.workloads.to_vec();
                    bench::architectures(&specs, &cfg)
                        .into_iter()
                        .map(move |arch| {
                            let label = format!("{}/{}", pair.label, arch.short_name());
                            SimPoint::corun(label, specs.clone(), arch, 1.0)
                        })
                })
                .collect()
        }
    }
}

/// The workload's points in the order the seed draws.
pub fn points(workload: SimWorkload, seed: u64) -> Vec<SimPoint> {
    let mut points = population(workload);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..points.len()).rev() {
        points.swap(i, rng.gen_range(0..=i));
    }
    points
}

/// Simulated instructions of a run: scalar instructions plus vector
/// instructions issued, over every core.
fn insts(stats: &MachineStats) -> u64 {
    stats
        .cores
        .iter()
        .map(|c| c.scalar_executed + c.vector_compute_issued + c.vector_mem_issued)
        .sum()
}

/// Simulated cycles of a run: exact in timing mode, the engine's
/// estimate in functional mode.
fn cycles(stats: &MachineStats) -> u64 {
    if stats.estimated {
        stats.estimated_cycles
    } else {
        stats.cycles
    }
}

/// Checks one point's output against the pinned digests: timing points
/// must reproduce the reference kernel's statistics, final memory and
/// registers; functional points must reproduce the functional final
/// memory, which the golden generator compared with the timing run's.
fn check_point(
    workload: SimWorkload,
    goldens: &Goldens,
    point: &SimPoint,
    stats: &MachineStats,
    m: &Machine,
) -> Result<(), String> {
    if !stats.completed {
        return Err(format!(
            "{}: did not complete within {MAX_CYCLES} cycles",
            point.label
        ));
    }
    let pinned = goldens
        .get(&point.label)
        .ok_or_else(|| format!("{}: no pinned digest", point.label))?;
    let memory = digest::memory_digest(m);
    let (want, got) = match workload {
        SimWorkload::Fig10Functional => {
            (pinned.get(3..4).unwrap_or_default().to_vec(), vec![memory])
        }
        _ => (
            pinned.get(..3).unwrap_or_default().to_vec(),
            vec![
                digest::stats_digest(stats),
                memory,
                digest::register_digest(m),
            ],
        ),
    };
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "{}: output digest {got:x?} != pinned {want:x?}",
            point.label
        ))
    }
}

/// Timings of one untraced pass, in thread CPU time unless noted.
#[derive(Debug, Clone, Default)]
struct Pass {
    /// Summed build time.
    setup: Duration,
    /// Per-point `Machine::run` time in ms.
    run_ms: Vec<f64>,
    /// Wall time of the builds and runs, to compare with traced passes.
    wall: Duration,
    /// Simulated cycles over the pass.
    cycles: u64,
    /// Simulated instructions over the pass.
    insts: u64,
}

fn untraced_pass(
    workload: SimWorkload,
    points: &[SimPoint],
    goldens: &Goldens,
    out: &mut Outcome,
) -> Pass {
    let mut pass = Pass::default();
    for point in points {
        out.attempted += 1;
        let w0 = Instant::now();
        let t0 = cpu_time(CpuClock::Thread);
        let built = point.build().and_then(|mut m| {
            m.set_mode(workload.mode())
                .map_err(|e| format!("{}: {e}", point.label))?;
            Ok(m)
        });
        let t1 = cpu_time(CpuClock::Thread);
        let mut m = match built {
            Ok(m) => m,
            Err(e) => {
                pass.run_ms.push(0.0);
                out.fail(e);
                continue;
            }
        };
        let result = m.run(MAX_CYCLES);
        let t2 = cpu_time(CpuClock::Thread);
        pass.wall += w0.elapsed();
        pass.setup += t1 - t0;
        pass.run_ms.push(ms(t2 - t1));
        match result {
            Ok(stats) => {
                pass.cycles += cycles(&stats);
                pass.insts += insts(&stats);
                if let Err(e) = check_point(workload, goldens, point, &stats, &m) {
                    out.fail(e);
                }
            }
            Err(e) => out.fail(format!("{}: simulation fault: {e}", point.label)),
        }
    }
    pass
}

/// Host time and deterministic work counts of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Self time and calls per span name.
    pub layers: BTreeMap<&'static str, (Duration, u64)>,
    /// Summed point spans minus the compile re-runs (layout and
    /// compiler calls made on top of the measured work).
    pub total: Duration,
    /// Deterministic counts, by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

/// Adds a run's deterministic work counts to `counts`, reading them
/// from the statistics document (the same document `occamyd` returns
/// as a job payload).
pub fn add_counts(counts: &mut BTreeMap<&'static str, u64>, doc: &Value) {
    let metric = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let core_sum = |field: &str| -> u64 {
        doc.get("cores")
            .map(|c| {
                c.items()
                    .iter()
                    .filter_map(|core| core.get(field)?.as_u64())
                    .sum()
            })
            .unwrap_or(0)
    };
    let rows = [
        (
            "occamy-sim.cycles",
            doc.get("cycles").and_then(Value::as_u64).unwrap_or(0),
        ),
        ("occamy-sim.coproc.retired", metric("sim.coproc.retired")),
        ("occamy-sim.scalar_executed", core_sum("scalar_executed")),
        (
            "occamy-sim.vector_compute_issued",
            core_sum("vector_compute_issued"),
        ),
        (
            "occamy-sim.vector_mem_issued",
            core_sum("vector_mem_issued"),
        ),
        (
            "occamy-sim.rename_stall_cycles",
            core_sum("rename_stall_cycles"),
        ),
        (
            "occamy-sim.functional.insts",
            doc.get("functional_insts")
                .and_then(Value::as_u64)
                .unwrap_or(0),
        ),
        ("lane-manager.replans", metric("sim.lanemgr.replans")),
        ("mem-sim.veccache.hits", metric("sim.mem.veccache.hits")),
        ("mem-sim.veccache.misses", metric("sim.mem.veccache.misses")),
        ("mem-sim.l2.hits", metric("sim.mem.l2.hits")),
        ("mem-sim.l2.misses", metric("sim.mem.l2.misses")),
        ("mem-sim.dram.requests", metric("sim.mem.dram.requests")),
    ];
    for (name, v) in rows {
        *counts.entry(name).or_default() += v;
    }
}

/// Tick and jump totals of one traced timing run.
#[derive(Debug, Default)]
struct Steps {
    tick_calls: u64,
    tick_busy: Duration,
    jump_calls: u64,
    jump_busy: Duration,
    jump_cycles: u64,
}

/// `Machine::run`'s timing loop, one timed `step_bounded` call at a
/// time. Each call's duration runs from the end of the previous call,
/// so the loop's own bookkeeping is charged to the call it precedes and
/// the spans abut.
fn traced_timing_loop(m: &mut Machine) -> Result<Steps, String> {
    let mut steps = Steps::default();
    let mut last = Instant::now();
    while m.cycle() < MAX_CYCLES && !m.done() {
        let before = m.cycle();
        m.step_bounded(MAX_CYCLES)
            .map_err(|e| format!("simulation fault: {e}"))?;
        let now = Instant::now();
        let took = now - last;
        last = now;
        let advanced = m.cycle() - before;
        if advanced <= 1 {
            steps.tick_calls += 1;
            steps.tick_busy += took;
        } else {
            steps.jump_calls += 1;
            steps.jump_busy += took;
            steps.jump_cycles += advanced - 1;
        }
    }
    Ok(steps)
}

/// Runs one traced pass, recording spans under a new workload span.
pub fn traced_pass(
    workload: SimWorkload,
    points: &[SimPoint],
    goldens: &Goldens,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> TracedPass {
    let first = rec.len();
    let root = rec.open("workload", workload_name(workload), None);
    let mut traced = TracedPass::default();
    for point in points {
        out.attempted += 1;
        if let Err(e) = traced_point(workload, point, goldens, rec, root, &mut traced, out) {
            out.fail(e);
        }
    }
    rec.close(root);
    traced.layers = rec.by_name_in(first..rec.len());
    traced
}

fn traced_point(
    workload: SimWorkload,
    point: &SimPoint,
    goldens: &Goldens,
    rec: &mut Recorder,
    root: SpanId,
    traced: &mut TracedPass,
    out: &mut Outcome,
) -> Result<(), String> {
    let id = point.label.as_str();
    let span = rec.open("point", id, Some(root));
    let t0 = Instant::now();
    let mut m = point.build()?;
    m.set_mode(workload.mode())
        .map_err(|e| format!("{id}: {e}"))?;
    let t1 = Instant::now();
    rec.record("build", id, Some(span), t0, t1);
    let recompile_start = Instant::now();
    let compiled = point.compile()?;
    let recompile = recompile_start.elapsed();
    if let Some(c) = compiled {
        rec.aggregate(
            "compile",
            id,
            Some(span),
            c.start,
            c.end,
            c.programs.len() as u64,
            c.busy,
        );
        if c.programs
            .iter()
            .enumerate()
            .any(|(core, p)| m.program(core) != Some(p))
        {
            out.check_errors.push(format!(
                "{id}: recompiled programs differ from the loaded ones"
            ));
        }
    }
    let stats = if workload.mode() == SimMode::Timing {
        let start = Instant::now();
        let steps = traced_timing_loop(&mut m).map_err(|e| format!("{id}: {e}"))?;
        let end = Instant::now();
        rec.aggregate(
            "tick",
            id,
            Some(span),
            start,
            end,
            steps.tick_calls,
            steps.tick_busy,
        );
        rec.aggregate(
            "jump",
            id,
            Some(span),
            start,
            end,
            steps.jump_calls,
            steps.jump_busy,
        );
        if steps.jump_cycles != m.cycles_skipped() {
            out.check_errors.push(format!(
                "{id}: jumped cycles {} != Machine::cycles_skipped() {}",
                steps.jump_cycles,
                m.cycles_skipped()
            ));
        }
        *traced.counts.entry("occamy-sim.jump.cycles").or_default() += steps.jump_cycles;
        let mut stats = m.stats();
        stats.timed_out = !stats.completed;
        stats
    } else {
        let start = Instant::now();
        let stats = m
            .run(MAX_CYCLES)
            .map_err(|e| format!("{id}: simulation fault: {e}"))?;
        rec.record("functional", id, Some(span), start, Instant::now());
        stats
    };
    rec.close(span);
    traced.total += rec.spans()[span].busy.saturating_sub(recompile);
    add_counts(&mut traced.counts, &bench::stats_to_json(&stats));
    check_point(workload, goldens, point, &stats, &m)
}

/// The workload's benchmark name.
pub fn workload_name(workload: SimWorkload) -> &'static str {
    match workload {
        SimWorkload::Fig10Timing => "fig10-timing",
        SimWorkload::DramChase => "dram-chase",
        SimWorkload::Fig10Functional => "fig10-functional",
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `workload` for `seconds`: untraced passes only, or (traced)
/// untraced and traced passes alternating, at least one of each.
/// Returns the outcome and, when traced, the recorder.
///
/// # Errors
///
/// Returns a message when the pinned digests cannot be read.
pub fn run(
    workload: SimWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<(Outcome, Option<Recorder>), String> {
    let goldens = workload.goldens()?;
    let points = points(workload, seed);
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<TracedPass> = Vec::new();
    let started = Instant::now();
    loop {
        let done = started.elapsed().as_secs_f64() >= seconds;
        if trace && passes.len() > traced.len() {
            traced.push(traced_pass(workload, &points, &goldens, &mut rec, &mut out));
        } else if done && !passes.is_empty() {
            break;
        } else {
            passes.push(untraced_pass(workload, &points, &goldens, &mut out));
        }
    }

    // Each point's run time is its 90th percentile over the passes, and
    // the pass figures are sums of them.
    let point_ms: Vec<f64> = (0..points.len())
        .map(|i| {
            p90(&passes
                .iter()
                .filter_map(|p| p.run_ms.get(i).copied())
                .collect::<Vec<_>>())
        })
        .collect();
    let run_ms: f64 = point_ms.iter().sum();
    // Set-up is timed once per pass and reported as the median pass.
    let setup: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    // Simulated work is the same in every pass. Host time per unit of
    // it rather than its inverse, so that a run in a fast host phase
    // moves these figures no further than `cpu_s`.
    let last = passes
        .last()
        .map(|p| (p.cycles, p.insts))
        .unwrap_or_default();
    out.set("setup_s", median(&setup));
    out.set("cpu_s", run_ms / 1e3);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("sim_ns_per_cycle", ratio(run_ms * 1e6, last.0 as f64));
    out.set("sim_ns_per_inst", ratio(run_ms * 1e6, last.1 as f64));
    out.set("point_p50_ms", quantile(&point_ms, 0.5));
    out.set("point_p90_ms", quantile(&point_ms, 0.9));
    eprintln!(
        "[perfbench] {}: {} untraced pass(es), cpu_s per pass {:?}",
        workload_name(workload),
        passes.len(),
        passes
            .iter()
            .map(|p| p.run_ms.iter().sum::<f64>().round() / 1e3)
            .collect::<Vec<_>>()
    );

    if trace {
        layer_metrics(&mut out, &passes, &traced);
        return Ok((out, Some(rec)));
    }
    Ok((out, None))
}

/// Per-layer metrics from the traced passes (medians for host times,
/// exact values for counts, which must agree across passes).
fn layer_metrics(out: &mut Outcome, passes: &[Pass], traced: &[TracedPass]) {
    let layer = |name: &str| -> (f64, u64) {
        let times: Vec<f64> = traced
            .iter()
            .map(|t| t.layers.get(name).map_or(0.0, |l| ms(l.0)))
            .collect();
        let calls = traced
            .first()
            .and_then(|t| t.layers.get(name))
            .map_or(0, |l| l.1);
        (median(&times), calls)
    };
    let counts = traced.first().map(|t| t.counts.clone()).unwrap_or_default();
    if traced.iter().any(|t| t.counts != counts) {
        out.check_errors
            .push("deterministic counts differ between traced passes".into());
    }
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let (tick_ms, tick_calls) = layer("tick");
    let (jump_ms, jump_calls) = layer("jump");
    let (func_ms, _) = layer("functional");
    let (build_ms, _) = layer("build");
    let (compile_ms, _) = layer("compile");
    let cycles = count("occamy-sim.cycles");
    let retired = count("occamy-sim.coproc.retired");
    let func_insts = count("occamy-sim.functional.insts");
    out.set("occamy-sim.tick.calls", tick_calls as f64);
    out.set("occamy-sim.tick.self_ms", tick_ms);
    out.set(
        "occamy-sim.tick.ns_per_call",
        ratio(tick_ms * 1e6, tick_calls as f64),
    );
    out.set("occamy-sim.jump.calls", jump_calls as f64);
    out.set("occamy-sim.jump.cycles", count("occamy-sim.jump.cycles"));
    out.set("occamy-sim.jump.self_ms", jump_ms);
    out.set(
        "occamy-sim.jump.ns_per_call",
        ratio(jump_ms * 1e6, jump_calls as f64),
    );
    out.set(
        "occamy-sim.skip_ratio",
        ratio(count("occamy-sim.jump.cycles"), cycles),
    );
    out.set(
        "occamy-sim.ns_per_cycle",
        ratio((tick_ms + jump_ms) * 1e6, cycles),
    );
    out.set(
        "occamy-sim.ns_per_retired",
        ratio((tick_ms + jump_ms + func_ms) * 1e6, retired),
    );
    out.set("occamy-sim.functional.self_ms", func_ms);
    out.set(
        "occamy-sim.functional.ns_per_inst",
        ratio(func_ms * 1e6, func_insts),
    );
    out.set("workloads.build_ms", build_ms);
    out.set("occamy-compiler.compile_ms", compile_ms);
    for (name, v) in &counts {
        out.set(name, *v as f64);
    }

    // Host-time accounting. The traced pass total over the untraced one
    // (both wall time) is the tracing overhead. Within each traced pass, the leaf layers'
    // self time must cover the pass (all but `MIN_ACCOUNTED` of it): the
    // check catches work the spans leave untimed, not the overhead.
    let untraced: Vec<f64> = passes.iter().map(|p| ms(p.wall)).collect();
    let total: Vec<f64> = traced.iter().map(|t| ms(t.total)).collect();
    let accounted: Vec<f64> = traced
        .iter()
        .map(|t| {
            let leaves: f64 = ["tick", "jump", "functional", "build"]
                .iter()
                .map(|n| t.layers.get(n).map_or(0.0, |l| ms(l.0)))
                .sum();
            ratio(leaves, ms(t.total))
        })
        .collect();
    out.set(
        "trace.overhead_ratio",
        ratio(median(&total), median(&untraced)),
    );
    out.set("trace.accounted_ratio", median(&accounted));
    for (i, a) in accounted.iter().enumerate() {
        if *a < MIN_ACCOUNTED {
            out.check_errors.push(format!(
                "traced pass {i}: layer self times account for {a:.3} of the pass, below {MIN_ACCOUNTED}"
            ));
        }
    }
}

/// Regenerates the simulation golden tables under the per-cycle
/// reference kernel: per point the statistics, memory and register
/// digests of the timing run and, for the Fig. 10 population, the
/// memory digest of the functional run.
///
/// The functional run's final memory is compared with the timing run's
/// word by word. Elastic code on Occamy may split a floating-point
/// reduction by a different `<VL>` in the two modes (the lane count it
/// reads depends on timing), so a reduction's result may differ by
/// rounding: at most [`MAX_REORDERED_WORDS`] words, each within
/// [`REDUCTION_TOLERANCE`] of the timing value.
///
/// # Errors
///
/// Returns the first point that fails to build or run, or whose
/// functional memory differs from the timing run's by more.
pub fn golden_rows(workload: SimWorkload) -> Result<BTreeMap<String, Vec<u64>>, String> {
    let mut rows = BTreeMap::new();
    for point in population(workload) {
        let fault = |e| format!("{}: simulation fault: {e}", point.label);
        let mut m = point.build()?;
        m.set_reference_kernel(true);
        let stats = m.run(MAX_CYCLES).map_err(fault)?;
        if !stats.completed || m.cycles_skipped() != 0 {
            return Err(format!("{}: reference run did not complete", point.label));
        }
        let mut digests = vec![
            digest::stats_digest(&stats),
            digest::memory_digest(&m),
            digest::register_digest(&m),
        ];
        if workload != SimWorkload::DramChase {
            let mut f = point.build()?;
            f.set_mode(SimMode::Functional).map_err(fault)?;
            f.run(MAX_CYCLES).map_err(fault)?;
            let (a, b) = (m.memory(), f.memory());
            let differing: Vec<(f32, f32)> = (0..a.allocated() / 4)
                .map(|w| (a.read_f32(w * 4), b.read_f32(w * 4)))
                .filter(|(x, y)| x.to_bits() != y.to_bits())
                .collect();
            let close = |&(x, y): &(f32, f32)| (x - y).abs() <= REDUCTION_TOLERANCE * x.abs();
            if differing.len() > MAX_REORDERED_WORDS || !differing.iter().all(close) {
                return Err(format!(
                    "{}: functional memory differs from timing in {} word(s): {:?}",
                    point.label,
                    differing.len(),
                    &differing[..differing.len().min(4)]
                ));
            }
            if !differing.is_empty() {
                eprintln!(
                    "[perfbench] {}: {} word(s) differ within rounding in functional mode",
                    point.label,
                    differing.len()
                );
            }
            digests.push(digest::memory_digest(&f));
        }
        rows.insert(point.label, digests);
    }
    Ok(rows)
}
