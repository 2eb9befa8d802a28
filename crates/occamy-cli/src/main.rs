//! The `occamy` command-line tool.
//!
//! ```text
//! occamy analyze <kernel.ok>                     phase behaviour (Eq. 5)
//! occamy disasm  <kernel.ok> [options]           compiled EM-SIMD assembly
//! occamy run     <kernel.ok> [options]           simulate on one core
//! occamy profile <kernel.ok> [options]           per-phase cycle attribution
//! occamy corun   <k0.ok> <k1.ok> [options]       two kernels, one per core
//! occamy sched   <k.ok>... [options]             time-share N kernels
//! occamy roofline <oi> [<oi>...]                 ceilings + partition plan
//! ```
//!
//! `run`, `profile` and `corun` set a run up through [`simulate`], and
//! `disasm` through its build half; each refuses the options it ignores.
//! `occamy --help` states each option's scope.

use std::process::ExitCode;

use em_simd::{OperationalIntensity, Program, VectorLength};
use lane_manager::{LaneManager, PhaseDemand};
use mem_sim::Memory;
use occamy_compiler::{
    analyze, parse_kernel, ArrayLayout, CodeGenOptions, Compiler, Kernel, VlMode,
};
use occamy_sim::{
    render_lane_timeline, render_pipeview, render_profile, to_kanata, Architecture, FaultPlan,
    Machine, MachineStats, RecoveryPolicy, SimConfig, SimMode,
};
use roofline::{MachineCeilings, MemLevel};

/// CLI failure classes, each with a distinct exit code so scripts can
/// tell a typo from a broken kernel from a simulator fault from a dead
/// daemon:
///
/// * `Usage` (exit 2) — malformed command line,
/// * `Load` (exit 3) — kernel parse/compile or program-load failure,
/// * `Sim` (exit 4) — simulation fault (typed `SimError`, including the
///   forward-progress watchdog), an exceeded cycle budget, or a job
///   the daemon terminated with a typed error/shed reply,
/// * `Net` (exit 5) — `serve`/`submit` connection or protocol failure
///   (could not bind/connect, transport error, malformed reply).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Load(String),
    Sim(String),
    Net(String),
}

/// A bare message is a usage error: the command line was malformed.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Usage(message)
    }
}

impl CliError {
    fn exit_code(&self) -> ExitCode {
        match self {
            CliError::Usage(_) => ExitCode::from(2),
            CliError::Load(_) => ExitCode::from(3),
            CliError::Sim(_) => ExitCode::from(4),
            CliError::Net(_) => ExitCode::from(5),
        }
    }

    fn message(&self) -> &str {
        match self {
            CliError::Usage(m)
            | CliError::Load(m)
            | CliError::Sim(m)
            | CliError::Net(m) => m,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("disasm") => cmd_disasm(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("corun") => cmd_corun(&args[1..]),
        Some("sched") => cmd_sched(&args[1..]),
        Some("roofline") => cmd_roofline(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("--help" | "-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(CliError::Usage(format!("unknown command `{other}` (try --help)"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message());
            e.exit_code()
        }
    }
}

fn print_usage() {
    println!(
        "occamy — elastic SIMD co-processor toolkit\n\n\
         usage:\n  occamy analyze <kernel.ok>\n  occamy disasm <kernel.ok> [options]\n  \
         occamy run <kernel.ok> [options]\n  \
         occamy profile <kernel.ok> [options]      # per-phase cycle attribution (Fig. 15)\n  \
         occamy corun <k0.ok> <k1.ok> [options]   # one kernel per core, lane timeline\n  \
         occamy sched <k.ok>... [options]          # time-share N kernels (§5)\n  \
         occamy roofline <oi> [<oi>...]\n  \
         occamy serve [--listen <ep>] [options]    # multi-tenant simulation daemon\n  \
         occamy submit <workload>... [options]     # run a job on a daemon\n  \
         occamy stats [--tenant T] [--prefix P]    # one metrics snapshot from a daemon\n  \
         occamy top [--tenant T] [options]         # live per-tenant monitor (watch stream)\n\n\
         kernel options (disasm/run/profile/corun/sched; a subcommand refuses,\n\
         with exit 2, every option it does not honour):\n  \
         --trip <n>        elements per pass (default 4096)\n  \
         --passes <n>      sweeps over the arrays (default 1)\n  \
         --param <k=v>     run only: set a runtime parameter (repeatable)\n  \
         --opt, -O         run the optimizer before compiling\n  \
         --inject <spec>   deterministic fault injection, e.g.\n                    \
         seed=42,oi=0.01,decision=0.01,mem=0.05,spike=300,truncate=0.1,bitflip=0.02\n                    \
         (truncate/bitflip corrupt every program once; disasm prints the result)\n  \
         --arch <a>        not sched: occamy|private|fts|vls (default occamy)\n  \
         --granules <g>    --arch vls only: core 0's share of the 8 granules (default 4)\n  \
         --quantum <c>     sched only: round-robin time slice in cycles (default 5000)\n\n\
         simulation options (run/profile/corun; --timeline also sched):\n  \
         --mode <m>        run/corun: timing (default) | functional, which fast-forwards\n                    \
         on host SIMD with ESTIMATED cycle totals (not with --inject/--recover)\n  \
         --recover <spec>  arm detection & recovery; `default` or e.g.\n                    \
         interval=10000,selftest=25000,strikes=3,rollbacks=64,quarantine=1\n  \
         --stats           print the statistics report (profile: the metrics only)\n  \
         --timeline        run/profile/sched: print the lane timeline (corun always does)\n  \
         --trace           print the instruction pipeview\n  \
         --trace-out <f>   write a Kanata trace file (Konata viewer)\n  \
         --events <f>      write Chrome trace_event JSON (Perfetto / chrome://tracing)\n  \
         --trace-buf <n>   event ring capacity for --trace/--trace-out/--events, which\n                    \
         it needs (default 4096); on overflow the OLDEST events are dropped,\n                    \
         so views show the most recent <n> events and a warning says so\n\n\
         service options (serve/submit):\n  \
         --listen <ep>     serve: endpoint to bind — unix:<path> | tcp:<host:port>\n                    \
         (default unix:/tmp/occamyd.sock; tcp port 0 picks a free port)\n  \
         --workers <n>     serve: simulation worker threads (default 4)\n  \
         --capacity <n>    serve: bounded admission queue depth (default 1024)\n  \
         --per-tenant <n>  serve: per-tenant quota, queued + running (default 256)\n  \
         --connect <ep>    submit: daemon endpoint (default unix:/tmp/occamyd.sock)\n  \
         --tenant <name>   submit: tenant identity for quotas (default `cli`)\n  \
         --id <name>       submit: job id (default `job`)\n  \
         --scale <f>       submit: workload scale factor (default 1.0)\n  \
         --seed <n>        submit: retry-salted fault seed (default 0)\n  \
         --max-cycles <n>  submit: per-attempt cycle budget (default 50000000)\n  \
         --deadline-ms <n> submit: wall-clock deadline for the job\n  \
         --timing          submit: print the job's queue/run wall-time breakdown\n  \
         --prefix <p>      stats: keep only metrics whose dotted name starts with <p>\n  \
         --interval-ms <n> top: refresh period (default 1000)\n  \
         --iterations <n>  top: stop after <n> refreshes (default: until interrupted)\n  \
         --buffer <n>      top: watch frames buffered server-side before dropping\n  \
         --ping | --stats | --shutdown   submit: daemon control ops\n                    \
         workloads: WL1..WL22 | cv1..cv12 | synth:<loads>,<stores>,<flops>[,trip[,repeat]]\n\n\
         exit codes: 0 ok, 2 usage, 3 kernel load/compile, 4 simulation/job fault,\n             \
         5 connection/protocol failure"
    );
}

/// Cycle budget of every simulating subcommand.
const MAX_CYCLES: u64 = 500_000_000;

/// Flags that shape the program a kernel compiles to.
const BUILD_FLAGS: &[&str] = &["--trip", "--passes", "--arch", "--granules", "--opt", "--inject"];

/// Flags that steer or observe a simulation.
const SIM_FLAGS: &[&str] = &[
    "--mode", "--recover", "--trace", "--trace-out", "--trace-buf", "--events", "--timeline",
    "--stats",
];

/// The options of the simulating subcommands (`disasm`, `run`,
/// `profile`, `corun`, `sched`).
struct RunOpts {
    files: Vec<String>,
    trip: usize,
    passes: usize,
    arch: String,
    /// `--granules`, given only with `--arch vls`.
    granules: Option<usize>,
    params: Vec<(String, f32)>,
    trace: bool,
    timeline: bool,
    stats: bool,
    optimize: bool,
    quantum: u64,
    trace_out: Option<String>,
    /// `--trace-buf`, given only with an event view.
    trace_buf: Option<usize>,
    events: Option<String>,
    inject: Option<FaultPlan>,
    recover: Option<RecoveryPolicy>,
    mode: SimMode,
}

/// Parses the options of `occamy <cmd>`, which takes `files` kernel
/// files and honours the flags in `honours`: any other flag is a usage
/// error naming it, so no flag is silently ignored.
fn parse_opts(
    cmd: &str,
    args: &[String],
    files: std::ops::RangeInclusive<usize>,
    honours: &[&str],
) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        files: Vec::new(),
        trip: 4096,
        passes: 1,
        arch: "occamy".into(),
        granules: None,
        params: Vec::new(),
        trace: false,
        timeline: false,
        stats: false,
        optimize: false,
        quantum: 5_000,
        trace_out: None,
        trace_buf: None,
        events: None,
        inject: None,
        recover: None,
        mode: SimMode::Timing,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = if a == "-O" { "--opt" } else { a.as_str() };
        if flag.starts_with("--") && !honours.contains(&flag) {
            return Err(format!("`occamy {cmd}` does not take {flag} (see --help)"));
        }
        match flag {
            "--trip" => opts.trip = arg(&mut it, "--trip")?,
            "--passes" => opts.passes = arg(&mut it, "--passes")?,
            "--arch" => opts.arch = arg(&mut it, "--arch")?,
            "--granules" => opts.granules = Some(arg(&mut it, "--granules")?),
            "--param" => {
                let kv: String = arg(&mut it, "--param")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--param expects name=value, got `{kv}`"))?;
                opts.params.push((
                    k.to_owned(),
                    v.parse().map_err(|e| format!("--param {k}: {e}"))?,
                ));
            }
            "--trace" => opts.trace = true,
            "--timeline" => opts.timeline = true,
            "--stats" => opts.stats = true,
            "--opt" => opts.optimize = true,
            "--quantum" => opts.quantum = arg(&mut it, "--quantum")?,
            "--trace-out" => opts.trace_out = Some(arg(&mut it, "--trace-out")?),
            "--trace-buf" => {
                let n = arg(&mut it, "--trace-buf")?;
                if n == 0 {
                    return Err("--trace-buf must be at least 1".into());
                }
                opts.trace_buf = Some(n);
            }
            "--events" => opts.events = Some(arg(&mut it, "--events")?),
            "--inject" => {
                let spec: String = arg(&mut it, "--inject")?;
                opts.inject =
                    Some(FaultPlan::parse(&spec).map_err(|e| format!("--inject: {e}"))?);
            }
            "--recover" => {
                let spec: String = arg(&mut it, "--recover")?;
                let spec = if spec == "default" { "" } else { spec.as_str() };
                opts.recover =
                    Some(RecoveryPolicy::parse(spec).map_err(|e| format!("--recover: {e}"))?);
            }
            "--mode" => {
                let spec: String = arg(&mut it, "--mode")?;
                opts.mode = SimMode::parse(&spec).map_err(|e| format!("--mode: {e}"))?;
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.files.len() < *files.start() {
        return Err(match files.start() {
            1 => "no kernel file given".into(),
            n => format!("`occamy {cmd}` needs {n} kernel files"),
        });
    }
    if let Some(extra) = opts.files.get(*files.end()) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    if !matches!(opts.arch.as_str(), "occamy" | "private" | "fts" | "vls") {
        return Err(format!(
            "unknown architecture `{}` (expected occamy|private|fts|vls)",
            opts.arch
        ));
    }
    if opts.granules.is_some() && opts.arch != "vls" {
        return Err("--granules sets the VLS partition; it needs --arch vls".into());
    }
    if opts.trace_buf.is_some() && !(opts.trace || opts.trace_out.is_some() || opts.events.is_some())
    {
        return Err("--trace-buf sizes the event ring of --trace, --trace-out and --events; \
                    give one of them"
            .into());
    }
    Ok(opts)
}

/// Prints the detection-and-recovery counters when the subsystem was
/// armed with `--recover`.
fn print_recovery_summary(machine: &Machine) {
    if let Some(r) = machine.recovery_stats() {
        println!("recovery:");
        for line in r.to_string().lines() {
            println!("  {line}");
        }
        let quarantined = machine.quarantined_granules();
        if !quarantined.is_empty() {
            println!("  quarantined granule(s): {quarantined:?}");
        }
        if machine.hints_sanitized() > 0 {
            println!("  <OI> hints sanitized: {}", machine.hints_sanitized());
        }
    }
}

/// The `--inject` summary line: the faults the plan actually applied.
fn injected_summary(machine: &Machine) -> String {
    let f = machine.fault_stats().copied().unwrap_or_default();
    format!(
        "injected: {} program corruption(s), {} <OI> corruption(s), \
         {} decision perturbation(s), {} memory spike(s)",
        f.program_corruptions, f.oi_corruptions, f.decision_perturbations, f.mem_spikes
    )
}

fn load_kernel(path: &str) -> Result<Kernel, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_kernel(&text).map_err(|e| format!("{path}:{e}"))
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let file = args.first().ok_or_else(|| CliError::Usage("no kernel file given".into()))?;
    let kernel = load_kernel(file).map_err(CliError::Load)?;
    let info = analyze(&kernel);
    println!("kernel `{}`", kernel.name());
    println!("  per-element vector instructions:");
    println!("    compute : {}", info.comp);
    println!("    loads   : {}  ({:?})", info.loads, kernel.loaded_arrays());
    println!("    stores  : {}  ({:?})", info.stores, kernel.stored_arrays());
    if !kernel.reduction_outputs().is_empty() {
        println!("    reduce  : {:?}", kernel.reduction_outputs());
    }
    if !kernel.params().is_empty() {
        println!("    params  : {:?}", kernel.params());
    }
    println!("  footprint : {} bytes/element (reuse considered)", info.footprint_bytes);
    println!("  <OI>      : issue={:.4}  mem={:.4}  FLOPs/byte", info.oi.issue(), info.oi.mem());
    let ceilings = MachineCeilings::paper_default();
    let sat = ceilings.saturation_vl(info.oi, MemLevel::Dram, VectorLength::new(8));
    println!(
        "  lane demand (paper 2-core machine, DRAM ceiling): saturates at {} lanes",
        sat.lanes()
    );
    Ok(())
}

/// A kernel ready to compile: its arrays allocated and filled in memory,
/// and the `(name, address)` of each, in base-array order.
struct BoundKernel {
    kernel: Kernel,
    layout: ArrayLayout,
    arrays: Vec<(String, u64)>,
}

/// Loads every kernel file of `opts` (optimized under `--opt`) and binds
/// it in a fresh memory of `bytes(kernels)` bytes: a halo'd `f32` array
/// of `--trip` elements per base array, filled with deterministic,
/// mildly varied data; then writes the `--param` values. With a
/// `prefix`, kernel `i`'s arrays are named `{prefix}{i}_<name>`, so the
/// kernels get disjoint arrays.
fn load_kernels(
    opts: &RunOpts,
    prefix: Option<&str>,
    bytes: impl Fn(&[Kernel]) -> usize,
) -> Result<(Vec<BoundKernel>, Memory), CliError> {
    let mut kernels = Vec::new();
    for (i, file) in opts.files.iter().enumerate() {
        let kernel = load_kernel(file).map_err(CliError::Load)?;
        let kernel = if opts.optimize { occamy_compiler::optimize(&kernel) } else { kernel };
        kernels.push(match prefix {
            Some(p) => kernel.with_array_prefix(&format!("{p}{i}_")),
            None => kernel,
        });
    }
    let mut mem = Memory::new(bytes(&kernels));
    let (halo, trip) = (16u64, opts.trip as u64);
    let bound: Vec<BoundKernel> = kernels
        .into_iter()
        .map(|kernel| {
            let mut layout = ArrayLayout::new();
            let mut arrays = Vec::new();
            for name in kernel.base_arrays() {
                let addr = mem.alloc_f32(trip + 2 * halo) + 4 * halo;
                for i in 0..trip + 2 * halo {
                    let v = 0.5 + ((i * 29 + 11) % 97) as f32 / 97.0;
                    mem.write_f32(addr - 4 * halo + 4 * i, v);
                }
                layout.bind(name.clone(), addr);
                arrays.push((name, addr));
            }
            BoundKernel { kernel, layout, arrays }
        })
        .collect();
    for (name, value) in &opts.params {
        let (_, addr) = bound
            .iter()
            .flat_map(|b| &b.arrays)
            .find(|(n, _)| n == name)
            .ok_or_else(|| CliError::Load(format!("--param {name}: kernel has no such parameter")))?;
        mem.write_f32(*addr, *value);
    }
    Ok((bound, mem))
}

fn compile(bound: &BoundKernel, opts: &RunOpts, mode: VlMode) -> Result<Program, CliError> {
    Compiler::new(CodeGenOptions { mode, ..CodeGenOptions::default() })
        .compile_repeated(&[(bound.kernel.clone(), opts.trip, opts.passes)], &bound.layout)
        .map_err(|e| CliError::Load(e.to_string()))
}

/// The one setup path of `disasm`, `run`, `profile` and `corun`: each
/// kernel of `opts` is compiled for its core of the paper's 2-core
/// machine under `--arch` and loaded there, then the `--inject` plan is
/// installed (its program clauses corrupt the loaded programs).
///
/// One kernel gets a memory sized to its arrays; a co-run pair shares
/// 64 MiB. Out-of-bounds faults under `--inject` depend on that sizing.
fn build(opts: &RunOpts) -> Result<(Vec<BoundKernel>, Machine), CliError> {
    let (bound, mem) =
        load_kernels(opts, (opts.files.len() > 1).then_some("c"), |kernels| match kernels {
            [k] => (k.base_arrays().len() * (opts.trip + 64) * 4 + (1 << 20)).max(1 << 20),
            _ => 64 << 20,
        })?;
    let cfg = SimConfig::paper_2core();
    let arch = match opts.arch.as_str() {
        "private" => Architecture::Private,
        "fts" => Architecture::TemporalSharing,
        "vls" => {
            let g = opts.granules.unwrap_or(4).clamp(1, cfg.total_granules - 1);
            Architecture::StaticSpatialSharing { partition: vec![g, cfg.total_granules - g] }
        }
        _ => Architecture::Occamy,
    };
    let mut machine = Machine::new(cfg.clone(), arch.clone(), mem)
        .map_err(|e| CliError::Sim(e.to_string()))?;
    for (core, b) in bound.iter().enumerate() {
        let mode = arch
            .fixed_vl(core, &cfg)
            .map_or(VlMode::Elastic { default: VectorLength::new(2) }, VlMode::Fixed);
        machine.load_program(core, compile(b, opts, mode)?);
    }
    if let Some(plan) = &opts.inject {
        machine.set_fault_plan(plan);
    }
    Ok((bound, machine))
}

/// [`build`], then arm the observers (`--trace`/`--trace-out`/`--events`,
/// and the profiler when `profile`), `--recover` and `--mode`, and run
/// to completion under [`MAX_CYCLES`].
fn simulate(
    opts: &RunOpts,
    profile: bool,
) -> Result<(Vec<BoundKernel>, Machine, MachineStats), CliError> {
    let (bound, mut machine) = build(opts)?;
    if opts.trace || opts.trace_out.is_some() || opts.events.is_some() {
        machine.enable_events(opts.trace_buf.unwrap_or(4096));
    }
    if profile {
        machine.enable_profile();
    }
    if let Some(policy) = opts.recover {
        machine.enable_recovery(policy);
    }
    machine
        .set_mode(opts.mode)
        .map_err(|e| CliError::Usage(format!("--mode {}: {e}", opts.mode)))?;
    let stats = machine
        .run(MAX_CYCLES)
        .map_err(|e| CliError::Sim(format!("simulation fault: {e}")))?;
    if !stats.completed {
        return Err(CliError::Sim("run exceeded the cycle budget".into()));
    }
    Ok((bound, machine, stats))
}

/// Prints the views every simulating subcommand shares, after its own
/// report: `--timeline`, `--trace`, the `--trace-out` Kanata file and
/// the `--events` Chrome trace, then warns if the event ring overflowed
/// (every trace view then covers only the end of the run).
fn print_views(machine: &Machine, stats: &MachineStats, opts: &RunOpts) -> Result<(), CliError> {
    if opts.timeline {
        println!();
        print!("{}", render_lane_timeline(&stats.timeline, stats.total_lanes, 100));
    }
    if opts.trace {
        println!();
        print!("{}", render_pipeview(machine.events()));
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, to_kanata(machine.events()))
            .map_err(|e| CliError::Sim(format!("{path}: {e}")))?;
        println!("wrote Kanata trace to {path} (open with the Konata viewer)");
    }
    if let Some(path) = &opts.events {
        std::fs::write(path, machine.chrome_trace())
            .map_err(|e| CliError::Sim(format!("{path}: {e}")))?;
        println!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
    }
    let dropped = machine.events().dropped();
    if dropped > 0 {
        eprintln!(
            "warning: event ring overflowed, {dropped} oldest event(s) dropped; the trace \
             shows only the end of the run — raise --trace-buf or shorten the run"
        );
    }
    Ok(())
}

/// The `--stats` block of `run` and `corun`.
fn print_stats(stats: &MachineStats) {
    println!();
    print!("{}", stats.report());
    println!();
    print!("{}", stats.metrics.dump());
}

fn cmd_disasm(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("disasm", args, 1..=1, BUILD_FLAGS)?;
    let (_, machine) = build(&opts)?;
    print!("{}", machine.program(0).expect("build loads core 0").disassemble());
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    // Only `run` prints array values, so only `run` takes `--param`.
    let honours = [BUILD_FLAGS, SIM_FLAGS, &["--param"]].concat();
    let opts = parse_opts("run", args, 1..=1, &honours)?;
    let (bound, machine, stats) = simulate(&opts, false)?;
    let BoundKernel { kernel, arrays, .. } = &bound[0];
    println!(
        "kernel `{}` on {}: {} elements x {} pass(es), OI {}",
        kernel.name(),
        opts.arch,
        opts.trip,
        opts.passes,
        analyze(kernel).oi
    );
    if stats.estimated {
        // Timing-derived rates are meaningless across functional
        // windows; report the extrapolated total instead.
        println!(
            "  {} cycles (ESTIMATED, mode {}; {} insts fast-forwarded)",
            stats.estimated_cycles, opts.mode, stats.functional_insts
        );
    } else {
        println!(
            "  {} cycles | SIMD issue {:.2} insts/cycle | utilisation {:.1}%",
            stats.core_time(0),
            stats.cores[0].issue_rate(stats.core_time(0)),
            100.0 * stats.simd_utilization()
        );
    }
    for p in stats.cores[0].phases.iter().take(3) {
        println!(
            "  phase: {} lanes, issue {:.2}, {} cycles",
            p.configured_granules * 4,
            p.issue_rate(),
            p.duration()
        );
    }
    // Show a few output elements.
    for name in kernel.stored_arrays().iter().chain(&kernel.reduction_outputs()) {
        if let Some((_, addr)) = arrays.iter().find(|(n, _)| n == name) {
            let values: Vec<String> = (0..4.min(opts.trip as u64))
                .map(|i| format!("{:.4}", machine.memory().read_f32(addr + 4 * i)))
                .collect();
            println!("  {name}[0..4] = [{}]", values.join(", "));
        }
    }
    if opts.inject.is_some() {
        println!("  {}", injected_summary(&machine));
    }
    print_recovery_summary(&machine);
    if opts.stats {
        print_stats(&stats);
    }
    print_views(&machine, &stats, &opts)
}

/// Run one kernel with the cycle-attribution profiler and print the
/// per-phase breakdown (the Fig. 15 reproduction). The profiler
/// attributes timing cycles, so `profile` takes no `--mode`.
fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let honours: Vec<&str> =
        [BUILD_FLAGS, SIM_FLAGS].concat().into_iter().filter(|f| *f != "--mode").collect();
    let opts = parse_opts("profile", args, 1..=1, &honours)?;
    let (bound, machine, stats) = simulate(&opts, true)?;
    println!(
        "kernel `{}` on {}: {} elements x {} pass(es), {} cycles",
        bound[0].kernel.name(),
        opts.arch,
        opts.trip,
        opts.passes,
        stats.core_time(0)
    );
    let profile = machine.profile().expect("simulate enables the profiler");
    print!("{}", render_profile(profile, &stats));
    if opts.inject.is_some() {
        println!("{}", injected_summary(&machine));
    }
    print_recovery_summary(&machine);
    if opts.stats {
        println!();
        print!("{}", stats.metrics.dump());
    }
    print_views(&machine, &stats, &opts)
}

/// Co-run two kernels on the two-core machine and show how lanes move
/// between them. `corun` always prints the lane timeline, so it takes no
/// `--timeline`.
fn cmd_corun(args: &[String]) -> Result<(), CliError> {
    let honours: Vec<&str> =
        [BUILD_FLAGS, SIM_FLAGS].concat().into_iter().filter(|f| *f != "--timeline").collect();
    let opts = parse_opts("corun", args, 2..=2, &honours)?;
    let (bound, machine, stats) = simulate(&opts, false)?;
    print_recovery_summary(&machine);
    if opts.inject.is_some() {
        println!("{}", injected_summary(&machine));
    }
    if stats.estimated {
        println!(
            "machine: {} cycles (ESTIMATED, mode {}; {} insts fast-forwarded)\n",
            stats.estimated_cycles, opts.mode, stats.functional_insts
        );
    } else {
        for (core, b) in bound.iter().enumerate() {
            println!(
                "core {core} `{}`: {} cycles, issue {:.2} insts/cycle",
                b.kernel.name(),
                stats.core_time(core),
                stats.cores[core].issue_rate(stats.core_time(core)),
            );
        }
        println!(
            "machine: {} cycles, SIMD utilisation {:.1}%\n",
            stats.cycles,
            100.0 * stats.simd_utilization()
        );
    }
    print!("{}", render_lane_timeline(&stats.timeline, stats.total_lanes, 100));
    if opts.stats {
        print_stats(&stats);
    }
    print_views(&machine, &stats, &opts)
}

/// Time-share any number of kernels over the two-core Occamy machine
/// with the `occamy-os` round-robin scheduler (the §5 OS interaction).
fn cmd_sched(args: &[String]) -> Result<(), CliError> {
    let honours = ["--trip", "--passes", "--opt", "--inject", "--quantum", "--timeline"];
    let opts = parse_opts("sched", args, 1..=usize::MAX, &honours)?;
    let (bound, mem) = load_kernels(&opts, Some("t"), |_| 64 << 20)?;
    let mut tasks = Vec::new();
    for (idx, b) in bound.iter().enumerate() {
        let program = compile(b, &opts, VlMode::Elastic { default: VectorLength::new(2) })?;
        tasks.push(occamy_os::Task::new(format!("{}#{idx}", b.kernel.name()), program));
    }
    let mut machine = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem)
        .map_err(|e| CliError::Sim(e.to_string()))?;
    if let Some(plan) = &opts.inject {
        machine.set_fault_plan(plan);
    }
    let report = occamy_os::Scheduler::new(opts.quantum)
        .run(&mut machine, tasks, MAX_CYCLES)
        .map_err(|e| CliError::Sim(format!("simulation fault: {e}")))?;
    if !report.completed {
        return Err(CliError::Sim("schedule exceeded the cycle budget".into()));
    }
    println!(
        "{} task(s), 2 cores, round-robin quantum {} cycles",
        bound.len(),
        opts.quantum
    );
    print!("{}", report.render());
    if opts.timeline {
        let stats = machine.stats();
        println!();
        print!("{}", render_lane_timeline(&stats.timeline, stats.total_lanes, 100));
    }
    Ok(())
}

/// Default rendezvous for `serve`/`submit` when no endpoint is given.
const DEFAULT_ENDPOINT: &str = "unix:/tmp/occamyd.sock";

/// Starts the `occamyd` daemon and blocks until a client sends a
/// `shutdown` op (`occamy submit --shutdown`) or the process receives
/// `SIGTERM`/`SIGINT` — both end in a graceful drain: admission stops,
/// in-flight jobs finish (or persist a checkpoint), the journal is
/// flushed, and the process exits 0.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut listen = DEFAULT_ENDPOINT.to_owned();
    let mut config = occamyd::ServiceConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = arg(&mut it, "--listen")?,
            "--workers" => {
                config.workers = arg(&mut it, "--workers")?;
                if config.workers == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".into()));
                }
            }
            "--capacity" => config.admission.capacity = arg(&mut it, "--capacity")?,
            "--per-tenant" => config.admission.per_tenant = arg(&mut it, "--per-tenant")?,
            "--state-dir" => config.state_dir = Some(arg(&mut it, "--state-dir")?),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }
    let endpoint = occamyd::Endpoint::parse(&listen).map_err(CliError::Usage)?;
    let term = occamyd::server::install_termination_flag();
    let mut handle = occamyd::serve(&endpoint, config).map_err(CliError::Net)?;
    println!("occamyd listening on {}", handle.endpoint);
    println!("stop with: occamy submit --shutdown --connect {}", handle.endpoint);
    while !handle.stopping() && !term.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    handle.stop();
    println!("occamyd stopped");
    Ok(())
}

/// The value after option `name` on the command line, parsed as a `T`.
fn arg<T: std::str::FromStr>(it: &mut std::slice::Iter<String>, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
    value.parse().map_err(|e| format!("{name}: {e}"))
}

/// What a `submit` invocation asks the daemon to do.
enum SubmitOp {
    Run,
    Ping,
    Stats,
    Shutdown,
}

/// Submits one job (or a control op) to a running daemon and waits for
/// the terminal reply.
fn cmd_submit(args: &[String]) -> Result<(), CliError> {
    let mut connect = DEFAULT_ENDPOINT.to_owned();
    let mut tenant = "cli".to_owned();
    let mut id = "job".to_owned();
    let mut op = SubmitOp::Run;
    let mut retries = 5u32;
    let mut timing = false;
    let mut spec = occamyd::JobSpec::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = arg(&mut it, "--connect")?,
            "--connect-retries" => retries = arg(&mut it, "--connect-retries")?,
            "--tenant" => tenant = arg(&mut it, "--tenant")?,
            "--id" => id = arg(&mut it, "--id")?,
            "--arch" => spec.arch = arg(&mut it, "--arch")?,
            "--scale" => spec.scale = arg(&mut it, "--scale")?,
            "--seed" => spec.seed = arg(&mut it, "--seed")?,
            "--max-cycles" => spec.max_cycles = arg(&mut it, "--max-cycles")?,
            "--deadline-ms" => spec.deadline_ms = Some(arg(&mut it, "--deadline-ms")?),
            "--inject" => spec.inject = Some(arg(&mut it, "--inject")?),
            "--mode" => {
                spec.mode = SimMode::parse(&arg::<String>(&mut it, "--mode")?)
                    .map_err(|e| CliError::Usage(format!("--mode: {e}")))?;
            }
            "--ping" => op = SubmitOp::Ping,
            "--stats" => op = SubmitOp::Stats,
            "--shutdown" => op = SubmitOp::Shutdown,
            "--timing" => timing = true,
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown option `{other}`")))
            }
            workload => spec.workloads.push(workload.to_owned()),
        }
    }
    let endpoint = occamyd::Endpoint::parse(&connect).map_err(CliError::Usage)?;
    let mut client = connect_with_retry(&endpoint, retries).map_err(CliError::Net)?;
    let request = match op {
        SubmitOp::Ping => occamyd::Request::Ping,
        SubmitOp::Stats => occamyd::Request::Stats { tenant: None, prefix: None },
        SubmitOp::Shutdown => occamyd::Request::Shutdown,
        SubmitOp::Run => {
            if spec.workloads.is_empty() {
                return Err(CliError::Usage(
                    "no workload given (WL1..WL22 | cv1..cv12 | synth:l,s,f[,trip[,rep]])"
                        .into(),
                ));
            }
            occamyd::Request::Submit { tenant, id: id.clone(), job: spec }
        }
    };
    let run = matches!(request, occamyd::Request::Submit { .. });
    client.send(&request).map_err(CliError::Net)?;
    if !run {
        let reply = client.recv().map_err(CliError::Net)?;
        match reply {
            occamyd::Reply::Pong => println!("pong"),
            occamyd::Reply::Stats { payload } => println!("{}", payload.render()),
            occamyd::Reply::ShuttingDown => println!("daemon shutting down"),
            other => {
                return Err(CliError::Net(format!("unexpected reply: {}", other.to_line())))
            }
        }
        return Ok(());
    }
    match client.wait_terminal(&id).map_err(CliError::Net)? {
        occamyd::Reply::Result { cached, attempts, payload, timing: job_timing, .. } => {
            eprintln!(
                "job `{id}` ok ({}, {attempts} attempt(s))",
                if cached { "cached" } else { "cold" }
            );
            if timing {
                match job_timing {
                    Some(t) => eprintln!(
                        "job `{id}` timing: queue_wait {} µs, service {} µs, total {} µs",
                        t.queue_us,
                        t.run_us,
                        t.queue_us.saturating_add(t.run_us),
                    ),
                    None => eprintln!("job `{id}` timing: not reported by this daemon"),
                }
            }
            println!("{}", payload.render());
            Ok(())
        }
        occamyd::Reply::Error { kind, detail, .. } => {
            Err(CliError::Sim(format!("job `{id}` failed ({kind}): {detail}")))
        }
        occamyd::Reply::Shed { kind, detail, .. } => {
            Err(CliError::Sim(format!("job `{id}` shed ({kind}): {detail}")))
        }
        other => Err(CliError::Net(format!("unexpected terminal reply: {}", other.to_line()))),
    }
}

/// One metrics snapshot from a running daemon: sends a filtered `stats`
/// request and prints the JSON payload (metrics + tenant list + cache).
fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let mut connect = DEFAULT_ENDPOINT.to_owned();
    let mut retries = 5u32;
    let mut tenant: Option<String> = None;
    let mut prefix: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = arg(&mut it, "--connect")?,
            "--connect-retries" => retries = arg(&mut it, "--connect-retries")?,
            "--tenant" => tenant = Some(arg(&mut it, "--tenant")?),
            "--prefix" => prefix = Some(arg(&mut it, "--prefix")?),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }
    let endpoint = occamyd::Endpoint::parse(&connect).map_err(CliError::Usage)?;
    let mut client = connect_with_retry(&endpoint, retries).map_err(CliError::Net)?;
    client.send(&occamyd::Request::Stats { tenant, prefix }).map_err(CliError::Net)?;
    match client.recv().map_err(CliError::Net)? {
        occamyd::Reply::Stats { payload } => {
            println!("{}", payload.render());
            Ok(())
        }
        other => Err(CliError::Net(format!("unexpected reply: {}", other.to_line()))),
    }
}

/// The live monitor: subscribes to the daemon's `watch` event stream
/// and polls `stats` once per refresh, rendering a per-tenant table
/// plus the most recent events. On a TTY each refresh redraws in
/// place; piped output degrades to plain appended frames.
fn cmd_top(args: &[String]) -> Result<(), CliError> {
    let mut connect = DEFAULT_ENDPOINT.to_owned();
    let mut retries = 5u32;
    let mut tenant: Option<String> = None;
    let mut interval_ms = 1_000u64;
    let mut iterations = 0u64; // 0 = run until interrupted or daemon exit
    let mut buffer: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = arg(&mut it, "--connect")?,
            "--connect-retries" => retries = arg(&mut it, "--connect-retries")?,
            "--tenant" => tenant = Some(arg(&mut it, "--tenant")?),
            "--interval-ms" => interval_ms = arg(&mut it, "--interval-ms")?,
            "--iterations" => iterations = arg(&mut it, "--iterations")?,
            "--buffer" => buffer = Some(arg(&mut it, "--buffer")?),
            other => return Err(CliError::Usage(format!("unknown option `{other}`"))),
        }
    }
    let endpoint = occamyd::Endpoint::parse(&connect).map_err(CliError::Usage)?;
    let mut client = connect_with_retry(&endpoint, retries).map_err(CliError::Net)?;
    client
        .send(&occamyd::Request::Watch { tenant: tenant.clone(), buffer })
        .map_err(CliError::Net)?;
    match client.recv().map_err(CliError::Net)? {
        occamyd::Reply::Watching { .. } => {}
        other => return Err(CliError::Net(format!("unexpected reply: {}", other.to_line()))),
    }

    use std::io::IsTerminal;
    let ansi = std::io::stdout().is_terminal();
    let mut events: std::collections::VecDeque<String> = std::collections::VecDeque::new();
    let mut dropped = 0u64;
    let mut tick = 0u64;
    loop {
        tick += 1;
        client
            .send(&occamyd::Request::Stats { tenant: tenant.clone(), prefix: None })
            .map_err(CliError::Net)?;
        // Drain event frames that arrived since the last refresh; the
        // stats reply (sent after them on the same connection) closes
        // the batch.
        let payload = loop {
            match client.recv().map_err(CliError::Net)? {
                occamyd::Reply::Stats { payload } => break payload,
                occamyd::Reply::Event {
                    dropped: d, vcycles, kind, tenant, id, detail, ..
                } => {
                    dropped = d;
                    let line = if detail.is_empty() {
                        format!("{vcycles:>14}vc  {kind:<9} {tenant}/{id}")
                    } else {
                        format!("{vcycles:>14}vc  {kind:<9} {tenant}/{id}  {detail}")
                    };
                    if events.len() >= TOP_EVENT_LINES {
                        events.pop_front();
                    }
                    events.push_back(line);
                }
                occamyd::Reply::ShuttingDown => {
                    println!("daemon shutting down");
                    return Ok(());
                }
                _ => {}
            }
        };
        render_top(ansi, &connect, tick, &payload, &events, dropped);
        if iterations > 0 && tick >= iterations {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(50)));
    }
}

/// Event lines kept on screen by `occamy top`.
const TOP_EVENT_LINES: usize = 10;

/// Renders one `occamy top` frame from a `stats` payload.
fn render_top(
    ansi: bool,
    endpoint: &str,
    tick: u64,
    payload: &bench::json::Value,
    events: &std::collections::VecDeque<String>,
    dropped: u64,
) {
    use std::fmt::Write as _;
    let metrics = payload.get("metrics");
    let counter = |name: &str| {
        metrics.and_then(|m| m.get(name)).and_then(|v| v.as_u64()).unwrap_or(0)
    };
    let gauge = |name: &str| {
        metrics
            .and_then(|m| m.get(name))
            .and_then(|v| v.as_f64())
            .map_or(0, |v| v.max(0.0) as u64)
    };
    let mut frame = String::new();
    let _ = writeln!(frame, "occamy top — {endpoint}  (refresh {tick})");
    let _ = writeln!(
        frame,
        "submitted {}  accepted {}  completed {}  failed {}  shed {}  queue {}  \
         cache {}h/{}m  watch dropped {dropped}",
        counter("service.submitted"),
        counter("service.accepted"),
        counter("service.completed"),
        counter("service.failed"),
        counter("service.shed"),
        gauge("service.queue_depth"),
        counter("sim.cache.hits"),
        counter("sim.cache.misses"),
    );
    let _ = writeln!(
        frame,
        "{:<16} {:>9} {:>7} {:>16} {:>12} {:>12} {:>12} {:>12}",
        "TENANT", "ADMITTED", "OK", "SIM_CYCLES", "QWAIT_P50", "QWAIT_P99", "LAT_P50", "LAT_P99"
    );
    if let Some(bench::json::Value::Arr(tenants)) = payload.get("tenants") {
        for t in tenants.iter().filter_map(|t| t.as_str()) {
            let key = |q: &str| format!("service.tenant.{t}.{q}");
            let _ = writeln!(
                frame,
                "{:<16} {:>9} {:>7} {:>16} {:>12} {:>12} {:>12} {:>12}",
                t,
                counter(&key("admitted")),
                counter(&key("ok")),
                counter(&key("sim_cycles")),
                gauge(&key("queue_wait_vcycles_p50")),
                gauge(&key("queue_wait_vcycles_p99")),
                gauge(&key("latency_vcycles_p50")),
                gauge(&key("latency_vcycles_p99")),
            );
        }
    }
    if !events.is_empty() {
        let _ = writeln!(frame, "recent events (virtual-time stamps):");
        for line in events {
            let _ = writeln!(frame, "  {line}");
        }
    }
    if ansi {
        // Redraw in place: home the cursor, print, clear what's left of
        // the previous (possibly taller) frame.
        print!("\x1b[H{frame}\x1b[J");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    } else {
        print!("{frame}");
    }
}

/// Connects to the daemon, retrying transient "nobody home yet"
/// failures (connection refused, socket file not created yet) under the
/// deterministic equal-jitter backoff of
/// [`bench::runner::BackoffPolicy`]. A daemon mid-restart — crash
/// recovery, a rolling upgrade — looks exactly like this, and a client
/// that sleeps a few hundred milliseconds beats one that exits 5.
/// Non-transient errors (refused auth, unroutable host) fail fast.
fn connect_with_retry(
    endpoint: &occamyd::Endpoint,
    attempts: u32,
) -> Result<occamyd::Client, String> {
    let attempts = attempts.max(1);
    let policy = bench::runner::BackoffPolicy {
        base_us: 50_000,
        cap_us: 2_000_000,
        seed: 0x0cca_317e,
    };
    let salt = occamyd::protocol::fnv1a(endpoint.to_string().as_bytes());
    let mut last_err = String::new();
    for attempt in 1..=attempts {
        match occamyd::Client::connect(endpoint) {
            Ok(client) => return Ok(client),
            Err(e) => {
                let transient = e.contains("refused") || e.contains("No such file");
                if !transient || attempt == attempts {
                    return Err(e);
                }
                let delay = policy.delay(salt, attempt);
                eprintln!(
                    "occamy submit: {e}; retrying in {delay:?} \
                     (attempt {attempt}/{attempts})"
                );
                last_err = e;
                std::thread::sleep(delay);
            }
        }
    }
    Err(last_err)
}

fn cmd_roofline(args: &[String]) -> Result<(), CliError> {
    if args.is_empty() {
        return Err(CliError::Usage(
            "give one operational intensity per co-running workload".into(),
        ));
    }
    let ois: Vec<f64> = args
        .iter()
        .map(|a| a.parse().map_err(|e| format!("`{a}`: {e}")))
        .collect::<Result<_, String>>()
        .map_err(CliError::Usage)?;
    let ceilings = MachineCeilings::paper_default();
    println!("{:<8} {:>12} {:>14} {:>14}", "lanes", "FP peak", "issue-bound", "attainable");
    let oi = OperationalIntensity::uniform(ois[0]);
    for g in 1..=8usize {
        let vl = VectorLength::new(g);
        println!(
            "{:<8} {:>12.1} {:>14.1} {:>14.1}",
            vl.lanes(),
            ceilings.fp_peak(vl),
            ceilings.simd_issue_bw(vl) * oi.issue(),
            ceilings.attainable(vl, oi, MemLevel::Dram),
        );
    }
    if ois.len() > 1 {
        let mgr = LaneManager::paper_default(ois.len(), 4 * ois.len().max(2));
        let demands: Vec<PhaseDemand> = ois
            .iter()
            .map(|&o| PhaseDemand::Active(OperationalIntensity::uniform(o)))
            .collect();
        let plan = mgr.plan(&demands);
        let lanes: Vec<String> = (0..ois.len()).map(|c| plan.vl(c).lanes().to_string()).collect();
        println!("\nlane partition plan: [{}] lanes", lanes.join(", "));
    }
    Ok(())
}
