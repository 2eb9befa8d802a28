//! Beyond the paper: the §5 OS-interaction cost as a *policy* sweep.
//!
//! Fig. 15 measures the per-switch overhead (drain + save + release +
//! re-acquire); this study asks what that overhead does to a whole
//! schedule. Eight tasks time-share the paper's two-core machine under
//! round-robin quanta from 1k cycles to run-to-completion, reporting
//! the throughput/response-time trade-off and the measured per-switch
//! cost. Every schedule is independent, so the quantum sweep and the
//! policy comparison each fan out over the worker pool.

use bench::{rule, runner, ArchSweep, Args, Flag};
use em_simd::VectorLength;
use mem_sim::Memory;
use occamy_compiler::{ArrayLayout, CodeGenOptions, Compiler, Expr, Kernel, VlMode};
use occamy_os::{Policy, SchedReport, Scheduler, Task};
use occamy_sim::{Architecture, Machine, MachineStats, SimConfig};

const N: usize = 8192;
const HALO: u64 = 16;
const TASKS: usize = 8;
const QUANTA: [u64; 7] = [u64::MAX / 2, 50_000, 20_000, 10_000, 5_000, 2_000, 1_000];

fn build(n: usize) -> (Machine, Vec<Task>) {
    let mut mem = Memory::new(32 << 20);
    let compiler = Compiler::new(CodeGenOptions {
        mode: VlMode::Elastic { default: VectorLength::new(2) },
        ..CodeGenOptions::default()
    });
    let mut tasks = Vec::new();
    for t in 0..TASKS {
        // Alternate memory-bound copies with arithmetic-heavy chains so
        // the lane manager has real intensity contrast to exploit.
        let kernel = if t % 2 == 0 {
            Kernel::new(format!("stream{t}"))
                .assign("y", Expr::load("x") + Expr::load("z"))
        } else {
            Kernel::new(format!("poly{t}")).assign(
                "y",
                (Expr::load("x") * Expr::constant(1.1) + Expr::constant(0.3))
                    * (Expr::load("x") + Expr::constant(0.9))
                    * (Expr::load("x") * Expr::load("x") + Expr::constant(1.7)),
            )
        };
        let mut layout = ArrayLayout::new();
        for name in kernel.base_arrays() {
            let addr = mem.alloc_f32(n as u64 + 2 * HALO) + 4 * HALO;
            for i in 0..n as u64 + 2 * HALO {
                mem.write_f32(addr - 4 * HALO + 4 * i, ((i * 13 + t as u64) % 89) as f32 / 89.0);
            }
            layout.bind(name, addr);
        }
        let program = compiler.compile(&[(kernel.clone(), n)], &layout).expect("compile");
        let info = occamy_compiler::analyze(&kernel);
        tasks.push(
            Task::new(kernel.name().to_owned(), program)
                .with_oi(em_simd::OperationalIntensity::new(info.oi.issue(), info.oi.mem())),
        );
    }
    (Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).unwrap(), tasks)
}

fn last_start(r: &SchedReport) -> u64 {
    r.outcomes.iter().map(|o| o.started_at).max().unwrap_or(0)
}

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let n = ((N as f64 * args.scale) as usize).max(1024);
    let workers = args.workers();

    println!(
        "Scheduling-policy sweep: {TASKS} tasks, 2 cores, round-robin\n\
         (makespan = throughput cost; last-start = response-time win)"
    );
    rule(76);
    println!(
        "{:<12} {:>10} {:>9} {:>13} {:>12} {:>12}",
        "quantum", "makespan", "switches", "mean-turnd", "last-start", "ovh/switch"
    );
    rule(76);
    let quantum_runs: Vec<(SchedReport, MachineStats)> =
        runner::run_jobs(QUANTA.len(), workers, |i| {
            let (mut machine, tasks) = build(n);
            let report = Scheduler::new(QUANTA[i])
                .run(&mut machine, tasks, 500_000_000)
                .expect("simulation fault");
            assert!(report.completed, "schedule must finish");
            let stats = machine.stats();
            (report, stats)
        });
    // QUANTA[0] is run-to-completion: the baseline the per-switch
    // overhead is measured against.
    let fifo_makespan = quantum_runs[0].0.makespan;
    for (quantum, (report, _)) in QUANTA.iter().zip(&quantum_runs) {
        let per_switch = if report.context_switches > 0 {
            (report.makespan.saturating_sub(fifo_makespan)) as f64
                / f64::from(report.context_switches)
        } else {
            0.0
        };
        let label = if *quantum > 100_000_000 { "fifo".into() } else { quantum.to_string() };
        println!(
            "{:<12} {:>10} {:>9} {:>13.0} {:>12} {:>12.0}",
            label,
            report.makespan,
            report.context_switches,
            report.mean_turnaround(),
            last_start(report),
            per_switch,
        );
    }
    rule(76);
    println!("\nPlacement-policy comparison (run-to-completion, same 8 tasks):");
    rule(76);
    println!("{:<18} {:>10} {:>14} {:>14}", "policy", "makespan", "mean-turnd", "SIMD util");
    rule(76);
    let policies = [("fifo", Policy::RoundRobin), ("intensity-aware", Policy::IntensityAware)];
    let policy_runs: Vec<(SchedReport, MachineStats)> =
        runner::run_jobs(policies.len(), workers, |i| {
            let (mut machine, tasks) = build(n);
            let report = Scheduler::with_policy(u64::MAX / 2, policies[i].1)
                .run(&mut machine, tasks, 500_000_000)
                .expect("simulation fault");
            assert!(report.completed);
            let stats = machine.stats();
            (report, stats)
        });
    for ((label, _), (report, stats)) in policies.iter().zip(&policy_runs) {
        println!(
            "{:<18} {:>10} {:>14.0} {:>13.1}%",
            label,
            report.makespan,
            report.mean_turnaround(),
            100.0 * stats.simd_utilization(),
        );
    }
    rule(76);
    println!(
        "The intensity-aware policy (the OS reading each task's declared <OI>,\n\
         \u{a7}5) keeps memory-bound and compute-bound tasks co-running. This\n\
         batch is submitted alternating stream/poly, so FIFO already forms\n\
         mixed pairs and the policies nearly tie; under an adversarial\n\
         memory-first submission order (occamy-os's pairing test) the aware\n\
         policy improves mean turnaround ~5% at equal makespan. Makespan is\n\
         nearly pairing-invariant either way: bandwidth-limited work drains\n\
         at the same aggregate rate however it is paired.\n"
    );
    println!(
        "Shorter quanta service the last task sooner (response time falls\n\
         monotonically) while each switch adds a drain + lane re-acquisition\n\
         to the makespan — the schedule-level face of Fig. 15's per-switch\n\
         overhead. The elastic manager softens the cost: whichever task\n\
         remains on-core absorbs the switched-out task's lanes while it\n\
         waits."
    );

    // One ArchSweep row per schedule for the --json sink; the machine is
    // always Occamy here, so each row holds a single result.
    let sweeps: Vec<ArchSweep> = QUANTA
        .iter()
        .zip(&quantum_runs)
        .map(|(q, (_, stats))| {
            let label =
                if *q > 100_000_000 { "quantum-fifo".to_owned() } else { format!("quantum-{q}") };
            ArchSweep { label, results: vec![("Occamy", stats.clone())] }
        })
        .chain(policies.iter().zip(&policy_runs).map(|((label, _), (_, stats))| ArchSweep {
            label: format!("policy-{label}"),
            results: vec![("Occamy", stats.clone())],
        }))
        .collect();
    args.write_json("sched_quantum", &sweeps).unwrap_or_else(|e| e.exit());
}
