//! Fault-injection campaign: resilience of the co-run pairs under
//! deterministic fault injection.
//!
//! For each selected Table 3 co-run pair the campaign first runs a
//! fault-free baseline on the Occamy architecture, then replays the same
//! pair under a sweep of fault rates × RNG seeds. Every injected run is
//! classified by outcome:
//!
//! * `ok` — the pair still completed; the slowdown vs. the baseline is
//!   the degradation,
//! * `timed_out` — the pair exceeded a budget of 4× the baseline cycles
//!   (forward progress was lost without a typed fault),
//! * a [`SimError`](occamy_sim::SimError) kind (`decode`, `invalid-vl`,
//!   `memory-fault`, `watchdog`, …) — the fault surfaced as a typed
//!   error instead of a hang or a panic.
//!
//! The sweep exercises all injection points: `<OI>` hint corruption,
//! lane-manager decision perturbation, memory latency spikes, and
//! pre-run program corruption (truncation + immediate bit-flips).
//! Everything is seeded, so a `(pair, rate, seed)` triple reproduces
//! exactly. `--json <path>` dumps the full degradation report through
//! the shared deterministic JSON sink.

use bench::json::Value;
use bench::runner::{run_jobs, run_point, SweepPoint};
use bench::{rule, Args, Flag};
use occamy_sim::{Architecture, FaultPlan, SimConfig};
use workloads::{corun, table3, WorkloadSpec};

/// Fault rates swept for every injection point.
const RATES: [f64; 3] = [0.001, 0.01, 0.05];
/// RNG seeds per rate (each seed is an independent fault pattern).
const SEEDS: [u64; 3] = [11, 23, 47];
/// Budget multiplier over the fault-free baseline before a run is
/// declared `timed_out`.
const BUDGET_FACTOR: u64 = 4;

/// A plan injecting every fault class at `rate`.
fn plan_for(seed: u64, rate: f64) -> FaultPlan {
    FaultPlan {
        seed,
        oi_corrupt_rate: rate,
        decision_perturb_rate: rate,
        mem_spike_rate: rate,
        mem_spike_cycles: 200,
        program_truncate_rate: rate,
        program_bitflip_rate: rate,
        ..FaultPlan::default()
    }
}

/// One injected run, classified.
struct Outcome {
    rate: f64,
    seed: u64,
    /// `"ok"`, `"timed_out"`, or a `SimError::kind()`.
    outcome: &'static str,
    /// Cycles simulated before completion, time-out, or fault.
    cycles: u64,
    /// `cycles / baseline` for completed runs.
    slowdown: Option<f64>,
    /// Runtime injections actually performed (oi + decision + spikes).
    injected: u64,
    /// Program corruptions applied before the run.
    program_faults: u64,
}

fn run_injected(
    specs: &[WorkloadSpec],
    cfg: &SimConfig,
    scale: f64,
    baseline: u64,
    rate: f64,
    seed: u64,
) -> Outcome {
    let plan = plan_for(seed, rate);
    let mut machine = corun::build_machine(specs, cfg, &Architecture::Occamy, scale)
        .unwrap_or_else(|e| panic!("build failed: {e}"));
    machine.set_fault_plan(&plan);
    // A corrupted program can legitimately spin (e.g. a perturbed loop
    // bound); keep the watchdog well under the budget so hangs are
    // classified instead of simulated to exhaustion.
    let budget = baseline.saturating_mul(BUDGET_FACTOR).max(1_000_000);
    machine.set_watchdog(budget / 2);
    let (outcome, slowdown) = match machine.run(budget) {
        Ok(stats) if stats.completed => ("ok", Some(stats.cycles as f64 / baseline as f64)),
        Ok(_) => ("timed_out", None),
        Err(e) => (e.kind(), None),
    };
    let (injected, program_faults) = machine
        .fault_stats()
        .map_or((0, 0), |f| (f.total(), f.program_corruptions));
    Outcome {
        rate,
        seed,
        outcome,
        cycles: machine.cycle(),
        slowdown,
        injected,
        program_faults,
    }
}

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(args.scale.min(0.05));
    // A representative slice: the campaign is about fault response, not
    // Table 3 coverage; three pairs × 3 rates × 3 seeds = 27 injected
    // runs plus 3 baselines.
    let selected: Vec<_> = pairs.into_iter().take(3).collect();

    let mut report = Value::obj();
    report.push("experiment", Value::Str("fault_campaign".into()));
    report.push("budget_factor", Value::UInt(BUDGET_FACTOR));
    let mut pair_docs = Vec::new();

    println!("Fault-injection campaign: Occamy, {} co-run pairs", selected.len());
    rule(72);
    for pair in &selected {
        let clean = SweepPoint::new(
            &pair.label,
            pair.workloads.to_vec(),
            Architecture::Occamy,
            cfg.clone(),
        );
        let base_cycles = run_point(&clean).cycles;
        println!("{}: fault-free baseline {} cycles", pair.label, base_cycles);

        let points: Vec<(f64, u64)> =
            RATES.iter().flat_map(|&r| SEEDS.iter().map(move |&s| (r, s))).collect();
        let outcomes = run_jobs(points.len(), args.workers(), |i| {
            let (rate, seed) = points[i];
            run_injected(&pair.workloads, &cfg, 1.0, base_cycles, rate, seed)
        });

        let mut runs = Vec::new();
        for o in &outcomes {
            let slow = o.slowdown.map_or_else(|| "-".into(), |s| format!("{s:.3}x"));
            println!(
                "  rate {:<6} seed {:<3} {:>13}  {:>12} cycles  slowdown {:>8}  \
                 injected {:>5}  program {:>3}",
                o.rate, o.seed, o.outcome, o.cycles, slow, o.injected, o.program_faults
            );
            let mut doc = Value::obj();
            doc.push("rate", Value::Num(o.rate));
            doc.push("seed", Value::UInt(o.seed));
            doc.push("outcome", Value::Str(o.outcome.into()));
            doc.push("cycles", Value::UInt(o.cycles));
            doc.push(
                "slowdown",
                o.slowdown.map_or(Value::Null, Value::Num),
            );
            doc.push("injected_runtime_faults", Value::UInt(o.injected));
            doc.push("program_faults", Value::UInt(o.program_faults));
            runs.push(doc);
        }
        let completed = outcomes.iter().filter(|o| o.outcome == "ok").count();
        let faulted = outcomes
            .iter()
            .filter(|o| o.outcome != "ok" && o.outcome != "timed_out")
            .count();
        println!(
            "  {} completed / {} typed fault(s) / {} timed out",
            completed,
            faulted,
            outcomes.len() - completed - faulted
        );

        let mut doc = Value::obj();
        doc.push("pair", Value::Str(pair.label.clone()));
        doc.push("baseline_cycles", Value::UInt(base_cycles));
        doc.push("runs", Value::Arr(runs));
        pair_docs.push(doc);
    }
    report.push("pairs", Value::Arr(pair_docs));

    if let Some(path) = &args.json {
        bench::write_document(path, &report).unwrap_or_else(|e| e.exit());
    }
}
