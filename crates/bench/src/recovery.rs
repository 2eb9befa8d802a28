//! Recovery campaign: lane-fault detection, rollback and quarantine
//! under a rate × seed × policy sweep.
//!
//! Where `fault_campaign` measures how co-run pairs *fail* under
//! injection, this campaign measures how well the detection-and-recovery
//! subsystem *masks* lane faults. For one Table 3 co-run pair on the
//! Occamy architecture it runs a fault-free baseline, then replays the
//! pair under transient lane-corruption rates × RNG seeds and one
//! permanent-lane scenario, each across three policies:
//!
//! * `none` — recovery disabled; the residue check still detects the
//!   corruption but the machine latches the typed `lane-fault`,
//! * `rollback` — checkpoint/rollback without quarantine; transients are
//!   replayed away, a permanent fault exhausts the rollback budget,
//! * `rollback+quarantine` — the full subsystem; persistent faults
//!   retire their granule and the lane manager repartitions survivors.
//!
//! Every row reports detection latency, rollback/replay cost, quarantine
//! gauges, throughput retained vs. the baseline, and whether the final
//! memory image (and full statistics) are bit-identical to the
//! fault-free run — the paper-level claim is that transient recovery is
//! exact and permanent-fault recovery is exact in *values* while paying
//! only cycles. Everything is seeded and the document contains no
//! wall-clock readings, so the output is byte-stable (the golden test
//! holds a snapshot).

use mem_sim::Memory;
use occamy_sim::{
    Architecture, FaultPlan, Machine, MachineStats, RecoveryPolicy, SimConfig,
};
use workloads::table3::CorunPair;
use workloads::{corun, table3, WorkloadSpec};

use crate::json::Value;
use crate::runner::{run_jobs, run_with_retry, BackoffPolicy, JobFailure};

/// Transient lane-corruption rates swept per policy.
pub const TRANSIENT_RATES: [f64; 3] = [2e-6, 2e-5, 2e-4];
/// RNG seeds per rate (independent fault patterns).
pub const SEEDS: [u64; 2] = [11, 23];
/// Granule stuck at a permanent fault in the permanent scenario.
pub const PERMANENT_GRANULE: usize = 3;
/// Budget multiplier over the fault-free baseline before a run is
/// declared `timed_out`.
pub const BUDGET_FACTOR: u64 = 4;
/// Bounded retry per point (seeds are re-salted per attempt).
pub const MAX_ATTEMPTS: u32 = 2;

/// The recovery policy exercised by the campaign: knobs tightened from
/// the defaults so detection, rollback and quarantine all fire within a
/// `--fast`-sized run.
pub fn campaign_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_interval: 5_000,
        selftest_interval: 12_500,
        strike_threshold: 3,
        max_rollbacks: 16,
        quarantine: true,
    }
}

/// The three policies swept, in fixed report order.
pub fn policies() -> [(&'static str, Option<RecoveryPolicy>); 3] {
    let full = campaign_policy();
    [
        ("none", None),
        ("rollback", Some(RecoveryPolicy { quarantine: false, ..full })),
        ("rollback+quarantine", Some(full)),
    ]
}

/// One injection scenario: a transient rate/seed point or the stuck
/// granule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    Transient { rate: f64, seed: u64 },
    Permanent,
}

impl Scenario {
    /// The fault plan for attempt `attempt` (re-salting the seed so a
    /// retried transient point draws a fresh fault pattern).
    fn plan(self, attempt: u32, baseline_cycles: u64) -> FaultPlan {
        match self {
            Scenario::Transient { rate, seed } => FaultPlan {
                seed: seed + 1_000 * u64::from(attempt),
                lane_transient_rate: rate,
                ..FaultPlan::default()
            },
            Scenario::Permanent => FaultPlan {
                seed: SEEDS[0],
                permanent_lane: Some(PERMANENT_GRANULE),
                permanent_lane_from: baseline_cycles / 4,
                ..FaultPlan::default()
            },
        }
    }

    fn name(self) -> &'static str {
        match self {
            Scenario::Transient { .. } => "transient",
            Scenario::Permanent => "permanent",
        }
    }
}

/// The fault-free reference a scenario run is compared against.
struct Baseline {
    cycles: u64,
    stats: MachineStats,
    memory: Memory,
}

/// One classified scenario run.
pub struct RecoveryOutcome {
    /// `"transient"` or `"permanent"`.
    pub scenario: &'static str,
    /// Policy name from [`policies`].
    pub policy: &'static str,
    /// Transient corruption rate (`None` for the permanent scenario).
    pub rate: Option<f64>,
    /// Base RNG seed (`None` for the permanent scenario).
    pub seed: Option<u64>,
    /// Attempts consumed (re-salted; 1 on first-try success).
    pub attempts: u32,
    /// `"ok"`, `"timed_out"`, or a `SimError` kind.
    pub outcome: &'static str,
    /// Cycles on the machine when the run ended.
    pub cycles: u64,
    /// Residue-check detections (recovery enabled only).
    pub detections: u64,
    /// Permanent faults found by the periodic self-test.
    pub selftest_detections: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Cycles re-simulated across all rollbacks.
    pub replayed_cycles: u64,
    /// Corruptions suppressed on already-quarantined granules.
    pub corrected_inline: u64,
    /// Mean cycles from injection to residue detection.
    pub avg_detection_latency: Option<f64>,
    /// Quarantined granules still draining at the end.
    pub lanes_draining: u64,
    /// Quarantined granules fully retired from the resource table.
    pub lanes_retired: u64,
    /// Lane corruptions the plan actually injected.
    pub injections: u64,
    /// `baseline_cycles / cycles` for completed runs.
    pub retained_throughput: Option<f64>,
    /// Retained throughput per retired granule (completed runs with at
    /// least one retirement).
    pub retained_per_retired_lane: Option<f64>,
    /// Architectural [`MachineStats`] equality with the fault-free run.
    /// The metrics snapshot is excluded from the comparison: it embeds
    /// fault-injection and recovery harness counters (`sim.fault.*`,
    /// `sim.recovery.*`) that legitimately differ even when the replay
    /// reproduced the workload bit-identically.
    pub stats_identical: bool,
    /// Final memory image equality with the fault-free run.
    pub memory_identical: bool,
}

impl RecoveryOutcome {
    /// Records what `machine` reports after an attempt, successful or not
    /// (a failed run still reports how far recovery got).
    fn observe(&mut self, machine: &Machine, baseline: &Baseline, stats: Option<&MachineStats>) {
        let r = machine.recovery_stats().unwrap_or_default();
        self.cycles = machine.cycle();
        self.detections = r.detections;
        self.selftest_detections = r.selftest_detections;
        self.rollbacks = r.rollbacks;
        self.replayed_cycles = r.replayed_cycles;
        self.corrected_inline = r.corrected_inline;
        self.avg_detection_latency = r.avg_detection_latency();
        self.lanes_draining = r.lanes_quarantined;
        self.lanes_retired = r.lanes_retired;
        self.injections = machine.fault_stats().map_or(0, |f| f.lane_corruptions);
        self.stats_identical = stats.is_some_and(|s| arch_stats_eq(s, &baseline.stats));
        self.memory_identical = *machine.memory() == baseline.memory;
    }
}

/// Compares two runs' architectural statistics, ignoring the metrics
/// snapshots (see [`RunOutcome::stats_identical`]).
fn arch_stats_eq(a: &MachineStats, b: &MachineStats) -> bool {
    let mut a = a.clone();
    let mut b = b.clone();
    a.metrics = Default::default();
    b.metrics = Default::default();
    a == b
}

fn build(specs: &[WorkloadSpec], cfg: &SimConfig) -> Result<Machine, JobFailure> {
    corun::build_machine(specs, cfg, &Architecture::Occamy, 1.0)
        .map_err(|e| JobFailure::Build(e.to_string()))
}

/// Runs one scenario × policy point against `baseline`.
fn run_scenario(
    specs: &[WorkloadSpec],
    cfg: &SimConfig,
    baseline: &Baseline,
    policy_name: &'static str,
    policy: Option<RecoveryPolicy>,
    scenario: Scenario,
) -> RecoveryOutcome {
    let budget = baseline.cycles.saturating_mul(BUDGET_FACTOR).max(1_000_000);
    let (rate, seed) = match scenario {
        Scenario::Transient { rate, seed } => (Some(rate), Some(seed)),
        Scenario::Permanent => (None, None),
    };
    // Every attempt's machine overwrites the observed fields; the rest
    // are settled once the retries are over.
    let mut o = RecoveryOutcome {
        scenario: scenario.name(),
        policy: policy_name,
        rate,
        seed,
        attempts: 0,
        outcome: "ok",
        cycles: 0,
        detections: 0,
        selftest_detections: 0,
        rollbacks: 0,
        replayed_cycles: 0,
        corrected_inline: 0,
        avg_detection_latency: None,
        lanes_draining: 0,
        lanes_retired: 0,
        injections: 0,
        retained_throughput: None,
        retained_per_retired_lane: None,
        stats_identical: false,
        memory_identical: false,
    };
    // No backoff: each attempt re-salts the fault plan, so waiting
    // between deterministic campaign attempts buys nothing.
    let retry = run_with_retry(
        MAX_ATTEMPTS,
        &BackoffPolicy::none(),
        0,
        |e: &JobFailure| !matches!(e, JobFailure::Build(_)),
        |attempt| {
        let mut machine = build(specs, cfg)?;
        machine.set_fault_plan(&scenario.plan(attempt, baseline.cycles));
        if let Some(p) = policy {
            machine.enable_recovery(p);
        }
        machine.set_watchdog(budget / 2);
        let res = machine.run(budget);
        let (out, stats) = match res {
            Ok(stats) if stats.completed => (Ok(()), Some(stats)),
            Ok(stats) => (Err(JobFailure::TimedOut { cycles: stats.cycles }), None),
            Err(e) => {
                (Err(JobFailure::Faulted { kind: e.kind(), detail: e.to_string() }), None)
            }
        };
        o.observe(&machine, baseline, stats.as_ref());
        out
    },
    );
    o.attempts = retry.attempts;
    if let Err(f) = &retry.result {
        o.outcome = f.kind();
    }
    o.retained_throughput =
        retry.result.is_ok().then(|| baseline.cycles as f64 / o.cycles.max(1) as f64);
    o.retained_per_retired_lane = o
        .retained_throughput
        .and_then(|r| (o.lanes_retired > 0).then(|| r / o.lanes_retired as f64));
    o
}

/// Serializes one row.
fn outcome_to_json(o: &RecoveryOutcome) -> Value {
    let mut doc = Value::obj();
    doc.push("scenario", Value::Str(o.scenario.into()))
        .push("policy", Value::Str(o.policy.into()))
        .push("rate", o.rate.map_or(Value::Null, Value::Num))
        .push("seed", o.seed.map_or(Value::Null, Value::UInt))
        .push("attempts", Value::UInt(u64::from(o.attempts)))
        .push("outcome", Value::Str(o.outcome.into()))
        .push("cycles", Value::UInt(o.cycles))
        .push("injections", Value::UInt(o.injections))
        .push("detections", Value::UInt(o.detections))
        .push("selftest_detections", Value::UInt(o.selftest_detections))
        .push("rollbacks", Value::UInt(o.rollbacks))
        .push("replayed_cycles", Value::UInt(o.replayed_cycles))
        .push("corrected_inline", Value::UInt(o.corrected_inline))
        .push(
            "avg_detection_latency",
            o.avg_detection_latency.map_or(Value::Null, Value::Num),
        )
        .push("lanes_draining", Value::UInt(o.lanes_draining))
        .push("lanes_retired", Value::UInt(o.lanes_retired))
        .push(
            "retained_throughput",
            o.retained_throughput.map_or(Value::Null, Value::Num),
        )
        .push(
            "retained_per_retired_lane",
            o.retained_per_retired_lane.map_or(Value::Null, Value::Num),
        )
        .push("stats_identical", Value::Bool(o.stats_identical))
        .push("memory_identical", Value::Bool(o.memory_identical));
    doc
}

fn baseline_for(pair: &CorunPair, cfg: &SimConfig) -> Baseline {
    let mut machine = build(&pair.workloads, cfg)
        .unwrap_or_else(|e| panic!("{}: {e}", pair.label));
    let stats = machine
        .run(crate::MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{}: fault-free baseline faulted: {e}", pair.label));
    assert!(stats.completed, "{}: fault-free baseline timed out", pair.label);
    Baseline { cycles: stats.cycles, stats, memory: machine.memory().clone() }
}

/// Every scenario × policy point of the sweep, in fixed report order.
fn scenarios() -> Vec<(&'static str, Option<RecoveryPolicy>, Scenario)> {
    let mut points = Vec::new();
    for (name, policy) in policies() {
        for &rate in &TRANSIENT_RATES {
            for &seed in &SEEDS {
                points.push((name, policy, Scenario::Transient { rate, seed }));
            }
        }
        points.push((name, policy, Scenario::Permanent));
    }
    points
}

/// Builds the full campaign report: deterministic, byte-stable for a
/// given `scale` regardless of `workers`. This is what the
/// `recovery_campaign` binary prints and dumps, re-built in-process by
/// the golden test.
pub fn campaign_document(scale: f64, workers: usize) -> Value {
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(scale);
    // One pair: the campaign is about recovery behaviour, not Table 3
    // coverage, and each pair costs 21 injected runs plus a baseline.
    let selected: Vec<_> = pairs.into_iter().take(1).collect();

    let mut report = Value::obj();
    report
        .push("experiment", Value::Str("recovery_campaign".into()))
        .push("scale", Value::Num(scale))
        .push("budget_factor", Value::UInt(BUDGET_FACTOR));

    let mut pair_docs = Vec::new();
    for pair in &selected {
        let baseline = baseline_for(pair, &cfg);
        let points = scenarios();
        let outcomes = run_jobs(points.len(), workers, |i| {
            let (name, policy, scenario) = points[i];
            run_scenario(&pair.workloads, &cfg, &baseline, name, policy, scenario)
        });
        let mut doc = Value::obj();
        doc.push("pair", Value::Str(pair.label.clone()))
            .push("baseline_cycles", Value::UInt(baseline.cycles))
            .push("runs", Value::Arr(outcomes.iter().map(outcome_to_json).collect()));
        pair_docs.push(doc);
    }
    report.push("pairs", Value::Arr(pair_docs));
    report
}

/// What the permanent-fault smoke test asserts on: a single stuck
/// granule under the full policy must complete with the quarantine
/// active, nonzero retained throughput, and a memory image identical to
/// the fault-free run.
pub struct PermanentFaultReport {
    /// Whether the run completed within the budget.
    pub completed: bool,
    /// `baseline_cycles / cycles` (0 when the run failed).
    pub retained_throughput: f64,
    /// Quarantined granules retired from the resource table.
    pub lanes_retired: u64,
    /// Quarantined granules still draining at the end.
    pub lanes_draining: u64,
    /// Final memory image equality with the fault-free run.
    pub memory_identical: bool,
}

/// Runs the permanent-lane scenario under the full policy for the first
/// Table 3 pair at `scale`.
pub fn permanent_fault_run(scale: f64) -> PermanentFaultReport {
    let cfg = SimConfig::paper_2core();
    let pair = table3::all_pairs(scale)
        .into_iter()
        .next()
        .unwrap_or_else(|| panic!("table3::all_pairs returned no pairs"));
    let baseline = baseline_for(&pair, &cfg);
    let o = run_scenario(
        &pair.workloads,
        &cfg,
        &baseline,
        "rollback+quarantine",
        Some(campaign_policy()),
        Scenario::Permanent,
    );
    PermanentFaultReport {
        completed: o.outcome == "ok",
        retained_throughput: o.retained_throughput.unwrap_or(0.0),
        lanes_retired: o.lanes_retired,
        lanes_draining: o.lanes_draining,
        memory_identical: o.memory_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_order_is_fixed_and_covers_every_policy() {
        let points = scenarios();
        assert_eq!(points.len(), 3 * (TRANSIENT_RATES.len() * SEEDS.len() + 1));
        assert_eq!(points[0].0, "none");
        assert_eq!(points[points.len() - 1].0, "rollback+quarantine");
        assert!(matches!(points[points.len() - 1].2, Scenario::Permanent));
    }

    #[test]
    fn transient_plans_resalt_per_attempt() {
        let s = Scenario::Transient { rate: 2e-5, seed: 11 };
        assert_eq!(s.plan(0, 1000).seed, 11);
        assert_eq!(s.plan(1, 1000).seed, 1011);
        assert_eq!(s.plan(0, 1000).lane_transient_rate, 2e-5);
        let p = Scenario::Permanent.plan(0, 1000);
        assert_eq!(p.permanent_lane, Some(PERMANENT_GRANULE));
        assert_eq!(p.permanent_lane_from, 250);
    }
}
