//! Cross-layer event-export coverage: the Chrome `trace_event` JSON
//! emitted by a real co-run must be valid JSON (per the crate's own
//! parser), carry events from every major subsystem, keep timestamps
//! monotone within each track, and be byte-stable across repeated runs
//! and across worker counts (the simulator itself is single-threaded;
//! the bench worker pool must not perturb any statistic).

use std::collections::BTreeMap;

use bench::json::{parse, Value};
use bench::{sweep_groups, sweeps_to_json, SweepGroup, MAX_CYCLES};
use occamy_sim::{Architecture, Machine, SimConfig, SimMode};
use workloads::{corun, table3};

/// Builds the first Table-3 pair on Occamy with the full observability
/// stack enabled and runs it to completion.
fn run_instrumented() -> (Machine, occamy_sim::MachineStats) {
    let cfg = SimConfig::paper_2core();
    let pair = &table3::all_pairs(0.05)[0];
    let mut machine = corun::build_machine(&pair.workloads, &cfg, &Architecture::Occamy, 0.05)
        .expect("build first Table-3 pair");
    machine.enable_events(1 << 16);
    let stats = machine.run(MAX_CYCLES).expect("co-run completes");
    assert!(stats.completed, "fixture workload must finish");
    (machine, stats)
}

#[test]
fn chrome_trace_is_valid_json_with_events_from_four_subsystems() {
    let (machine, _) = run_instrumented();
    let json = machine.chrome_trace();
    let doc = parse(&json).expect("chrome trace must be valid JSON");

    let events = doc.get("traceEvents").expect("traceEvents array").items();
    assert!(!events.is_empty());

    // Map tid -> thread name from the metadata rows, then count real
    // (non-metadata) events per named track.
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("ph");
        let tid = e.get("tid").and_then(Value::as_u64).expect("tid");
        if ph == "M" {
            if e.get("name").and_then(Value::as_str) == Some("thread_name") {
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .expect("thread name");
                names.insert(tid, name.to_owned());
            }
        } else {
            *counts.entry(tid).or_default() += 1;
        }
    }
    let populated: Vec<&str> = names
        .iter()
        .filter(|(tid, _)| counts.get(tid).copied().unwrap_or(0) > 0)
        .map(|(_, n)| n.as_str())
        .collect();
    assert!(
        populated.len() >= 4,
        "expected events from >= 4 subsystems, got {populated:?}"
    );
    for expect in ["core0", "coproc", "lane-manager", "memory"] {
        assert!(populated.contains(&expect), "no events on track {expect}: {populated:?}");
    }
}

#[test]
fn chrome_trace_timestamps_are_monotone_per_track() {
    let (machine, _) = run_instrumented();
    let doc = parse(&machine.chrome_trace()).expect("valid JSON");
    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut checked = 0usize;
    for e in doc.get("traceEvents").expect("traceEvents").items() {
        if e.get("ph").and_then(Value::as_str) == Some("M") {
            continue;
        }
        let tid = e.get("tid").and_then(Value::as_u64).expect("tid");
        let ts = e.get("ts").and_then(Value::as_u64).expect("ts");
        if let Some(&prev) = last_ts.get(&tid) {
            assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
        }
        last_ts.insert(tid, ts);
        checked += 1;
    }
    assert!(checked > 10, "suspiciously few events ({checked})");
}

#[test]
fn chrome_trace_is_deterministic_across_runs() {
    let (a, _) = run_instrumented();
    let (b, _) = run_instrumented();
    assert_eq!(a.chrome_trace(), b.chrome_trace(), "event export must be byte-stable");
    assert_eq!(a.events().len(), b.events().len());
    assert_eq!(a.events().dropped(), b.events().dropped());
}

#[test]
fn sweep_json_is_identical_across_worker_counts() {
    let cfg = SimConfig::paper_2core();
    let groups: Vec<SweepGroup> =
        table3::all_pairs(0.05)[..2].iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let document = |workers: usize| {
        let sweeps = sweep_groups(&groups, 0.05, workers, SimMode::Timing);
        sweeps_to_json("workers", 0.05, &sweeps)
    };
    let (serial, pooled) = (document(1), document(3));
    assert_eq!(
        serial.render(),
        pooled.render(),
        "worker pool must not perturb any statistic (including metrics)"
    );
}
