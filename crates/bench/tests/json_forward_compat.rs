//! Forward compatibility of the `--json` documents: two-speed runs add
//! `estimated` / `estimated_cycles` / `functional_insts` fields to the
//! per-point stats objects, and downstream consumers written against
//! the pre-two-speed schema read documents through [`bench::json::parse`]
//! + `get`. Both directions must keep working:
//!
//! - old-schema readers on NEW documents: `get` on the fields they know
//!   returns the same values whether or not the estimation fields are
//!   present (unknown keys are simply carried, never an error);
//! - new-schema readers on OLD documents: `get("estimated")` returns
//!   `None` rather than failing, so `estimated` is treated as absent.

use bench::json::{parse, Value};
use bench::two_speed::effective_cycles;
use bench::{stats_to_json, sweep_groups, sweeps_to_json, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::table3;

/// A pre-two-speed stats object: exactly what `stats_to_json` used to
/// emit (no estimation fields). Kept as a literal so this test keeps
/// guarding the old shape even if the writer changes.
const OLD_SCHEMA_POINT: &str = r#"{
  "cycles": 6074,
  "completed": true,
  "timed_out": false,
  "total_lanes": 32,
  "simd_utilization": 0.127,
  "busy_lane_cycles": 24696.0,
  "timeline_buckets": 7,
  "cores": []
}"#;

#[test]
fn old_documents_parse_without_estimation_fields() {
    let doc = parse(OLD_SCHEMA_POINT).expect("old-schema document parses");
    assert_eq!(doc.get("cycles").and_then(Value::as_u64), Some(6074));
    assert_eq!(doc.get("completed").and_then(Value::as_bool), Some(true));
    // The new keys are simply absent — readers must treat that as
    // "exact cycles", never as a parse failure.
    assert!(doc.get("estimated").is_none());
    assert!(doc.get("estimated_cycles").is_none());
    assert!(doc.get("functional_insts").is_none());
}

#[test]
fn new_documents_keep_every_old_field_readable() {
    let cfg = SimConfig::paper_2core();
    let group = SweepGroup::from_pair(&table3::all_pairs(0.05)[0], &cfg);
    let sweeps = sweep_groups(&[group], 1.0, 1, SimMode::Functional);
    let rendered = sweeps_to_json("forward_compat", 0.05, &sweeps).render();
    let doc = parse(&rendered).expect("functional-mode document parses");

    let sweep = &doc.get("sweeps").expect("sweeps").items()[0];
    for result in sweep.get("results").expect("results").items() {
        let stats = result.get("stats").expect("stats");
        // Every pre-two-speed field is still there with its old type.
        for key in ["cycles", "total_lanes", "timeline_buckets"] {
            assert!(stats.get(key).and_then(Value::as_u64).is_some(), "missing {key}");
        }
        for key in ["completed", "timed_out"] {
            assert!(stats.get(key).and_then(Value::as_bool).is_some(), "missing {key}");
        }
        for key in ["simd_utilization", "busy_lane_cycles"] {
            assert!(stats.get(key).and_then(Value::as_f64).is_some(), "missing {key}");
        }
        // And the new fields ride along as ordinary members.
        assert_eq!(stats.get("estimated").and_then(Value::as_bool), Some(true));
        assert!(stats.get("estimated_cycles").and_then(Value::as_u64).is_some());
        assert!(stats.get("functional_insts").and_then(Value::as_u64).unwrap_or(0) > 0);
    }
}

/// The writer's contract behind both directions: estimation fields are
/// emitted when and only when the run is estimated, and
/// `effective_cycles` picks whichever total the document stands behind.
#[test]
fn estimation_fields_are_emitted_iff_estimated() {
    let mut stats = occamy_sim::MachineStats {
        cycles: 123,
        cores: vec![],
        timeline: vec![],
        total_lanes: 32,
        completed: true,
        timed_out: false,
        estimated: false,
        estimated_cycles: 123,
        functional_insts: 0,
        metrics: occamy_sim::MetricsRegistry::new(),
    };
    let rendered = stats_to_json(&stats).render();
    let doc = parse(&rendered).expect("parses");
    assert!(doc.get("estimated").is_none(), "exact run must not carry estimation fields");
    assert_eq!(effective_cycles(&stats), 123);

    stats.estimated = true;
    stats.estimated_cycles = 456;
    stats.functional_insts = 789;
    let rendered = stats_to_json(&stats).render();
    let doc = parse(&rendered).expect("parses");
    assert_eq!(doc.get("estimated").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("estimated_cycles").and_then(Value::as_u64), Some(456));
    assert_eq!(doc.get("functional_insts").and_then(Value::as_u64), Some(789));
    assert_eq!(effective_cycles(&stats), 456);
}
