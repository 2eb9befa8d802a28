//! Golden-file coverage for the `--json` sink: a fixed small sweep is
//! serialized and compared byte-for-byte against a checked-in snapshot,
//! then round-tripped through the crate's own minimal JSON parser.
//!
//! The simulator is deterministic and the writer is specified to be
//! byte-stable, so any diff here is a real behaviour change. To bless a
//! deliberate one, re-run with `UPDATE_GOLDEN=1` and commit the file.

use std::path::Path;

use bench::json::{parse, Value};
use bench::{sweep_groups, sweeps_to_json, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::table3;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fixed_sweep.json");

fn golden_document() -> Value {
    let cfg = SimConfig::paper_2core();
    let group = SweepGroup::from_pair(&table3::all_pairs(0.05)[0], &cfg);
    let sweeps = sweep_groups(&[group], 1.0, 2, SimMode::Timing);
    sweeps_to_json("golden_fixed_sweep", 0.05, &sweeps)
}

#[test]
fn json_sink_matches_checked_in_snapshot() {
    let rendered = golden_document().render();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        rendered, expected,
        "JSON sink output drifted from {}; if intentional, re-bless with UPDATE_GOLDEN=1",
        Path::new(GOLDEN).display()
    );
}

#[test]
fn golden_document_round_trips_through_own_parser() {
    let doc = golden_document();
    let rendered = doc.render();
    let reparsed = parse(&rendered).expect("sink output must be valid JSON");
    assert_eq!(reparsed, doc, "parse(render(doc)) lost information");
    // Render → parse → render is a fixed point.
    assert_eq!(reparsed.render(), rendered);
}

#[test]
fn golden_document_has_the_expected_shape() {
    let doc = golden_document();
    assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("golden_fixed_sweep"));
    assert_eq!(doc.get("scale").and_then(Value::as_f64), Some(0.05));
    let sweeps = doc.get("sweeps").expect("sweeps array").items();
    assert_eq!(sweeps.len(), 1);
    let results = sweeps[0].get("results").expect("results array").items();
    let archs: Vec<&str> = results
        .iter()
        .map(|r| r.get("architecture").and_then(Value::as_str).expect("architecture name"))
        .collect();
    assert_eq!(archs, ["Private", "FTS", "VLS", "Occamy"], "Fig. 1 architecture order");
    for result in results {
        let stats = result.get("stats").expect("stats object");
        assert_eq!(stats.get("completed").and_then(Value::as_bool), Some(true));
        assert_eq!(stats.get("timed_out").and_then(Value::as_bool), Some(false));
        assert!(stats.get("cycles").and_then(Value::as_u64).expect("cycles") > 0);
        let util = stats.get("simd_utilization").and_then(Value::as_f64).expect("util");
        assert!((0.0..=1.0).contains(&util), "utilisation {util} out of range");
        assert_eq!(stats.get("cores").expect("cores").items().len(), 2);
    }
}
