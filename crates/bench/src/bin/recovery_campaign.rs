//! Recovery campaign: detection latency, rollback cost, and quarantine
//! effectiveness of the lane-fault recovery subsystem.
//!
//! Sweeps transient lane-corruption rates × seeds and one permanent
//! stuck-granule scenario across three policies (`none`, `rollback`,
//! `rollback+quarantine`) for a Table 3 co-run pair on Occamy. See
//! [`bench::recovery`] for the sweep definition; the report printed here
//! and dumped via `--json` is byte-stable for a given `--scale`
//! regardless of `--workers` (the golden test holds a snapshot).

use bench::json::Value;
use bench::recovery::{campaign_document, BUDGET_FACTOR, MAX_ATTEMPTS};
use bench::{rule, Args, Flag};

fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("-")
}

fn u(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let scale = args.scale.min(0.05);
    let report = campaign_document(scale, args.workers());

    println!(
        "Recovery campaign: Occamy, budget {BUDGET_FACTOR}x baseline, \
         {MAX_ATTEMPTS} attempt(s) per point"
    );
    rule(100);
    let pairs = report.get("pairs").map(Value::items).unwrap_or(&[]);
    for pair in pairs {
        println!(
            "{}: fault-free baseline {} cycles",
            s(pair, "pair"),
            u(pair, "baseline_cycles")
        );
        let runs = pair.get("runs").map(Value::items).unwrap_or(&[]);
        for r in runs {
            let rate =
                num(r, "rate").map_or_else(|| "stuck".into(), |x| format!("{x:.0e}"));
            let retained = num(r, "retained_throughput")
                .map_or_else(|| "-".into(), |x| format!("{x:.3}"));
            let latency = num(r, "avg_detection_latency")
                .map_or_else(|| "-".into(), |x| format!("{x:.1}"));
            println!(
                "  {:<10} {:<20} rate {:<6} {:>15}  rb {:>3}  inline {:>4}  \
                 latency {:>6}  retired {}  retained {:>6}{}{}",
                s(r, "scenario"),
                s(r, "policy"),
                rate,
                s(r, "outcome"),
                u(r, "rollbacks"),
                u(r, "corrected_inline"),
                latency,
                u(r, "lanes_retired"),
                retained,
                if r.get("memory_identical").and_then(Value::as_bool) == Some(true) {
                    "  mem="
                } else {
                    ""
                },
                if r.get("stats_identical").and_then(Value::as_bool) == Some(true) {
                    " bit-identical"
                } else {
                    ""
                },
            );
        }
        let ok = runs.iter().filter(|r| s(r, "outcome") == "ok").count();
        println!("  {} of {} points completed", ok, runs.len());
    }

    if let Some(path) = &args.json {
        bench::write_document(path, &report).unwrap_or_else(|e| e.exit());
    }
}
