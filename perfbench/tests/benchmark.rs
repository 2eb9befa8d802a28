//! The benchmark's own checks: metric catalogue, seeded inputs, pinned
//! digests, and exact repetition of the deterministic per-layer counts.

use bench::json::Value;
use perfbench::digest::{self, Goldens};
use perfbench::metrics::{valid_name, Outcome, END_TO_END, PER_LAYER};
use perfbench::service::{self, Daemon, RUNGS, SEED_VALUES};
use perfbench::sim::{self, SimWorkload};
use perfbench::trace::Recorder;
use perfbench::WORKLOADS;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    bench::json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn metric_names_are_legal_unique_and_carry_units() {
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "illegal metric name `{}`", def.name);
        assert!(seen.insert(def.name), "metric `{}` listed twice", def.name);
        assert!(
            !def.unit.is_empty() && def.unit.len() <= 16,
            "`{}` needs a unit",
            def.name
        );
    }
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let doc = benchmark_json();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String, String)> = doc
            .get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let expected: Vec<(String, String, String)> = catalogue
            .iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
            .collect();
        assert_eq!(listed, expected, "{key} in BENCHMARK.json");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let mut out = Outcome {
        attempted: 3,
        ..Outcome::default()
    };
    for def in END_TO_END {
        out.set(def.name, 1.5);
    }
    let line = out.result_line(END_TO_END).expect("all measured");
    let doc = bench::json::parse(&line).expect("result line is JSON");
    let metrics = doc.get("metrics").expect("metrics");
    for def in END_TO_END {
        let m = metrics.get(def.name).expect(def.name);
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(def.unit));
    }
}

#[test]
fn the_same_seed_generates_the_same_inputs() {
    let labels = |w, seed| {
        sim::points(w, seed)
            .into_iter()
            .map(|p| p.label)
            .collect::<Vec<_>>()
    };
    for w in [
        SimWorkload::Fig10Timing,
        SimWorkload::DramChase,
        SimWorkload::Fig10Functional,
    ] {
        assert_eq!(labels(w, 7), labels(w, 7));
        let mut sorted = labels(w, 7);
        sorted.sort();
        let mut canonical: Vec<String> = sim::population(w).into_iter().map(|p| p.label).collect();
        canonical.sort();
        assert_eq!(sorted, canonical, "a seed only reorders the points");
    }
    assert_ne!(
        labels(SimWorkload::Fig10Timing, 1),
        labels(SimWorkload::Fig10Timing, 2)
    );

    assert_eq!(service::schedule(7, 2.0), service::schedule(7, 2.0));
    assert_ne!(service::schedule(1, 2.0), service::schedule(2, 2.0));

    let passes = |seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..3)
            .map(|_| service::pass_jobs(&mut rng))
            .collect::<Vec<_>>()
    };
    assert_eq!(passes(7), passes(7));
    assert_ne!(passes(1), passes(2));
}

#[test]
fn a_closed_loop_pass_misses_every_shape_once_and_repeats_completed_keys() {
    let mut rng = StdRng::seed_from_u64(3);
    let jobs = service::pass_jobs(&mut rng);
    let shapes = service::shapes().len();
    assert_eq!(jobs.len(), 2 * shapes, "one hit per miss");
    let mut missed = std::collections::BTreeSet::new();
    for pair in jobs.chunks(2) {
        let (miss, hit) = (&pair[0], &pair[1]);
        assert!(!miss.hit && hit.hit);
        assert!(
            missed.insert(miss.shape),
            "shape {} missed twice",
            miss.shape
        );
        assert!(
            missed.contains(&hit.shape),
            "a hit repeats a key the pass completed"
        );
        assert_eq!(miss.spec.seed, hit.spec.seed, "one job seed per pass");
    }
    assert_eq!(missed.len(), shapes);
}

#[test]
fn service_schedule_mixes_hits_and_fresh_keys() {
    let jobs = &service::schedule(3, 7.0);
    let hits = jobs.iter().filter(|j| j.hit).count();
    let share = hits as f64 / jobs.len() as f64;
    assert!(
        (0.4..0.6).contains(&share),
        "about half the jobs repeat a key: {share}"
    );
    let mut fresh: Vec<String> = jobs
        .iter()
        .filter(|j| !j.hit)
        .map(|j| j.spec.canonical_key())
        .collect();
    let n = fresh.len();
    fresh.sort();
    fresh.dedup();
    assert_eq!(fresh.len(), n, "a fresh key is never submitted twice");
    for (r, _) in RUNGS.iter().enumerate() {
        assert!(jobs.iter().any(|j| j.rung == r), "rung {r} has arrivals");
    }
    assert!(
        jobs.windows(2).all(|w| w[0].due <= w[1].due),
        "arrivals are in due order"
    );
}

#[test]
fn every_schedulable_key_and_point_is_pinned() {
    let occamyd = Goldens::parse(digest::OCCAMYD).expect("occamyd golden");
    assert_eq!(
        occamyd.len(),
        service::shapes().len() * SEED_VALUES as usize
    );
    let mut rng = StdRng::seed_from_u64(11);
    let passes = (0..SEED_VALUES * 4).flat_map(|_| service::pass_jobs(&mut rng));
    for job in service::schedule(11, 7.0).into_iter().chain(passes) {
        assert!(occamyd
            .get(&format!("{:016x}", job.spec.key_hash()))
            .is_some());
    }
    let fig10 = Goldens::parse(digest::FIG10).expect("fig10 golden");
    for p in sim::population(SimWorkload::Fig10Timing) {
        assert_eq!(
            fig10.get(&p.label).map(<[u64]>::len),
            Some(4),
            "{}",
            p.label
        );
    }
    let chase = Goldens::parse(digest::DRAM_CHASE).expect("chase golden");
    for p in sim::population(SimWorkload::DramChase) {
        assert_eq!(
            chase.get(&p.label).map(<[u64]>::len),
            Some(3),
            "{}",
            p.label
        );
    }
}

/// Two traced passes over the same points must report identical work
/// counts, and every jump count must match `Machine::cycles_skipped`.
#[test]
fn deterministic_layer_counts_repeat_exactly() {
    for (workload, take) in [(SimWorkload::DramChase, 3), (SimWorkload::Fig10Timing, 6)] {
        let points: Vec<_> = sim::points(workload, 5).into_iter().take(take).collect();
        let goldens = match workload {
            SimWorkload::DramChase => Goldens::parse(digest::DRAM_CHASE),
            _ => Goldens::parse(digest::FIG10),
        }
        .expect("golden");
        let mut rec = Recorder::default();
        let mut out = Outcome::default();
        let first = sim::traced_pass(workload, &points, &goldens, &mut rec, &mut out);
        let second = sim::traced_pass(workload, &points, &goldens, &mut rec, &mut out);
        assert!(out.correct(), "{:?} {:?}", out.failures, out.check_errors);
        assert_eq!(first.counts, second.counts);
        assert!(
            first.counts["occamy-sim.jump.cycles"] > 0,
            "the event kernel jumped"
        );
        assert_eq!(
            first.layers["tick"].1, second.layers["tick"].1,
            "tick calls repeat"
        );
        assert_eq!(
            first.layers["jump"].1, second.layers["jump"].1,
            "jump calls repeat"
        );
    }
}

/// Two closed-loop runs of the same jobs through `occamyd` must report
/// identical work counts, read from the result payloads.
#[test]
fn service_work_counts_repeat_exactly() {
    let mut rng = StdRng::seed_from_u64(5);
    let jobs: Vec<_> = service::pass_jobs(&mut rng).into_iter().take(8).collect();
    let goldens = Goldens::parse(digest::OCCAMYD).expect("occamyd golden");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
    let daemon = Daemon::new(&dir).expect("scratch directory");
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let first = service::closed_loop_pass(&daemon, &jobs, "a", &goldens, &mut out, Some(&mut rec))
        .expect("first pass");
    let second = service::closed_loop_pass(&daemon, &jobs, "b", &goldens, &mut out, None)
        .expect("second pass");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.correct(), "{:?} {:?}", out.failures, out.check_errors);
    assert_eq!(out.attempted, 16);
    assert_eq!(first.counts, second.counts);
    assert!(first.counts["occamy-sim.cycles"] > 0);
    assert_eq!((first.misses.len(), first.hit_cpu_ms.len()), (4, 4));
    assert!(
        first.build > std::time::Duration::ZERO,
        "traced pass re-timed the builds"
    );
}
