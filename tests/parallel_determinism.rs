//! The parallel sweep runner must be a pure wall-clock optimisation:
//! the same sweep executed with one worker and with many workers has to
//! produce identical `MachineStats` for every point, in the same order.
//! (`PartialEq` on `MachineStats` covers cycles, per-core counters,
//! phases, and the full lane timeline.)

use bench::runner::{run_jobs, run_points, SweepPoint};
use bench::{sweep_groups, SweepGroup};
use occamy_sim::{Architecture, SimConfig, SimMode};
use workloads::{corun, table3};

/// A small but heterogeneous point set: two co-run pairs on all four
/// architectures (16 simulations at 5% scale).
fn sample_points() -> Vec<SweepPoint> {
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.05);
    let mut points = Vec::new();
    for pair in &pairs[..2] {
        let specs = pair.workloads.to_vec();
        let archs = [
            Architecture::Private,
            Architecture::TemporalSharing,
            Architecture::StaticSpatialSharing {
                partition: corun::vls_partition(&specs, &cfg),
            },
            Architecture::Occamy,
        ];
        for arch in archs {
            points.push(SweepPoint::new(&pair.label, specs.clone(), arch, cfg.clone()));
        }
    }
    points
}

#[test]
fn run_points_is_worker_count_invariant() {
    let points = sample_points();
    let serial = run_points(&points, 1);
    for workers in [2, 4, 16] {
        let parallel = run_points(&points, workers);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label, "label order changed at {workers} workers");
            assert_eq!(s.arch, p.arch, "arch order changed at {workers} workers");
            assert_eq!(
                s.stats, p.stats,
                "{}/{}: stats diverged at {workers} workers",
                s.label, s.arch
            );
        }
    }
}

#[test]
fn sweep_groups_matches_serial_sweep() {
    // The sweep entry point on the pool must reproduce its own serial
    // (one-worker) run: every group, all four architectures in Fig. 1
    // order, identical statistics.
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.05);
    let groups: Vec<SweepGroup> =
        pairs[..2].iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let serial = sweep_groups(&groups, 1.0, 1, SimMode::Timing);
    let parallel = sweep_groups(&groups, 1.0, 4, SimMode::Timing);
    assert_eq!(serial.len(), groups.len());
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), g) in serial.iter().zip(&parallel).zip(&groups) {
        assert_eq!(s.label, g.label);
        assert_eq!(p.label, g.label);
        let archs: Vec<&str> = s.results.iter().map(|(a, _)| *a).collect();
        assert_eq!(archs, ["Private", "FTS", "VLS", "Occamy"], "Fig. 1 architecture order");
        assert_eq!(s.results.len(), p.results.len());
        for ((sa, ss), (pa, ps)) in s.results.iter().zip(&p.results) {
            assert_eq!(sa, pa);
            assert_eq!(ss, ps, "{}/{sa} diverged between 1 and 4 workers", s.label);
        }
    }
}

#[test]
fn json_document_is_worker_count_invariant() {
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.05);
    let groups: Vec<SweepGroup> =
        pairs[..2].iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let doc1 = bench::sweeps_to_json("det", 0.05, &sweep_groups(&groups, 1.0, 1, SimMode::Timing));
    let doc4 = bench::sweeps_to_json("det", 0.05, &sweep_groups(&groups, 1.0, 4, SimMode::Timing));
    assert_eq!(doc1.render(), doc4.render(), "rendered JSON differs across worker counts");
}

#[test]
fn generic_pool_preserves_order_under_load() {
    // Many more jobs than workers, with adversarial job durations
    // (later-submitted jobs finish first).
    for workers in [1, 3, 8] {
        let n = 64;
        let out = run_jobs(n, workers, |i| {
            std::thread::sleep(std::time::Duration::from_micros(((n - i) * 11) as u64));
            (i, i * i)
        });
        assert_eq!(out, (0..n).map(|i| (i, i * i)).collect::<Vec<_>>(), "workers={workers}");
    }
}
