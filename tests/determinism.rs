//! The simulator is fully deterministic: identical builds produce
//! identical cycle-level behaviour — the property EXPERIMENTS.md's
//! "runs are fully deterministic" claim rests on.

use occamy_sim::{Architecture, SimConfig};
use workloads::{corun, motivating};

fn run_once(arch: &Architecture) -> (u64, Vec<(u64, u64, u64)>) {
    let cfg = SimConfig::paper_2core();
    let specs = [motivating::wl0(), motivating::wl1()];
    let mut m = corun::build_machine(&specs, &cfg, arch, 0.25).expect("build");
    let stats = m.run(100_000_000).expect("simulation fault");
    assert!(stats.completed);
    (
        stats.cycles,
        stats
            .cores
            .iter()
            .map(|c| (c.vector_compute_issued, c.vector_mem_issued, c.scalar_executed))
            .collect(),
    )
}

#[test]
fn identical_builds_are_cycle_identical() {
    for arch in [
        Architecture::Private,
        Architecture::TemporalSharing,
        Architecture::Occamy,
    ] {
        let a = run_once(&arch);
        let b = run_once(&arch);
        assert_eq!(a, b, "{arch:?} diverged between identical runs");
    }
}

#[test]
fn preemption_points_do_not_leak_into_fresh_machines() {
    // Running a machine (with mid-run preemption) must not affect a
    // second, independently built machine — no hidden global state.
    let cfg = SimConfig::paper_2core();
    let specs = [motivating::wl0(), motivating::wl1()];
    let baseline = run_once(&Architecture::Occamy);

    let mut scratch = corun::build_machine(&specs, &cfg, &Architecture::Occamy, 0.25).unwrap();
    for _ in 0..700 {
        scratch.step().expect("simulation fault");
    }
    let task = scratch.preempt(0, 100_000).expect("preempt drains in budget");
    scratch.resume(0, task, 100_000).expect("resume re-acquires lanes");
    let _ = scratch.run(100_000_000).expect("simulation fault");

    assert_eq!(run_once(&Architecture::Occamy), baseline);
}
