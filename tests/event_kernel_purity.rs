//! Tier-1 purity guard for the event-driven timing kernel: skipping
//! provably inert cycles must not move a single byte of any golden
//! output, while actually engaging on idle-heavy workloads.
//!
//! Three invariants:
//!
//! 1. The full Table-3 co-run population (25 pairs x 4 architectures),
//!    simulated with the event kernel enabled (the default), renders
//!    byte-identical to the pre-two-speed golden document — the same
//!    bytes the per-cycle stepper has always produced.
//! 2. Forcing the reference kernel (the `OCCAMY_REFERENCE_KERNEL`
//!    escape hatch) changes nothing either: both kernels render the
//!    same document, so a future regression in either path is caught
//!    against the other.
//! 3. The kernel is not vacuous: on an idle-heavy DRAM-chase workload
//!    it must jump a nonzero number of cycles — and still match the
//!    reference run's statistics exactly.
//!
//! (The `occamyd` service goldens — `load_test_campaign{,_slo}.json` —
//! are pinned with the event kernel enabled by `crates/occamyd/tests/
//! observability.rs`, which also re-runs them under the reference
//! kernel.)

use bench::event_kernel::chase_machine;
use bench::{sweep_groups, sweeps_to_json, SweepGroup};
use occamy::bench_workloads::table3;
use occamy::prelude::*;
use occamy::sim::{MetricValue, SimMode};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_two_speed/table3_timing_scale005.json"
);

/// The exact generation recipe of the committed golden file.
fn timing_document(workers: usize) -> String {
    let cfg = SimConfig::paper_2core();
    let groups: Vec<SweepGroup> =
        table3::all_pairs(0.05).iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let sweeps = sweep_groups(&groups, 1.0, workers, SimMode::Timing);
    sweeps_to_json("two_speed_timing_golden", 0.05, &sweeps).render()
}

/// Invariant 1: with the event kernel enabled (the default), the full
/// Table-3 timing sweep is bit-pure against the historical golden.
#[test]
fn table3_sweep_is_byte_identical_with_event_kernel_enabled() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let now = timing_document(bench::runner::default_workers());
    assert!(
        now == golden,
        "Table-3 sweep under the event kernel diverged from the golden \
         ({} vs {} bytes) — skipped idle spans must be invisible in every \
         output; regenerate the golden ONLY for an intentional timing change",
        now.len(),
        golden.len()
    );
}

/// Invariant 2: the reference kernel renders the same bytes. (A race
/// with the other tests in this binary is harmless by construction:
/// the env flag selects between two paths this very test proves
/// byte-identical.)
#[test]
fn reference_kernel_renders_the_same_document() {
    let cfg = SimConfig::paper_2core();
    let subset: Vec<SweepGroup> =
        table3::all_pairs(0.05)[..4].iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let document = || {
        let sweeps = sweep_groups(&subset, 1.0, 1, SimMode::Timing);
        sweeps_to_json("kernel_route", 0.05, &sweeps).render()
    };
    let event = document();
    std::env::set_var("OCCAMY_REFERENCE_KERNEL", "1");
    let reference = document();
    std::env::remove_var("OCCAMY_REFERENCE_KERNEL");
    assert!(
        event == reference,
        "the reference and event kernels rendered different documents \
         ({} vs {} bytes)",
        event.len(),
        reference.len()
    );
}

/// Invariant 3: the kernel engages. An idle-heavy chase must report
/// `cycles_skipped > 0` (surfaced as the opt-in `sim.cycles_skipped`
/// metric) while matching the reference statistics exactly, at the
/// paper's DRAM latency and at 4x and 16x it (the inert spans grow with
/// the latency). The reference kernel never skips.
#[test]
fn idle_heavy_case_skips_cycles_and_stays_exact() {
    for dram in [120, 480, 1920] {
        let mut reference = chase_machine(300, 128, dram).expect("chase machine builds");
        reference.set_reference_kernel(true);
        let want = reference.run(10_000_000).expect("reference run completes");
        assert!(want.completed);
        assert_eq!(reference.cycles_skipped(), 0, "dram {dram}: the reference kernel skipped");

        let mut event = chase_machine(300, 128, dram).expect("chase machine builds");
        // Pinned: the reference-kernel test in this binary sets
        // `OCCAMY_REFERENCE_KERNEL` while it runs, and a machine built
        // meanwhile would otherwise pick the reference kernel up.
        event.set_reference_kernel(false);
        event.expose_kernel_metric(true);
        let got = event.run(10_000_000).expect("event-kernel run completes");

        assert!(event.cycles_skipped() > 0, "dram {dram}: no cycles skipped on the chase");
        assert_eq!(want.cycles, got.cycles, "dram {dram}: cycle totals diverged");
        // The exposed metric accounts for the jumped span; the totals
        // above prove it is included in (not added to) the simulated
        // cycles.
        let metric = got
            .metrics
            .iter()
            .find(|m| m.name == "sim.cycles_skipped")
            .expect("opt-in metric registered");
        assert_eq!(metric.value, MetricValue::Counter(event.cycles_skipped()));
        // Apart from that one opt-in metric, the runs are identical.
        let mut want_like = got.clone();
        want_like.metrics = want.metrics.clone();
        assert_eq!(want, want_like, "dram {dram}: stats diverged beyond the opt-in metric");
    }
}
