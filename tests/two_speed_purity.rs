//! Tier-1 purity guard for the two-speed machinery: adding functional
//! fast-forward must not move a single byte of any timing-mode output.
//!
//! Two invariants:
//!
//! 1. The full Table-3 co-run population (25 pairs x 4 architectures)
//!    simulated in timing mode today renders byte-identical to the
//!    golden document generated from the pre-two-speed simulator
//!    (`tests/golden_two_speed/table3_timing_scale005.json`). Any
//!    diff means the fast path leaked into the cycle-accurate model.
//! 2. The deterministic `speedup --json` campaign document is
//!    byte-identical across worker counts — parallel sweeps must not
//!    perturb estimated totals any more than exact ones.

use bench::two_speed::{campaign_modes, campaign_to_json, ModeRun};
use bench::{sweep_pairs, sweep_pairs_mode, sweeps_to_json};
use occamy::bench_workloads::table3;
use occamy::prelude::*;
use occamy::sim::SimMode;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden_two_speed/table3_timing_scale005.json"
);

/// The exact generation recipe of the committed golden file.
fn timing_document(workers: usize) -> String {
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.05);
    let sweeps = sweep_pairs(&pairs, &cfg, 1.0, workers);
    sweeps_to_json("two_speed_timing_golden", 0.05, &sweeps).render()
}

/// Invariant 1: the timing mode is bit-pure against the pre-two-speed
/// golden — all 25 pairs, all four architectures.
#[test]
fn timing_sweep_is_byte_identical_to_pre_two_speed_golden() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file present");
    let now = timing_document(bench::runner::default_workers());
    assert!(
        now == golden,
        "timing-mode Table-3 sweep diverged from the pre-two-speed golden \
         ({} vs {} bytes) — the functional fast path must not perturb the \
         cycle-accurate model; regenerate the golden ONLY for an intentional \
         timing change",
        now.len(),
        golden.len()
    );
}

/// The explicit `--mode timing` route (what the fig/tab binaries now
/// use) emits the very same bytes as the historical default-mode route.
#[test]
fn explicit_timing_mode_matches_default_route() {
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.05);
    let subset = &pairs[..5];
    let default_route = sweep_pairs(subset, &cfg, 1.0, 1);
    let explicit = sweep_pairs_mode(subset, &cfg, 1.0, 1, SimMode::Timing);
    let a = sweeps_to_json("mode_route", 0.05, &default_route).render();
    let b = sweeps_to_json("mode_route", 0.05, &explicit).render();
    assert!(a == b, "--mode timing must be the identity on sweep output");
}

/// Invariant 2: the deterministic campaign document (timing and
/// functional) is byte-identical across worker counts.
#[test]
fn campaign_json_is_byte_identical_across_worker_counts() {
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.05);
    let subset = &pairs[..4];
    let doc = |workers: usize| {
        let runs: Vec<ModeRun> = campaign_modes()
            .into_iter()
            .map(|(label, mode)| ModeRun {
                label,
                mode,
                sweeps: sweep_pairs_mode(subset, &cfg, 1.0, workers, mode),
            })
            .collect();
        campaign_to_json(0.05, &runs).render()
    };
    let serial = doc(1);
    let parallel = doc(2);
    assert!(
        serial == parallel,
        "speedup --json output depends on --workers ({} vs {} bytes)",
        serial.len(),
        parallel.len()
    );
}
