//! Ablation: how much of Occamy's win comes from each lane-manager
//! design choice?
//!
//! Compares, on the motivating example and three representative pairs:
//!
//! 1. **full** — the shipped manager (roofline-guided greedy + leftover
//!    redistribution), i.e. the `Occamy` architecture;
//! 2. **static-oracle** — the same planner run once (VLS with the oracle
//!    partition): isolates the value of *elasticity* over a well-chosen
//!    static split;
//! 3. **even-split** — a naive equal static partition: isolates the
//!    value of the roofline model over no model at all;
//! 4. **full-width** — temporal sharing (FTS): the no-partitioning
//!    alternative.

use bench::runner::{run_points, SweepPoint};
use bench::{rule, Args, Flag};
use occamy_sim::{Architecture, SimConfig};
use workloads::{corun, motivating, table3, WorkloadSpec};

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers]);
    let cfg = SimConfig::paper_2core();
    let half = cfg.total_granules / 2;

    let mut cases: Vec<(String, Vec<WorkloadSpec>)> = vec![(
        "motivating".to_owned(),
        vec![motivating::wl0_scaled(args.scale), motivating::wl1_scaled(args.scale)],
    )];
    for label in ["8+17", "20+9", "6+16"] {
        let pair = table3::all_pairs(args.scale)
            .into_iter()
            .find(|p| p.label == label)
            .expect("known pair");
        cases.push((label.to_owned(), pair.workloads.to_vec()));
    }

    println!("Ablation: lane-manager design choices (core-1 speedup over even-split)");
    rule(78);
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>14}",
        "case", "even-split", "static-oracle", "full-width", "full (Occamy)"
    );
    rule(78);
    // Per case, in order: even-split, static-oracle, full-width, full.
    let points: Vec<SweepPoint> = cases
        .iter()
        .flat_map(|(label, specs)| {
            [
                Architecture::StaticSpatialSharing { partition: vec![half; cfg.cores] },
                Architecture::StaticSpatialSharing {
                    partition: corun::vls_partition(specs, &cfg),
                },
                Architecture::TemporalSharing,
                Architecture::Occamy,
            ]
            .map(|arch| SweepPoint::new(label.as_str(), specs.clone(), arch, cfg.clone()))
        })
        .collect();
    let results = run_points(&points, args.workers());
    for ((label, _), runs) in cases.iter().zip(results.chunks(4)) {
        let [even, oracle, fts, full] = [0, 1, 2, 3].map(|i| runs[i].stats.core_time(1));
        let su = |t: u64| even as f64 / t as f64;
        println!(
            "{:<12} {:>14.2} {:>14.2} {:>14.2} {:>14.2}",
            label,
            1.0,
            su(oracle),
            su(fts),
            su(full)
        );
    }
    rule(78);
    println!(
        "Reading: `static-oracle` minus `even-split` is the roofline model's\n\
         contribution; `full` minus `static-oracle` is elasticity's (phase\n\
         adaptation + lane reclamation after a co-runner exits)."
    );
}
