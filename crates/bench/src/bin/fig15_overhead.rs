//! Fig. 15: runtime overhead of elastic spatial sharing on Occamy —
//! monitoring lane-partition decisions (the speculative `MRS <decision>`
//! per iteration) and reconfiguring the vector length (pipeline drains).
//!
//! Paper reference: 0.5 % of execution time on average (0.3 %
//! monitoring + 0.2 % reconfiguration).

use bench::runner::{run_points, SweepPoint};
use bench::{geomean, rule, ArchSweep, Args, Flag};
use occamy_sim::{Architecture, SimConfig};
use workloads::table3;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(args.scale);

    // Only Occamy is measured here — one point per pair.
    let points: Vec<SweepPoint> = pairs
        .iter()
        .map(|pair| {
            SweepPoint::new(
                &pair.label,
                pair.workloads.to_vec(),
                Architecture::Occamy,
                cfg.clone(),
            )
        })
        .collect();
    let results = run_points(&points, args.workers());

    println!("Fig. 15: Occamy elastic-sharing overhead (% of each core's runtime)");
    rule(60);
    println!(
        "{:<7} {:>12} {:>12} {:>12}",
        "pair", "monitor", "reconfig", "total"
    );
    rule(60);
    let mut totals = Vec::new();
    for point in &results {
        // Average the two cores' overhead fractions, like the figure.
        let (mut mon, mut rec) = (0.0, 0.0);
        for core in 0..cfg.cores {
            let (m, r) = point.stats.overhead_fractions(core);
            mon += 100.0 * m / cfg.cores as f64;
            rec += 100.0 * r / cfg.cores as f64;
        }
        totals.push((mon + rec).max(0.001));
        println!("{:<7} {:>12.2} {:>12.2} {:>12.2}", point.label, mon, rec, mon + rec);
    }
    rule(60);
    println!("{:<7} {:>38.2}", "GM", geomean(totals.iter().copied()));
    println!("(paper: 0.5% total on average — 0.3% monitoring + 0.2% reconfiguration)");

    let sweeps: Vec<ArchSweep> = results
        .iter()
        .map(|p| ArchSweep { label: p.label.clone(), results: vec![(p.arch, p.stats.clone())] })
        .collect();
    args.write_json("fig15_overhead", &sweeps).unwrap_or_else(|e| e.exit());
}
