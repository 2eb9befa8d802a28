//! Fig. 10: speedups of FTS/VLS/Occamy over Private for all 25 co-run
//! pairs, on Core0 (memory side) and Core1 (compute side), with
//! geometric means.

use bench::{geomean, rule, sweep_groups, Args, Flag, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::table3;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json, Flag::Mode]);
    let cfg = SimConfig::paper_2core();
    let groups: Vec<SweepGroup> =
        table3::all_pairs(args.scale).iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let sweeps = sweep_groups(&groups, 1.0, args.workers(), args.mode);

    println!("Fig. 10: speedups over Private (Core0 / Core1)");
    if args.mode != SimMode::Timing {
        println!("(mode {}: cycle totals are ESTIMATED, machine-wide)", args.mode);
    }
    rule(86);
    println!(
        "{:<7} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "pair", "FTS c0", "VLS c0", "Occamy c0", "FTS c1", "VLS c1", "Occamy c1"
    );
    rule(86);
    let mut collect: std::collections::HashMap<(&str, usize), Vec<f64>> = Default::default();
    for sw in &sweeps {
        let row: Vec<f64> =
            [("FTS", 0), ("VLS", 0), ("Occamy", 0), ("FTS", 1), ("VLS", 1), ("Occamy", 1)]
                .iter()
                .map(|&(arch, core)| {
                    let s = sw.speedup(arch, core);
                    collect.entry((arch, core)).or_default().push(s);
                    s
                })
                .collect();
        println!(
            "{:<7} {:>12.2} {:>12.2} {:>12.2}   {:>12.2} {:>12.2} {:>12.2}",
            sw.label, row[0], row[1], row[2], row[3], row[4], row[5]
        );
    }
    rule(86);
    let gm = |arch: &str, core: usize| geomean(collect[&(arch, core)].iter().copied());
    println!(
        "{:<7} {:>12.2} {:>12.2} {:>12.2}   {:>12.2} {:>12.2} {:>12.2}",
        "GM",
        gm("FTS", 0),
        gm("VLS", 0),
        gm("Occamy", 0),
        gm("FTS", 1),
        gm("VLS", 1),
        gm("Occamy", 1)
    );
    println!(
        "{:<7} {:>12} {:>12} {:>12}   {:>12} {:>12} {:>12}",
        "paper", "~1.00", "~1.00", "~1.00", "1.20", "1.11", "1.39"
    );
    args.write_json("fig10_speedups", &sweeps).unwrap_or_else(|e| e.exit());
}
