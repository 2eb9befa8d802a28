//! Fig. 11: SIMD utilisation of the four architectures across the 25
//! co-run pairs, with geometric means.
//!
//! Paper reference (GM): Private 63.2 %, FTS 72.5 %, VLS 70.8 %,
//! Occamy 84.2 %.

use bench::{geomean, rule, sweep_groups, Args, Flag, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::table3;

const ARCHS: [&str; 4] = ["Private", "FTS", "VLS", "Occamy"];

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json, Flag::Mode]);
    let cfg = SimConfig::paper_2core();
    let groups: Vec<SweepGroup> =
        table3::all_pairs(args.scale).iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let sweeps = sweep_groups(&groups, 1.0, args.workers(), args.mode);

    println!("Fig. 11: SIMD utilisation (%)");
    if args.mode != SimMode::Timing {
        println!(
            "(mode {}: utilisation is not modelled without timing)",
            args.mode
        );
    }
    rule(56);
    println!("{:<7} {:>10} {:>10} {:>10} {:>10}", "pair", "Private", "FTS", "VLS", "Occamy");
    rule(56);
    let mut utils: std::collections::HashMap<&str, Vec<f64>> = Default::default();
    for sw in &sweeps {
        let row: Vec<f64> = ARCHS
            .iter()
            .map(|arch| {
                let u = 100.0 * sw.stats(arch).simd_utilization();
                utils.entry(arch).or_default().push(u);
                u
            })
            .collect();
        println!(
            "{:<7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            sw.label, row[0], row[1], row[2], row[3]
        );
    }
    rule(56);
    let gms: Vec<f64> = ARCHS.iter().map(|a| geomean(utils[a].iter().copied())).collect();
    println!("{:<7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}", "GM", gms[0], gms[1], gms[2], gms[3]);
    println!("{:<7} {:>10} {:>10} {:>10} {:>10}", "paper", "63.2", "72.5", "70.8", "84.2");
    args.write_json("fig11_simd_util", &sweeps).unwrap_or_else(|e| e.exit());
}
