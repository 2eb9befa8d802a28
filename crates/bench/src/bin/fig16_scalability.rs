//! Fig. 16: scaling to four cores — four groups of workloads (memory-
//! intensive on the low cores, compute-intensive on the high cores) on
//! FTS/VLS/Occamy, with speedups over Private per core.

use bench::{geomean, rule, sweep_groups, Args, Flag, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::table3;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json, Flag::Mode]);
    let cfg = SimConfig::paper(4);
    let groups: Vec<SweepGroup> = table3::four_core_groups(args.scale)
        .into_iter()
        .map(|(label, specs)| SweepGroup { label, specs, config: cfg.clone() })
        .collect();
    let sweeps = sweep_groups(&groups, 1.0, args.workers(), args.mode);

    println!("Fig. 16: 4-core speedups over Private");
    if args.mode != SimMode::Timing {
        println!("(mode {}: cycle totals are ESTIMATED, machine-wide)", args.mode);
    }
    rule(76);
    println!(
        "{:<16} {:<8} {:>9} {:>9} {:>9} {:>9}",
        "group", "arch", "core0", "core1", "core2", "core3"
    );
    rule(76);
    let mut by_arch: std::collections::HashMap<&str, Vec<f64>> = Default::default();
    for sw in &sweeps {
        let label = &sw.label;
        for arch in ["FTS", "VLS", "Occamy"] {
            let s: Vec<f64> = (0..4).map(|c| sw.speedup(arch, c)).collect();
            by_arch.entry(arch).or_default().extend(s.iter().copied());
            println!(
                "{:<16} {:<8} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                label, arch, s[0], s[1], s[2], s[3]
            );
        }
        rule(76);
    }
    for arch in ["FTS", "VLS", "Occamy"] {
        println!("GM {:<8} {:>6.2}", arch, geomean(by_arch[arch].iter().copied()));
    }
    println!(
        "(paper: Occamy keeps core0/core1 at Private speed and wins on the \
         compute cores; FTS needs 33.5% more area to keep up at 4 cores)"
    );
    args.write_json("fig16_scalability", &sweeps).unwrap_or_else(|e| e.exit());
}
