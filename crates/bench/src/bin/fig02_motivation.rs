//! Fig. 2: the motivating example — co-running WL#0 (memory-intensive,
//! two phases) and WL#1 (compute-intensive) on the four SIMD
//! architectures of Fig. 1.
//!
//! Prints (b)–(e): per-1000-cycle lane-allocation/occupancy timelines,
//! and (f): the performance-statistics table, next to the paper's
//! reference values.

use bench::{rule, sweep_groups, Args, Flag, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::motivating;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let cfg = SimConfig::paper_2core();
    let specs = vec![motivating::wl0_scaled(args.scale), motivating::wl1_scaled(args.scale)];
    let group = SweepGroup { label: "motivating".to_owned(), specs, config: cfg };
    let sweeps = sweep_groups(&[group], 1.0, args.workers(), SimMode::Timing);
    let sw = &sweeps[0];

    println!("Fig. 2(f): performance statistics (paper reference in brackets)");
    rule(100);
    println!(
        "{:<9} {:>12} {:>12} {:>13} {:>13} {:>9} {:>9} {:>10}",
        "Arch", "t(WL#0) cyc", "t(WL#1) cyc", "speedup WL#0", "speedup WL#1", "issue#0", "issue#1", "SIMD util"
    );
    rule(100);
    // Paper reference values from Fig. 2(f).
    let paper: &[(&str, f64, f64, f64)] = &[
        ("Private", 1.00, 1.00, 60.6),
        ("FTS", 1.00, 1.41, 84.7),
        ("VLS", 1.00, 1.25, 75.6),
        ("Occamy", 0.98, 1.62, 96.7),
    ];
    for (arch, stats) in &sw.results {
        let (p0, p1, putil) = paper
            .iter()
            .find(|(a, ..)| a == arch)
            .map(|&(_, a, b, c)| (a, b, c))
            .expect("paper row");
        println!(
            "{:<9} {:>12} {:>12} {:>6.2} [{:.2}] {:>6.2} [{:.2}] {:>9.2} {:>9.2} {:>4.1}% [{:.1}%]",
            arch,
            stats.core_time(0),
            stats.core_time(1),
            sw.speedup(arch, 0),
            p0,
            sw.speedup(arch, 1),
            p1,
            stats.cores[0].issue_rate(stats.core_time(0)),
            stats.cores[1].issue_rate(stats.core_time(1)),
            100.0 * stats.simd_utilization(),
            putil,
        );
    }
    rule(100);

    println!("\nPer-phase issue rates and configured lanes (Occamy):");
    let occ = sw.stats("Occamy");
    for (core, cs) in occ.cores.iter().enumerate() {
        for (i, p) in cs.phases.iter().enumerate().take(4) {
            println!(
                "  WL#{core}.p{}: oi_mem={:.2} lanes={} issue={:.2} dur={}",
                i + 1,
                p.oi.mem(),
                p.configured_granules * 4,
                p.issue_rate(),
                p.duration()
            );
        }
        if cs.phases.len() > 4 {
            println!("  WL#{core}: ... {} more phase repeats", cs.phases.len() - 4);
        }
    }

    for (arch, stats) in &sw.results {
        println!("\nFig. 2 timeline [{arch}]:");
        print!(
            "{}",
            occamy_sim::render_lane_timeline(&stats.timeline, stats.total_lanes, 100)
        );
    }
    args.write_json("fig02_motivation", &sweeps).unwrap_or_else(|e| e.exit());
}
