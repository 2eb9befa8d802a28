//! Ablation: the cost and value of the per-iteration partition monitor.
//!
//! Occamy's lazy partition points (Fig. 9) re-read `<decision>` every
//! iteration. This ablation compares elastic execution against the same
//! machine running fixed-VL code at the lane manager's *initial* plan —
//! i.e. "monitor never fires" — on the motivating example, isolating
//! what mid-phase repartitioning buys, and reports the measured monitor
//! overhead (Fig. 15's first component).

use bench::runner::{run_points, SweepPoint};
use bench::{rule, Args, Flag};
use occamy_sim::{Architecture, SimConfig};
use workloads::{corun, motivating};

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers]);
    let cfg = SimConfig::paper_2core();
    let specs = vec![motivating::wl0_scaled(args.scale), motivating::wl1_scaled(args.scale)];

    // Elastic: full Fig. 9 machinery. Frozen plan: the initial
    // partition, never revisited (VLS at the oracle split).
    let frozen_arch = Architecture::StaticSpatialSharing {
        partition: corun::vls_partition(&specs, &cfg),
    };
    let points = [
        SweepPoint::new("elastic", specs.clone(), Architecture::Occamy, cfg.clone()),
        SweepPoint::new("frozen", specs, frozen_arch, cfg),
    ];
    let results = run_points(&points, args.workers());
    let (e, f) = (&results[0].stats, &results[1].stats);

    println!("Ablation: per-iteration partition monitoring (motivating example)");
    rule(64);
    println!("{:<28} {:>14} {:>14}", "", "frozen plan", "elastic");
    rule(64);
    println!(
        "{:<28} {:>14} {:>14}",
        "WL#0 time (cycles)",
        f.core_time(0),
        e.core_time(0)
    );
    println!(
        "{:<28} {:>14} {:>14}",
        "WL#1 time (cycles)",
        f.core_time(1),
        e.core_time(1)
    );
    println!(
        "{:<28} {:>13.1}% {:>13.1}%",
        "SIMD utilisation",
        100.0 * f.simd_utilization(),
        100.0 * e.simd_utilization()
    );
    let (mon0, rec0) = e.overhead_fractions(0);
    let (mon1, rec1) = e.overhead_fractions(1);
    println!(
        "{:<28} {:>14} {:>10.2}+{:.2}%",
        "monitor+reconfig overhead",
        "-",
        100.0 * (mon0 + mon1) / 2.0,
        100.0 * (rec0 + rec1) / 2.0
    );
    rule(64);
    println!(
        "WL#1 gain from elasticity: {:.2}x (monitoring pays for itself when a\n\
         co-runner's phases change or it exits mid-run).",
        f.core_time(1) as f64 / e.core_time(1) as f64
    );
}
