//! Fig. 14: the <memory, compute> case study WL20 + WL17 (§7.4 case 1).
//!
//! (a) normalised solo execution time of each phase as the lane count
//!     sweeps from 4 to 32,
//! (b) WL17's lane allocation over time on Private/VLS/Occamy,
//! (c) per-phase SIMD issue rates on every architecture, plus FTS
//!     rename-stall cycles.

use bench::runner::{run_points, SweepPoint};
use bench::{rule, sweep_groups, Args, Flag, SweepGroup};
use occamy_sim::{Architecture, MachineStats, SimConfig, SimMode};
use workloads::{table3, WorkloadSpec};

/// A solo run of `spec` with a fixed lane allocation of `granules`.
fn solo_point(spec: &WorkloadSpec, cfg: &SimConfig, granules: usize) -> SweepPoint {
    let arch = Architecture::StaticSpatialSharing {
        partition: vec![granules, cfg.total_granules - granules],
    };
    SweepPoint::new(format!("{}@{granules}", spec.label), vec![spec.clone()], arch, cfg.clone())
}

/// Per-phase durations of a solo run.
fn solo_phase_times(stats: &MachineStats) -> Vec<u64> {
    // Aggregate repeats of the same kernel phase: take total duration per
    // distinct phase OI.
    let mut out: Vec<(u32, u64)> = Vec::new();
    for p in &stats.cores[0].phases {
        let key = p.oi.mem().to_bits() as u32;
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, d)) => *d += p.duration(),
            None => out.push((key, p.duration())),
        }
    }
    out.into_iter().map(|(_, d)| d).collect()
}

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers]);
    let cfg = SimConfig::paper_2core();
    let wl20 = table3::spec_workload(20, args.scale);
    let wl17 = table3::spec_workload(17, args.scale);

    // ---- (a) normalised phase times vs lane count ----
    println!("Fig. 14(a): normalised solo execution time vs #lanes");
    rule(64);
    println!("{:<8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}", "phase", "4", "8", "12", "16", "24", "28");
    rule(64);
    let granule_sweep = [1usize, 2, 3, 4, 6, 7];
    let points: Vec<SweepPoint> = granule_sweep
        .iter()
        .flat_map(|&g| [solo_point(&wl20, &cfg, g), solo_point(&wl17, &cfg, g)])
        .collect();
    let solo = run_points(&points, args.workers());
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); 3]; // 20.p1, 20.p2, 17
    for pair in solo.chunks(2) {
        let t20 = solo_phase_times(&pair[0].stats);
        let t17 = solo_phase_times(&pair[1].stats);
        rows[0].push(t20[0] as f64);
        rows[1].push(t20[1] as f64);
        rows[2].push(t17[0] as f64);
    }
    for (name, row) in ["WL20.p1", "WL20.p2", "WL17"].iter().zip(&rows) {
        let max = row.iter().copied().fold(0.0f64, f64::max);
        print!("{name:<8}");
        for v in row {
            print!(" {:>8.2}", v / max);
        }
        println!();
    }
    println!("(paper: WL20.p1 flattens at 8 lanes, WL20.p2 at 12, WL17 keeps gaining)");

    // ---- (b) + (c): the co-run ----
    let group = SweepGroup { label: "20+17".to_owned(), specs: vec![wl20, wl17], config: cfg };
    let sw = sweep_groups(&[group], 1.0, args.workers(), SimMode::Timing).remove(0);

    println!("\nFig. 14(b): WL17 lanes over time (avg per 2k cycles)");
    rule(40);
    println!("{:>8} {:>9} {:>8} {:>8}", "cycle", "Private", "VLS", "Occamy");
    rule(40);
    let tl: Vec<&[occamy_sim::TimelineBucket]> =
        ["Private", "VLS", "Occamy"].iter().map(|a| sw.stats(a).timeline.as_slice()).collect();
    let longest = tl.iter().map(|t| t.len()).max().unwrap_or(0);
    for i in (0..longest).step_by(2) {
        let lane = |t: &[occamy_sim::TimelineBucket]| {
            t.get(i).map_or(String::from("-"), |b| format!("{:.0}", b.alloc_lanes[1]))
        };
        println!("{:>8} {:>9} {:>8} {:>8}", i * 1000, lane(tl[0]), lane(tl[1]), lane(tl[2]));
    }

    println!("\nFig. 14(c): per-phase SIMD issue rates (insts/cycle)");
    rule(70);
    println!(
        "{:<9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "arch", "20.p1", "20.p2", "17 (first)", "17 (mid)", "17 (last)"
    );
    rule(70);
    for (arch, stats) in &sw.results {
        let p20: Vec<f64> = stats.cores[0].phases.iter().map(|p| p.issue_rate()).collect();
        let p17: Vec<f64> = stats.cores[1].phases.iter().map(|p| p.issue_rate()).collect();
        let pick = |v: &[f64], i: usize| v.get(i).copied().unwrap_or(0.0);
        println!(
            "{:<9} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
            arch,
            pick(&p20, 0),
            pick(&p20, 1),
            pick(&p17, 0),
            pick(&p17, p17.len() / 2),
            pick(&p17, p17.len().saturating_sub(1)),
        );
    }
    rule(70);
    let fts = sw.stats("FTS");
    println!(
        "FTS rename-stall cycles: core0 {} ({:.0}%), core1 {} ({:.0}%)  (paper: thousands; Occamy: 0)",
        fts.cores[0].rename_stall_cycles,
        100.0 * fts.rename_stall_fraction(0),
        fts.cores[1].rename_stall_cycles,
        100.0 * fts.rename_stall_fraction(1),
    );
    let occ = sw.stats("Occamy");
    println!(
        "Occamy rename-stall cycles: core0 {}, core1 {}",
        occ.cores[0].rename_stall_cycles, occ.cores[1].rename_stall_cycles
    );
    println!(
        "\nSpeedups on WL17: FTS {:.2} [paper 1.42], VLS {:.2} [1.25], Occamy {:.2} [1.63]",
        sw.speedup("FTS", 1),
        sw.speedup("VLS", 1),
        sw.speedup("Occamy", 1)
    );
}
