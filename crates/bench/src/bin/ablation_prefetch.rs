//! Ablation: the VecCache stream prefetcher.
//!
//! DESIGN.md argues that without prefetching, streaming loops are bound
//! by `load latency x LSU depth` rather than memory bandwidth — memory
//! workloads become VL-sensitive and the roofline model's assumptions
//! break. This ablation sweeps the prefetch degree and reports the
//! memory workload's solo runtime at 8 vs 32 lanes: with a working
//! prefetcher the two converge (bandwidth-bound, VL-insensitive).

use bench::runner::{run_points, SweepPoint};
use bench::{rule, Args, Flag};
use occamy_sim::{Architecture, SimConfig};
use workloads::motivating;

const DEGREES: [u64; 6] = [0, 1, 2, 4, 8, 16];

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers]);
    println!("Ablation: VecCache stream-prefetch degree (WL#0 solo runtime, cycles)");
    rule(70);
    println!(
        "{:<10} {:>12} {:>12} {:>18}",
        "degree", "8 lanes", "28 lanes", "slowdown @8 lanes"
    );
    rule(70);
    // Per degree: 8 lanes, then 28 (core 1 keeps its mandatory granule).
    let points: Vec<SweepPoint> = DEGREES
        .iter()
        .flat_map(|&degree| {
            let mut cfg = SimConfig::paper_2core();
            cfg.mem.vec_prefetch_lines = degree;
            [2, 7].map(|granules| {
                let arch = Architecture::StaticSpatialSharing {
                    partition: vec![granules, cfg.total_granules - granules],
                };
                let specs = vec![motivating::wl0_scaled(args.scale)];
                SweepPoint::new(format!("degree-{degree}"), specs, arch, cfg.clone())
            })
        })
        .collect();
    let results = run_points(&points, args.workers());
    for (degree, runs) in DEGREES.iter().zip(results.chunks(2)) {
        let [narrow, wide] = [0, 1].map(|i| runs[i].stats.core_time(0));
        println!(
            "{:<10} {:>12} {:>12} {:>17.2}x",
            degree,
            narrow,
            wide,
            narrow as f64 / wide as f64
        );
    }
    rule(70);
    println!(
        "A bandwidth-bound stream is VL-insensitive (ratio -> 1.0); without\n\
         prefetching the narrow configuration collapses to latency-bound\n\
         behaviour and the elastic lane manager's roofline reasoning would\n\
         mispredict memory workloads."
    );
}
