//! Beyond the paper: scaling elastic sharing to eight cores.
//!
//! Fig. 16 stops at four cores; this experiment runs an 8-core machine
//! (32 ExeBUs, the §4.2.1 scaling recipe) with four memory-intensive
//! workloads on cores 0–3 and four compute-intensive ones on cores 4–7,
//! comparing Private/FTS/VLS/Occamy.

use bench::runner::{run_points, SweepPoint};
use bench::{rule, ArchSweep, Args, Flag};
use occamy_sim::{Architecture, SimConfig};
use workloads::{corun, table3};

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let cfg = SimConfig::paper(8);
    assert_eq!(cfg.total_lanes(), 128);

    // Four <memory, compute> pairs from Fig. 10, spread over 8 cores.
    let specs = vec![
        table3::spec_workload(1, args.scale),
        table3::spec_workload(6, args.scale),
        table3::spec_workload(8, args.scale),
        table3::spec_workload(20, args.scale),
        table3::spec_workload(13, args.scale),
        table3::spec_workload(16, args.scale),
        table3::spec_workload(17, args.scale),
        table3::spec_workload(18, args.scale),
    ];

    // Eight full-width FTS contexts need 8 x 32 = 256 architectural
    // registers per block — more than the 160-entry RegBlks hold. Like
    // §7.6's 4-core experiment, FTS only runs with a proportionally
    // larger VRF (the paper charges FTS 33.5% extra area for this at 4
    // cores; here it is 4x the spatial designs' register file).
    let mut cfg_fts = cfg.clone();
    cfg_fts.vregs_per_block = cfg.vregs_per_block * cfg.cores / 2;
    cfg_fts.pregs_per_block = cfg.pregs_per_block * cfg.cores / 2;

    // With eight cores sharing the 2-core configuration's single 64 GB/s
    // channel, every workload is DRAM-bound and no sharing policy can
    // help — the memory wall. Also run with four memory channels
    // (128 B/cycle), the way real 8-core parts scale bandwidth:
    let mut cfg_bw = cfg.clone();
    cfg_bw.mem.dram_bytes_cycle = 128;
    cfg_bw.mem.l2_bytes_cycle = 256;
    let mut cfg_fts_bw = cfg_fts.clone();
    cfg_fts_bw.mem.dram_bytes_cycle = 128;
    cfg_fts_bw.mem.l2_bytes_cycle = 256;

    // All eight simulations (two bandwidth setups x four architectures)
    // go through one worker pool; FTS gets its enlarged-VRF config.
    let mk_points = |label: &str, base: &SimConfig, fts: &SimConfig| -> Vec<SweepPoint> {
        vec![
            SweepPoint::new(label, specs.clone(), Architecture::Private, base.clone()),
            SweepPoint::new(label, specs.clone(), Architecture::TemporalSharing, fts.clone()),
            SweepPoint::new(
                label,
                specs.clone(),
                Architecture::StaticSpatialSharing {
                    partition: corun::vls_partition(&specs, base),
                },
                base.clone(),
            ),
            SweepPoint::new(label, specs.clone(), Architecture::Occamy, base.clone()),
        ]
    };
    let labels = ["table4-bandwidth", "4x-bandwidth"];
    let mut points = mk_points(labels[0], &cfg, &cfg_fts);
    points.extend(mk_points(labels[1], &cfg_bw, &cfg_fts_bw));

    let outcomes = run_points(&points, args.workers());
    let sweeps: Vec<ArchSweep> = outcomes
        .chunks(4)
        .zip(labels)
        .map(|(chunk, label)| ArchSweep {
            label: label.to_owned(),
            results: chunk.iter().map(|p| (p.arch, p.stats.clone())).collect(),
        })
        .collect();

    let table = |sw: &ArchSweep| {
        let private = sw.stats("Private");
        rule(100);
        print!("{:<8}", "arch");
        for c in 0..8 {
            print!("{:>10}", format!("core{c}"));
        }
        println!("  util");
        rule(100);
        for (display, arch) in [("FTS*", "FTS"), ("VLS", "VLS"), ("Occamy", "Occamy")] {
            let stats = sw.stats(arch);
            print!("{display:<8}");
            for c in 0..8 {
                print!("{:>10.2}", private.core_time(c) as f64 / stats.core_time(c) as f64);
            }
            println!("  {:.1}%", 100.0 * stats.simd_utilization());
        }
        rule(100);
    };

    println!("8-core scaling, Table 4 memory system (speedups over Private per core)");
    table(&sweeps[0]);
    println!("\n8-core scaling, 4x memory channels (128 B/cycle DRAM):");
    table(&sweeps[1]);
    println!(
        "Private utilisation: {:.1}%.\n\
         FTS* requires a 4x register file to hold eight full-width contexts\n\
         (it cannot run at all with the spatial designs' 20KB-per-8-lanes\n\
         VRF) — the §7.6 scaling argument, sharpened: temporal sharing's\n\
         register cost grows linearly with cores while elastic spatial\n\
         sharing's stays constant.",
        100.0 * sweeps[1].stats("Private").simd_utilization()
    );
    println!(
        "Table-4-bandwidth run: all three sharing policies collapse to\n\
         ~1.0x — eight cores saturate one 64 GB/s channel regardless of\n\
         how lanes are shared (util {:.1}%); the elastic win needs the\n\
         compute side to be compute-bound.",
        100.0 * sweeps[0].stats("Private").simd_utilization()
    );
    args.write_json("scalability_8core", &sweeps).unwrap_or_else(|e| e.exit());
}
