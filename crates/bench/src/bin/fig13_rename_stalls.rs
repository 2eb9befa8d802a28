//! Fig. 13: fraction of cycles with instructions blocked in the renamer
//! waiting for free physical registers, on FTS, per co-run pair.
//!
//! The paper reports >70 % of cycles stalled on FTS on average and
//! "hardly any" on the other three architectures — the register-pressure
//! cost of keeping full-width per-core contexts in a shared VRF.

use bench::{geomean, rule, sweep_groups, Args, Flag, SweepGroup};
use occamy_sim::{SimConfig, SimMode};
use workloads::table3;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let cfg = SimConfig::paper_2core();
    let groups: Vec<SweepGroup> =
        table3::all_pairs(args.scale).iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    let sweeps = sweep_groups(&groups, 1.0, args.workers(), SimMode::Timing);

    println!("Fig. 13: cycles stalled waiting for free registers (%)");
    rule(66);
    println!(
        "{:<7} {:>10} {:>10} {:>16} {:>16}",
        "pair", "FTS c0", "FTS c1", "others c0 (max)", "others c1 (max)"
    );
    rule(66);
    let mut fts0 = Vec::new();
    let mut fts1 = Vec::new();
    for sw in &sweeps {
        let fts = sw.stats("FTS");
        let s0 = 100.0 * fts.rename_stall_fraction(0);
        let s1 = 100.0 * fts.rename_stall_fraction(1);
        fts0.push(s0.max(0.1));
        fts1.push(s1.max(0.1));
        let other_max = |core: usize| {
            ["Private", "VLS", "Occamy"]
                .iter()
                .map(|a| 100.0 * sw.stats(a).rename_stall_fraction(core))
                .fold(0.0f64, f64::max)
        };
        println!(
            "{:<7} {:>10.1} {:>10.1} {:>16.2} {:>16.2}",
            sw.label,
            s0,
            s1,
            other_max(0),
            other_max(1)
        );
    }
    rule(66);
    println!(
        "{:<7} {:>10.1} {:>10.1}   (paper: >70% on FTS, ~0% elsewhere)",
        "GM",
        geomean(fts0),
        geomean(fts1)
    );
    args.write_json("fig13_rename_stalls", &sweeps).unwrap_or_else(|e| e.exit());
}
