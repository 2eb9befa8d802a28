//! `speedup`: the two-speed simulation accuracy report.
//!
//! Runs the Table-3 co-run population (25 pairs x 4 architectures)
//! twice — full timing and functional fast-forward — and reports the
//! functional mode's estimated cycle totals against the timing
//! reference. Host speed of both modes is measured, with repeats, by
//! the repository benchmark (`perfbench`, workloads `fig10-timing` and
//! `fig10-functional`).
//!
//! Flags: the shared harness flags (`--fast`, `--scale`, `--workers`,
//! `--json <path>` for the deterministic campaign document).

use bench::two_speed::{accuracy, campaign_to_json, run_campaign};
use bench::{rule, Args, Flag};
use occamy_sim::SimMode;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let runs = run_campaign(args.scale, args.workers());
    let timing_sweeps =
        runs.iter().find(|r| r.mode == SimMode::Timing).map(|r| r.sweeps.clone());

    println!("Two-speed simulation: Table-3 population, {} pair(s)", runs[0].sweeps.len());
    rule(54);
    println!("{:<12} {:>12} {:>14} {:>12}", "mode", "mean |err|", "max |err|", "gm ratio");
    rule(54);
    for run in &runs {
        if run.mode == SimMode::Timing {
            println!("{:<12} {:>12} {:>14} {:>12}", run.label, "exact", "exact", "1.000");
        } else if let Some(timing) = &timing_sweeps {
            let report = accuracy(timing, &run.sweeps);
            println!(
                "{:<12} {:>11.1}% {:>13.1}% {:>12.3}",
                run.label,
                100.0 * report.mean_abs_rel_error,
                100.0 * report.max_abs_rel_error,
                report.geomean_ratio
            );
        }
    }
    rule(54);
    println!(
        "(cycle errors compare each mode's ESTIMATED totals against the\n\
         exact timing run, point by point)"
    );

    if let Some(path) = &args.json {
        let doc = campaign_to_json(args.scale, &runs);
        bench::write_document(path, &doc).unwrap_or_else(|e| e.exit());
    }
}
