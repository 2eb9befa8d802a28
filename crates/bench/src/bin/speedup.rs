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
//! `--json <path>` for the deterministic campaign document) plus
//! `--event-kernel <path>` to run the event-kernel comparison
//! (per-cycle reference stepping vs the event-driven kernel,
//! idle-heavy and compute-bound sweeps) and write its benchmark
//! document, committed as `BENCH_event_kernel.json`.

use std::path::Path;

use bench::two_speed::{accuracy, campaign_to_json, run_campaign};
use bench::{event_kernel, rule, Args};
use occamy_sim::SimMode;

fn usage_error(msg: &str) -> ! {
    eprintln!("speedup: {msg} (flags: the shared harness flags plus --event-kernel <path>)");
    std::process::exit(2);
}

fn main() {
    // Split our extra flag off before the shared parser sees it.
    let mut event_kernel_out: Option<String> = None;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a == "--event-kernel" {
            event_kernel_out =
                Some(argv.next().unwrap_or_else(|| usage_error("--event-kernel needs a path")));
        } else {
            rest.push(a);
        }
    }
    let args = Args::parse_from(rest).unwrap_or_else(|e| usage_error(&e));

    if let Some(path) = &event_kernel_out {
        run_event_kernel_section(args.scale, path);
    }

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

/// The `--event-kernel` section: runs the reference-vs-event-kernel
/// comparison (stats asserted identical point by point) and writes the
/// `BENCH_event_kernel.json` document.
fn run_event_kernel_section(scale: f64, path: &str) {
    println!("Event-driven timing kernel: per-cycle reference vs event kernel");
    rule(78);
    println!(
        "{:<22} {:>12} {:>12} {:>8} {:>10} {:>8}",
        "point", "cycles", "skipped", "skip%", "ref s", "speedup"
    );
    rule(78);
    let points = event_kernel::run_campaign(scale).unwrap_or_else(|e| {
        eprintln!("speedup: event-kernel campaign failed: {e}");
        std::process::exit(1);
    });
    for p in &points {
        println!(
            "{:<22} {:>12} {:>12} {:>7.1}% {:>10.3} {:>7.1}x",
            p.label,
            p.event.cycles,
            p.cycles_skipped,
            100.0 * p.skipped_fraction(),
            p.reference_wall.as_secs_f64(),
            p.wall_speedup()
        );
    }
    rule(78);
    println!(
        "geomean speedup: idle-heavy {:.1}x, compute-bound {:.2}x \
         (stats identical on every point)",
        event_kernel::section_speedup(&points, "idle_heavy"),
        event_kernel::section_speedup(&points, "compute_bound")
    );
    let doc = event_kernel::bench_to_json(scale, &points);
    bench::write_document(Path::new(path), &doc).unwrap_or_else(|e| e.exit());
}
