//! `speedup`: the two-speed simulation benchmark.
//!
//! Runs the Table-3 co-run population (25 pairs x 4 architectures)
//! three times — full timing, functional fast-forward, and sampled —
//! and reports the wall-clock speedup of the fast modes together with
//! their cycle-accuracy against the timing reference.
//!
//! Flags: the shared harness flags (`--fast`, `--scale`, `--workers`,
//! `--json <path>` for the deterministic campaign document) plus
//! `--bench <path>` to write the machine-dependent benchmark document
//! (campaign + wall-clock readings), the file committed as
//! `BENCH_two_speed.json`, and `--event-kernel <path>` to run the
//! event-kernel comparison (per-cycle reference stepping vs the
//! event-driven kernel, idle-heavy and compute-bound sweeps) and write
//! its benchmark document, committed as `BENCH_event_kernel.json`.

use std::path::Path;

use bench::two_speed::{accuracy, bench_to_json, campaign_to_json, run_campaign};
use bench::{event_kernel, rule, Args};
use occamy_sim::SimMode;

fn usage_error(msg: &str) -> ! {
    eprintln!(
        "speedup: {msg} (flags: the shared harness flags plus --bench <path> \
         and --event-kernel <path>)"
    );
    std::process::exit(2);
}

fn main() {
    // Split our extra flags off before the shared parser sees them.
    let mut bench_out: Option<String> = None;
    let mut event_kernel_out: Option<String> = None;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        if a == "--bench" {
            bench_out = Some(argv.next().unwrap_or_else(|| usage_error("--bench needs a path")));
        } else if a == "--event-kernel" {
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
    let timing_wall = runs
        .iter()
        .find(|r| r.mode == SimMode::Timing)
        .map_or(0.0, |r| r.wall.as_secs_f64());
    let timing_sweeps =
        runs.iter().find(|r| r.mode == SimMode::Timing).map(|r| r.sweeps.clone());

    println!("Two-speed simulation: Table-3 population, {} pair(s)", runs[0].sweeps.len());
    rule(78);
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "mode", "wall s", "speedup", "mean |err|", "max |err|", "gm ratio"
    );
    rule(78);
    for run in &runs {
        let secs = run.wall.as_secs_f64();
        let speedup = if secs > 0.0 { timing_wall / secs } else { 1.0 };
        if run.mode == SimMode::Timing {
            println!(
                "{:<12} {:>10.2} {:>11.1}x {:>12} {:>14} {:>12}",
                run.label, secs, 1.0, "exact", "exact", "1.000"
            );
        } else if let Some(timing) = &timing_sweeps {
            let report = accuracy(timing, &run.sweeps);
            println!(
                "{:<12} {:>10.2} {:>11.1}x {:>11.1}% {:>13.1}% {:>12.3}",
                run.label,
                secs,
                speedup,
                100.0 * report.mean_abs_rel_error,
                100.0 * report.max_abs_rel_error,
                report.geomean_ratio
            );
        }
    }
    rule(78);
    println!(
        "(wall-clock includes machine build; cycle errors compare each mode's\n\
         ESTIMATED totals against the exact timing run, point by point)"
    );

    if let Some(path) = &args.json {
        let doc = campaign_to_json(args.scale, &runs);
        bench::write_document(path, &doc).unwrap_or_else(|e| e.exit());
    }
    if let Some(path) = &bench_out {
        let doc = bench_to_json(args.scale, args.workers(), &runs);
        bench::write_document(Path::new(path), &doc).unwrap_or_else(|e| e.exit());
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
