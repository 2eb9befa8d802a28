//! The two-speed `speedup` campaign: the same Table-3 co-run sweep in
//! full timing and functional fast-forward, with a cycle-accuracy
//! report for the functional mode's estimated totals.
//!
//! [`campaign_to_json`] renders the deterministic document behind
//! `speedup --json`: per-point cycle totals (exact or estimated) and the
//! accuracy report. It is byte-identical across `--workers` counts and
//! free of wall-clock readings (guarded by `tests/two_speed_purity.rs`).
//! Host speed is measured by the repository benchmark (`perfbench`),
//! which repeats every run.

use occamy_sim::{MachineStats, SimConfig, SimMode};
use workloads::table3;

use crate::json::Value;
use crate::{geomean, sweep_groups, ArchSweep, SweepGroup};

/// The two modes the campaign compares, in reporting order.
pub fn campaign_modes() -> [(&'static str, SimMode); 2] {
    [("timing", SimMode::Timing), ("functional", SimMode::Functional)]
}

/// One mode's complete sweep over the Table-3 co-run population.
#[derive(Debug, Clone)]
pub struct ModeRun {
    /// Mode label (`"timing"`, `"functional"`).
    pub label: &'static str,
    /// The mode every point ran in.
    pub mode: SimMode,
    /// One sweep per Table-3 pair, four architectures each.
    pub sweeps: Vec<ArchSweep>,
}

/// The cycle total a point stands behind: exact simulated cycles in
/// timing mode, the extrapolated total otherwise.
pub fn effective_cycles(stats: &MachineStats) -> u64 {
    if stats.estimated {
        stats.estimated_cycles
    } else {
        stats.cycles
    }
}

/// Runs the Table-3 sweep once per campaign mode on a shared worker
/// pool and returns the runs in [`campaign_modes`] order.
///
/// # Panics
///
/// Panics like [`crate::runner::run_point`] if any point fails to
/// build or complete.
pub fn run_campaign(scale: f64, workers: usize) -> Vec<ModeRun> {
    let cfg = SimConfig::paper_2core();
    let groups: Vec<SweepGroup> =
        table3::all_pairs(scale).iter().map(|p| SweepGroup::from_pair(p, &cfg)).collect();
    campaign_modes()
        .into_iter()
        .map(|(label, mode)| ModeRun {
            label,
            mode,
            sweeps: sweep_groups(&groups, 1.0, workers, mode),
        })
        .collect()
}

/// One row of the accuracy report: an estimating mode's cycle total for
/// a (pair, architecture) point against the full-timing reference.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyPoint {
    /// Pair label (e.g. `"1+13"`).
    pub label: String,
    /// Architecture short name.
    pub arch: &'static str,
    /// Exact cycles from the timing run.
    pub timing_cycles: u64,
    /// Estimated cycles from the fast mode.
    pub estimated_cycles: u64,
    /// Signed relative error `(estimated - timing) / timing`.
    pub rel_error: f64,
}

/// The accuracy report of one estimating mode against the timing run.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Per-point comparison, in sweep order.
    pub points: Vec<AccuracyPoint>,
    /// Mean of `|rel_error|` over all points.
    pub mean_abs_rel_error: f64,
    /// Worst `|rel_error|` over all points.
    pub max_abs_rel_error: f64,
    /// Geometric mean of `estimated / timing` (1.0 = unbiased).
    pub geomean_ratio: f64,
}

/// Compares an estimating mode's sweeps against the timing reference,
/// point by point.
pub fn accuracy(timing: &[ArchSweep], estimated: &[ArchSweep]) -> AccuracyReport {
    let mut points = Vec::new();
    for (t_sw, e_sw) in timing.iter().zip(estimated) {
        for ((arch, t_stats), (_, e_stats)) in t_sw.results.iter().zip(&e_sw.results) {
            let t = effective_cycles(t_stats);
            let e = effective_cycles(e_stats);
            let rel = if t == 0 { 0.0 } else { (e as f64 - t as f64) / t as f64 };
            points.push(AccuracyPoint {
                label: t_sw.label.clone(),
                arch,
                timing_cycles: t,
                estimated_cycles: e,
                rel_error: rel,
            });
        }
    }
    let n = points.len().max(1) as f64;
    let mean_abs_rel_error = points.iter().map(|p| p.rel_error.abs()).sum::<f64>() / n;
    let max_abs_rel_error = points.iter().map(|p| p.rel_error.abs()).fold(0.0, f64::max);
    let geomean_ratio = geomean(points.iter().map(|p| {
        if p.timing_cycles == 0 {
            1.0
        } else {
            p.estimated_cycles as f64 / p.timing_cycles as f64
        }
    }));
    AccuracyReport { points, mean_abs_rel_error, max_abs_rel_error, geomean_ratio }
}

fn report_to_json(report: &AccuracyReport) -> Value {
    let mut obj = Value::obj();
    obj.push("mean_abs_rel_error", Value::Num(report.mean_abs_rel_error))
        .push("max_abs_rel_error", Value::Num(report.max_abs_rel_error))
        .push("geomean_ratio", Value::Num(report.geomean_ratio));
    let rows = report
        .points
        .iter()
        .map(|p| {
            let mut row = Value::obj();
            row.push("label", Value::Str(p.label.clone()))
                .push("architecture", Value::Str(p.arch.to_owned()))
                .push("timing_cycles", Value::UInt(p.timing_cycles))
                .push("estimated_cycles", Value::UInt(p.estimated_cycles))
                .push("rel_error", Value::Num(p.rel_error));
            row
        })
        .collect();
    obj.push("points", Value::Arr(rows));
    obj
}

/// The deterministic campaign document (`speedup --json`): per-mode,
/// per-point cycle totals and instruction counts, plus one accuracy
/// report per estimating mode. Contains no wall-clock readings, so it
/// is byte-identical across worker counts.
pub fn campaign_to_json(scale: f64, runs: &[ModeRun]) -> Value {
    let mut doc = Value::obj();
    doc.push("experiment", Value::Str("two_speed".to_owned()))
        .push("scale", Value::Num(scale));
    let modes = runs
        .iter()
        .map(|run| {
            let mut mode = Value::obj();
            mode.push("mode", Value::Str(run.label.to_owned()))
                .push("spec", Value::Str(run.mode.to_string()));
            let rows = run
                .sweeps
                .iter()
                .flat_map(|sw| {
                    sw.results.iter().map(|(arch, stats)| {
                        let mut row = Value::obj();
                        row.push("label", Value::Str(sw.label.clone()))
                            .push("architecture", Value::Str((*arch).to_owned()))
                            .push("cycles", Value::UInt(effective_cycles(stats)))
                            .push("estimated", Value::Bool(stats.estimated))
                            .push("functional_insts", Value::UInt(stats.functional_insts));
                        row
                    })
                })
                .collect();
            mode.push("points", Value::Arr(rows));
            mode
        })
        .collect();
    doc.push("modes", Value::Arr(modes));
    let mut acc = Value::obj();
    if let Some(timing) = runs.iter().find(|r| r.mode == SimMode::Timing) {
        for run in runs.iter().filter(|r| r.mode != SimMode::Timing) {
            acc.push(run.label, report_to_json(&accuracy(&timing.sweeps, &run.sweeps)));
        }
    }
    doc.push("accuracy", acc);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_of_identical_sweeps_is_exact() {
        let cfg = SimConfig::paper_2core();
        let group = SweepGroup::from_pair(&table3::all_pairs(0.05)[0], &cfg);
        let sweeps = sweep_groups(&[group], 1.0, 1, SimMode::Timing);
        let report = accuracy(&sweeps, &sweeps);
        assert_eq!(report.points.len(), 4);
        assert_eq!(report.mean_abs_rel_error, 0.0);
        assert_eq!(report.max_abs_rel_error, 0.0);
        assert!((report.geomean_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn functional_mode_marks_every_point_estimated() {
        let cfg = SimConfig::paper_2core();
        let group = SweepGroup::from_pair(&table3::all_pairs(0.05)[0], &cfg);
        let sweeps = sweep_groups(&[group], 1.0, 1, SimMode::Functional);
        for sw in &sweeps {
            for (arch, stats) in &sw.results {
                assert!(stats.estimated, "{arch}: functional run not marked estimated");
                assert!(stats.functional_insts > 0, "{arch}: no insts fast-forwarded");
                assert!(stats.completed, "{arch}: functional run did not complete");
                assert_eq!(effective_cycles(stats), stats.estimated_cycles);
            }
        }
    }
}
