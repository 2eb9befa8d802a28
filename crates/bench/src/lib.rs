//! # Experiment harness
//!
//! Shared machinery for the binaries that regenerate every table and
//! figure of the Occamy evaluation (§7). Each binary prints the paper's
//! reference numbers next to the measured ones; `EXPERIMENTS.md` records
//! a snapshot.
//!
//! All binaries accept `--fast` (quarter-size workloads), `--scale <f>`
//! for custom sizing, `--workers <n>` to pin the simulation worker pool
//! (default: `OCCAMY_WORKERS` or the available parallelism; see
//! [`runner`]), and `--json <path>` to dump the full machine statistics
//! of every simulated point as JSON (see [`json`]). Output on stdout
//! and in the JSON file is byte-identical regardless of worker count.

use std::path::{Path, PathBuf};

use occamy_sim::{Architecture, MachineStats, MetricValue, MetricsRegistry, SimConfig, SimMode};
use workloads::table3::CorunPair;
use workloads::{corun, WorkloadSpec};

pub mod event_kernel;
pub mod json;
pub mod recovery;
pub mod runner;
pub mod two_speed;

use json::Value;
use runner::SweepPoint;

/// Cycle budget per simulation (generous; runs normally finish well
/// under it).
pub const MAX_CYCLES: u64 = 200_000_000;

const USAGE: &str = "--fast, --scale <f>, --workers <n>, --json <path>, --mode timing|functional";

/// Why an experiment binary stops early. Each kind has its own exit
/// status, the same as the `occamy` CLI's: 2 for a malformed command
/// line, 3 for an output file that cannot be written.
#[derive(Debug)]
pub enum BenchError {
    /// A malformed command line; the message names the offending
    /// argument and lists the supported flags.
    Usage(String),
    /// An output document could not be written.
    Write {
        /// The file the binary was asked to write.
        path: PathBuf,
        /// The underlying I/O error.
        error: std::io::Error,
    },
}

impl BenchError {
    /// The process exit status for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            BenchError::Usage(_) => 2,
            BenchError::Write { .. } => 3,
        }
    }

    /// Prints the error to standard error and exits with its status.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(self.exit_code())
    }
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Usage(msg) => f.write_str(msg),
            BenchError::Write { path, error } => {
                write!(f, "cannot write {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for BenchError {}

/// Writes a JSON document to `path` and reports the write on standard
/// error.
///
/// # Errors
///
/// Returns [`BenchError::Write`] if the file cannot be written.
pub fn write_document(path: &Path, doc: &Value) -> Result<(), BenchError> {
    std::fs::write(path, doc.render())
        .map_err(|error| BenchError::Write { path: path.to_path_buf(), error })?;
    eprintln!("[runner] wrote {}", path.display());
    Ok(())
}

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload size multiplier (1.0 = paper-sized).
    pub scale: f64,
    /// Worker threads for the simulation pool (0 = auto-detect).
    pub workers: usize,
    /// Where to dump per-point machine statistics as JSON, if anywhere.
    pub json: Option<PathBuf>,
    /// Simulation mode for every point (two-speed execution). Anything
    /// but [`SimMode::Timing`] makes cycle numbers ESTIMATES.
    pub mode: SimMode,
}

impl Default for Args {
    fn default() -> Self {
        Args { scale: 1.0, workers: 0, json: None, mode: SimMode::Timing }
    }
}

impl Args {
    /// Parses the shared flags from the process arguments. On malformed
    /// arguments it prints a usage message and exits with status 2.
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1))
            .unwrap_or_else(|msg| BenchError::Usage(msg).exit())
    }

    /// Parses the shared flags from an explicit argument list (exposed
    /// so tests can drive the parser without a process boundary).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending argument.
    pub fn parse_from<I>(args: I) -> Result<Args, String>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut parsed = Args::default();
        let mut args = args.into_iter().map(Into::into);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--fast" => parsed.scale = 0.25,
                "--scale" => {
                    let v = args.next().ok_or("--scale needs a value")?;
                    parsed.scale =
                        v.parse().map_err(|_| format!("--scale needs a number, got `{v}`"))?;
                }
                "--workers" => {
                    let v = args.next().ok_or("--workers needs a value")?;
                    parsed.workers =
                        v.parse().map_err(|_| format!("--workers needs a count, got `{v}`"))?;
                }
                "--json" => {
                    let v = args.next().ok_or("--json needs a path")?;
                    parsed.json = Some(PathBuf::from(v));
                }
                "--mode" => {
                    let v = args.next().ok_or("--mode needs a value")?;
                    parsed.mode = SimMode::parse(&v).map_err(|e| format!("--mode: {e}"))?;
                }
                other => return Err(format!("unknown argument `{other}` (supported: {USAGE})")),
            }
        }
        Ok(parsed)
    }

    /// The resolved worker count: the explicit `--workers` value, else
    /// [`runner::default_workers`].
    pub fn workers(&self) -> usize {
        if self.workers == 0 {
            runner::default_workers()
        } else {
            self.workers
        }
    }

    /// Writes `sweeps` as a JSON document to the `--json` path, if one
    /// was given. The document is deterministic: independent of worker
    /// count and free of timestamps or wall-clock readings.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Write`] if the file cannot be written.
    pub fn write_json(&self, experiment: &str, sweeps: &[ArchSweep]) -> Result<(), BenchError> {
        let Some(path) = &self.json else { return Ok(()) };
        write_document(path, &sweeps_to_json(experiment, self.scale, sweeps))
    }
}

/// The four architectures for a given pair of workloads, in Fig. 1
/// order. The VLS partition is chosen by the static oracle of
/// [`corun::vls_partition`].
pub fn architectures(specs: &[WorkloadSpec], cfg: &SimConfig) -> Vec<Architecture> {
    vec![
        Architecture::Private,
        Architecture::TemporalSharing,
        Architecture::StaticSpatialSharing { partition: corun::vls_partition(specs, cfg) },
        Architecture::Occamy,
    ]
}

/// Results of running one workload set on all four architectures.
#[derive(Debug, Clone)]
pub struct ArchSweep {
    /// Pair/group label.
    pub label: String,
    /// `(architecture name, stats)` in Fig. 1 order.
    pub results: Vec<(&'static str, MachineStats)>,
}

impl ArchSweep {
    /// Stats for an architecture by short name.
    ///
    /// # Panics
    ///
    /// Panics if the architecture was not part of the sweep.
    pub fn stats(&self, arch: &str) -> &MachineStats {
        &self.results.iter().find(|(a, _)| *a == arch).expect("architecture in sweep").1
    }

    /// Speedup of `arch` over Private for `core` (ratio of core times).
    /// Points simulated with functional fast-forward have no exact
    /// per-core times; those fall back to the machine-wide ESTIMATED
    /// cycle totals (same value for every `core`).
    pub fn speedup(&self, arch: &str, core: usize) -> f64 {
        let time = |stats: &MachineStats| {
            if stats.estimated {
                stats.estimated_cycles as f64
            } else {
                stats.core_time(core) as f64
            }
        };
        let base = time(self.stats("Private"));
        let t = time(self.stats(arch));
        if t == 0.0 {
            1.0
        } else {
            base / t
        }
    }
}

/// Runs `specs` on every architecture.
///
/// # Panics
///
/// Panics if a machine fails to build or a run does not complete (the
/// experiment would be meaningless otherwise).
pub fn sweep(label: &str, specs: &[WorkloadSpec], cfg: &SimConfig, scale: f64) -> ArchSweep {
    let results = architectures(specs, cfg)
        .into_iter()
        .map(|arch| {
            let name = arch.short_name();
            let mut machine = corun::build_machine(specs, cfg, &arch, scale)
                .unwrap_or_else(|e| panic!("{label}/{name}: {e}"));
            let stats = machine
                .run(MAX_CYCLES)
                .unwrap_or_else(|e| panic!("{label}/{name}: simulation fault: {e}"));
            assert!(stats.completed, "{label}/{name}: exceeded {MAX_CYCLES} cycles");
            (name, stats)
        })
        .collect();
    ArchSweep { label: label.to_owned(), results }
}

/// Runs one co-run pair (Fig. 10/11 row) on every architecture.
pub fn sweep_pair(pair: &CorunPair, cfg: &SimConfig, scale: f64) -> ArchSweep {
    sweep(&pair.label, &pair.workloads, cfg, scale)
}

/// One `(label, workloads, config)` row of a multi-point experiment;
/// [`sweep_groups`] expands each into its four architecture points.
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// Row label for tables and JSON.
    pub label: String,
    /// The co-running workloads, one per core.
    pub specs: Vec<WorkloadSpec>,
    /// The machine configuration for this row.
    pub config: SimConfig,
}

impl SweepGroup {
    /// A group from a Fig. 10/11-style co-run pair.
    pub fn from_pair(pair: &CorunPair, cfg: &SimConfig) -> Self {
        SweepGroup {
            label: pair.label.clone(),
            specs: pair.workloads.to_vec(),
            config: cfg.clone(),
        }
    }
}

/// Runs every group on all four architectures concurrently and returns
/// one [`ArchSweep`] per group, in input order with Fig. 1 architecture
/// order inside each — exactly what serial [`sweep`] calls in a loop
/// would produce, only faster. Prints a wall-time summary to stderr.
///
/// # Panics
///
/// Panics like [`sweep`] if any point fails to build or complete.
pub fn sweep_groups(groups: &[SweepGroup], scale: f64, workers: usize) -> Vec<ArchSweep> {
    sweep_groups_mode(groups, scale, workers, SimMode::Timing)
}

/// [`sweep_groups`] with an explicit [`SimMode`] for every point: the
/// two-speed entry point behind the binaries' `--mode` flag. In
/// [`SimMode::Timing`] this is exactly `sweep_groups` (byte-identical
/// output); other modes trade cycle accuracy for wall-clock speed and
/// mark their cycle totals `estimated`.
///
/// # Panics
///
/// Panics like [`sweep`] if any point fails to build or complete.
pub fn sweep_groups_mode(
    groups: &[SweepGroup],
    scale: f64,
    workers: usize,
    mode: SimMode,
) -> Vec<ArchSweep> {
    let points: Vec<SweepPoint> = groups
        .iter()
        .flat_map(|g| {
            architectures(&g.specs, &g.config).into_iter().map(|arch| SweepPoint {
                label: g.label.clone(),
                specs: g.specs.clone(),
                architecture: arch,
                config: g.config.clone(),
                build_scale: scale,
                mode,
            })
        })
        .collect();
    let workers = workers.max(1).min(points.len().max(1));
    let started = std::time::Instant::now();
    let results = runner::run_points(&points, workers);
    runner::report_wall_time(&results, workers, started.elapsed());

    let per_group = if groups.is_empty() { 0 } else { results.len() / groups.len() };
    results
        .chunks(per_group.max(1))
        .zip(groups)
        .map(|(chunk, group)| ArchSweep {
            label: group.label.clone(),
            results: chunk.iter().map(|p| (p.arch, p.stats.clone())).collect(),
        })
        .collect()
}

/// Parallel counterpart of calling [`sweep_pair`] over `pairs`: all
/// `pairs × architectures` points share one worker pool.
pub fn sweep_pairs(
    pairs: &[CorunPair],
    cfg: &SimConfig,
    scale: f64,
    workers: usize,
) -> Vec<ArchSweep> {
    let groups: Vec<SweepGroup> = pairs.iter().map(|p| SweepGroup::from_pair(p, cfg)).collect();
    sweep_groups(&groups, scale, workers)
}

/// [`sweep_pairs`] with an explicit [`SimMode`] for every point.
pub fn sweep_pairs_mode(
    pairs: &[CorunPair],
    cfg: &SimConfig,
    scale: f64,
    workers: usize,
    mode: SimMode,
) -> Vec<ArchSweep> {
    let groups: Vec<SweepGroup> = pairs.iter().map(|p| SweepGroup::from_pair(p, cfg)).collect();
    sweep_groups_mode(&groups, scale, workers, mode)
}

/// Serializes one [`MachineStats`] to a JSON object. The lane-occupancy
/// timeline is summarised (bucket count only) rather than dumped — it
/// is deterministic but dwarfs everything else; Fig. 2/14 consumers
/// read it from the binaries directly.
pub fn stats_to_json(stats: &MachineStats) -> Value {
    let mut obj = Value::obj();
    obj.push("cycles", Value::UInt(stats.cycles))
        .push("completed", Value::Bool(stats.completed))
        .push("timed_out", Value::Bool(stats.timed_out));
    // Two-speed runs carry extrapolated cycle totals; emitted only when
    // present so pure-timing documents stay byte-identical to pre-two-
    // speed builds.
    if stats.estimated {
        obj.push("estimated", Value::Bool(true))
            .push("estimated_cycles", Value::UInt(stats.estimated_cycles))
            .push("functional_insts", Value::UInt(stats.functional_insts));
    }
    obj.push("total_lanes", Value::UInt(stats.total_lanes as u64))
        .push("simd_utilization", Value::Num(stats.simd_utilization()))
        .push("busy_lane_cycles", Value::Num(stats.total_busy_lane_cycles()))
        .push("timeline_buckets", Value::UInt(stats.timeline.len() as u64));
    let cores = stats
        .cores
        .iter()
        .enumerate()
        .map(|(c, cs)| {
            let t = stats.core_time(c);
            let mut core = Value::obj();
            core.push("runtime_cycles", Value::UInt(t))
                .push("finish_cycle", cs.finish_cycle.map_or(Value::Null, Value::UInt))
                .push("vector_compute_issued", Value::UInt(cs.vector_compute_issued))
                .push("vector_mem_issued", Value::UInt(cs.vector_mem_issued))
                .push("total_vector_issued", Value::UInt(cs.total_vector_issued()))
                .push("scalar_executed", Value::UInt(cs.scalar_executed))
                .push("issue_rate", Value::Num(cs.issue_rate(t)))
                .push("busy_lane_cycles", Value::Num(cs.busy_lane_cycles))
                .push("alloc_lane_cycles", Value::UInt(cs.alloc_lane_cycles))
                .push("avg_lanes_held", Value::Num(cs.avg_lanes_held(t)))
                .push("rename_stall_cycles", Value::UInt(cs.rename_stall_cycles))
                .push("rename_stall_fraction", Value::Num(stats.rename_stall_fraction(c)))
                .push("monitor_cycles", Value::Num(cs.monitor_cycles))
                .push("reconfig_cycles", Value::Num(cs.reconfig_cycles));
            let phases = cs
                .phases
                .iter()
                .map(|p| {
                    let mut phase = Value::obj();
                    phase
                        .push("oi", Value::Num(p.oi.mem()))
                        .push("start_cycle", Value::UInt(p.start_cycle))
                        .push("end_cycle", p.end_cycle.map_or(Value::Null, Value::UInt))
                        .push("duration", Value::UInt(p.duration()))
                        .push("compute_issued", Value::UInt(p.compute_issued))
                        .push("issue_rate", Value::Num(p.issue_rate()))
                        .push(
                            "configured_granules",
                            Value::UInt(p.configured_granules as u64),
                        );
                    phase
                })
                .collect();
            core.push("phases", Value::Arr(phases));
            core
        })
        .collect();
    obj.push("cores", Value::Arr(cores));
    obj.push("metrics", metrics_to_json(&stats.metrics));
    obj
}

/// Serializes a metrics registry to a JSON object, one key per metric
/// in registration order (which is what keeps the document
/// deterministic). Histograms become `{samples, mean, <bucket>...}`
/// sub-objects.
pub fn metrics_to_json(metrics: &MetricsRegistry) -> Value {
    let mut obj = Value::obj();
    for m in metrics.iter() {
        match &m.value {
            MetricValue::Counter(v) => {
                obj.push(&m.name, Value::UInt(*v));
            }
            MetricValue::Gauge(v) => {
                obj.push(&m.name, Value::Num(*v));
            }
            MetricValue::Histogram(h) => {
                let mut hv = Value::obj();
                hv.push("samples", Value::UInt(h.total())).push("mean", Value::Num(h.mean()));
                for (label, count) in h.buckets() {
                    hv.push(&label, Value::UInt(count));
                }
                obj.push(&m.name, hv);
            }
        }
    }
    obj
}

/// Serializes a whole experiment: every sweep, every architecture, with
/// the experiment name and scale at the top for provenance.
pub fn sweeps_to_json(experiment: &str, scale: f64, sweeps: &[ArchSweep]) -> Value {
    let mut doc = Value::obj();
    doc.push("experiment", Value::Str(experiment.to_owned()))
        .push("scale", Value::Num(scale));
    let rows = sweeps
        .iter()
        .map(|sw| {
            let mut row = Value::obj();
            row.push("label", Value::Str(sw.label.clone()));
            let results = sw
                .results
                .iter()
                .map(|(arch, stats)| {
                    let mut point = Value::obj();
                    point
                        .push("architecture", Value::Str((*arch).to_owned()))
                        .push("stats", stats_to_json(stats));
                    point
                })
                .collect();
            row.push("results", Value::Arr(results));
            row
        })
        .collect();
    doc.push("sweeps", Value::Arr(rows));
    doc
}

/// Geometric mean (the paper's average, §7.1). Empty input yields 1.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for v in values {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

/// Prints a rule line for the result tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_from_flags() {
        assert_eq!(Args::parse_from(Vec::<String>::new()).unwrap(), Args::default());
        let args = Args::parse_from(["--fast", "--workers", "3", "--json", "/tmp/x.json"])
            .unwrap();
        assert_eq!(args.scale, 0.25);
        assert_eq!(args.workers, 3);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("/tmp/x.json")));
        let args = Args::parse_from(["--scale", "0.5"]).unwrap();
        assert_eq!(args.scale, 0.5);
        assert_eq!(args.workers(), runner::default_workers());
    }

    #[test]
    fn args_rejects_malformed_input() {
        assert!(Args::parse_from(["--bogus"]).is_err());
        assert!(Args::parse_from(["--scale"]).is_err());
        assert!(Args::parse_from(["--scale", "fast"]).is_err());
        assert!(Args::parse_from(["--workers", "-1"]).is_err());
        assert!(Args::parse_from(["--json"]).is_err());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
        assert!((geomean([1.39]) - 1.39).abs() < 1e-12);
    }

    #[test]
    fn sweep_produces_all_four_architectures() {
        let cfg = SimConfig::paper_2core();
        let pair = &workloads::table3::all_pairs(0.05)[0];
        let sw = sweep_pair(pair, &cfg, 0.05);
        assert_eq!(sw.results.len(), 4);
        for arch in ["Private", "FTS", "VLS", "Occamy"] {
            assert!(sw.stats(arch).completed);
        }
        assert!((sw.speedup("Private", 1) - 1.0).abs() < 1e-12);
    }
}
