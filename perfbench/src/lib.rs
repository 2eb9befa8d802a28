//! The repository benchmark: four workloads that stress different
//! layers of the Occamy reproduction, run from one command that checks
//! every output against pinned digests and prints every metric by name
//! with its unit. See `README.md` in this directory.

pub mod digest;
pub mod metrics;
pub mod service;
pub mod sim;
pub mod trace;

use std::path::Path;

use metrics::{MetricDef, Outcome};
use sim::SimWorkload;
use trace::Recorder;

/// Where runs keep their scratch state and span files, relative to the
/// repository root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A simulation workload.
    Sim(SimWorkload),
    /// Mixed `occamyd` traffic.
    OccamydMixed,
}

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Sim(SimWorkload::Fig10Timing),
    Workload::Sim(SimWorkload::DramChase),
    Workload::Sim(SimWorkload::Fig10Functional),
    Workload::OccamydMixed,
];

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(w) => sim::workload_name(w),
            Workload::OccamydMixed => "occamyd-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The metrics a run prints: end-to-end untraced, per-layer traced.
    pub fn catalogue(trace: bool) -> &'static [MetricDef] {
        if trace {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        }
    }

    /// Runs the workload for about `seconds`.
    ///
    /// # Errors
    ///
    /// Returns a message when the run cannot be carried out at all (as
    /// opposed to operations that fail, which the outcome counts).
    pub fn run(
        self,
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Result<(Outcome, Option<Recorder>), String> {
        let (mut out, rec) = match self {
            Workload::Sim(w) => sim::run(w, seed, seconds, trace)?,
            Workload::OccamydMixed => service::run(seed, seconds, trace, Path::new(OUT_DIR))?,
        };
        if trace {
            // Every workload prints every per-layer metric; a layer it
            // does not run (or, inside `occamyd`, cannot reach from
            // outside) reads 0.
            for def in metrics::PER_LAYER {
                out.values.entry(def.name).or_insert(0.0);
            }
        }
        let ok = 1.0 - metrics::ratio(out.failed as f64, out.attempted as f64);
        out.set("ok_frac", ok);
        Ok((out, rec))
    }
}
