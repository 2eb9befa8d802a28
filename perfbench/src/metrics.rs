//! The benchmark's metric catalogue: every name it reports, with its
//! unit, and the result line a run prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `catalogue` test keeps the two in step.

use std::collections::BTreeMap;

use bench::json::Value;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates, success share).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed next to the value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Metrics of untraced runs (`--trace 0`), reported on every workload.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    lower("cpu_s", "s"),
    lower("sim_ns_per_cycle", "ns"),
    lower("sim_ns_per_inst", "ns"),
    lower("point_p50_ms", "ms"),
    lower("point_p90_ms", "ms"),
    lower("peak_rss_mb", "MB"),
    higher("ok_frac", "fraction"),
];

/// Metrics of traced runs (`--trace 1`), reported on every workload; a
/// layer the workload does not exercise reads 0. The `occamyd.*`
/// metrics come from `occamyd-mixed`.
pub const PER_LAYER: &[MetricDef] = &[
    higher("occamy-sim.tick.calls", "count"),
    lower("occamy-sim.tick.self_ms", "ms"),
    lower("occamy-sim.tick.ns_per_call", "ns"),
    higher("occamy-sim.jump.calls", "count"),
    higher("occamy-sim.jump.cycles", "count"),
    lower("occamy-sim.jump.self_ms", "ms"),
    lower("occamy-sim.jump.ns_per_call", "ns"),
    higher("occamy-sim.skip_ratio", "fraction"),
    higher("occamy-sim.cycles", "count"),
    lower("occamy-sim.ns_per_cycle", "ns"),
    higher("occamy-sim.coproc.retired", "count"),
    lower("occamy-sim.ns_per_retired", "ns"),
    higher("occamy-sim.scalar_executed", "count"),
    higher("occamy-sim.vector_compute_issued", "count"),
    higher("occamy-sim.vector_mem_issued", "count"),
    lower("occamy-sim.rename_stall_cycles", "count"),
    higher("occamy-sim.functional.insts", "count"),
    lower("occamy-sim.functional.self_ms", "ms"),
    lower("occamy-sim.functional.ns_per_inst", "ns"),
    lower("lane-manager.replans", "count"),
    higher("mem-sim.veccache.hits", "count"),
    lower("mem-sim.veccache.misses", "count"),
    higher("mem-sim.l2.hits", "count"),
    lower("mem-sim.l2.misses", "count"),
    lower("mem-sim.dram.requests", "count"),
    lower("workloads.build_ms", "ms"),
    lower("occamy-compiler.compile_ms", "ms"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.accounted_ratio", "ratio"),
    lower("occamyd.protocol.encode_us", "us"),
    lower("occamyd.protocol.decode_us", "us"),
    lower("occamyd.reply_overhead_us", "us"),
    higher("occamyd.cache.hits", "count"),
    lower("occamyd.cache.misses", "count"),
    higher("occamyd.cache.hit_ratio", "fraction"),
    higher("occamyd.coalesced", "count"),
    lower("occamyd.queue_us_p50", "us"),
    lower("occamyd.queue_us_p99", "us"),
    lower("occamyd.run_us_p50", "us"),
    lower("occamyd.journal.bytes", "bytes"),
    lower("occamyd.journal.errors", "count"),
    lower("occamyd.shed", "count"),
    lower("occamyd.retries", "count"),
    lower("occamyd.hit_p50_ms", "ms"),
    lower("occamyd.hit_p99_ms", "ms"),
    lower("occamyd.miss_p50_ms", "ms"),
    lower("occamyd.miss_p90_ms", "ms"),
    higher("occamyd.max_rate_jobs_per_s", "jobs/s"),
    lower("occamyd.loadgen_lag_p99_ms", "ms"),
    lower("occamyd.backlog.rung1", "jobs"),
    lower("occamyd.backlog.rung2", "jobs"),
    lower("occamyd.backlog.rung3", "jobs"),
];

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (simulation points or service jobs) attempted.
    pub attempted: u64,
    /// Operations that errored, timed out, were shed or mismatched
    /// their pinned output.
    pub failed: u64,
    /// Human-readable description of each failure.
    pub failures: Vec<String>,
    /// Extra checks that do not belong to one operation (span
    /// accounting, counter identities). Any entry makes the run
    /// incorrect.
    pub check_errors: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty() && self.attempted > 0
    }

    /// Renders the run's result line for the `catalogue` metrics.
    ///
    /// # Errors
    ///
    /// Names the first catalogue metric the run did not measure.
    pub fn result_line(&self, catalogue: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Value::obj();
        for def in catalogue {
            let value = *self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
            let mut entry = Value::obj();
            entry
                .push("value", Value::Num(value))
                .push("unit", Value::Str(def.unit.into()));
            metrics.push(def.name, entry);
        }
        let mut line = Value::obj();
        line.push("correct", Value::Bool(self.correct()))
            .push("attempted", Value::UInt(self.attempted))
            .push("failed", Value::UInt(self.failed))
            .push("metrics", metrics);
        Ok(line.render_compact())
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The host time that stands for one point's (or job's) samples over
/// the passes of a run: their 90th percentile.
///
/// On a host shared with other tenants (a 2-vCPU Xeon VM when the
/// benchmark was sized) the same work runs in two states, contended and
/// up to 1.5 times as fast, which alternate in stretches of seconds to a
/// minute. Which state is the more common changed from hour to hour, so
/// a median or a minimum read fast in some runs and slow in others. The
/// 90th percentile reads the contended state unless that covers less
/// than a tenth of the run. A slower program raises it just as it raises
/// the median.
pub fn p90(values: &[f64]) -> f64 {
    quantile(values, 0.9)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never ran).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A CPU-time clock of `clock_gettime`.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// The calling thread (`CLOCK_THREAD_CPUTIME_ID`).
    Thread,
    /// Every thread of the process (`CLOCK_PROCESS_CPUTIME_ID`).
    Process,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
}

/// CPU time consumed so far on `clock`. Host time is measured as CPU
/// time: it leaves out time the kernel or the hypervisor ran something
/// else (steal time on a shared host) and time blocked in I/O.
pub fn cpu_time(clock: CpuClock) -> std::time::Duration {
    let id = match clock {
        CpuClock::Process => 2,
        CpuClock::Thread => 3,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and both ids
    // are clocks every Linux kernel provides.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed");
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of this process so far in MiB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        for clock in [CpuClock::Thread, CpuClock::Process] {
            let start = cpu_time(clock);
            let mut x = 1u64;
            for i in 0..2_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            assert!(cpu_time(clock) > start, "{clock:?} did not advance");
        }
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(o.result_line(&END_TO_END[..1]).is_err());
        o.set("setup_s", 0.5);
        let line = o.result_line(&END_TO_END[..1]).expect("measured");
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
