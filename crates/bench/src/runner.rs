//! Parallel sweep runner: the only code that runs an experiment point.
//!
//! Every evaluation binary replays an embarrassingly-parallel sweep:
//! (workload set × architecture × machine configuration) points whose
//! simulations are independent and deterministic. This module fans the
//! points out over a `std::thread::scope` worker pool and hands the
//! results back **in submission order**, so a binary's printed tables
//! and `--json` trajectories are byte-identical to a serial run — only
//! the wall-clock changes.
//!
//! Layering:
//!
//! - [`run_jobs`] — the generic pool: `jobs` indexed closures, `workers`
//!   threads, results returned as `Vec<T>` in index order. Panics in a
//!   job propagate after the scope joins (an experiment with a failing
//!   point is meaningless).
//! - [`SweepPoint`] / [`run_point`] — the `Machine`-simulation step:
//!   build the point's machine via [`corun::build_machine`], set its
//!   mode, run it to completion and check it completed.
//! - [`run_points`] — [`run_point`] mapped over the pool.
//!
//! Worker count resolution: an explicit `--workers N` wins, otherwise
//! [`std::thread::available_parallelism`]. One worker degenerates to the
//! serial loop (no thread is spawned).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use occamy_sim::{Architecture, MachineStats, SimConfig, SimMode};
use rand::splitmix64;
use workloads::{corun, WorkloadSpec};

use crate::MAX_CYCLES;

/// The worker count used when the caller does not pin one: the
/// machine's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `jobs` independent closures on `workers` threads, returning
/// results in job-index order.
///
/// Jobs are claimed from a shared counter, so long and short points mix
/// freely across workers; the output order is fixed by the index, not
/// by completion time. With `workers <= 1` (or a single job) the pool
/// is bypassed entirely and the jobs run inline, in order.
///
/// # Panics
///
/// A panicking job aborts the whole run once the scope joins.
pub fn run_jobs<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = workers.max(1).min(jobs);
    if workers == 1 {
        return (0..jobs).map(job).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= jobs {
                    break;
                }
                let result = job(index);
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner().expect("result slot poisoned").unwrap_or_else(|| {
                panic!("job {i} produced no result")
            })
        })
        .collect()
}

/// One (workload set × architecture × configuration) simulation job.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Row label (pair/group name) for tables and JSON.
    pub label: String,
    /// The co-running workloads, one per core.
    pub specs: Vec<WorkloadSpec>,
    /// The SIMD-sharing architecture to simulate.
    pub architecture: Architecture,
    /// The machine configuration.
    pub config: SimConfig,
    /// Trip-count multiplier forwarded to [`corun::build_machine`]
    /// (most sweeps bake scaling into `specs` and pass 1.0).
    pub build_scale: f64,
    /// Two-speed simulation mode ([`SimMode::Timing`] for exact cycle
    /// counts; functional mode marks cycles `estimated`).
    pub mode: SimMode,
}

impl SweepPoint {
    /// A point with the common defaults (`build_scale` 1.0, timing mode).
    pub fn new(
        label: impl Into<String>,
        specs: Vec<WorkloadSpec>,
        architecture: Architecture,
        config: SimConfig,
    ) -> Self {
        SweepPoint {
            label: label.into(),
            specs,
            architecture,
            config,
            build_scale: 1.0,
            mode: SimMode::Timing,
        }
    }
}

/// The outcome of one [`SweepPoint`].
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The submitting point's label.
    pub label: String,
    /// Architecture short name (`"Private"`, `"FTS"`, `"VLS"`, `"Occamy"`).
    pub arch: &'static str,
    /// Full simulation statistics.
    pub stats: MachineStats,
}

/// Runs one point: builds its machine, sets its mode and simulates it
/// to completion.
///
/// # Panics
///
/// Panics if the machine fails to build, the run faults or it exceeds
/// [`MAX_CYCLES`] (the experiment would be meaningless otherwise).
pub fn run_point(point: &SweepPoint) -> MachineStats {
    let name = point.architecture.short_name();
    let mut machine =
        corun::build_machine(&point.specs, &point.config, &point.architecture, point.build_scale)
            .unwrap_or_else(|e| panic!("{}/{name}: {e}", point.label));
    // The mode is set on the freshly built machine, before its first
    // cycle, so it cannot be refused for having run.
    machine.set_mode(point.mode).unwrap_or_else(|e| panic!("{}/{name}: {e}", point.label));
    let stats = machine
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{}/{name}: simulation fault: {e}", point.label));
    assert!(stats.completed, "{}/{name}: exceeded {MAX_CYCLES} cycles", point.label);
    stats
}

/// Executes every point on the pool through [`run_point`]; results come
/// back in submission order.
///
/// # Panics
///
/// Panics like [`run_point`] if any point fails.
pub fn run_points(points: &[SweepPoint], workers: usize) -> Vec<PointResult> {
    run_jobs(points.len(), workers, |i| {
        let point = &points[i];
        PointResult {
            label: point.label.clone(),
            arch: point.architecture.short_name(),
            stats: run_point(point),
        }
    })
}

/// Why a retried job failed. Unlike [`run_points`], which panics (and
/// therefore poisons the whole sweep), the recovery campaign reports
/// per-job failures through [`run_with_retry`], so a watchdog-tripped
/// or faulted point shows up as a failed row in `--json` output while
/// the rest of the sweep stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// The machine could not be built (bad spec/config). Deterministic —
    /// never retried.
    Build(String),
    /// The run exceeded the per-job cycle budget without completing.
    TimedOut {
        /// Cycles consumed when the budget ran out.
        cycles: u64,
    },
    /// The machine tripped a typed simulation fault.
    Faulted {
        /// [`SimError::kind`](occamy_sim::SimError::kind) of the fault.
        kind: &'static str,
        /// Full fault message.
        detail: String,
    },
}

impl JobFailure {
    /// Short machine-readable outcome tag for JSON rows.
    pub fn kind(&self) -> &'static str {
        match self {
            JobFailure::Build(_) => "build",
            JobFailure::TimedOut { .. } => "timed_out",
            JobFailure::Faulted { kind, .. } => kind,
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Build(e) => write!(f, "build failed: {e}"),
            JobFailure::TimedOut { cycles } => {
                write!(f, "timed out after {cycles} cycles")
            }
            JobFailure::Faulted { detail, .. } => write!(f, "faulted: {detail}"),
        }
    }
}

/// Deterministic seeded exponential backoff with jitter, applied
/// between retry attempts.
///
/// The *schedule* is a pure function of `(seed, salt, attempt)`: the
/// delay before retry `attempt` is drawn uniformly (SplitMix64) from
/// `[ceiling/2, ceiling]` where `ceiling = min(base_us << attempt,
/// cap_us)` — AWS-style "equal jitter", so concurrent retries of many
/// jobs decorrelate but every delay keeps an exponential floor. Only
/// the wall-clock is affected; simulation output never depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Delay scale in microseconds for the first retry (0 disables
    /// backoff entirely: retries are immediate).
    pub base_us: u64,
    /// Upper bound on any single delay, in microseconds.
    pub cap_us: u64,
    /// Seed of the jitter stream. Combined with the caller's per-job
    /// `salt` so identical policies still spread across jobs.
    pub seed: u64,
}

impl BackoffPolicy {
    /// No backoff: retries run immediately (the pre-backoff behaviour,
    /// used by deterministic campaign sweeps where waiting buys
    /// nothing).
    pub fn none() -> Self {
        BackoffPolicy { base_us: 0, cap_us: 0, seed: 0 }
    }

    /// The deterministic delay before retry number `attempt` (1-based:
    /// the delay *after* attempt `attempt - 1` failed) for the job
    /// identified by `salt`.
    pub fn delay(&self, salt: u64, attempt: u32) -> Duration {
        if self.base_us == 0 {
            return Duration::ZERO;
        }
        let shift = attempt.saturating_sub(1).min(20);
        let ceiling = self
            .base_us
            .saturating_mul(1u64 << shift)
            .min(self.cap_us.max(self.base_us));
        let stream = splitmix64(
            self.seed ^ salt.rotate_left(17) ^ (u64::from(attempt) << 32),
        );
        let floor = ceiling / 2;
        Duration::from_micros(floor + stream % (ceiling - floor + 1))
    }
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        // Small scale: simulation jobs run for milliseconds, so a
        // 200 µs..20 ms window spreads retry storms without stalling
        // an interactive sweep.
        BackoffPolicy { base_us: 200, cap_us: 20_000, seed: 0x0cca_a17e }
    }
}

/// What [`run_with_retry`] did: how many attempts ran, how long the
/// schedule slept between them, and the first success or last failure.
#[derive(Debug, Clone)]
pub struct RetryOutcome<T, E> {
    /// Attempts consumed (1 on first-try success).
    pub attempts: u32,
    /// Total wall-clock spent sleeping in backoff (zero when the first
    /// attempt succeeds or the failure is not retryable).
    pub backoff_waited: Duration,
    /// The first success, or the error that stopped the loop.
    pub result: Result<T, E>,
}

/// Runs `attempt` up to `max_attempts` times with deterministic seeded
/// exponential backoff (plus jitter) between attempts, returning the
/// attempt count, total backoff slept, and the first success (or the
/// last failure).
///
/// `retryable` classifies failures: a non-retryable error (e.g. a
/// deterministic build failure, where retrying cannot help) stops the
/// loop immediately with no backoff. The attempt index is passed to
/// `attempt` so callers can re-salt per-attempt state (e.g. a fault
/// seed); `salt` decorrelates the jitter streams of concurrent jobs
/// sharing one policy.
pub fn run_with_retry<T, E>(
    max_attempts: u32,
    backoff: &BackoffPolicy,
    salt: u64,
    retryable: impl Fn(&E) -> bool,
    mut attempt: impl FnMut(u32) -> Result<T, E>,
) -> RetryOutcome<T, E> {
    let tries = max_attempts.max(1);
    let mut waited = Duration::ZERO;
    let mut a = 0;
    loop {
        match attempt(a) {
            Ok(v) => {
                return RetryOutcome { attempts: a + 1, backoff_waited: waited, result: Ok(v) }
            }
            Err(e) => {
                if !retryable(&e) || a + 1 == tries {
                    return RetryOutcome {
                        attempts: a + 1,
                        backoff_waited: waited,
                        result: Err(e),
                    };
                }
                let delay = backoff.delay(salt, a + 1);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                    waited += delay;
                }
                a += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1, 2, 7] {
            let out = run_jobs(23, workers, |i| {
                // Stagger completion so later jobs finish earlier.
                std::thread::sleep(Duration::from_micros(((23 - i) * 37) as u64));
                i * 10
            });
            assert_eq!(out, (0..23).map(|i| i * 10).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn zero_jobs_yield_nothing() {
        let out: Vec<u32> = run_jobs(0, 8, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn retry_helper_short_circuits_build_failures_and_reports_attempts() {
        let retryable = |e: &JobFailure| !matches!(e, JobFailure::Build(_));
        let out = run_with_retry(5, &BackoffPolicy::none(), 0, retryable, |_| {
            Err::<(), _>(JobFailure::Build("bad spec".into()))
        });
        assert_eq!(out.attempts, 1, "build failures are deterministic: no retry");
        assert_eq!(out.backoff_waited, Duration::ZERO);
        assert_eq!(out.result.unwrap_err().kind(), "build");

        let backoff = BackoffPolicy { base_us: 50, cap_us: 400, seed: 42 };
        let out = run_with_retry(4, &backoff, 9, retryable, |a| {
            if a < 2 {
                Err(JobFailure::TimedOut { cycles: 10 })
            } else {
                Ok(a)
            }
        });
        assert_eq!(out.attempts, 3);
        assert_eq!(out.result.unwrap(), 2, "the succeeding attempt's value comes back");
        let expected: Duration = (1..=2).map(|a| backoff.delay(9, a)).sum();
        assert_eq!(out.backoff_waited, expected, "slept exactly the deterministic schedule");
        assert!(!expected.is_zero());
    }

    #[test]
    fn backoff_schedule_is_deterministic_jittered_and_capped() {
        let p = BackoffPolicy { base_us: 100, cap_us: 1_000, seed: 1 };
        for salt in [0u64, 1, 99] {
            for attempt in 1..=16 {
                let d = p.delay(salt, attempt);
                assert_eq!(d, p.delay(salt, attempt), "pure function of (seed, salt, attempt)");
                let ceiling = (100u64 << (attempt - 1).min(20)).min(1_000);
                let us = d.as_micros() as u64;
                assert!(
                    us >= ceiling / 2 && us <= ceiling,
                    "delay {us}µs outside [{}, {ceiling}]µs at attempt {attempt}",
                    ceiling / 2
                );
            }
        }
        // Different salts see different jitter (decorrelated streams).
        assert_ne!(p.delay(0, 4), p.delay(1, 4));
        // Disabled backoff sleeps nothing.
        assert_eq!(BackoffPolicy::none().delay(3, 5), Duration::ZERO);
    }

    #[test]
    fn pool_matches_serial_for_a_real_sweep_point() {
        let cfg = SimConfig::paper_2core();
        let pair = &workloads::table3::all_pairs(0.05)[0];
        let points: Vec<SweepPoint> = [Architecture::Private, Architecture::Occamy]
            .into_iter()
            .map(|a| SweepPoint::new(&pair.label, pair.workloads.to_vec(), a, cfg.clone()))
            .collect();
        let serial = run_points(&points, 1);
        let parallel = run_points(&points, 2);
        assert_eq!(serial.len(), 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.arch, p.arch);
            assert_eq!(s.stats, p.stats, "{}/{} diverged across worker counts", s.label, s.arch);
        }
    }
}
