//! `occamyd-mixed`: in-process `occamyd::serve` on a Unix socket with a
//! state directory (journal and disk cache live) and two workers. Every
//! job is a Table-3 pair × architecture at scale 0.05.
//!
//! The end-to-end metrics come from a closed loop: one connection
//! submits one job at a time and waits for its terminal reply, so the
//! process CPU time spent meanwhile (client, daemon threads, journal and
//! cache writes) is that job's host cost. Host time is measured as
//! process CPU time: it leaves out the fsync waits and the time the
//! host ran other tenants, which swing from run to run. A pass
//! starts a daemon on an empty state directory and submits every shape
//! once under a job seed drawn for the pass, in a drawn order. Each of
//! these is a miss (queue, simulate, fsync the journal, write the cache
//! file) and is followed by a repeat of a key the pass already
//! completed, a hit served on the read path. The daemon is then
//! restarted on the populated state directory (journal replay and
//! disk-cache reload) until it answers a ping, which times set-up.
//! Every pass does the same work, so latencies compare across passes
//! and runs.
//!
//! Traced runs add an open loop after the closed-loop passes: seeded
//! Poisson arrivals at a fixed ladder of rates over one connection,
//! after a warm set that makes every repeat a hit. Its latency runs
//! from when a job was due to be sent until its terminal reply, so a
//! stalled generator is charged to the jobs it delayed, and the
//! generator's lateness is reported on its own. The ladder measures
//! queueing and the highest sustained rate, which a closed loop never
//! sees; on a shared host its figures swing too much to gate changes,
//! so they are per-layer metrics only.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use bench::json::Value;
use occamy_sim::SimConfig;
use occamyd::{
    serve, CacheConfig, Client, Endpoint, JobSpec, JobTiming, Reply, Request, ServerHandle,
    ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::table3;

use crate::digest::{self, Goldens};
use crate::metrics::{cpu_time, median, p90, peak_rss_mb, quantile, ratio, CpuClock, Outcome};
use crate::sim::{self, SimPoint};
use crate::trace::Recorder;

/// Trip-count multiplier of every job.
pub const JOB_SCALE: f64 = 0.05;
/// Arrival rates of the ladder, in jobs per second.
pub const RUNGS: [f64; 3] = [20.0, 40.0, 80.0];
/// Relative rung lengths: the middle rung, whose latencies are
/// reported, runs twice as long to gather more misses.
const RUNG_WEIGHTS: [f64; 3] = [1.0, 2.0, 1.0];
/// The rung whose latencies are reported.
const MIDDLE: usize = 1;
/// Miss p90 a rung must stay within to count as sustained.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// Service worker threads.
const WORKERS: usize = 2;
/// Job seeds are drawn from `0..SEED_VALUES`; on the ladder, seed 0 is
/// the warm set.
pub const SEED_VALUES: u64 = 8;
/// Tenants the jobs are spread over.
const TENANTS: u64 = 4;
/// Longest rung unit (a weight-1 rung), so that the ladder's fresh keys
/// never run out.
const MAX_UNIT_S: f64 = 7.0;
/// A client gives up after this long without a reply; jobs still
/// unanswered then are failures.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

const ARCHS: [&str; 4] = ["private", "fts", "vls", "occamy"];

/// One job shape: a Table-3 pair on one architecture.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Workload names, one per core.
    pub workloads: Vec<String>,
    /// Index into the Fig. 1 architecture order.
    pub arch: usize,
}

/// The 100 job shapes in canonical order.
pub fn shapes() -> Vec<Shape> {
    table3::all_pairs(1.0)
        .iter()
        .flat_map(|pair| {
            let workloads: Vec<String> = pair.workloads.iter().map(|w| w.label.clone()).collect();
            (0..ARCHS.len()).map(move |arch| Shape {
                workloads: workloads.clone(),
                arch,
            })
        })
        .collect()
}

/// The job spec of `shape` under job seed `seed`.
pub fn job_spec(shape: &Shape, seed: u64) -> JobSpec {
    JobSpec {
        workloads: shape.workloads.clone(),
        arch: ARCHS[shape.arch].into(),
        scale: JOB_SCALE,
        seed,
        ..JobSpec::default()
    }
}

/// One job to submit.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// When the job is due, from the start of its ladder (zero in the
    /// closed loop).
    pub due: Duration,
    /// Index into [`RUNGS`] (zero in the closed loop).
    pub rung: usize,
    /// Whether the key repeats a completed key (a hit) or is new.
    pub hit: bool,
    /// Owning tenant.
    pub tenant: String,
    /// Index into [`shapes`].
    pub shape: usize,
    /// The job.
    pub spec: JobSpec,
}

impl Job {
    /// Shape `shape` under job seed `seed`, due at once.
    fn immediate(shapes: &[Shape], shape: usize, seed: u64, tenant: &str) -> Job {
        Job {
            due: Duration::ZERO,
            rung: 0,
            hit: false,
            tenant: tenant.into(),
            shape,
            spec: job_spec(&shapes[shape], seed),
        }
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn tenant(rng: &mut StdRng) -> String {
    format!("t{}", rng.gen_range(0..TENANTS))
}

/// The jobs of one closed-loop pass, drawn from `rng`: every shape once
/// as a miss under one job seed, in a drawn order, each followed by a
/// hit on a key the pass already completed (itself included).
pub fn pass_jobs(rng: &mut StdRng) -> Vec<Job> {
    let shapes = shapes();
    let job_seed = rng.gen_range(0..SEED_VALUES);
    let mut order: Vec<usize> = (0..shapes.len()).collect();
    shuffle(&mut order, rng);
    let mut jobs = Vec::with_capacity(2 * order.len());
    for (i, &shape) in order.iter().enumerate() {
        let repeat = order[rng.gen_range(0..=i)];
        for (shape, hit) in [(shape, false), (repeat, true)] {
            jobs.push(Job {
                due: Duration::ZERO,
                rung: 0,
                hit,
                tenant: tenant(rng),
                shape,
                spec: job_spec(&shapes[shape], job_seed),
            });
        }
    }
    jobs
}

/// When rung `rung` starts and ends, from the start of the ladder, for
/// a rung unit of `unit_s` seconds.
fn rung_span(rung: usize, unit_s: f64) -> (f64, f64) {
    let start: f64 = RUNG_WEIGHTS[..rung].iter().sum::<f64>() * unit_s;
    (start, start + RUNG_WEIGHTS[rung] * unit_s)
}

/// The ladder's arrival schedule for a rung unit of `unit_s` seconds,
/// drawn from `seed`: Poisson arrivals at each rung's rate, each a hit
/// on the warm set (job seed 0) or a fresh key with equal odds. Fresh
/// keys come without replacement from job seeds `1..SEED_VALUES`.
pub fn schedule(seed: u64, unit_s: f64) -> Vec<Job> {
    let shapes = shapes();
    let mut rng = StdRng::seed_from_u64(seed);
    // Fresh keys: one seeded permutation of every shape per job seed, so
    // any run of consecutive misses covers the shapes evenly.
    let mut fresh: Vec<(usize, u64)> = Vec::new();
    for job_seed in 1..SEED_VALUES {
        let mut block: Vec<usize> = (0..shapes.len()).collect();
        shuffle(&mut block, &mut rng);
        fresh.extend(block.into_iter().map(|shape| (shape, job_seed)));
    }
    let mut jobs = Vec::new();
    for (rung, rate) in RUNGS.iter().enumerate() {
        let (start, end) = rung_span(rung, unit_s);
        let mut t = start;
        loop {
            t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
            if t >= end {
                break;
            }
            let tenant = tenant(&mut rng);
            let drawn = if rng.gen_bool(0.5) { None } else { fresh.pop() };
            let (shape, job_seed) = drawn.unwrap_or((rng.gen_range(0..shapes.len()), 0));
            jobs.push(Job {
                due: Duration::from_secs_f64(t),
                rung,
                hit: job_seed == 0,
                tenant,
                shape,
                spec: job_spec(&shapes[shape], job_seed),
            });
        }
    }
    jobs
}

/// What the client saw of one job.
#[derive(Debug, Default)]
struct Seen {
    sent: Option<Instant>,
    done: Option<Instant>,
    /// Process CPU time from sending to the terminal reply (closed loop,
    /// where no other job is in flight).
    cpu: Duration,
    /// Client-side `Request::to_line` time (closed-loop traced passes).
    encode: Duration,
    /// Client-side `Reply::parse_line` time over the job's replies.
    decode: Duration,
    lines: u64,
    timing: Option<JobTiming>,
    cached: bool,
    /// Digest of the result payload.
    digest: Option<u64>,
    /// The result payload, kept for misses (their work counts).
    payload: Option<Value>,
    error: Option<String>,
}

impl Seen {
    /// Takes in one reply for this job, received at `now` and parsed in
    /// `decode`.
    fn absorb(&mut self, reply: Reply, now: Instant, decode: Duration) {
        self.lines += 1;
        self.decode += decode;
        if !reply.is_terminal() || self.done.is_some() {
            return;
        }
        self.done = Some(now);
        match reply {
            Reply::Result {
                cached,
                timing,
                payload,
                ..
            } => {
                self.cached = cached;
                self.timing = timing;
                self.digest = Some(digest::json_digest(&payload));
                if !cached {
                    self.payload = Some(payload);
                }
            }
            Reply::Error { kind, detail, .. } => self.error = Some(format!("{kind}: {detail}")),
            Reply::Shed { kind, .. } => self.error = Some(format!("shed: {kind}")),
            _ => {}
        }
    }

    /// Client latency from sending to the terminal reply, in ms.
    fn latency_ms(&self) -> Option<f64> {
        Some(ms(self.done?.saturating_duration_since(self.sent?)))
    }
}

/// Reads one reply line; `None` at end of stream or on a read error
/// other than a timeout. A timeout leaves any partial line in `line`,
/// and the next read completes it.
fn read_reply(reader: &mut impl BufRead, line: &mut String) -> Option<Option<(Reply, Duration)>> {
    match reader.read_line(line) {
        Ok(0) => None,
        Ok(_) => {
            let t = Instant::now();
            let reply = Reply::parse_line(line.trim_end());
            let decode = t.elapsed();
            line.clear();
            Some(reply.ok().map(|r| (r, decode)))
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Some(None)
        }
        Err(_) => None,
    }
}

/// A closed-loop client: one request at a time, each answered in full
/// before the next is sent.
struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn connect(endpoint: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Submits `job` under `id` and reads replies until its terminal
    /// one. A failure to send or receive leaves `done` unset.
    fn call(&mut self, job: &Job, id: &str) -> Seen {
        let mut seen = Seen::default();
        let request = Request::Submit {
            tenant: job.tenant.clone(),
            id: id.to_owned(),
            job: job.spec.clone(),
        };
        let cpu = cpu_time(CpuClock::Process);
        let t = Instant::now();
        let mut line = request.to_line();
        seen.encode = t.elapsed();
        seen.sent = Some(t);
        line.push('\n');
        if let Err(e) = self.writer.write_all(line.as_bytes()) {
            seen.error = Some(format!("send: {e}"));
            return seen;
        }
        line.clear();
        while seen.done.is_none() {
            match read_reply(&mut self.reader, &mut line) {
                Some(Some((reply, decode))) if reply.id() == Some(id) => {
                    seen.absorb(reply, Instant::now(), decode);
                }
                Some(_) => {}
                None => {
                    seen.error = Some("no terminal reply".into());
                    break;
                }
            }
        }
        seen.cpu = cpu_time(CpuClock::Process).saturating_sub(cpu);
        seen
    }
}

/// Submits `jobs` over one connection in an open loop, each when due
/// (relative to the returned base instant), and collects every reply.
/// One thread sends, the calling thread receives.
fn drive(endpoint: &Path, jobs: &[Job], tag: &str) -> Result<(Instant, Vec<Seen>), String> {
    let stream = UnixStream::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let ids: Vec<String> = (0..jobs.len()).map(|i| format!("{tag}{i}")).collect();
    let index: HashMap<&str, usize> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| (id.as_str(), i))
        .collect();
    let mut seen: Vec<Seen> = jobs.iter().map(|_| Seen::default()).collect();
    let base = Instant::now() + Duration::from_millis(20);
    let sent = std::thread::scope(|s| {
        let ids = &ids;
        let sender = s.spawn(move || -> Result<Vec<Instant>, String> {
            let mut out = Vec::with_capacity(jobs.len());
            for (job, id) in jobs.iter().zip(ids) {
                let at = base + job.due;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let t = Instant::now();
                let request = Request::Submit {
                    tenant: job.tenant.clone(),
                    id: id.clone(),
                    job: job.spec.clone(),
                };
                let mut line = request.to_line();
                line.push('\n');
                writer
                    .write_all(line.as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                out.push(t);
            }
            Ok(out)
        });
        let mut reader = BufReader::new(&stream);
        let mut pending = jobs.len();
        let mut line = String::new();
        let mut last_progress = Instant::now();
        while pending > 0 && last_progress.elapsed() < REPLY_TIMEOUT {
            let (reply, decode) = match read_reply(&mut reader, &mut line) {
                Some(Some(r)) => r,
                Some(None) => continue,
                None => break,
            };
            last_progress = Instant::now();
            let Some(&i) = reply.id().and_then(|id| index.get(id)) else {
                continue;
            };
            let was_done = seen[i].done.is_some();
            seen[i].absorb(reply, last_progress, decode);
            if !was_done && seen[i].done.is_some() {
                pending -= 1;
            }
        }
        let sent = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?;
        // Unblock the server's reader for this connection.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        sent
    })?;
    for (job, t) in seen.iter_mut().zip(sent) {
        job.sent = Some(t);
    }
    Ok((base, seen))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Starts the daemon and waits until it answers a ping; returns the
/// handle and the process CPU time that took.
fn start(endpoint: &Endpoint, config: &ServiceConfig) -> Result<(ServerHandle, Duration), String> {
    let cpu = cpu_time(CpuClock::Process);
    let handle = serve(endpoint, config.clone())?;
    let mut client = Client::connect(endpoint)?;
    client.send(&Request::Ping)?;
    match client.recv()? {
        Reply::Pong => Ok((handle, cpu_time(CpuClock::Process).saturating_sub(cpu))),
        other => Err(format!("ping answered with {other:?}")),
    }
}

/// The daemon's statistics snapshot.
fn stats(endpoint: &Endpoint) -> Result<Value, String> {
    let mut client = Client::connect(endpoint)?;
    client.send(&Request::Stats {
        tenant: None,
        prefix: None,
    })?;
    match client.recv()? {
        Reply::Stats { payload } => Ok(payload),
        other => Err(format!("stats answered with {other:?}")),
    }
}

fn stat(payload: &Value, name: &str) -> f64 {
    payload
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Checks the daemon's statistics for a cache verification mismatch.
fn check_stats(out: &mut Outcome, stats: &Value) {
    if stat(stats, "sim.cache.verify_mismatch") != 0.0 {
        out.check_errors
            .push("cache verification found a mismatching payload".into());
    }
}

/// Simulated cycles and instructions of a job payload.
fn payload_work(payload: &Value) -> (u64, u64) {
    let cycles = payload.get("cycles").and_then(Value::as_u64).unwrap_or(0);
    let insts = payload.get("cores").map_or(0, |cores| {
        cores
            .items()
            .iter()
            .flat_map(|c| {
                [
                    "scalar_executed",
                    "vector_compute_issued",
                    "vector_mem_issued",
                ]
                .map(|f| c.get(f))
            })
            .filter_map(|v| v.and_then(Value::as_u64))
            .sum()
    });
    (cycles, insts)
}

/// The scratch directory and socket of one run's daemons; removed on
/// drop.
pub struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
}

impl Daemon {
    /// Makes a fresh scratch directory under `out_dir`.
    ///
    /// # Errors
    ///
    /// Returns a message when the directory cannot be created.
    pub fn new(out_dir: &Path) -> Result<Daemon, String> {
        let dir = out_dir.join(format!("occamyd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Daemon {
            socket: dir.join("d.sock"),
            dir,
        })
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Unix(self.socket.clone())
    }

    fn state_dir(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn config(&self, state: &str) -> ServiceConfig {
        ServiceConfig {
            workers: WORKERS,
            state_dir: Some(self.state_dir(state)),
            // Room for every key of a ladder, so a repeat is always a hit.
            // No sampled re-runs of hits: a re-run would overlap the next
            // job and be charged to it.
            cache: CacheConfig {
                max_entries: 4096,
                verify_every: 0,
            },
            ..ServiceConfig::default()
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One miss of a closed-loop pass.
#[derive(Debug, Clone, Copy)]
pub struct Miss {
    /// Index into [`shapes`].
    pub shape: usize,
    /// Process CPU time from sending to the terminal reply, in ms.
    pub cpu_ms: f64,
    /// Simulated cycles of the result.
    pub cycles: u64,
    /// Simulated instructions of the result.
    pub insts: u64,
}

/// Figures of one closed-loop pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every answered miss.
    pub misses: Vec<Miss>,
    /// Process CPU time of each answered hit, in ms.
    pub hit_cpu_ms: Vec<f64>,
    /// From the first send to the last terminal reply.
    pub wall: Duration,
    /// Process CPU time of the restart on the populated state directory
    /// until a ping answers.
    pub restart: Duration,
    /// Client-side protocol calls: encode and decode time, and replies.
    pub encode: Duration,
    /// See `encode`.
    pub decode: Duration,
    /// See `encode`.
    pub lines: u64,
    /// Client latency minus the service's `queue_us + run_us`, per job.
    pub overhead_us: Vec<f64>,
    /// Deterministic work counts of the misses' simulations, by
    /// per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
    /// Leaf spans of a traced pass: build and compile re-timed for the
    /// misses after the pass, and protocol time.
    pub build: Duration,
    /// See `build`.
    pub compile: Duration,
}

/// Runs `jobs` through a daemon started on an empty state directory,
/// one at a time under ids prefixed with `tag`, then restarts it on the
/// populated state directory. Every job is checked against its pinned
/// digest. When `rec` is given, the pass records its spans and re-times
/// the misses' build and compile work after the pass.
///
/// # Errors
///
/// Returns a message when the daemon cannot be started or reached.
pub fn closed_loop_pass(
    daemon: &Daemon,
    jobs: &[Job],
    tag: &str,
    goldens: &Goldens,
    out: &mut Outcome,
    rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let state = "pass";
    let config = daemon.config(state);
    let endpoint = daemon.endpoint();
    let (mut handle, _) = start(&endpoint, &config)?;
    let mut conn = Conn::connect(&daemon.socket)?;
    let ids: Vec<String> = (0..jobs.len()).map(|i| format!("{tag}j{i}")).collect();
    let seen: Vec<Seen> = jobs
        .iter()
        .zip(&ids)
        .map(|(job, id)| conn.call(job, id))
        .collect();
    drop(conn);
    let snapshot = stats(&endpoint)?;
    handle.stop();
    check_stats(out, &snapshot);
    check(out, goldens, jobs, &seen);

    let (mut again, restart) = start(&endpoint, &config)?;
    again.stop();
    let _ = std::fs::remove_dir_all(daemon.state_dir(state));
    let mut pass = Pass {
        restart,
        ..Pass::default()
    };
    let first = seen.iter().filter_map(|s| s.sent).min();
    let last = seen.iter().filter_map(|s| s.done).max();
    if let (Some(a), Some(b)) = (first, last) {
        pass.wall = b.saturating_duration_since(a);
    }
    for (job, s) in jobs.iter().zip(&seen) {
        let Some(latency) = s.latency_ms() else {
            continue;
        };
        pass.encode += s.encode;
        pass.decode += s.decode;
        pass.lines += s.lines;
        if let Some(t) = s.timing {
            pass.overhead_us
                .push(latency * 1e3 - (t.queue_us + t.run_us) as f64);
        }
        if job.hit {
            pass.hit_cpu_ms.push(ms(s.cpu));
            continue;
        }
        let (cycles, insts) = s.payload.as_ref().map_or((0, 0), payload_work);
        pass.misses.push(Miss {
            shape: job.shape,
            cpu_ms: ms(s.cpu),
            cycles,
            insts,
        });
        if let Some(p) = &s.payload {
            sim::add_counts(&mut pass.counts, p);
        }
    }
    if let Some(rec) = rec {
        record_spans(rec, jobs, &ids, &seen, &mut pass, out);
    }
    Ok(pass)
}

/// Counts every job whose terminal reply was missing, an error, a shed
/// or a payload differing from the digest pinned for its key.
fn check(out: &mut Outcome, goldens: &Goldens, jobs: &[Job], seen: &[Seen]) {
    for (i, (job, s)) in jobs.iter().zip(seen).enumerate() {
        out.attempted += 1;
        let pinned = goldens
            .get(&format!("{:016x}", job.spec.key_hash()))
            .map(|d| d[0]);
        let problem = if let Some(e) = &s.error {
            Some(e.clone())
        } else if s.done.is_none() {
            Some("no terminal reply".to_owned())
        } else if s.digest != pinned {
            Some("payload differs from the digest pinned for its key".to_owned())
        } else {
            None
        };
        if let Some(p) = problem {
            out.fail(format!("job {i} ({}): {p}", job.spec.canonical_key()));
        }
    }
}

/// Records a traced pass's spans: one per job from send to terminal
/// reply, with its protocol encode and decode calls, and (for misses)
/// the build and compile work the job needed, timed again here after
/// the pass so that it does not load the service.
fn record_spans(
    rec: &mut Recorder,
    jobs: &[Job],
    ids: &[String],
    seen: &[Seen],
    pass: &mut Pass,
    out: &mut Outcome,
) {
    let first = seen.iter().filter_map(|s| s.sent).min();
    let last = seen.iter().filter_map(|s| s.done).max();
    let (Some(first), Some(last)) = (first, last) else {
        return;
    };
    let shapes = shapes();
    let cfg = SimConfig::paper_2core();
    let root = rec.record("workload", "occamyd-mixed", None, first, last);
    for ((job, id), s) in jobs.iter().zip(ids).zip(seen) {
        let (Some(sent), Some(done)) = (s.sent, s.done) else {
            continue;
        };
        let span = rec.record("job", id, Some(root), sent, done);
        rec.aggregate(
            "protocol.encode",
            id,
            Some(span),
            sent,
            sent + s.encode,
            1,
            s.encode,
        );
        rec.aggregate(
            "protocol.decode",
            id,
            Some(span),
            sent,
            done,
            s.lines,
            s.decode,
        );
        if job.hit {
            continue;
        }
        let specs = match occamyd::service::resolve_workloads(&job.spec) {
            Ok(specs) => specs,
            Err(e) => {
                out.check_errors.push(e);
                continue;
            }
        };
        let arch = bench::architectures(&specs, &cfg).swap_remove(shapes[job.shape].arch);
        let point = SimPoint::corun(id.clone(), specs, arch, JOB_SCALE);
        let t0 = Instant::now();
        let built = point.build();
        let t1 = Instant::now();
        rec.record("build", id, Some(span), t0, t1);
        pass.build += t1 - t0;
        match (built, point.compile()) {
            (Ok(_), Ok(Some(c))) => {
                rec.aggregate(
                    "compile",
                    id,
                    Some(span),
                    c.start,
                    c.end,
                    c.programs.len() as u64,
                    c.busy,
                );
                pass.compile += c.busy;
            }
            (Err(e), _) | (_, Err(e)) => out.check_errors.push(e),
            _ => {}
        }
    }
}

/// Latency and backlog figures of the ladder.
struct LadderReport {
    miss_ms: Vec<Vec<f64>>,
    hit_ms: Vec<Vec<f64>>,
    backlog: Vec<u64>,
    lag_ms: Vec<f64>,
}

impl LadderReport {
    fn new(jobs: &[Job], seen: &[Seen], base: Instant, unit_s: f64) -> Self {
        let mut miss_ms = vec![Vec::new(); RUNGS.len()];
        let mut hit_ms = vec![Vec::new(); RUNGS.len()];
        let mut lag_ms = Vec::new();
        for (job, s) in jobs.iter().zip(seen) {
            let due = base + job.due;
            if let Some(sent) = s.sent {
                lag_ms.push(ms(sent.saturating_duration_since(due)));
            }
            if let Some(done) = s.done {
                let bucket = if job.hit { &mut hit_ms } else { &mut miss_ms };
                bucket[job.rung].push(ms(done.saturating_duration_since(due)));
            }
        }
        // Backlog at the end of each rung: jobs due by then and not yet
        // answered.
        let backlog = (0..RUNGS.len())
            .map(|r| {
                let end = base + Duration::from_secs_f64(rung_span(r, unit_s).1);
                jobs.iter()
                    .zip(seen)
                    .filter(|(j, s)| base + j.due < end && s.done.is_none_or(|d| d > end))
                    .count() as u64
            })
            .collect();
        LadderReport {
            miss_ms,
            hit_ms,
            backlog,
            lag_ms,
        }
    }

    /// The highest rate of the ladder up to which every rung kept miss
    /// p90 within the limit and ended with no more jobs outstanding than
    /// that latency allows.
    fn max_rate(&self) -> f64 {
        let mut best = 0.0;
        for (r, rate) in RUNGS.iter().enumerate() {
            let allowed = (rate * LATENCY_LIMIT_MS / 1e3).ceil() as u64 + WORKERS as u64;
            if quantile(&self.miss_ms[r], 0.9) > LATENCY_LIMIT_MS || self.backlog[r] > allowed {
                break;
            }
            best = *rate;
        }
        best
    }
}

/// What the ladder saw.
struct Ladder {
    jobs: Vec<Job>,
    seen: Vec<Seen>,
    report: LadderReport,
    stats: Value,
}

/// The open-loop ladder of a traced run: a daemon on an empty state
/// directory, the warm set (every shape under job seed 0), then the
/// schedule drawn from `seed`, its rungs sized to end within about
/// `seconds`.
fn ladder(
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    goldens: &Goldens,
    out: &mut Outcome,
) -> Result<Ladder, String> {
    let t = Instant::now();
    let config = daemon.config("ladder");
    let endpoint = daemon.endpoint();
    let (mut handle, _) = start(&endpoint, &config)?;
    let shapes = shapes();
    let warm: Vec<Job> = (0..shapes.len())
        .map(|i| Job::immediate(&shapes, i, 0, "warm"))
        .collect();
    let (_, seen) = drive(&daemon.socket, &warm, "w")?;
    check(out, goldens, &warm, &seen);
    let weights: f64 = RUNG_WEIGHTS.iter().sum();
    let unit_s = ((seconds - t.elapsed().as_secs_f64()) / weights).clamp(0.25, MAX_UNIT_S);
    let jobs = schedule(seed, unit_s);
    let (base, seen) = drive(&daemon.socket, &jobs, "l")?;
    check(out, goldens, &jobs, &seen);
    let stats = stats(&endpoint)?;
    handle.stop();
    check_stats(out, &stats);
    let report = LadderReport::new(&jobs, &seen, base, unit_s);
    for (r, rate) in RUNGS.iter().enumerate() {
        eprintln!(
            "[perfbench] occamyd-mixed ladder {rate} jobs/s: {} misses p50 {:.2} ms p90 {:.2} ms, {} hits p50 {:.3} ms, backlog at end {}",
            report.miss_ms[r].len(),
            quantile(&report.miss_ms[r], 0.5),
            quantile(&report.miss_ms[r], 0.9),
            report.hit_ms[r].len(),
            quantile(&report.hit_ms[r], 0.5),
            report.backlog[r],
        );
    }
    Ok(Ladder {
        jobs,
        seen,
        report,
        stats,
    })
}

/// Runs `occamyd-mixed` for about `seconds`: closed-loop passes, or (traced)
/// untraced and traced closed-loop passes alternating for half the time,
/// then the ladder.
///
/// # Errors
///
/// Returns a message when the daemon cannot be started or reached.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Result<(Outcome, Option<Recorder>), String> {
    let goldens = Goldens::parse(digest::OCCAMYD)?;
    let daemon = Daemon::new(out_dir)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Outcome::default();
    let mut rec = Recorder::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let started = Instant::now();
    loop {
        let tracing = trace && passes.len() > traced.len();
        if !tracing && started.elapsed().as_secs_f64() >= budget && !passes.is_empty() {
            break;
        }
        let tag = format!("p{}", passes.len() + traced.len());
        let jobs = pass_jobs(&mut rng);
        if tracing {
            let pass = closed_loop_pass(&daemon, &jobs, &tag, &goldens, &mut out, Some(&mut rec))?;
            traced.push(pass);
        } else {
            passes.push(closed_loop_pass(
                &daemon, &jobs, &tag, &goldens, &mut out, None,
            )?);
            if passes.len() == 1 {
                // Later passes start new daemon threads, and the
                // allocator may give them fresh arenas: the high-water
                // mark after them measures the allocator, not the work.
                out.set("peak_rss_mb", peak_rss_mb());
            }
        }
    }

    // Each shape's miss time is its 90th percentile over the passes, and
    // the pass figures are built from these. Its simulated work, which
    // depends on the job seed a pass draws, is its median.
    let mut by_shape: BTreeMap<usize, Vec<Miss>> = BTreeMap::new();
    for p in &passes {
        for m in &p.misses {
            by_shape.entry(m.shape).or_default().push(*m);
        }
    }
    let per_shape = |stat: fn(&[f64]) -> f64, f: fn(&Miss) -> f64| -> Vec<f64> {
        by_shape
            .values()
            .map(|v| stat(&v.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let point_ms = per_shape(p90, |m| m.cpu_ms);
    let miss_ms: f64 = point_ms.iter().sum();
    let cycles: f64 = per_shape(median, |m| m.cycles as f64).iter().sum();
    let insts: f64 = per_shape(median, |m| m.insts as f64).iter().sum();
    let hit_ms = p90(&passes
        .iter()
        .flat_map(|p| p.hit_cpu_ms.iter().copied())
        .collect::<Vec<_>>());
    // A pass: every shape's miss, each followed by one hit.
    let pass_ms = miss_ms + hit_ms * point_ms.len() as f64;
    let restart: Vec<f64> = passes.iter().map(|p| p.restart.as_secs_f64()).collect();
    out.set("setup_s", median(&restart));
    out.set("cpu_s", pass_ms / 1e3);
    out.set("sim_ns_per_cycle", ratio(miss_ms * 1e6, cycles));
    out.set("sim_ns_per_inst", ratio(miss_ms * 1e6, insts));
    out.set("point_p50_ms", quantile(&point_ms, 0.5));
    out.set("point_p90_ms", quantile(&point_ms, 0.9));
    eprintln!(
        "[perfbench] occamyd-mixed: {} closed-loop pass(es), miss cpu_s per pass {:?}, hit {hit_ms:.3} ms",
        passes.len(),
        passes
            .iter()
            .map(|p| (p.misses.iter().map(|m| m.cpu_ms).sum::<f64>()).round() / 1e3)
            .collect::<Vec<_>>(),
    );

    if trace {
        let rest = seconds - started.elapsed().as_secs_f64();
        let ladder = ladder(&daemon, seed, rest, &goldens, &mut out)?;
        layer_metrics(&mut out, &passes, &traced, &ladder);
        return Ok((out, Some(rec)));
    }
    Ok((out, None))
}

/// Per-layer metrics: protocol, build and compile time and the work
/// counts from the closed-loop passes, service figures from the ladder.
fn layer_metrics(out: &mut Outcome, passes: &[Pass], traced: &[Pass], ladder: &Ladder) {
    let traced_median =
        |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall.as_secs_f64()).collect::<Vec<_>>());
    out.set("workloads.build_ms", traced_median(&|p| ms(p.build)));
    out.set(
        "occamy-compiler.compile_ms",
        traced_median(&|p| ms(p.compile)),
    );
    out.set("trace.overhead_ratio", ratio(wall(traced), wall(passes)));
    // The leaf spans the benchmark can see from outside the daemon are
    // the client's protocol calls, a small share of the pass.
    out.set(
        "trace.accounted_ratio",
        traced_median(&|p| ratio((p.encode + p.decode).as_secs_f64(), p.wall.as_secs_f64())),
    );
    let requests: usize = traced
        .iter()
        .map(|p| p.misses.len() + p.hit_cpu_ms.len())
        .sum();
    let lines: u64 = traced.iter().map(|p| p.lines).sum();
    let encode: Duration = traced.iter().map(|p| p.encode).sum();
    let decode: Duration = traced.iter().map(|p| p.decode).sum();
    let overhead_us: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.overhead_us.iter().copied())
        .collect();
    out.set(
        "occamyd.protocol.encode_us",
        ratio(encode.as_secs_f64() * 1e6, requests as f64),
    );
    out.set(
        "occamyd.protocol.decode_us",
        ratio(decode.as_secs_f64() * 1e6, lines as f64),
    );
    out.set("occamyd.reply_overhead_us", median(&overhead_us));
    // Work counts of the first traced pass's misses: the pass's jobs
    // depend on the seed alone.
    if let Some(first) = traced.first() {
        for (name, v) in &first.counts {
            out.set(name, *v as f64);
        }
    }

    let Ladder {
        jobs,
        seen,
        report,
        stats,
    } = ladder;
    let middle_misses: Vec<&Seen> = jobs
        .iter()
        .zip(seen)
        .filter(|(j, _)| !j.hit && j.rung == MIDDLE)
        .map(|(_, s)| s)
        .collect();
    let timing = |f: fn(&JobTiming) -> u64| -> Vec<f64> {
        middle_misses
            .iter()
            .filter_map(|s| s.timing.as_ref().map(|t| f(t) as f64))
            .collect()
    };
    let hits = stat(stats, "sim.cache.hits");
    let misses = stat(stats, "sim.cache.misses");
    out.set("occamyd.cache.hits", hits);
    out.set("occamyd.cache.misses", misses);
    out.set("occamyd.cache.hit_ratio", ratio(hits, hits + misses));
    out.set("occamyd.coalesced", stat(stats, "service.coalesced"));
    out.set(
        "occamyd.queue_us_p50",
        quantile(&timing(|t| t.queue_us), 0.5),
    );
    out.set(
        "occamyd.queue_us_p99",
        quantile(&timing(|t| t.queue_us), 0.99),
    );
    out.set("occamyd.run_us_p50", quantile(&timing(|t| t.run_us), 0.5));
    out.set(
        "occamyd.journal.bytes",
        stat(stats, "service.journal_bytes"),
    );
    out.set(
        "occamyd.journal.errors",
        stat(stats, "service.journal_errors"),
    );
    out.set("occamyd.shed", stat(stats, "service.shed"));
    out.set("occamyd.retries", stat(stats, "service.retries"));
    out.set("occamyd.hit_p50_ms", quantile(&report.hit_ms[MIDDLE], 0.5));
    out.set("occamyd.hit_p99_ms", quantile(&report.hit_ms[MIDDLE], 0.99));
    out.set(
        "occamyd.miss_p50_ms",
        quantile(&report.miss_ms[MIDDLE], 0.5),
    );
    out.set(
        "occamyd.miss_p90_ms",
        quantile(&report.miss_ms[MIDDLE], 0.9),
    );
    out.set("occamyd.max_rate_jobs_per_s", report.max_rate());
    out.set("occamyd.loadgen_lag_p99_ms", quantile(&report.lag_ms, 0.99));
    for (r, name) in [
        "occamyd.backlog.rung1",
        "occamyd.backlog.rung2",
        "occamyd.backlog.rung3",
    ]
    .iter()
    .enumerate()
    {
        out.set(name, report.backlog[r] as f64);
    }
}

/// Regenerates the pinned payload digest of every job key the workload
/// can submit (every shape under every job seed), by running each once
/// through a fresh daemon.
///
/// # Errors
///
/// Returns a message when the daemon fails or a job does not complete.
pub fn golden_rows(out_dir: &Path) -> Result<BTreeMap<String, Vec<u64>>, String> {
    let daemon = Daemon::new(out_dir)?;
    let (mut handle, _) = start(&daemon.endpoint(), &daemon.config("golden"))?;
    let mut rows = BTreeMap::new();
    let shapes = shapes();
    for seed in 0..SEED_VALUES {
        let jobs: Vec<Job> = (0..shapes.len())
            .map(|i| Job::immediate(&shapes, i, seed, "golden"))
            .collect();
        let (_, seen) = drive(&daemon.socket, &jobs, &format!("g{seed}-"))?;
        for (job, s) in jobs.iter().zip(&seen) {
            let digest = match (&s.error, s.digest) {
                (None, Some(d)) => d,
                (e, _) => return Err(format!("{}: {e:?}", job.spec.canonical_key())),
            };
            rows.insert(format!("{:016x}", job.spec.key_hash()), vec![digest]);
        }
    }
    handle.stop();
    Ok(rows)
}
