//! Load, chaos, and crash-restart generator for the `occamyd` service
//! layer.
//!
//! Replays thousands of concurrent job arrivals from many tenants
//! against the service — a fraction of them *chaos* jobs (deliberate
//! panics, synthetic faults, already-expired deadlines) — and checks
//! the service's robustness contract:
//!
//! - the daemon never crashes (a panicking job fails alone);
//! - every submitted job receives exactly one terminal reply;
//! - refusals are typed shed replies, never silent drops.
//!
//! With `--json`, stdout carries a deterministic document: per-outcome
//! counts and a digest over every job's terminal outcome (and result
//! payload bytes), sorted by job id. With the default sizing the
//! document is byte-identical across worker counts and thread
//! interleavings — duplicate submissions coalesce or hit the cache, so
//! each distinct job runs exactly once and every reply is a pure
//! function of the job spec. Wall-clock figures (latency quantiles,
//! throughput) go to stderr only.
//!
//! # Crash-restart chaos harness
//!
//! `--crash-after N` switches to the durability harness: it first runs
//! the campaign crash-free in-process to capture the baseline outcome
//! document, then (for `--restarts K` rounds) spawns a real daemon
//! child with `--state-dir`, submits jobs over the wire, hard-kills the
//! child with `SIGKILL` mid-load, and restarts it against the same
//! state directory. A final restart re-submits the full workload,
//! drains every terminal, asks the daemon to shut down gracefully
//! (exit 0), and asserts:
//!
//! - the final outcome document is **byte-identical** to the crash-free
//!   baseline (zero lost accepted jobs, zero corrupted results);
//! - the journal shows every accepted job reaching a terminal record
//!   and **no job ran to a fresh (non-cached) `ok` more than once**
//!   (zero duplicated side effects).
//!
//! The harness needs non-shedding sizing (the default `--capacity`/
//! `--per-tenant` of `--jobs`): shedding depends on arrival timing,
//! which a crash perturbs by design.
//!
//! ```text
//! load_test [--jobs N] [--tenants N] [--chaos PCT] [--inject PCT]
//!           [--workers N] [--capacity N] [--per-tenant N]
//!           [--seed N] [--json] [--state-dir DIR]
//!           [--crash-after N] [--restarts K]
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bench::json::Value;
use occamyd::journal::{replay_bytes, JournalRecord};
use occamyd::loadgen::{
    apply_chaos, campaign_config, install_chaos_panic_hook, make_spec, outcome_digest,
};
use occamyd::protocol::{JobSpec, Reply, Request};
use occamyd::server::{Client, Endpoint};
use occamyd::service::Service;

#[derive(Clone)]
struct Args {
    jobs: usize,
    tenants: usize,
    chaos_pct: u64,
    inject_pct: u64,
    workers: usize,
    capacity: Option<usize>,
    per_tenant: Option<usize>,
    seed: u64,
    json: bool,
    slo: bool,
    state_dir: Option<PathBuf>,
    crash_after: Option<usize>,
    restarts: usize,
    daemon: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            jobs: 1_200,
            tenants: 8,
            chaos_pct: 10,
            inject_pct: 5,
            workers: bench::runner::default_workers(),
            capacity: None,
            per_tenant: None,
            seed: 0x10ad_7e57,
            json: false,
            slo: false,
            state_dir: None,
            crash_after: None,
            restarts: 2,
            daemon: false,
        }
    }
}

fn next_value(it: &mut impl Iterator<Item = String>, name: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{name} needs a value"))
}

fn next_num(it: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, String> {
    next_value(it, name)?.parse::<u64>().map_err(|_| format!("{name} needs a number"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--jobs" => args.jobs = next_num(&mut it, "--jobs")? as usize,
            "--tenants" => args.tenants = (next_num(&mut it, "--tenants")? as usize).max(1),
            "--chaos" => args.chaos_pct = next_num(&mut it, "--chaos")?.min(100),
            "--inject" => args.inject_pct = next_num(&mut it, "--inject")?.min(100),
            "--workers" => args.workers = (next_num(&mut it, "--workers")? as usize).max(1),
            "--capacity" => args.capacity = Some(next_num(&mut it, "--capacity")? as usize),
            "--per-tenant" => args.per_tenant = Some(next_num(&mut it, "--per-tenant")? as usize),
            "--seed" => args.seed = next_num(&mut it, "--seed")?,
            "--json" => args.json = true,
            "--slo" => args.slo = true,
            "--state-dir" => {
                args.state_dir = Some(PathBuf::from(next_value(&mut it, "--state-dir")?));
            }
            "--crash-after" => {
                args.crash_after = Some((next_num(&mut it, "--crash-after")? as usize).max(1));
            }
            "--restarts" => args.restarts = (next_num(&mut it, "--restarts")? as usize).max(1),
            "--daemon" => args.daemon = true,
            "--help" | "-h" => {
                println!(
                    "load_test: replay concurrent multi-tenant arrivals (with chaos) \
                     against the occamyd service\n\n\
                     \t--jobs N        total submissions (default 1200)\n\
                     \t--tenants N     distinct tenants (default 8)\n\
                     \t--chaos PCT     percent of jobs that are chaos probes (default 10)\n\
                     \t--inject PCT    percent of jobs with fault injection (default 5)\n\
                     \t--workers N     service worker threads (default: host parallelism)\n\
                     \t--capacity N    admission queue capacity (default: jobs, so nothing sheds)\n\
                     \t--per-tenant N  per-tenant active-job quota (default: jobs)\n\
                     \t--seed N        arrival-pattern seed (default 0x10ad7e57)\n\
                     \t--json          deterministic JSON report on stdout\n\
                     \t--slo           add per-tenant virtual-time SLO quantiles and\n\
                     \t                durability counters to the JSON report\n\
                     \t--state-dir DIR durable state directory (journal + result cache)\n\
                     \t--crash-after N crash-restart harness: SIGKILL the daemon after N\n\
                     \t                acknowledged submissions, restart, assert recovery\n\
                     \t--restarts K    hard-kill rounds before the final recovery run (default 2)"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn fatal(msg: &str) -> ! {
    eprintln!("load_test: FATAL: {msg}");
    std::process::exit(1);
}

/// The deterministic `(tenant, id, spec)` of campaign job `i` — the
/// same plan whether submitted in-process, over the wire, or replayed
/// after a crash.
fn job_plan(args: &Args, i: usize) -> (String, String, JobSpec) {
    let mut spec = make_spec(args.seed, i);
    apply_chaos(&mut spec, args.seed, i, args.chaos_pct, args.inject_pct);
    (format!("tenant{}", i % args.tenants.max(1)), format!("job{i:06}"), spec)
}

struct Outcome {
    id: String,
    kind: String,
    payload: Option<String>,
    cached: bool,
    attempts: u32,
    latency: Duration,
}

struct Summary {
    ok: u64,
    shed: u64,
    failed: BTreeMap<String, u64>,
    digest: u64,
}

/// Sorts outcomes by job id and folds them into counts + digest.
fn summarize(outcomes: &mut [Outcome]) -> Summary {
    outcomes.sort_by(|a, b| a.id.cmp(&b.id));
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut failed: BTreeMap<String, u64> = BTreeMap::new();
    for t in outcomes.iter() {
        match t.kind.as_str() {
            "ok" => ok += 1,
            k if k.starts_with("shed:") => shed += 1,
            k => *failed.entry(k.to_owned()).or_default() += 1,
        }
    }
    let digest = outcome_digest(
        outcomes.iter().map(|t| (t.id.as_str(), t.kind.as_str(), t.payload.as_deref())),
    );
    Summary { ok, shed, failed, digest }
}

/// The deterministic outcome document (`--json` payload). Two runs of
/// the same campaign must render byte-identical documents — the chaos
/// harness compares these directly. `slo` (from [`slo_section`]) is
/// appended only under `--slo`, so the default document's bytes are
/// untouched by the observability layer.
fn json_doc(args: &Args, s: &Summary, slo: Option<Value>) -> String {
    let mut obj = Value::obj();
    obj.push("experiment", Value::Str("load_test".into()))
        .push("jobs", Value::UInt(args.jobs as u64))
        .push("tenants", Value::UInt(args.tenants as u64))
        .push("chaos_pct", Value::UInt(args.chaos_pct))
        .push("inject_pct", Value::UInt(args.inject_pct))
        .push("seed", Value::UInt(args.seed))
        .push("ok", Value::UInt(s.ok))
        .push("shed", Value::UInt(s.shed));
    let mut failures = Value::obj();
    for (kind, count) in &s.failed {
        failures.push(kind, Value::UInt(*count));
    }
    obj.push("failed", failures);
    obj.push("outcome_digest", Value::Str(format!("{:016x}", s.digest)));
    if let Some(slo) = slo {
        obj.push("slo", slo);
    }
    obj.render()
}

/// The `slo` section of the `--json` document, distilled from a metrics
/// snapshot (the JSON rendering of the service registry — the same
/// shape whether it came from an in-process [`Service::metrics`] call
/// or a daemon's `stats` reply). Only *virtual-time* quantities and the
/// durability counters appear here: all of them are pure functions of
/// the campaign plan, so the section is byte-identical across worker
/// counts and thread interleavings. Wall-clock latencies and the
/// timing-dependent hit-vs-coalesce split are deliberately excluded.
fn slo_section(args: &Args, metrics: &Value) -> Value {
    let counter = |name: &str| metrics.get(name).and_then(Value::as_u64).unwrap_or(0);
    let gauge = |name: &str| {
        metrics.get(name).and_then(Value::as_f64).map_or(0, |v| v.max(0.0) as u64)
    };
    let mut tenants = Value::obj();
    let mut cycles_min = u64::MAX;
    let mut cycles_max = 0u64;
    for t in 0..args.tenants {
        let name = format!("tenant{t}");
        let key = |q: &str| format!("service.tenant.{name}.{q}");
        let sim_cycles = counter(&key("sim_cycles"));
        cycles_min = cycles_min.min(sim_cycles);
        cycles_max = cycles_max.max(sim_cycles);
        let mut obj = Value::obj();
        obj.push("admitted", Value::UInt(counter(&key("admitted"))))
            .push("ok", Value::UInt(counter(&key("ok"))))
            .push("sim_cycles", Value::UInt(sim_cycles))
            .push("queue_wait_vcycles_p50", Value::UInt(gauge(&key("queue_wait_vcycles_p50"))))
            .push("queue_wait_vcycles_p99", Value::UInt(gauge(&key("queue_wait_vcycles_p99"))))
            .push("latency_vcycles_p50", Value::UInt(gauge(&key("latency_vcycles_p50"))))
            .push("latency_vcycles_p99", Value::UInt(gauge(&key("latency_vcycles_p99"))));
        tenants.push(&name, obj);
    }
    if cycles_min == u64::MAX {
        cycles_min = 0;
    }
    let mut out = Value::obj();
    out.push("tenants", tenants)
        .push("fairness_spread_cycles", Value::UInt(cycles_max.saturating_sub(cycles_min)))
        .push("journal_errors", Value::UInt(counter("service.journal_errors")))
        .push("cache_disk_errors", Value::UInt(counter("sim.cache.disk_errors")))
        .push("cache_verify_mismatch", Value::UInt(counter("sim.cache.verify_mismatch")));
    out
}

/// Maps a terminal reply to the digest's outcome row. Returns `None`
/// for non-terminal replies.
fn outcome_of(reply: Reply, latency: Duration) -> Option<Outcome> {
    match reply {
        Reply::Result { id, cached, attempts, payload, .. } => Some(Outcome {
            id,
            kind: "ok".into(),
            payload: Some(payload.render_compact()),
            cached,
            attempts,
            latency,
        }),
        Reply::Error { id, kind, .. } => {
            Some(Outcome { id, kind, payload: None, cached: false, attempts: 0, latency })
        }
        Reply::Shed { id, kind, .. } => Some(Outcome {
            id,
            kind: format!("shed:{kind}"),
            payload: None,
            cached: false,
            attempts: 0,
            latency,
        }),
        _ => None,
    }
}

struct RunOutput {
    outcomes: Vec<Outcome>,
    summary: Summary,
    wall: Duration,
    metrics: String,
    metrics_json: Value,
}

/// The in-process campaign: one submitter thread per tenant blasting
/// its stripe of the id space, then collecting terminal replies.
fn run_campaign(args: &Args, state_dir: Option<PathBuf>) -> RunOutput {
    let mut config = campaign_config(
        args.jobs,
        args.tenants,
        args.workers,
        args.capacity,
        args.per_tenant,
        args.seed,
    );
    config.state_dir = state_dir;
    let service = Service::start(config);
    let started = Instant::now();

    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let service = &service;
        let handles: Vec<_> = (0..args.tenants)
            .map(|t| {
                scope.spawn(move || {
                    let (tx, rx) = mpsc::channel::<Reply>();
                    let mut pending = 0usize;
                    let mut submitted_at: BTreeMap<String, Instant> = BTreeMap::new();
                    for i in (t..args.jobs).step_by(args.tenants.max(1)) {
                        let (tenant, id, spec) = job_plan(args, i);
                        submitted_at.insert(id.clone(), Instant::now());
                        service.submit(&tenant, &id, spec, &tx);
                        pending += 1;
                    }
                    let mut terminals = Vec::with_capacity(pending);
                    while terminals.len() < pending {
                        let reply = match rx.recv_timeout(Duration::from_secs(300)) {
                            Ok(r) => r,
                            Err(_) => break, // liveness violation; reported below
                        };
                        let latency = reply
                            .id()
                            .and_then(|id| submitted_at.get(id))
                            .map_or(Duration::ZERO, Instant::elapsed);
                        if let Some(outcome) = outcome_of(reply, latency) {
                            terminals.push(outcome);
                        }
                    }
                    (pending, terminals)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(args.jobs);
        let mut missing = 0usize;
        for h in handles {
            let (pending, terminals) = match h.join() {
                Ok(v) => v,
                Err(_) => fatal("a submitter thread panicked"),
            };
            missing += pending - terminals.len();
            all.extend(terminals);
        }
        if missing > 0 {
            fatal(&format!(
                "{missing} jobs never received a terminal reply (liveness contract broken)"
            ));
        }
        all
    });
    let wall = started.elapsed();

    service.quiesce();
    let registry = service.metrics();
    let metrics = registry.dump();
    let metrics_json = bench::metrics_to_json(&registry);
    service.join();

    let summary = summarize(&mut outcomes);
    RunOutput { outcomes, summary, wall, metrics, metrics_json }
}

fn report_run(args: &Args, out: &RunOutput) {
    let mut latencies: Vec<Duration> = out.outcomes.iter().map(|t| t.latency).collect();
    latencies.sort();
    let quantile = |q: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx]
    };
    let cached_replies = out.outcomes.iter().filter(|t| t.cached).count();
    let retried_jobs = out.outcomes.iter().filter(|t| t.attempts > 1).count();

    eprintln!(
        "[load_test] {} jobs, {} tenants, {}% chaos on {} workers in {:.2}s \
         ({:.0} jobs/s)",
        args.jobs,
        args.tenants,
        args.chaos_pct,
        args.workers,
        out.wall.as_secs_f64(),
        args.jobs as f64 / out.wall.as_secs_f64().max(1e-9),
    );
    eprintln!(
        "[load_test] ok={} shed={} failed={} cached_replies={} retried_jobs={}",
        out.summary.ok,
        out.summary.shed,
        out.outcomes.len() as u64 - out.summary.ok - out.summary.shed,
        cached_replies,
        retried_jobs,
    );
    eprintln!(
        "[load_test] latency p50={:?} p90={:?} p99={:?} max={:?}",
        quantile(0.50),
        quantile(0.90),
        quantile(0.99),
        latencies.last().copied().unwrap_or(Duration::ZERO),
    );
    eprintln!("{}", out.metrics);
}

// --- Crash-restart chaos harness ----------------------------------------

/// Daemon-child mode (spawned by the harness via `--daemon`): serve the
/// campaign's service on an ephemeral TCP port, announce the bound
/// endpoint on stdout, and drain gracefully on shutdown or SIGTERM.
fn run_daemon(args: &Args) -> ! {
    let mut config = campaign_config(
        args.jobs,
        args.tenants,
        args.workers,
        args.capacity,
        args.per_tenant,
        args.seed,
    );
    config.state_dir = args.state_dir.clone();
    let endpoint = match Endpoint::parse("tcp:127.0.0.1:0") {
        Ok(e) => e,
        Err(e) => fatal(&e),
    };
    let mut handle = match occamyd::server::serve(&endpoint, config) {
        Ok(h) => h,
        Err(e) => fatal(&format!("daemon bind: {e}")),
    };
    println!("LISTENING {}", handle.endpoint);
    let _ = std::io::stdout().flush();
    #[cfg(unix)]
    let term = occamyd::server::install_termination_flag();
    loop {
        if handle.stopping() {
            break;
        }
        #[cfg(unix)]
        if term.load(std::sync::atomic::Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.stop();
    std::process::exit(0);
}

fn spawn_daemon(args: &Args, state_dir: &Path) -> Child {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => fatal(&format!("cannot locate own binary: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("--daemon")
        .arg("--jobs")
        .arg(args.jobs.to_string())
        .arg("--tenants")
        .arg(args.tenants.to_string())
        .arg("--chaos")
        .arg(args.chaos_pct.to_string())
        .arg("--inject")
        .arg(args.inject_pct.to_string())
        .arg("--workers")
        .arg(args.workers.to_string())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--state-dir")
        .arg(state_dir);
    if let Some(c) = args.capacity {
        cmd.arg("--capacity").arg(c.to_string());
    }
    if let Some(p) = args.per_tenant {
        cmd.arg("--per-tenant").arg(p.to_string());
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    match cmd.spawn() {
        Ok(child) => child,
        Err(e) => fatal(&format!("spawn daemon child: {e}")),
    }
}

fn read_listening(child: &mut Child) -> Endpoint {
    let stdout = match child.stdout.take() {
        Some(s) => s,
        None => fatal("daemon stdout was not piped"),
    };
    let mut line = String::new();
    if BufReader::new(stdout).read_line(&mut line).unwrap_or(0) == 0 {
        fatal("daemon child exited before announcing its endpoint");
    }
    let spec = match line.trim().strip_prefix("LISTENING ") {
        Some(s) => s,
        None => fatal(&format!("unexpected daemon banner: {line:?}")),
    };
    match Endpoint::parse(spec) {
        Ok(e) => e,
        Err(e) => fatal(&e),
    }
}

fn connect_retry(endpoint: &Endpoint) -> Client {
    for _ in 0..200 {
        match Client::connect(endpoint) {
            Ok(c) => return c,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    fatal("daemon never became connectable")
}

/// One hard-kill round: submit until `kill_at` jobs are acknowledged
/// (each ack arrives *after* the journal fsync), then SIGKILL the
/// daemon mid-load. Returns the number of acknowledged submissions.
fn crash_round(args: &Args, state_dir: &Path, round: usize, kill_at: usize) -> usize {
    let mut child = spawn_daemon(args, state_dir);
    let endpoint = read_listening(&mut child);
    let mut client = connect_retry(&endpoint);
    let mut acked = 0usize;
    'submit: for i in 0..kill_at {
        let (tenant, id, spec) = job_plan(args, i);
        if client.send(&Request::Submit { tenant, id: id.clone(), job: spec }).is_err() {
            break;
        }
        // Any reply mentioning the id (Accepted, a cached Result, a
        // Shed) proves the daemon admitted — and journaled — it.
        loop {
            match client.recv() {
                Ok(r) if r.id() == Some(id.as_str()) => {
                    acked += 1;
                    break;
                }
                Ok(_) => {}
                Err(_) => break 'submit,
            }
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    eprintln!(
        "[chaos] round {}: SIGKILL after {acked}/{kill_at} acknowledged submissions",
        round + 1
    );
    acked
}

fn metric_u64(rendered: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = rendered.find(&needle)? + needle.len();
    let digits: String =
        rendered[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// The recovery run: restart the daemon against the surviving state
/// directory, re-submit the *entire* campaign, drain every terminal,
/// and shut the daemon down gracefully.
fn final_round(args: &Args, state_dir: &Path) -> (Vec<Outcome>, ExitStatus) {
    let mut child = spawn_daemon(args, state_dir);
    let endpoint = read_listening(&mut child);
    let mut client = connect_retry(&endpoint);

    let mut pending: BTreeSet<String> = BTreeSet::new();
    for i in 0..args.jobs {
        let (tenant, id, spec) = job_plan(args, i);
        pending.insert(id.clone());
        if let Err(e) = client.send(&Request::Submit { tenant, id, job: spec }) {
            fatal(&format!("final run lost the daemon while submitting: {e}"));
        }
    }
    // The daemon's per-connection writer queue is unbounded, so it is
    // safe to submit everything first and drain afterwards.
    let mut outcomes = Vec::with_capacity(args.jobs);
    while !pending.is_empty() {
        let reply = match client.recv() {
            Ok(r) => r,
            Err(e) => fatal(&format!("final run lost the daemon while draining: {e}")),
        };
        if let Reply::ProtocolError { kind, detail } = &reply {
            fatal(&format!("protocol error ({kind}): {detail}"));
        }
        if reply.is_terminal() {
            if let Some(id) = reply.id() {
                if !pending.remove(id) {
                    fatal(&format!("duplicate terminal reply for {id}"));
                }
            }
            if let Some(outcome) = outcome_of(reply, Duration::ZERO) {
                outcomes.push(outcome);
            }
        }
    }

    // Surface the daemon's recovery counters before it goes away.
    if client.send(&Request::Stats { tenant: None, prefix: None }).is_ok() {
        loop {
            match client.recv() {
                Ok(Reply::Stats { payload }) => {
                    let rendered = payload.render_compact();
                    eprintln!(
                        "[chaos] final daemon: recovered_jobs={} checkpoints_written={} \
                         checkpoints_resumed={} journal_bytes={}",
                        metric_u64(&rendered, "service.recovered_jobs").unwrap_or(0),
                        metric_u64(&rendered, "service.checkpoints_written").unwrap_or(0),
                        metric_u64(&rendered, "service.checkpoints_resumed").unwrap_or(0),
                        metric_u64(&rendered, "service.journal_bytes").unwrap_or(0),
                    );
                    break;
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
    }

    // Graceful shutdown: the daemon must drain and exit 0.
    let _ = client.send(&Request::Shutdown);
    loop {
        match client.recv() {
            Ok(Reply::ShuttingDown) | Err(_) => break,
            Ok(_) => {}
        }
    }
    let status = match child.wait() {
        Ok(s) => s,
        Err(e) => fatal(&format!("waiting for daemon exit: {e}")),
    };
    (outcomes, status)
}

/// Replays the journal and checks the durability ledger: every accepted
/// job reached a terminal record, and no job produced more than one
/// fresh (non-cached) `ok` — i.e. no duplicated side effects across all
/// the crashes and restarts.
fn check_journal(state_dir: &Path) -> Result<String, String> {
    let path = state_dir.join("journal.log");
    let bytes = std::fs::read(&path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let (records, report) = replay_bytes(&bytes);
    let mut accepted: BTreeSet<String> = BTreeSet::new();
    let mut completed: BTreeMap<String, u64> = BTreeMap::new();
    let mut fresh_ok: BTreeMap<String, u64> = BTreeMap::new();
    for r in &records {
        match r {
            JournalRecord::Accepted { spec, .. } => {
                accepted.insert(spec.canonical_key());
            }
            JournalRecord::Completed { key, outcome, cached } => {
                *completed.entry(key.clone()).or_default() += 1;
                if outcome == "ok" && !cached {
                    *fresh_ok.entry(key.clone()).or_default() += 1;
                }
            }
            _ => {}
        }
    }
    let lost = accepted.iter().filter(|k| !completed.contains_key(*k)).count();
    if lost > 0 {
        return Err(format!("{lost} accepted jobs never reached a terminal journal record"));
    }
    let duplicated = fresh_ok.values().filter(|&&n| n > 1).count();
    if duplicated > 0 {
        return Err(format!(
            "{duplicated} jobs ran to a fresh `ok` more than once (duplicated side effects)"
        ));
    }
    Ok(format!(
        "{} records over {} accepted jobs, torn_tail={}",
        records.len(),
        accepted.len(),
        report.torn
    ))
}

fn run_chaos(args: &Args, crash_after: usize) {
    eprintln!("[chaos] baseline: crash-free in-process campaign ({} jobs)", args.jobs);
    let baseline = run_campaign(args, None);
    let base_doc = json_doc(args, &baseline.summary, None);
    eprintln!("[chaos] baseline digest {:016x}", baseline.summary.digest);

    let (state_dir, ephemeral) = match &args.state_dir {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("occamy-chaos-{}", std::process::id())),
            true,
        ),
    };
    let _ = std::fs::remove_dir_all(&state_dir);
    if let Err(e) = std::fs::create_dir_all(&state_dir) {
        fatal(&format!("create state dir {}: {e}", state_dir.display()));
    }

    for round in 0..args.restarts {
        // Progressive kill points so successive rounds reach fresh
        // territory instead of re-dying on the same jobs.
        let kill_at = crash_after.saturating_mul(round + 1).min(args.jobs).max(1);
        crash_round(args, &state_dir, round, kill_at);
    }

    let (mut outcomes, status) = final_round(args, &state_dir);
    if !status.success() {
        fatal(&format!("daemon did not exit cleanly after graceful shutdown: {status}"));
    }
    eprintln!("[chaos] graceful shutdown: daemon exited 0");

    let summary = summarize(&mut outcomes);
    let doc = json_doc(args, &summary, None);
    if doc != base_doc {
        eprintln!("[chaos] baseline : {base_doc}");
        eprintln!("[chaos] recovered: {doc}");
        fatal("recovered outcome document differs from the crash-free baseline");
    }
    eprintln!(
        "[chaos] outcome document byte-identical to baseline (digest {:016x})",
        summary.digest
    );

    match check_journal(&state_dir) {
        Ok(note) => eprintln!("[chaos] journal ledger clean: {note}"),
        Err(e) => fatal(&format!("journal ledger violation: {e}")),
    }

    if ephemeral {
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    if args.json {
        println!("{doc}");
    } else {
        println!(
            "chaos: PASS ({} kill rounds, {} jobs, digest {:016x} matches crash-free baseline)",
            args.restarts, args.jobs, summary.digest,
        );
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("load_test: {e}");
            std::process::exit(2);
        }
    };

    // Chaos probes panic on purpose (the service contains them); keep
    // their spam out of the report while leaving genuine panics loud.
    install_chaos_panic_hook();

    if args.daemon {
        run_daemon(&args);
    }
    if let Some(crash_after) = args.crash_after {
        run_chaos(&args, crash_after);
        return;
    }

    let out = run_campaign(&args, args.state_dir.clone());
    report_run(&args, &out);
    if args.json {
        let slo = args.slo.then(|| slo_section(&args, &out.metrics_json));
        println!("{}", json_doc(&args, &out.summary, slo));
    } else {
        println!(
            "load_test: {} jobs -> {} ok, {} failed, {} shed (digest {:016x})",
            out.outcomes.len(),
            out.summary.ok,
            out.outcomes.len() as u64 - out.summary.ok - out.summary.shed,
            out.summary.shed,
            out.summary.digest,
        );
    }
}
