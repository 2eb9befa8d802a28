//! The service's ledger: every submission ends in exactly one terminal
//! reply, the terminal counters account for every one of them, and no
//! way of ending leaks a tenant's quota or stalls its SLO reorder
//! buffer.

use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

use occamy_sim::MetricValue;
use occamyd::protocol::ChaosKind;
use occamyd::{AdmissionConfig, CacheConfig, JobSpec, Reply, Service, ServiceConfig};

const PER_TENANT: usize = 2;

fn quick_spec(seed: u64) -> JobSpec {
    JobSpec {
        workloads: vec!["synth:2,1,3,64".into()],
        scale: 0.05,
        seed,
        max_cycles: 2_000_000,
        ..JobSpec::default()
    }
}

/// A job that keeps a worker busy until it is cancelled.
fn long_spec(seed: u64) -> JobSpec {
    JobSpec {
        workloads: vec!["synth:2,1,3,1048576,64".into()],
        scale: 1.0,
        seed,
        max_cycles: 1 << 40,
        ..JobSpec::default()
    }
}

/// One worker, so a long job holds everything else in the queue, and no
/// cache verification, so no background run takes a queue slot or a
/// tenant lane.
fn config(per_tenant: usize, max_tenants: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        admission: AdmissionConfig { capacity: 16, per_tenant, max_tenants },
        cache: CacheConfig { verify_every: 0, ..CacheConfig::default() },
        ..ServiceConfig::default()
    }
}

fn metric(service: &Service, name: &str) -> u64 {
    service
        .metrics()
        .iter()
        .find(|m| m.name == name)
        .map_or(0, |m| match &m.value {
            MetricValue::Counter(v) => *v,
            MetricValue::Gauge(v) => *v as u64,
            MetricValue::Histogram(_) => panic!("{name} is a histogram"),
        })
}

/// Waits until a worker has taken every queued ticket.
fn wait_until_taken(service: &Service) {
    let begun = Instant::now();
    while metric(service, "service.queue_depth") > 0 {
        assert!(begun.elapsed() < Duration::from_secs(60), "no worker took the queued job");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `result`, `result:cached`, `error:<kind>` or `shed:<kind>`.
fn outcome(reply: &Reply) -> String {
    match reply {
        Reply::Result { cached: false, .. } => "result".into(),
        Reply::Result { cached: true, .. } => "result:cached".into(),
        Reply::Error { kind, .. } => format!("error:{kind}"),
        Reply::Shed { kind, .. } => format!("shed:{kind}"),
        other => panic!("not a terminal: {other:?}"),
    }
}

/// One submission and every frame it has received so far.
struct Job {
    tenant: &'static str,
    rx: Receiver<Reply>,
    frames: Vec<Reply>,
}

impl Job {
    fn first_frame(&mut self) -> &Reply {
        if self.frames.is_empty() {
            self.recv();
        }
        &self.frames[0]
    }

    fn terminal(&mut self) -> Reply {
        while !self.frames.iter().any(Reply::is_terminal) {
            self.recv();
        }
        self.frames.iter().find(|r| r.is_terminal()).cloned().expect("a terminal")
    }

    fn recv(&mut self) {
        let frame = self.rx.recv_timeout(Duration::from_secs(120)).expect("a reply arrives");
        self.frames.push(frame);
    }
}

/// A service plus every submission made to it, each on its own reply
/// channel so a second terminal for one submission cannot hide.
struct Ledger {
    service: Service,
    jobs: Vec<Job>,
}

impl Ledger {
    fn submit(&mut self, tenant: &'static str, id: &str, spec: JobSpec) -> usize {
        let (tx, rx) = mpsc::channel();
        self.service.submit(tenant, id, spec, &tx);
        self.jobs.push(Job { tenant, rx, frames: Vec::new() });
        self.jobs.len() - 1
    }

    fn outcome(&mut self, job: usize) -> String {
        outcome(&self.jobs[job].terminal())
    }

    fn admitted(&mut self, job: usize) -> bool {
        matches!(self.jobs[job].first_frame(), Reply::Accepted { .. })
    }

    /// Every tenant's SLO book counts exactly the results it got: an
    /// `ok` drains only once every earlier admission has settled.
    fn assert_slo_drained(&mut self, tenants: &[&str]) {
        for &tenant in tenants {
            let results = self
                .jobs
                .iter_mut()
                .filter(|job| job.tenant == tenant)
                .filter_map(|job| matches!(job.terminal(), Reply::Result { .. }).then_some(()))
                .count() as u64;
            let ok = metric(&self.service, &format!("service.tenant.{tenant}.ok"));
            assert_eq!(ok, results, "tenant {tenant}'s SLO book has an admission left unsettled");
        }
    }
}

/// Drives every way a submission can end through one service and
/// checks the books: one terminal per submission, counters that add up
/// to the terminals, settled SLO books, and no quota lost.
#[test]
fn every_terminal_kind_settles_once_and_leaks_no_quota() {
    let tenants = ["a", "b", "c", "z"];
    let service = Service::start(config(PER_TENANT, tenants.len()));
    let mut l = Ledger { service, jobs: Vec::new() };
    let mut expect = Vec::new();

    // The worker is free: a cold result, a cache hit, a typed error and
    // a deadline that expires in the queue.
    let ok = l.submit("a", "ok", quick_spec(1));
    assert_eq!(l.outcome(ok), "result");
    let hit = l.submit("b", "hit", quick_spec(1));
    let mut chaos = quick_spec(2);
    chaos.chaos = Some(ChaosKind::Fault);
    let failed = l.submit("c", "chaos", chaos);
    let mut late = quick_spec(3);
    late.deadline_ms = Some(0);
    let expired = l.submit("a", "late", late);
    expect.extend([
        (ok, "result"),
        (hit, "result:cached"),
        (failed, "error:chaos"),
        (expired, "error:deadline"),
    ]);
    for &(job, want) in &expect {
        assert_eq!(l.outcome(job), want);
    }

    // A long job holds the worker, so everything below stays queued.
    let long = l.submit("z", "long", long_spec(1));
    wait_until_taken(&l.service);
    // A run two tenants share, cancelled by both while it is queued.
    let shared_b = l.submit("b", "shared", quick_spec(4));
    let shared_c = l.submit("c", "shared", quick_spec(4));
    assert!(l.service.cancel("b", "shared"));
    assert!(l.service.cancel("c", "shared"));
    // A coalesced pair.
    let first = l.submit("a", "pair", quick_spec(5));
    let second = l.submit("c", "pair", quick_spec(5));
    // An id the tenant already has active.
    let duplicate = l.submit("z", "long", quick_spec(6));
    // Tenant a is at its quota with `pair` and `queued`.
    let queued = l.submit("a", "queued", quick_spec(7));
    let over_quota = l.submit("a", "over-quota", quick_spec(8));
    // A fifth tenant finds the tenant table full.
    let overloaded = l.submit("x", "overloaded", quick_spec(9));
    // Cancel the running job; the worker drains the queue.
    assert!(l.service.cancel("z", "long"));
    expect.extend([
        (long, "error:cancelled"),
        (shared_b, "error:cancelled"),
        (shared_c, "error:cancelled"),
        (first, "result"),
        (second, "result:cached"),
        (duplicate, "error:duplicate_id"),
        (queued, "result"),
        (over_quota, "shed:quota_exceeded"),
        (overloaded, "shed:overloaded"),
    ]);
    for &(job, want) in &expect {
        assert_eq!(l.outcome(job), want);
    }
    assert_eq!(metric(&l.service, "service.coalesced"), 2, "`shared` and `pair` coalesced");

    // Every tenant can again hold `PER_TENANT` fresh jobs at once.
    let blocker = l.submit("z", "blocker", long_spec(2));
    wait_until_taken(&l.service);
    let mut fresh = Vec::new();
    for (t, &tenant) in tenants.iter().enumerate() {
        let own = if tenant == "z" { PER_TENANT - 1 } else { PER_TENANT };
        for k in 0..own {
            let spec = quick_spec(100 + 10 * t as u64 + k as u64);
            let job = l.submit(tenant, &format!("fresh{k}"), spec);
            assert!(l.admitted(job), "tenant {tenant} lost quota: {:?}", l.jobs[job].frames);
            fresh.push(job);
        }
    }
    assert!(l.service.cancel("z", "blocker"));
    expect.push((blocker, "error:cancelled"));
    expect.extend(fresh.into_iter().map(|job| (job, "result")));
    for &(job, want) in &expect {
        assert_eq!(l.outcome(job), want);
    }
    l.assert_slo_drained(&tenants);

    // Shutdown sheds the queued jobs and refuses a new one.
    let blocker = l.submit("z", "last", long_spec(3));
    wait_until_taken(&l.service);
    let drained_a = l.submit("a", "drained", quick_spec(200));
    let drained_b = l.submit("b", "drained", quick_spec(201));
    l.service.shutdown();
    let refused = l.submit("c", "refused", quick_spec(202));
    assert!(l.service.cancel("z", "last"));
    expect.extend([
        (blocker, "error:cancelled"),
        (drained_a, "shed:shutting_down"),
        (drained_b, "shed:shutting_down"),
        (refused, "shed:shutting_down"),
    ]);
    for &(job, want) in &expect {
        assert_eq!(l.outcome(job), want);
    }
    l.assert_slo_drained(&tenants);
    assert_eq!(expect.len(), l.jobs.len(), "every submission has an expected outcome");

    let counted: u64 = ["completed", "failed", "cancelled", "shed"]
        .map(|c| metric(&l.service, &format!("service.{c}")))
        .iter()
        .sum();
    let booked = tenants.map(|t| metric(&l.service, &format!("service.tenant.{t}.admitted")));
    let Ledger { service, mut jobs } = l;
    service.join();

    // Every sender is gone with the service: each channel now holds
    // all it will ever hold, and exactly one terminal.
    let mut uncounted = 0;
    let mut admitted = [0u64; 4];
    for job in &mut jobs {
        job.frames.extend(job.rx.try_iter());
        let ends: Vec<String> =
            job.frames.iter().filter(|r| r.is_terminal()).map(outcome).collect();
        assert_eq!(ends.len(), 1, "tenant {} got {:?}", job.tenant, job.frames);
        // A duplicate id is answered but never admitted or counted; a
        // shed without an `accepted` before it was refused at the door.
        let duplicate = ends[0] == "error:duplicate_id";
        uncounted += u64::from(duplicate);
        let refused = duplicate
            || (ends[0].starts_with("shed:") && !matches!(job.frames[0], Reply::Accepted { .. }));
        if let Some(t) = tenants.iter().position(|&t| t == job.tenant) {
            admitted[t] += u64::from(!refused);
        }
    }
    assert_eq!(counted, jobs.len() as u64 - uncounted, "counters disagree with the replies");
    assert_eq!(booked, admitted, "per-tenant admissions disagree with the replies");
}

/// A queued run submitted by one tenant and coalesced onto by another
/// is cancelled by both: its queue ticket must leave the submitting
/// tenant's lane, or that tenant's quota is lost for good.
#[test]
fn a_cross_tenant_cancel_returns_the_ticket_to_the_lane_that_owns_it() {
    let mut l = Ledger { service: Service::start(config(1, 8)), jobs: Vec::new() };
    let long = l.submit("other", "long", long_spec(1));
    wait_until_taken(&l.service);
    let owner = l.submit("a", "k", quick_spec(1));
    let waiter = l.submit("b", "k", quick_spec(1));
    assert!(l.admitted(owner) && l.admitted(waiter));
    assert!(l.service.cancel("a", "k"));
    assert!(l.service.cancel("b", "k"));
    assert!(l.service.cancel("other", "long"));
    for job in [long, owner, waiter] {
        assert_eq!(l.outcome(job), "error:cancelled");
    }
    wait_until_taken(&l.service);

    let next = l.submit("a", "next", quick_spec(2));
    assert_eq!(l.outcome(next), "result", "tenant a must have its quota slot back");
    l.service.join();
}

/// A queued run whose every requester cancelled is over: its journal
/// terminal keeps a restart from running it again.
#[test]
fn a_run_cancelled_in_the_queue_is_not_rerun_after_a_restart() {
    let dir = std::env::temp_dir().join(format!("occamyd-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || ServiceConfig { state_dir: Some(dir.clone()), ..config(1, 8) };
    let mut l = Ledger { service: Service::start(durable()), jobs: Vec::new() };
    let long = l.submit("other", "long", long_spec(1));
    wait_until_taken(&l.service);
    let queued = l.submit("a", "k", quick_spec(1));
    assert!(l.admitted(queued));
    assert!(l.service.cancel("a", "k"));
    assert!(l.service.cancel("other", "long"));
    for job in [long, queued] {
        assert_eq!(l.outcome(job), "error:cancelled");
    }
    l.service.join();

    let restarted = Service::start(durable());
    restarted.quiesce();
    assert_eq!(metric(&restarted, "service.recovered_jobs"), 0, "a cancelled run came back");
    restarted.join();
    let _ = std::fs::remove_dir_all(&dir);
}
