//! End-to-end daemon tests: a real socket round trip (start, submit,
//! result, clean shutdown) and an in-process soak with chaos jobs —
//! the ISSUE's acceptance campaign, sized for the test suite.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::Duration;

use bench::runner::BackoffPolicy;
use occamyd::protocol::ChaosKind;
use occamyd::{serve, Client, Endpoint, JobSpec, Reply, Request, Service, ServiceConfig};

fn small_job(seed: u64) -> JobSpec {
    JobSpec {
        workloads: vec!["synth:2,1,3,64".into()],
        scale: 0.05,
        seed,
        max_cycles: 2_000_000,
        ..JobSpec::default()
    }
}

/// Tier-1 smoke: start the daemon on a Unix socket, ping it, submit a
/// job, read the streamed replies through to the result, ask for a
/// graceful shutdown, and verify the socket is gone afterwards.
#[test]
fn daemon_round_trip_over_unix_socket() {
    let path = std::env::temp_dir().join(format!("occamyd-smoke-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());
    let config = ServiceConfig { workers: 2, ..ServiceConfig::default() };
    let mut handle = serve(&endpoint, config).expect("daemon starts");

    let mut client = Client::connect(&endpoint).expect("client connects");
    client.send(&Request::Ping).expect("ping sends");
    assert_eq!(client.recv().expect("pong arrives"), Reply::Pong);

    client
        .send(&Request::Submit {
            tenant: "smoke".into(),
            id: "j1".into(),
            job: small_job(3),
        })
        .expect("submit sends");
    let accepted = client.recv().expect("accept reply");
    assert!(matches!(accepted, Reply::Accepted { .. }), "got {accepted:?}");
    let terminal = client.wait_terminal("j1").expect("terminal reply");
    let Reply::Result { cached, payload, .. } = terminal else {
        panic!("expected a result, got {terminal:?}");
    };
    assert!(!cached, "first run is cold");
    assert!(payload.get("cycles").is_some(), "payload is the stats document");

    // A second client sees the cache.
    let mut second = Client::connect(&endpoint).expect("second client connects");
    second
        .send(&Request::Submit {
            tenant: "smoke2".into(),
            id: "j1".into(),
            job: small_job(3),
        })
        .expect("submit sends");
    let terminal = second.wait_terminal("j1").expect("terminal reply");
    assert!(
        matches!(terminal, Reply::Result { cached: true, .. }),
        "identical job is served from cache, got {terminal:?}"
    );

    client.send(&Request::Shutdown).expect("shutdown sends");
    assert_eq!(client.recv().expect("ack"), Reply::ShuttingDown);
    handle.wait(Duration::from_millis(10));
    handle.stop();
    assert!(!path.exists(), "socket file removed on clean shutdown");
}

/// Submissions racing a shutdown get typed shed replies, not hangs or
/// dropped connections.
#[test]
fn shutdown_sheds_with_typed_replies_over_the_wire() {
    let path = std::env::temp_dir().join(format!("occamyd-shed-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());
    let mut handle =
        serve(&endpoint, ServiceConfig { workers: 1, ..ServiceConfig::default() }).expect("starts");
    let mut client = Client::connect(&endpoint).expect("connects");
    client.send(&Request::Shutdown).expect("shutdown sends");
    assert_eq!(client.recv().expect("ack"), Reply::ShuttingDown);

    let mut late = Client::connect(&endpoint);
    if let Ok(late) = late.as_mut() {
        // The accept loop may already be gone; if the connection went
        // through, the submit must be shed with the typed reason.
        late.send(&Request::Submit {
            tenant: "late".into(),
            id: "j".into(),
            job: small_job(1),
        })
        .expect("send on an accepted connection");
        match late.recv() {
            Ok(Reply::Shed { kind, .. }) => assert_eq!(kind, "shutting_down"),
            Ok(other) => panic!("expected a shed reply, got {other:?}"),
            Err(_) => {} // daemon closed first — also a clean refusal
        }
    }
    handle.stop();
}

/// The acceptance soak, in-process: 1,000 concurrent arrivals across 8
/// tenants with ~10% chaos jobs (panics, injected faults, expired
/// deadlines). Every job must reach a terminal reply, the daemon must
/// survive every panic, and quotas must never be exceeded.
#[test]
fn soak_1000_jobs_8_tenants_with_chaos() {
    // Chaos probes panic on purpose; keep the test log readable while
    // leaving genuine panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaotic = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.starts_with("chaos:"))
            .or_else(|| {
                info.payload().downcast_ref::<String>().map(|s| s.starts_with("chaos:"))
            })
            .unwrap_or(false);
        if !chaotic {
            default_hook(info);
        }
    }));

    const JOBS: usize = 1000;
    const TENANTS: usize = 8;
    let config = ServiceConfig {
        workers: 4,
        max_attempts: 2,
        backoff: BackoffPolicy { base_us: 1, cap_us: 50, seed: 7 },
        ..ServiceConfig::default()
    };
    // The default quota (256/tenant) must hold: stripe arrivals so no
    // tenant holds more than 125 active jobs.
    let service = Service::start(config);
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();

    std::thread::scope(|scope| {
        let service = &service;
        let mut collectors = Vec::new();
        for t in 0..TENANTS {
            let (tx, rx) = mpsc::channel::<Reply>();
            scope.spawn(move || {
                for i in (t..JOBS).step_by(TENANTS) {
                    let mut job = small_job(i as u64 % 5);
                    match i % 10 {
                        3 => job.chaos = Some(ChaosKind::Panic),
                        7 => match i % 3 {
                            0 => job.chaos = Some(ChaosKind::Fault),
                            1 => {
                                job.deadline_ms = Some(0);
                                job.seed = 0x5eed_0000 + i as u64;
                            }
                            _ => job.inject = Some("seed=3,lanet=0.7".into()),
                        },
                        _ => {}
                    }
                    service.submit(&format!("tenant{t}"), &format!("job{i}"), job, &tx);
                }
            });
            collectors.push((t, rx));
        }
        for (t, rx) in collectors {
            let mut terminals = 0;
            let expected = (t..JOBS).step_by(TENANTS).count();
            while terminals < expected {
                let reply = rx
                    .recv_timeout(Duration::from_secs(120))
                    .unwrap_or_else(|e| panic!("tenant{t} starved of replies: {e}"));
                if reply.is_terminal() {
                    terminals += 1;
                    let kind = match reply {
                        Reply::Result { .. } => "ok".to_owned(),
                        Reply::Error { kind, .. } => kind,
                        Reply::Shed { kind, .. } => format!("shed:{kind}"),
                        other => panic!("unexpected terminal {other:?}"),
                    };
                    *kinds.entry(kind).or_default() += 1;
                }
            }
        }
    });

    let stats = service.stats_value(None, None).render_compact();
    service.join();
    let _ = std::panic::take_hook();

    let total: usize = kinds.values().sum();
    assert_eq!(total, JOBS, "every job reached exactly one terminal reply: {kinds:?}");
    assert!(kinds["ok"] > JOBS / 2, "most jobs succeed: {kinds:?}");
    assert!(kinds.contains_key("panic"), "chaos panics surfaced as typed errors: {kinds:?}");
    assert!(kinds.contains_key("deadline"), "expired deadlines surfaced: {kinds:?}");
    assert!(
        !kinds.keys().any(|k| k.starts_with("shed:")),
        "striped arrivals stay inside quota, nothing shed: {kinds:?}"
    );
    assert!(
        stats.contains("\"service.panics_contained\":"),
        "panic containment is audited: {stats}"
    );
    assert!(stats.contains("\"service.poisoned_locks\":0"), "no lock poisoning leaked: {stats}");
}

/// A job's `inject` spec is applied whole: its program clauses corrupt
/// the compiled programs, so `truncate=1.0` (every program cut short)
/// ends a job that runs clean without it differently.
#[test]
fn program_clauses_of_an_inject_spec_reach_the_simulation() {
    let service = Service::start(ServiceConfig { workers: 1, max_attempts: 1, ..ServiceConfig::default() });
    let outcome = |id: &str, inject: Option<&str>| {
        let (tx, rx) = mpsc::channel::<Reply>();
        let job = JobSpec { inject: inject.map(str::to_owned), ..small_job(0) };
        service.submit("t", id, job, &tx);
        loop {
            match rx.recv_timeout(Duration::from_secs(120)).expect("a terminal reply") {
                Reply::Result { payload, .. } => {
                    return format!("ok after {:?} cycles", payload.get("cycles"))
                }
                Reply::Error { kind, .. } => return format!("error {kind}"),
                Reply::Shed { kind, .. } => return format!("shed {kind}"),
                _ => {}
            }
        }
    };
    let clean = outcome("clean", None);
    assert!(clean.starts_with("ok"), "{clean}");
    let truncated = outcome("truncated", Some("seed=1,truncate=1.0"));
    assert_ne!(clean, truncated, "the truncate clause must reach the simulation");
    service.join();
}
