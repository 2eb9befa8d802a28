//! Service-observability integration tests: the deterministic `slo`
//! section of `load_test --json --slo` is golden and worker-invariant,
//! the default document's bytes are untouched by the observability
//! layer, the `watch` stream drops frames for slow subscribers with an
//! accurate counter instead of stalling workers, and a live daemon's
//! `stats` snapshot agrees with the committed golden.

use std::collections::BTreeSet;
use std::sync::atomic::AtomicUsize;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use bench::json;
use occamy_sim::MetricValue;
use occamyd::loadgen::{apply_chaos, campaign_config, install_chaos_panic_hook, make_spec};
use occamyd::protocol::{JobSpec, Reply, Request};
use occamyd::server::{serve, Client, Endpoint};
use occamyd::service::{Service, ServiceConfig};

/// The committed SLO golden's campaign shape (mirrors
/// `golden/load_test_campaign.json`).
const GOLDEN_ARGS: &[&str] = &[
    "--jobs", "120", "--tenants", "4", "--chaos", "10", "--inject", "5", "--seed", "3",
];

fn run_load_test(extra: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_load_test"))
        .args(GOLDEN_ARGS)
        .args(extra)
        .output()
        .expect("load_test runs");
    assert!(
        out.status.success(),
        "load_test failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `--slo` document must be byte-identical to the committed golden
/// at two different worker counts: every quantity in the section is
/// virtual-time or a durability counter, so thread interleaving cannot
/// perturb it.
#[test]
fn slo_document_is_golden_and_worker_invariant() {
    let golden = include_str!("golden/load_test_campaign_slo.json");
    for workers in ["2", "5"] {
        let doc = run_load_test(&["--workers", workers, "--json", "--slo"]);
        assert_eq!(
            doc.trim(),
            golden.trim(),
            "--slo document diverged from the golden at --workers {workers}"
        );
    }
}

/// Without `--slo` the document's bytes are exactly the pre-observability
/// golden: the new instrumentation must not leak into the default path.
#[test]
fn default_json_document_bytes_are_untouched() {
    let golden = include_str!("golden/load_test_campaign.json");
    let doc = run_load_test(&["--workers", "3", "--json"]);
    assert_eq!(doc.trim(), golden.trim(), "default --json document changed");
}

/// Both goldens again, under `OCCAMY_REFERENCE_KERNEL=1`: the
/// per-cycle reference stepper and the (default) event-driven timing
/// kernel must produce the very same service documents, so a
/// regression in either kernel path is caught against the other. (The
/// two tests above pin the same bytes with the event kernel enabled.)
#[test]
fn reference_kernel_reproduces_both_goldens() {
    for (extra, golden) in [
        (&["--workers", "3", "--json"][..], include_str!("golden/load_test_campaign.json")),
        (
            &["--workers", "3", "--json", "--slo"][..],
            include_str!("golden/load_test_campaign_slo.json"),
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_load_test"))
            .args(GOLDEN_ARGS)
            .args(extra)
            .env("OCCAMY_REFERENCE_KERNEL", "1")
            .output()
            .expect("load_test runs");
        assert!(
            out.status.success(),
            "load_test (reference kernel) failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert_eq!(
            doc.trim(),
            golden.trim(),
            "reference-kernel document diverged from the golden ({extra:?})"
        );
    }
}

fn quick_spec(seed: u64) -> JobSpec {
    JobSpec {
        workloads: vec!["synth:2,1,3,64".into()],
        scale: 0.05,
        seed,
        max_cycles: 2_000_000,
        ..JobSpec::default()
    }
}

fn counter(service: &Service, name: &str) -> u64 {
    service
        .metrics()
        .iter()
        .find_map(|m| match (&m.value, m.name == name) {
            (MetricValue::Counter(v), true) => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

/// A watch subscriber that never drains (its pending counter only ever
/// grows) must lose frames — counted, typed, and without ever blocking
/// the workers or the healthy subscriber next to it.
#[test]
fn watch_overflow_drops_frames_with_accurate_counter() {
    let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });

    // The fast subscriber's buffer is far above the frame count; the
    // slow one's is the minimum. Neither pending counter is ever
    // decremented (no socket writer in this test), so the slow
    // subscriber saturates after one frame.
    let (fast_tx, fast_rx) = mpsc::channel::<Reply>();
    let (slow_tx, slow_rx) = mpsc::channel::<Reply>();
    let fast_cap = service.watch(None, Some(65_536), fast_tx, Arc::new(AtomicUsize::new(0)));
    let slow_cap = service.watch(None, Some(1), slow_tx, Arc::new(AtomicUsize::new(0)));
    assert_eq!(fast_cap, 65_536);
    assert_eq!(slow_cap, 1);

    let (tx, rx) = mpsc::channel::<Reply>();
    let jobs = 12u64;
    for seed in 0..jobs {
        service.submit("wtest", &format!("j{seed}"), quick_spec(seed), &tx);
    }
    let mut terminals = 0;
    while terminals < jobs {
        let reply = rx.recv_timeout(Duration::from_secs(120)).expect(
            "terminal reply — a stalled worker means watch backpressure blocked the service",
        );
        if reply.is_terminal() {
            terminals += 1;
        }
    }
    service.quiesce();

    let fast: Vec<Reply> = fast_rx.try_iter().collect();
    let slow: Vec<Reply> = slow_rx.try_iter().collect();
    let dropped = counter(&service, "service.watch.dropped_frames");
    let emitted = counter(&service, "service.watch.emitted");

    // Every job generated frames; the fast subscriber saw all of them
    // with contiguous sequence numbers and zero drops.
    assert!(fast.len() as u64 >= 3 * jobs, "expected >=3 frames per job, got {}", fast.len());
    for (i, frame) in fast.iter().enumerate() {
        let Reply::Event { seq, dropped, .. } = frame else {
            panic!("non-event frame on the watch channel: {frame:?}");
        };
        assert_eq!(*seq, i as u64 + 1, "fast subscriber lost a frame");
        assert_eq!(*dropped, 0, "fast subscriber must not drop");
    }

    // The slow subscriber got exactly one frame before saturating, and
    // the service counted every frame it withheld.
    assert_eq!(slow.len(), 1, "slow subscriber should receive exactly one frame");
    assert!(dropped > 0, "the slow subscriber's losses must be counted");
    assert_eq!(
        slow.len() as u64 + dropped,
        fast.len() as u64,
        "dropped counter does not account for every withheld frame"
    );
    assert_eq!(
        emitted,
        fast.len() as u64 + slow.len() as u64,
        "emitted counter does not match delivered frames"
    );

    service.join();
}

/// Acceptance: replay the golden campaign against a *live* daemon over
/// a socket, then ask it for `stats` — the per-tenant virtual-time
/// metrics in the snapshot must equal the committed `--slo` golden
/// (live introspection and the final report are the same numbers).
#[test]
fn live_daemon_stats_match_the_slo_golden() {
    install_chaos_panic_hook();
    let golden = json::parse(include_str!("golden/load_test_campaign_slo.json"))
        .expect("golden parses");
    let jobs = 120usize;
    let tenants = 4usize;
    let seed = 3u64;

    let path = std::env::temp_dir().join(format!("occamyd-obs-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());
    let config = campaign_config(jobs, tenants, 4, None, None, seed);
    let mut handle = serve(&endpoint, config).expect("daemon starts");
    let mut client = Client::connect(&endpoint).expect("client connects");

    let mut pending: BTreeSet<String> = BTreeSet::new();
    for i in 0..jobs {
        let mut spec = make_spec(seed, i);
        apply_chaos(&mut spec, seed, i, 10, 5);
        let id = format!("job{i:06}");
        pending.insert(id.clone());
        client
            .send(&Request::Submit { tenant: format!("tenant{}", i % tenants), id, job: spec })
            .expect("submit sends");
    }
    while !pending.is_empty() {
        let reply = client.recv().expect("reply while draining");
        if reply.is_terminal() {
            if let Some(id) = reply.id() {
                pending.remove(id);
            }
        }
    }

    client.send(&Request::Stats { tenant: None, prefix: None }).expect("stats sends");
    let payload = loop {
        if let Reply::Stats { payload } = client.recv().expect("stats reply") {
            break payload;
        }
    };
    let metrics = payload.get("metrics").expect("stats payload has metrics");

    for t in 0..tenants {
        let name = format!("tenant{t}");
        let want = golden
            .get("slo")
            .and_then(|s| s.get("tenants"))
            .and_then(|s| s.get(&name))
            .unwrap_or_else(|| panic!("golden has no slo entry for {name}"));
        for (metric, golden_key) in [
            ("admitted", "admitted"),
            ("ok", "ok"),
            ("sim_cycles", "sim_cycles"),
        ] {
            let live = metrics
                .get(&format!("service.tenant.{name}.{metric}"))
                .and_then(json::Value::as_u64);
            let expect = want.get(golden_key).and_then(json::Value::as_u64);
            assert_eq!(live, expect, "{name}.{metric} diverged from the golden");
        }
        for q in [
            "queue_wait_vcycles_p50",
            "queue_wait_vcycles_p99",
            "latency_vcycles_p50",
            "latency_vcycles_p99",
        ] {
            let live = metrics
                .get(&format!("service.tenant.{name}.{q}"))
                .and_then(json::Value::as_f64)
                .map(|v| v as u64);
            let expect = want.get(q).and_then(json::Value::as_u64);
            assert_eq!(live, expect, "{name}.{q} diverged from the golden");
        }
    }

    // The tenant name list lets clients parse per-tenant entries.
    let listed: Vec<&str> = match payload.get("tenants") {
        Some(json::Value::Arr(v)) => v.iter().filter_map(json::Value::as_str).collect(),
        other => panic!("stats payload has no tenants list: {other:?}"),
    };
    assert_eq!(listed, ["tenant0", "tenant1", "tenant2", "tenant3"]);

    client.send(&Request::Shutdown).expect("shutdown sends");
    loop {
        match client.recv() {
            Ok(Reply::ShuttingDown) | Err(_) => break,
            Ok(_) => {}
        }
    }
    handle.wait(Duration::from_millis(10));
    handle.stop();
}
