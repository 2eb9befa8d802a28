//! Durability integration tests: golden-campaign purity (a daemon
//! without `--state-dir` is byte-identical to the pre-durability
//! service), journal-driven crash recovery, result-cache persistence
//! across restarts, checkpoint writing, and the end-to-end
//! crash-restart chaos harness.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::Duration;

use bench::json;
use occamyd::cache::short_address;
use occamyd::journal::{replay_bytes, Journal, JournalConfig, JournalRecord};
use occamyd::loadgen::{
    apply_chaos, campaign_config, install_chaos_panic_hook, make_spec, outcome_digest,
};
use occamyd::protocol::{JobSpec, Reply};
use occamyd::service::{Service, ServiceConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("occamyd-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp state dir");
    dir
}

fn wait_terminal(rx: &mpsc::Receiver<Reply>) -> Reply {
    loop {
        let reply = rx.recv_timeout(Duration::from_secs(120)).expect("terminal reply");
        if reply.is_terminal() {
            return reply;
        }
    }
}

fn metric_u64(rendered: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let Some(at) = rendered.find(&needle).map(|i| i + needle.len()) else {
        return 0;
    };
    let digits: String = rendered[at..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or(0)
}

/// Tier-1 purity contract: without a state dir the service replays the
/// recorded pre-durability golden campaign byte-for-byte — same counts,
/// same outcome digest over every job's terminal reply and payload.
#[test]
fn campaign_without_state_dir_matches_pre_durability_golden() {
    install_chaos_panic_hook();
    let golden = json::parse(include_str!("golden/load_test_campaign.json"))
        .expect("golden document parses");
    let jobs = golden.get("jobs").and_then(json::Value::as_u64).expect("jobs") as usize;
    let tenants = golden.get("tenants").and_then(json::Value::as_u64).expect("tenants") as usize;
    let chaos_pct = golden.get("chaos_pct").and_then(json::Value::as_u64).expect("chaos_pct");
    let inject_pct = golden.get("inject_pct").and_then(json::Value::as_u64).expect("inject_pct");
    let seed = golden.get("seed").and_then(json::Value::as_u64).expect("seed");

    let service = Service::start(campaign_config(jobs, tenants, 4, None, None, seed));
    let (tx, rx) = mpsc::channel::<Reply>();
    for i in 0..jobs {
        let mut spec = make_spec(seed, i);
        apply_chaos(&mut spec, seed, i, chaos_pct, inject_pct);
        service.submit(&format!("tenant{}", i % tenants), &format!("job{i:06}"), spec, &tx);
    }
    let mut outcomes: Vec<(String, String, Option<String>)> = Vec::with_capacity(jobs);
    let mut ok = 0u64;
    while outcomes.len() < jobs {
        match wait_terminal(&rx) {
            Reply::Result { id, payload, .. } => {
                ok += 1;
                outcomes.push((id, "ok".into(), Some(payload.render_compact())));
            }
            Reply::Error { id, kind, .. } => outcomes.push((id, kind, None)),
            Reply::Shed { id, kind, .. } => outcomes.push((id, format!("shed:{kind}"), None)),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    service.join();

    outcomes.sort();
    let digest = outcome_digest(
        outcomes.iter().map(|(id, kind, p)| (id.as_str(), kind.as_str(), p.as_deref())),
    );
    assert_eq!(
        format!("{digest:016x}"),
        golden.get("outcome_digest").and_then(json::Value::as_str).expect("digest"),
        "outcome digest diverged from the pre-durability golden campaign"
    );
    assert_eq!(Some(ok), golden.get("ok").and_then(json::Value::as_u64));
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

fn durable_config(dir: &Path) -> ServiceConfig {
    ServiceConfig { workers: 2, state_dir: Some(dir.to_path_buf()), ..ServiceConfig::default() }
}

/// A journal holding an `Accepted` record without a terminal simulates
/// a crash mid-job: on restart the service must re-enqueue and run the
/// job to completion, leaving a fresh `ok` terminal in the ledger.
#[test]
fn restart_recovers_interrupted_jobs_from_the_journal() {
    let dir = temp_dir("recover");
    let spec = quick_spec(11);
    let key = spec.canonical_key();
    {
        let (mut journal, _, _) = Journal::open(&dir.join("journal.log"), JournalConfig::default())
            .expect("journal opens");
        journal.append(&JournalRecord::Accepted {
            tenant: "t0".into(),
            id: "lost-job".into(),
            spec: spec.clone(),
        });
        journal.sync();
    }

    let service = Service::start(durable_config(&dir));
    service.quiesce();
    let stats = service.stats_value(None, None).render_compact();
    assert_eq!(metric_u64(&stats, "service.recovered_jobs"), 1, "stats: {stats}");
    service.join();

    let bytes = std::fs::read(dir.join("journal.log")).expect("journal readable");
    let (records, report) = replay_bytes(&bytes);
    assert!(!report.torn, "clean shutdown must leave no torn tail");
    let fresh_ok = records
        .iter()
        .filter(|r| matches!(
            r,
            JournalRecord::Completed { key: k, outcome, cached }
                if *k == key && outcome == "ok" && !cached
        ))
        .count();
    assert_eq!(fresh_ok, 1, "recovered job must complete exactly once: {records:?}");

    // A later submission of the same job is served from the persistent
    // cache — the recovered run's side effect is never repeated.
    let service = Service::start(durable_config(&dir));
    let (tx, rx) = mpsc::channel::<Reply>();
    service.submit("t1", "again", spec, &tx);
    let Reply::Result { cached, .. } = wait_terminal(&rx) else {
        panic!("expected a result");
    };
    assert!(cached, "recovered result must be served from the persistent cache");
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Results persist to disk and survive a full service restart with
/// byte-identical payloads.
#[test]
fn result_cache_survives_restart() {
    let dir = temp_dir("cache");
    let spec = quick_spec(23);

    let service = Service::start(durable_config(&dir));
    let (tx, rx) = mpsc::channel::<Reply>();
    service.submit("t0", "cold", spec.clone(), &tx);
    let Reply::Result { cached, payload, .. } = wait_terminal(&rx) else {
        panic!("expected a result");
    };
    assert!(!cached, "first run is cold");
    let cold_payload = payload.render_compact();
    service.join();

    let service = Service::start(durable_config(&dir));
    let (tx, rx) = mpsc::channel::<Reply>();
    service.submit("t1", "warm", spec, &tx);
    let Reply::Result { cached, attempts, payload, .. } = wait_terminal(&rx) else {
        panic!("expected a result");
    };
    assert!(cached, "restarted service must hit the on-disk cache");
    assert_eq!(attempts, 0, "a disk hit burns no simulation attempts");
    assert_eq!(payload.render_compact(), cold_payload, "payload bytes survive the restart");
    service.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A multi-slice run persists resumable checkpoints while in flight and
/// removes them once the job reaches its terminal.
#[test]
fn long_runs_write_and_clean_up_checkpoints() {
    let dir = temp_dir("checkpoint");
    let config = ServiceConfig {
        workers: 1,
        slice_cycles: 10_000,
        checkpoint_slices: 4,
        state_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let service = Service::start(config);
    let spec = JobSpec {
        // A large, op-heavy kernel runs for ~100k cycles — about ten
        // slices at the 10k-cycle slice size above.
        workloads: vec!["synth:8,4,16,65536".into()],
        scale: 1.0,
        seed: 5,
        max_cycles: 50_000_000,
        ..JobSpec::default()
    };
    let (tx, rx) = mpsc::channel::<Reply>();
    service.submit("t0", "long", spec, &tx);
    let Reply::Result { .. } = wait_terminal(&rx) else {
        panic!("expected a result");
    };
    let stats = service.stats_value(None, None).render_compact();
    assert!(
        metric_u64(&stats, "service.checkpoints_written") >= 1,
        "a multi-slice run must checkpoint: {stats}"
    );
    service.join();
    let leftover = std::fs::read_dir(dir.join("checkpoints"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftover, 0, "terminal jobs must remove their checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint file that no longer decodes (written by an older
/// snapshot format, or damaged) is treated as absent: the job runs
/// fresh, replies exactly as a run without the file does, and counts no
/// resume. The file is gone afterwards, which also shows the service
/// looked for it where it was planted.
#[test]
fn checkpoints_that_no_longer_decode_run_fresh() {
    let spec = quick_spec(31);
    let key = spec.canonical_key();
    let reference = {
        let dir = temp_dir("stale-ck-reference");
        let service = Service::start(durable_config(&dir));
        let (tx, rx) = mpsc::channel::<Reply>();
        service.submit("t0", "reference", spec.clone(), &tx);
        let reply = wait_terminal(&rx);
        service.join();
        let _ = std::fs::remove_dir_all(&dir);
        reply
    };
    let Reply::Result { payload: expected, .. } = reference else {
        panic!("expected a result, got {reference:?}");
    };

    // A snapshot file is magic, a u32 version, the body and a CRC-32 of
    // all three; a checkpoint prefixes it with its resume horizon and key.
    let snapshot = |version: u32, body: &[u8]| {
        let mut bytes = b"OCSN".to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(body);
        let crc = statecodec::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    };
    let stale = [
        ("v3", snapshot(3, &[0; 64])),
        ("truncated", snapshot(occamy_sim::SNAPSHOT_VERSION, &[0; 16])),
    ];
    for (tag, snapshot) in stale {
        let dir = temp_dir(&format!("stale-ck-{tag}"));
        let path = dir.join("checkpoints").join(format!("{}.ck", short_address(&key)));
        std::fs::create_dir_all(path.parent().expect("checkpoint dir")).expect("mkdir");
        let mut file = 50_000u64.to_le_bytes().to_vec();
        file.extend_from_slice(&(key.len() as u32).to_le_bytes());
        file.extend_from_slice(key.as_bytes());
        file.extend_from_slice(&snapshot);
        std::fs::write(&path, file).expect("plant checkpoint");

        let service = Service::start(durable_config(&dir));
        let (tx, rx) = mpsc::channel::<Reply>();
        service.submit("t0", "fresh", spec.clone(), &tx);
        let Reply::Result { cached, payload, .. } = wait_terminal(&rx) else {
            panic!("{tag}: expected a result");
        };
        assert!(!cached, "{tag}: nothing was cached");
        assert_eq!(payload.render_compact(), expected.render_compact(), "{tag}");
        let stats = service.stats_value(None, None).render_compact();
        assert_eq!(metric_u64(&stats, "service.checkpoints_resumed"), 0, "{tag}: {stats}");
        service.join();
        assert!(!path.exists(), "{tag}: the finished run removes the stale checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// End-to-end crash-restart chaos harness: SIGKILL a real daemon
/// mid-load, restart it against the same state dir, and require the
/// recovered outcome document to be byte-identical to a crash-free run
/// with a clean exactly-once journal ledger.
#[test]
#[cfg(unix)]
fn chaos_harness_survives_hard_kills() {
    let dir = temp_dir("chaos");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_load_test"))
        .args([
            "--jobs", "40", "--tenants", "4", "--chaos", "10", "--inject", "5", "--seed", "3",
            "--crash-after", "8", "--restarts", "1", "--json",
        ])
        .arg("--state-dir")
        .arg(&dir)
        .output()
        .expect("chaos harness runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "harness failed:\n{stderr}");
    assert!(stderr.contains("outcome document byte-identical"), "stderr:\n{stderr}");
    assert!(stderr.contains("journal ledger clean"), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
