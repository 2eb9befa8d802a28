//! Deterministic load generation shared by the `load_test` binary, the
//! crash-restart chaos harness, and the golden purity test.
//!
//! Job `i` of a campaign is a pure function of `(seed, i)`, so every
//! process, worker count, restart count, and thread interleaving
//! replays the identical workload and must produce the identical
//! [`outcome_digest`]. That purity is what lets the chaos harness
//! assert that a run interrupted by `SIGKILL` and resumed from the
//! journal is *byte-identical* to a crash-free run.

use crate::admission::AdmissionConfig;
use crate::cache::CacheConfig;
use crate::protocol::{fnv1a, ChaosKind, JobSpec};
use crate::service::ServiceConfig;
use bench::runner::BackoffPolicy;
use rand::splitmix64;

/// The deterministic job plan: spec `i` is a pure function of
/// `(seed, i)`, so every process, worker count and interleaving
/// replays the identical workload.
pub fn make_spec(seed: u64, i: usize) -> JobSpec {
    let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
    JobSpec {
        // A small pool of distinct kernels so duplicates exercise the
        // cache and in-flight coalescing.
        workloads: vec![format!(
            "synth:{},{},{},{}",
            2 + r % 2,          // 2..=3 loads (flops+stores always covers them)
            1 + (r >> 8) % 2,   // 1..=2 stores
            2 + (r >> 16) % 5,  // 2..=6 flops
            64 << ((r >> 24) % 2) // trip 64 or 128
        )],
        scale: 1.0,
        seed: r % 4, // few distinct seeds -> duplicate canonical keys
        max_cycles: 5_000_000,
        ..JobSpec::default()
    }
}

/// Marks job `i` as a chaos probe (deterministically, on a stripe of
/// the id space).
pub fn apply_chaos(spec: &mut JobSpec, seed: u64, i: usize, chaos_pct: u64, inject_pct: u64) {
    let r = splitmix64(seed ^ 0xc4a0_5000 ^ (i as u64));
    if r % 100 < chaos_pct {
        match r % 3 {
            0 => spec.chaos = Some(ChaosKind::Panic),
            1 => spec.chaos = Some(ChaosKind::Fault),
            _ => {
                // An already-expired deadline; a unique seed keeps the
                // canonical key unique so the job can neither coalesce
                // with nor be cached by a runnable sibling (which would
                // make its outcome timing-dependent).
                spec.deadline_ms = Some(0);
                spec.seed = 0xdead_0000_0000_0000 | i as u64;
            }
        }
    } else if splitmix64(r) % 100 < inject_pct {
        // Deterministic fault injection: failures are retryable (the
        // per-attempt seed is re-salted) so these exercise the backoff
        // path — some jobs recover on a later attempt, some burn every
        // attempt and surface `lane-fault`. The rates are high because
        // the synthetic kernels are tiny (few compute issues to draw
        // on); the terminal outcome is still a pure function of the
        // spec because the canonical key covers the plan and seed.
        let rate = ["0.3", "0.6", "0.9"][(splitmix64(r ^ 1) % 3) as usize];
        spec.inject = Some(format!("seed={},lanet={rate}", 1 + splitmix64(r) % 8));
    }
}

/// The service configuration a load campaign runs under — shared so the
/// in-process baseline, the chaos daemon, and the purity test exercise
/// the identical service. Verification sampling stays off: re-runs
/// would make run counts interleaving-dependent.
pub fn campaign_config(
    jobs: usize,
    tenants: usize,
    workers: usize,
    capacity: Option<usize>,
    per_tenant: Option<usize>,
    seed: u64,
) -> ServiceConfig {
    ServiceConfig {
        workers,
        admission: AdmissionConfig {
            capacity: capacity.unwrap_or(jobs.max(1)),
            per_tenant: per_tenant.unwrap_or(jobs.max(1)),
            max_tenants: tenants.max(1) + 1,
        },
        cache: CacheConfig { max_entries: 512, verify_every: 0 },
        max_attempts: 3,
        backoff: BackoffPolicy { base_us: 50, cap_us: 5_000, seed },
        ..ServiceConfig::default()
    }
}

/// Folds terminal outcomes into the campaign digest. `entries` must be
/// sorted by job id; each is `(id, kind, payload)` where `payload` is
/// the compact rendering of an `ok` result. Cache hits and attempt
/// counts are deliberately excluded — they depend on arrival order, the
/// digest covers only what determinism promises.
pub fn outcome_digest<'a>(
    entries: impl IntoIterator<Item = (&'a str, &'a str, Option<&'a str>)>,
) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for (id, kind, payload) in entries {
        let mut line = String::new();
        line.push_str(id);
        line.push('=');
        line.push_str(kind);
        if let Some(p) = payload {
            line.push(':');
            line.push_str(p);
        }
        digest ^= fnv1a(line.as_bytes());
        digest = digest.rotate_left(1);
    }
    digest
}

/// Installs a panic hook that silences intentional chaos-probe panics
/// (payloads starting with `chaos:`) while leaving genuine panics loud.
pub fn install_chaos_panic_hook() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let chaos =
            info.payload().downcast_ref::<&str>().is_some_and(|m| m.starts_with("chaos:"));
        if !chaos {
            default_hook(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_seed_and_index() {
        for i in 0..64 {
            let mut a = make_spec(7, i);
            let mut b = make_spec(7, i);
            apply_chaos(&mut a, 7, i, 10, 5);
            apply_chaos(&mut b, 7, i, 10, 5);
            assert_eq!(a.canonical_key(), b.canonical_key());
        }
        assert_ne!(make_spec(7, 0).canonical_key(), make_spec(8, 0).canonical_key());
    }

    #[test]
    fn digest_is_order_sensitive_and_payload_sensitive() {
        let a = outcome_digest([("j1", "ok", Some("{}")), ("j2", "panic", None)]);
        let b = outcome_digest([("j2", "panic", None), ("j1", "ok", Some("{}"))]);
        let c = outcome_digest([("j1", "ok", Some("{1}")), ("j2", "panic", None)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
