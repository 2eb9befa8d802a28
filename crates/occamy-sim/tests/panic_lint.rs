//! Source lint: the untrusted-input modules must not grow new panic
//! sites.
//!
//! The robustness contract routes decode faults, invalid vector lengths,
//! register-block exhaustion, cache misconfiguration and wild addresses
//! through typed [`occamy_sim::SimError`]s; internal invariants use
//! `debug_assert!`. This test greps the modules on that untrusted path
//! for `unwrap()` / `expect(` / `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!` outside `#[cfg(test)]` and comments, so a new panic
//! site fails CI with a pointer to the error taxonomy instead of
//! surfacing as a crash in a fuzz run.

use std::path::Path;

/// Modules on the untrusted-input path (relative to the workspace root).
const LINTED: &[&str] = &[
    "crates/em-simd/src/inst.rs",
    "crates/lane-manager/src/manager.rs",
    "crates/lane-manager/src/table.rs",
    "crates/mem-sim/src/cache.rs",
    "crates/occamy-sim/src/coproc.rs",
    "crates/occamy-sim/src/fault.rs",
    "crates/occamy-sim/src/machine.rs",
    "crates/occamy-sim/src/recovery.rs",
    "crates/occamy-sim/src/regblocks.rs",
    "crates/occamy-sim/src/lsu.rs",
    // The observability layer is diagnostic-only and must never abort a
    // run it is merely watching.
    "crates/occamy-sim/src/events.rs",
    "crates/occamy-sim/src/trace.rs",
    "crates/occamy-sim/src/metrics.rs",
    "crates/occamy-sim/src/profile.rs",
    // The functional engine executes the same untrusted programs as the
    // timing path and must trip the same typed faults.
    "crates/occamy-sim/src/functional.rs",
    // The snapshot codec decodes checkpoint files that may be torn,
    // bit-flipped, or adversarially crafted on disk.
    "crates/occamy-sim/src/snapshot_io.rs",
    // The two-speed campaign code runs in CI sweeps.
    "crates/bench/src/two_speed.rs",
    "crates/bench/src/event_kernel.rs",
    "crates/bench/src/bin/speedup.rs",
    // The JSON layer parses bytes straight off the daemon socket.
    "crates/bench/src/json.rs",
    // The daemon faces untrusted clients end to end: every frame,
    // schema field, queue operation and job execution must degrade to
    // a typed reply, never a crash (a panic here takes down every
    // tenant at once, not one run).
    "crates/occamyd/src/protocol.rs",
    "crates/occamyd/src/admission.rs",
    "crates/occamyd/src/cache.rs",
    "crates/occamyd/src/service.rs",
    "crates/occamyd/src/server.rs",
    "crates/occamyd/src/bin/load_test.rs",
    // SLO accounting runs inside the service lock on every terminal;
    // a panic here would poison the whole daemon's state.
    "crates/occamyd/src/slo.rs",
    // The durability layer replays journals and state files written by
    // a process that may have died mid-write: every record is parsed
    // defensively, and an I/O error must degrade the daemon to
    // in-memory operation, never crash it.
    "crates/occamyd/src/journal.rs",
    "crates/occamyd/src/loadgen.rs",
];

/// Justified residual panic sites: `"<file suffix>:<exact line content>"`.
/// Additions require a comment in the source explaining why the input
/// cannot be untrusted.
const ALLOWLIST: &[&str] = &[
    // The chaos probe exists to prove the catch_unwind job boundary
    // contains a panicking job; it fires only when a client explicitly
    // asks for chaos.
    "crates/occamyd/src/service.rs:panic!(\"chaos: deliberate panic probe\");",
];

const TOKENS: &[&str] =
    &["unwrap()", "expect(", "panic!", "unreachable!", "todo!", "unimplemented!"];

fn workspace_root() -> &'static Path {
    // occamy-sim/tests → crates/occamy-sim → crates → root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn untrusted_input_modules_have_no_new_panic_sites() {
    let mut violations = Vec::new();
    for file in LINTED {
        let path = workspace_root().join(file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        // Unit tests at the bottom of the module may assert freely.
        let body = text.split("#[cfg(test)]").next().unwrap_or(&text);
        for (i, line) in body.lines().enumerate() {
            let code = line.trim_start();
            if code.starts_with("//") {
                continue;
            }
            for token in TOKENS {
                if code.contains(token) {
                    let entry = format!("{file}:{}", line.trim());
                    if !ALLOWLIST.iter().any(|a| entry.starts_with(a)) {
                        violations.push(format!("{file}:{}: {}", i + 1, line.trim()));
                    }
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "new panic site(s) on the untrusted-input path — return a typed \
         occamy_sim::SimError (see docs/INTERNALS.md, \"Error taxonomy & fault \
         injection\") or use debug_assert! for internal invariants:\n  {}",
        violations.join("\n  ")
    );
}
