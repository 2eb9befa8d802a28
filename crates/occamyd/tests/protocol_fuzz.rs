//! Fuzzes the wire protocol decoder: arbitrary hostile input must
//! produce a typed [`ProtocolError`], never a panic, and well-formed
//! requests must survive an encode/decode round trip unchanged.

use occamy_sim::SimMode;
use occamyd::protocol::{limits, ChaosKind, MAX_LINE_BYTES};
use occamyd::{JobSpec, JobTiming, ProtocolErrorKind, Reply, Request};
use proptest::prelude::*;

proptest! {
    /// Arbitrary printable garbage never panics the request decoder;
    /// every rejection is a typed error with a non-empty detail.
    #[test]
    fn arbitrary_text_yields_typed_errors(text in "\\PC{0,300}") {
        match Request::parse_line(&text) {
            Ok(_) => {} // a fuzz case may accidentally be valid JSON
            Err(e) => {
                prop_assert!(matches!(
                    e.kind,
                    ProtocolErrorKind::Malformed
                        | ProtocolErrorKind::Truncated
                        | ProtocolErrorKind::Oversized
                        | ProtocolErrorKind::Schema
                ));
                prop_assert!(!e.detail.is_empty());
            }
        }
        // The reply decoder (used by clients) is hardened the same way.
        let _ = Reply::parse_line(&text);
    }

    /// Structurally valid JSON with hostile field values decodes to a
    /// typed schema error, not a panic: the decoder validates every
    /// field, including simulator-level specs (mode, fault plan).
    #[test]
    fn hostile_field_values_are_schema_errors(
        op in prop_oneof!["submit", "cancel", "stats", "watch", "\\PC{0,12}"],
        tenant in "\\PC{0,80}",
        arch in "\\PC{0,12}",
        scale in -4.0f64..1e9,
        mode in "\\PC{0,24}",
        inject in "\\PC{0,40}",
    ) {
        let line = format!(
            "{{\"op\":{op:?},\"tenant\":{tenant:?},\"id\":\"j\",\"job\":{{\
             \"workloads\":[\"WL1\"],\"arch\":{arch:?},\"scale\":{scale:?},\
             \"mode\":{mode:?},\"inject\":{inject:?}}}}}"
        );
        match Request::parse_line(&line) {
            Ok(Request::Submit { job, .. }) => {
                // If it decoded, every field passed validation.
                prop_assert!(job.scale > 0.0);
                prop_assert!(matches!(
                    job.arch.as_str(),
                    "occamy" | "private" | "fts" | "vls"
                ));
            }
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(
                e.kind,
                ProtocolErrorKind::Schema | ProtocolErrorKind::Malformed
            )),
        }
    }

    /// Well-formed submits survive the encode/decode round trip with
    /// every field intact (the wire format loses nothing the service
    /// needs for the canonical cache key).
    #[test]
    fn submit_round_trips(
        tenant in "[a-z]{1,12}",
        id in "[a-z0-9]{1,12}",
        wl in 1u32..=22,
        arch in prop_oneof![Just("occamy"), Just("private"), Just("fts"), Just("vls")],
        scale in prop_oneof![Just(0.05f64), Just(0.5), Just(1.0), Just(2.0)],
        seed in any::<u64>(),
        max_cycles in 1u64..=100_000_000,
        deadline_ms in proptest::option::of(0u64..=60_000),
        inject in proptest::option::of(prop_oneof![
            Just("seed=5,lanet=0.5"), Just("seed=1,mem=0.01,spike=100")
        ]),
        chaos in proptest::option::of(prop_oneof![
            Just(ChaosKind::Panic), Just(ChaosKind::Fault)
        ]),
        functional in any::<bool>(),
    ) {
        let job = JobSpec {
            workloads: vec![format!("WL{wl}")],
            arch: arch.to_owned(),
            scale,
            // Fault injection demands timing mode; the schema enforces
            // simulator-level invariants, so only generate valid pairs.
            mode: if functional && inject.is_none() {
                SimMode::Functional
            } else {
                SimMode::Timing
            },
            inject: inject.map(str::to_owned),
            seed,
            max_cycles,
            deadline_ms,
            chaos,
        };
        let request = Request::Submit { tenant, id, job };
        let decoded = Request::parse_line(&request.to_line())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(request, decoded);
    }

    /// Every reply the daemon can emit round-trips through the client
    /// decoder — including the watch-stream frames and the optional
    /// timing breakdown on results.
    #[test]
    fn replies_round_trip(
        id in "[a-z0-9]{1,12}",
        which in 0u8..7,
        attempts in 0u32..8,
        cached in any::<bool>(),
        with_timing in any::<bool>(),
        seq in any::<u64>(),
        vcycles in any::<u64>(),
    ) {
        let reply = match which {
            0 => Reply::Accepted { id, queue_depth: u64::from(attempts) },
            1 => {
                let mut payload = bench::json::Value::obj();
                payload.push("cycles", bench::json::Value::UInt(u64::from(attempts)));
                let timing = with_timing.then_some(JobTiming {
                    queue_us: seq % 1_000_000,
                    run_us: vcycles % 1_000_000,
                });
                Reply::Result { id, cached, attempts, payload, timing }
            }
            2 => Reply::Error { id, kind: "lane-fault".into(), detail: "d".into() },
            3 => Reply::Shed { id, kind: "overloaded".into(), detail: "d".into() },
            4 => Reply::Watching { buffer: seq % limits::MAX_WATCH_BUFFER + 1 },
            5 => Reply::Event {
                seq,
                dropped: u64::from(attempts),
                vcycles,
                kind: "completed".into(),
                tenant: "t".into(),
                id,
                detail: if cached { "ok".into() } else { String::new() },
            },
            _ => Reply::Pong,
        };
        let decoded = Reply::parse_line(&reply.to_line())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reply, decoded);
    }

    /// Well-formed `stats`/`watch` requests round-trip with their
    /// filters intact.
    #[test]
    fn stats_and_watch_round_trip(
        tenant in proptest::option::of("[a-z]{1,12}"),
        prefix in proptest::option::of("[a-z.]{1,16}"),
        buffer in proptest::option::of(1u64..=65_536),
    ) {
        for request in [
            Request::Stats { tenant: tenant.clone(), prefix: prefix.clone() },
            Request::Watch { tenant: tenant.clone(), buffer },
        ] {
            let decoded = Request::parse_line(&request.to_line())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(request, decoded);
        }
    }

    /// Hostile `stats`/`watch` field values either decode into
    /// limit-respecting filters or die as typed schema errors — the
    /// introspection ops get the same rigor as `submit`.
    #[test]
    fn hostile_stats_watch_fields_are_typed(
        op in prop_oneof![Just("stats"), Just("watch")],
        tenant in "\\PC{0,200}",
        prefix in "\\PC{0,200}",
        buffer in any::<i64>(),
    ) {
        let line = format!(
            "{{\"op\":{op:?},\"tenant\":{tenant:?},\"prefix\":{prefix:?},\"buffer\":{buffer}}}"
        );
        match Request::parse_line(&line) {
            Ok(Request::Stats { tenant, prefix }) => {
                prop_assert!(tenant.is_none_or(|t| t.len() <= limits::MAX_NAME));
                prop_assert!(prefix.is_none_or(|p| p.len() <= limits::MAX_PREFIX));
            }
            Ok(Request::Watch { tenant, buffer }) => {
                prop_assert!(tenant.is_none_or(|t| t.len() <= limits::MAX_NAME));
                prop_assert!(
                    buffer.is_none_or(|b| (1..=limits::MAX_WATCH_BUFFER).contains(&b))
                );
            }
            Ok(_) => {}
            Err(e) => prop_assert!(matches!(
                e.kind,
                ProtocolErrorKind::Schema | ProtocolErrorKind::Malformed
            )),
        }
    }
}

/// An over-budget line is refused with the `oversized` kind — the size
/// check fires before any parsing work.
#[test]
fn oversized_lines_are_typed() {
    let line = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(MAX_LINE_BYTES));
    let err = Request::parse_line(&line).expect_err("over budget");
    assert_eq!(err.kind, ProtocolErrorKind::Oversized);
}
