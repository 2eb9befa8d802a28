//! Observability-layer integration tests: golden files for the three
//! text export formats (pipeview, Kanata, Chrome trace JSON), a
//! property test that the event sink never reorders events within a
//! track, byte-identity of observability-disabled runs, exact profiler
//! attribution, and determinism of the metrics dump.
//!
//! Golden files live in `tests/golden/`; re-bless deliberate changes
//! with `UPDATE_GOLDEN=1`.

use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder, ScalarInst,
    VBinOp, VReg, VectorInst, XReg,
};
use mem_sim::{Memory, ServiceLevel};
use occamy_sim::{
    render_pipeview, render_profile, to_chrome_trace, to_kanata, Architecture, Event, EventKind,
    EventLog, Machine, SimConfig, Track,
};
use proptest::prelude::*;

const A: XReg = XReg::X0;
const B: XReg = XReg::X1;
const C: XReg = XReg::X2;
const I: XReg = XReg::X3;
const N: XReg = XReg::X4;
const LANES: XReg = XReg::X5;
const STATUS: XReg = XReg::X6;
const TMP: XReg = XReg::X7;
const NEXT: XReg = XReg::X8;

/// The pipeline-test vec-add kernel (Fig. 9 prologue/epilogue included),
/// reused here so the goldens exercise a realistic phase lifecycle.
fn vec_add_program(a: u64, b_addr: u64, c: u64, n: usize, granules: usize) -> Program {
    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm { dst: A, imm: a as i64 });
    b.scalar(ScalarInst::MovImm { dst: B, imm: b_addr as i64 });
    b.scalar(ScalarInst::MovImm { dst: C, imm: c as i64 });
    b.scalar(ScalarInst::MovImm { dst: N, imm: n as i64 });
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Oi,
        src: Operand::Imm(OperationalIntensity::uniform(1.0 / 12.0).to_bits() as i64),
    });
    let retry = b.fresh_label("vl_retry");
    b.bind(retry);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(granules as i64) });
    b.em_simd(EmSimdInst::Mrs { dst: STATUS, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: STATUS, b: Operand::Imm(1), target: retry });
    b.em_simd(EmSimdInst::Mrs { dst: TMP, reg: DedicatedReg::Vl });
    b.scalar(ScalarInst::ShlImm { dst: LANES, a: TMP, shift: 2 });
    b.scalar(ScalarInst::MovImm { dst: I, imm: 0 });

    let vloop = b.fresh_label("vloop");
    let rem = b.fresh_label("remainder");
    let rem_loop = b.fresh_label("rem_loop");
    let done = b.fresh_label("done");

    b.bind(vloop);
    b.scalar(ScalarInst::Add { dst: NEXT, a: I, b: Operand::Reg(LANES) });
    b.scalar(ScalarInst::Blt { a: N, b: Operand::Reg(NEXT), target: rem });
    b.vector(VectorInst::Load { dst: VReg::Z1, base: A, index: I });
    b.vector(VectorInst::Load { dst: VReg::Z2, base: B, index: I });
    b.vector(VectorInst::Binary { op: VBinOp::Fadd, dst: VReg::Z3, a: VReg::Z1, b: VReg::Z2 });
    b.vector(VectorInst::Store { src: VReg::Z3, base: C, index: I });
    b.scalar(ScalarInst::Mov { dst: I, src: NEXT });
    b.scalar(ScalarInst::B { target: vloop });

    b.bind(rem);
    b.bind(rem_loop);
    b.scalar(ScalarInst::Bge { a: I, b: Operand::Reg(N), target: done });
    b.scalar(ScalarInst::Ldr { dst: XReg::X10, base: A, index: I });
    b.scalar(ScalarInst::Ldr { dst: XReg::X11, base: B, index: I });
    b.scalar(ScalarInst::Fadd { dst: XReg::X12, a: XReg::X10, b: XReg::X11 });
    b.scalar(ScalarInst::Str { src: XReg::X12, base: C, index: I });
    b.scalar(ScalarInst::Add { dst: I, a: I, b: Operand::Imm(1) });
    b.scalar(ScalarInst::B { target: rem_loop });

    b.bind(done);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Imm(0) });
    let rel = b.fresh_label("vl_release");
    b.bind(rel);
    b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
    b.em_simd(EmSimdInst::Mrs { dst: STATUS, reg: DedicatedReg::Status });
    b.scalar(ScalarInst::Bne { a: STATUS, b: Operand::Imm(1), target: rel });
    b.halt();
    b.build()
}

/// Builds the fixed two-core fixture the goldens snapshot, optionally
/// with the observability layer enabled.
fn fixture(observe: bool) -> Machine {
    let cfg = SimConfig::paper_2core();
    let mut mem = Memory::new(1 << 20);
    let n = 70; // not a multiple of any vector length: remainder loop runs
    let mut alloc = |seed: f32| {
        let a = mem.alloc_f32(n as u64);
        let b = mem.alloc_f32(n as u64);
        let c = mem.alloc_f32(n as u64);
        for i in 0..n {
            mem.write_f32(a + 4 * i as u64, seed + i as f32);
            mem.write_f32(b + 4 * i as u64, 2.0 * i as f32 - seed);
        }
        (a, b, c)
    };
    let (a0, b0, c0) = alloc(1.0);
    let (a1, b1, c1) = alloc(-3.0);
    let mut m = Machine::new(cfg, Architecture::Occamy, mem).expect("valid config");
    if observe {
        m.enable_events(1 << 16);
        m.enable_profile();
    }
    m.load_program(0, vec_add_program(a0, b0, c0, n, 4));
    m.load_program(1, vec_add_program(a1, b1, c1, n, 4));
    m
}

fn run_fixture(observe: bool) -> (Machine, occamy_sim::MachineStats) {
    let mut m = fixture(observe);
    let stats = m.run(2_000_000).expect("fixture must complete");
    assert!(stats.completed);
    (m, stats)
}

fn check_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {path} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        rendered, expected,
        "{name} drifted from the checked-in golden; if intentional, re-bless with UPDATE_GOLDEN=1"
    );
}

#[test]
fn pipeview_matches_golden() {
    let (m, _) = run_fixture(true);
    check_golden("vec_add.pipeview", &render_pipeview(m.events()));
}

#[test]
fn kanata_matches_golden() {
    let (m, _) = run_fixture(true);
    check_golden("vec_add.kanata", &to_kanata(m.events()));
}

#[test]
fn chrome_trace_matches_golden() {
    let (m, _) = run_fixture(true);
    check_golden("vec_add.trace.json", &m.chrome_trace());
}

/// Extracts `(tid, ts)` pairs of non-metadata rows in output order.
fn tid_ts_pairs(json: &str) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        if !line.contains("\"ts\":") {
            continue;
        }
        let grab = |key: &str| -> u64 {
            let at = line.find(key).expect(key) + key.len();
            line[at..].chars().take_while(|c| c.is_ascii_digit()).collect::<String>().parse().expect(key)
        };
        out.push((grab("\"tid\":"), grab("\"ts\":")));
    }
    out
}

#[test]
fn chrome_trace_from_a_real_run_is_monotone_per_track() {
    let (m, _) = run_fixture(true);
    let pairs = tid_ts_pairs(&m.chrome_trace());
    assert!(pairs.len() > 10, "suspiciously few rows");
    let mut last = std::collections::BTreeMap::new();
    for (tid, ts) in pairs {
        if let Some(&prev) = last.get(&tid) {
            assert!(ts >= prev, "track {tid} went backwards: {prev} -> {ts}");
        }
        last.insert(tid, ts);
    }
}

#[test]
fn disabled_observability_runs_are_byte_identical() {
    // Two fully-disabled runs agree on *everything*, including the
    // embedded metrics registry — the tier-1 determinism contract.
    let (m1, s1) = run_fixture(false);
    let (m2, s2) = run_fixture(false);
    assert_eq!(s1, s2, "disabled runs must be byte-identical");
    assert!(*m1.memory() == *m2.memory());
    assert_eq!(s1.report(), s2.report());

    // And an instrumented run must not perturb the architecture: same
    // cycles, same report, same memory image (the metrics registry is
    // allowed to additionally count the recorded events).
    let (m3, s3) = run_fixture(true);
    assert_eq!(s1.cycles, s3.cycles);
    assert_eq!(s1.report(), s3.report());
    assert!(*m1.memory() == *m3.memory());
    assert!(!m3.events().is_empty(), "instrumented run recorded nothing");
}

#[test]
fn profiler_attribution_sums_exactly_to_simulated_cycles() {
    let (m, stats) = run_fixture(true);
    let profile = m.profile().expect("profiler enabled");
    for (c, cp) in profile.cores.iter().enumerate() {
        assert_eq!(cp.total(), stats.cycles, "core {c} attribution is not exact");
    }
    let text = render_profile(profile, &stats);
    assert!(text.contains("(exact)"), "{text}");
    // Phase-attributed compute exists: the kernel's vector loop runs
    // inside its single `<OI>` phase.
    assert!(profile.cores[0].phases.iter().any(|p| p.compute > 0), "{text}");
}

#[test]
fn metrics_dump_is_deterministic_and_delimited() {
    let (_, s1) = run_fixture(true);
    let (_, s2) = run_fixture(true);
    let d1 = s1.metrics.dump();
    assert_eq!(d1, s2.metrics.dump(), "metrics dump must be byte-stable");
    assert!(d1.starts_with("---------- begin statistics ----------"), "{d1}");
    assert!(d1.trim_end().ends_with("---------- end statistics ----------"), "{d1}");
    for name in
        ["sim.cycles", "sim.core0.phases", "sim.coproc.retired", "sim.mem.dram.requests", "sim.phase_len"]
    {
        assert!(d1.contains(name), "missing {name}:\n{d1}");
    }
}

// ---------------------------------------------------------------------
// Property: the event sink never reorders events within a track, for
// any event sequence and any ring capacity (eviction only ever drops a
// prefix, it cannot shuffle).

fn arb_track() -> impl Strategy<Value = Track> {
    prop_oneof![
        (0usize..2).prop_map(Track::Core),
        Just(Track::Coproc),
        Just(Track::LaneManager),
        Just(Track::Memory),
        Just(Track::Recovery),
    ]
}

/// Instant-rendering kinds only: span pairing intentionally rewrites
/// Begin/End pairs into single rows, so ordering is asserted on the
/// kinds that map 1:1 to output rows.
fn arb_instant_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        (0usize..2, prop_oneof![
            Just(ServiceLevel::FirstLevel),
            Just(ServiceLevel::L2),
            Just(ServiceLevel::Dram)
        ])
            .prop_map(|(core, level)| EventKind::CacheMiss { core, level }),
        (0usize..8).prop_map(|granule| EventKind::QuarantineBegin { granule }),
        (0usize..8).prop_map(|granule| EventKind::SelftestDetect { granule }),
        (0usize..8).prop_map(|granule| EventKind::GranuleRetired { granule }),
        (0u64..1000).prop_map(|stagnant_for| EventKind::WatchdogTrip { stagnant_for }),
        (0usize..8, 0u64..100, 0u64..100).prop_map(|(granule, to_cycle, replayed)| {
            EventKind::Rollback { granule, to_cycle, replayed }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_sink_never_reorders_within_a_track(
        deltas in proptest::collection::vec((0u64..50, arb_track(), arb_instant_kind()), 0..120),
        capacity in 1usize..64,
    ) {
        // Machines record with nondecreasing cycle stamps; model that.
        let mut log = EventLog::with_capacity(capacity);
        let mut cycle = 0u64;
        let mut expected: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        let mut recorded = Vec::new();
        for (delta, track, kind) in deltas {
            cycle += delta;
            log.record(Event { cycle, track, kind });
            recorded.push((track, cycle));
        }
        // The ring retains a suffix of the recorded sequence.
        let kept = &recorded[recorded.len() - log.len()..];
        prop_assert_eq!(log.dropped() as usize, recorded.len() - kept.len());
        for (track, cycle) in kept {
            expected.entry(track.tid(2)).or_default().push(*cycle);
        }

        let json = to_chrome_trace(&log, 2);
        let mut got: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        for (tid, ts) in tid_ts_pairs(&json) {
            got.entry(tid).or_default().push(ts);
        }
        // Every track's timestamps come out exactly in recording order
        // (all generated kinds render 1:1 as instants).
        prop_assert_eq!(got, expected);
    }
}
