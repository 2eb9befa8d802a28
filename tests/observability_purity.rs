//! Tier-1 guarantee: the observability layer is a pure observer.
//!
//! An observability-disabled run (the shipping default) is byte-identical
//! across repeats — statistics, metrics registry, and final memory — and
//! enabling the full stack (instruction trace, event log, profiler)
//! changes no architectural quantity: same cycles, same report, same
//! memory image.

use occamy_sim::{Architecture, Machine, SimConfig};
use workloads::{corun, motivating, table3, WorkloadSpec};

fn build_pair(specs: &[WorkloadSpec], scale: f64) -> Machine {
    let cfg = SimConfig::paper_2core();
    corun::build_machine(specs, &cfg, &Architecture::Occamy, scale).expect("build")
}

fn build() -> Machine {
    build_pair(&[motivating::wl0(), motivating::wl1()], 0.25)
}

#[test]
fn disabled_observability_runs_are_byte_identical() {
    let mut m1 = build();
    let mut m2 = build();
    let s1 = m1.run(100_000_000).expect("simulation fault");
    let s2 = m2.run(100_000_000).expect("simulation fault");
    assert!(s1.completed);
    // Full structural equality covers every counter, every phase record,
    // and the embedded metrics registry.
    assert_eq!(s1, s2, "disabled runs must be byte-identical");
    assert_eq!(s1.report(), s2.report());
    assert_eq!(s1.metrics.dump(), s2.metrics.dump());
    assert!(*m1.memory() == *m2.memory(), "memory images diverged");
    assert!(m1.events().is_empty() && m1.trace().is_empty(), "nothing may be recorded");
}

/// Inputs: the motivating pair, then all 25 Table-3 pairs (Occamy,
/// scale 0.02 for both the pair sizes and the build).
#[test]
fn full_observability_does_not_perturb_the_architecture() {
    let motivating = [motivating::wl0(), motivating::wl1()];
    let table3 = table3::all_pairs(0.02);
    let pairs = std::iter::once(("motivating", &motivating[..], 0.25))
        .chain(table3.iter().map(|p| (p.label.as_str(), &p.workloads[..], 0.02)));
    for (label, specs, scale) in pairs {
        let mut base = build_pair(specs, scale);
        let base_stats = base.run(100_000_000).expect("simulation fault");

        let mut instr = build_pair(specs, scale);
        instr.enable_trace(4096);
        instr.enable_events(1 << 16);
        instr.enable_profile();
        let instr_stats = instr.run(100_000_000).expect("simulation fault");

        assert_eq!(base_stats.cycles, instr_stats.cycles, "{label}");
        assert_eq!(base_stats.report(), instr_stats.report(), "{label}");
        assert!(*base.memory() == *instr.memory(), "{label}: memory images diverged");

        // The instrumented run actually observed something, and the
        // profiler accounted for every cycle.
        assert!(!instr.events().is_empty(), "{label}: no events recorded");
        let profile = instr.profile().expect("profiler enabled");
        for (c, cp) in profile.cores.iter().enumerate() {
            let total = cp.total();
            assert_eq!(total, instr_stats.cycles, "{label}: core {c} attribution is not exact");
        }
    }
}
