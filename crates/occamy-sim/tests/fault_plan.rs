//! A fault plan is applied whole by the machine: its program clauses
//! (`truncate`, `bitflip`) corrupt every program that runs under it
//! exactly once, whether the program was loaded before or after
//! `set_fault_plan`, and a preempted task resumes with the program it
//! was preempted with.

use occamy_sim::{snapshot_to_bytes, Architecture, FaultPlan, Machine, SimConfig};
use workloads::{corun, table3};

/// A Table-3 pair, built and loaded on the paper's 2-core machine with
/// no fault plan installed.
fn clean_machine() -> Machine {
    let pair = table3::all_pairs(0.05).remove(0);
    corun::build_machine(&pair.workloads, &SimConfig::paper_2core(), &Architecture::Occamy, 1.0)
        .expect("Table-3 pair builds")
}

/// The machine's checkpoint bytes.
fn bytes(m: &Machine) -> Vec<u8> {
    snapshot_to_bytes(&m.snapshot()).expect("no observer or latched fault")
}

fn plan() -> FaultPlan {
    FaultPlan::parse("seed=11,bitflip=0.2,mem=0.01").expect("plan spec")
}

/// The same machine whether its programs were loaded before the plan
/// was installed or after: the same corrupted programs, the same count,
/// and the same run.
#[test]
fn loading_before_or_after_the_plan_is_the_same_run() {
    let clean = clean_machine();
    let programs: Vec<_> = (0..2).map(|c| clean.program(c).expect("loaded").clone()).collect();

    let mut before = clean.clone();
    before.set_fault_plan(&plan());

    let mut after =
        Machine::new(SimConfig::paper_2core(), Architecture::Occamy, clean.memory().clone())
            .expect("paper config");
    after.set_fault_plan(&plan());
    for (core, program) in programs.iter().enumerate() {
        after.load_program(core, program.clone());
    }

    let corrupted = before.fault_stats().expect("plan installed").program_corruptions;
    assert!(corrupted > 0, "the plan must corrupt something");
    for core in 0..2 {
        assert_ne!(before.program(core), Some(&programs[core]), "core {core} corrupted");
    }
    assert!(bytes(&before) == bytes(&after), "load order must not change the machine");

    let a = before.run(300_000);
    let b = after.run(300_000);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(bytes(&before) == bytes(&after), "load order must not change the run");
}

/// Installing a plan again, or a program-corrupting plan after a
/// runtime-only one, corrupts no program a second time.
#[test]
fn each_program_is_corrupted_once() {
    let mut once = clean_machine();
    once.set_fault_plan(&plan());

    let mut twice = clean_machine();
    twice.set_fault_plan(&plan());
    twice.set_fault_plan(&FaultPlan::default());
    twice.set_fault_plan(&plan());
    for core in 0..2 {
        assert_eq!(once.program(core), twice.program(core), "core {core}");
    }
    assert_eq!(
        twice.fault_stats().expect("plan installed").program_corruptions,
        0,
        "the reinstalled plan found nothing left to corrupt"
    );
}

/// A preempted task resumes with the program it was preempted with: a
/// resume never corrupts it again.
#[test]
fn a_resumed_task_keeps_its_program() {
    let mut m = clean_machine();
    m.set_fault_plan(&plan());
    let program = m.program(0).expect("loaded").clone();
    let count = m.fault_stats().expect("plan installed").program_corruptions;
    m.run(500).expect("runs");
    let task = m.preempt(0, 100_000).expect("drains");
    assert_eq!(m.program(0), None, "the core is idle");
    m.resume(0, task, 100_000).expect("resumes");
    assert_eq!(m.program(0), Some(&program));
    assert_eq!(m.fault_stats().expect("plan installed").program_corruptions, count);
}

/// Machine equality compares every f32 payload by bit pattern, so two
/// machines built and run the same way compare equal even after a
/// corrupted program has put a NaN in a register.
#[test]
fn identical_runs_compare_equal_through_nan_payloads() {
    let build = || {
        let mut m = clean_machine();
        m.set_fault_plan(&plan());
        m
    };
    let (mut a, mut b) = (build(), build());
    assert!(a == b, "built the same way");
    let ra = a.run(300_000);
    let rb = b.run(300_000);
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
    assert_eq!(bytes(&a), bytes(&b), "the runs are identical");
    assert!(a == b, "identical runs must compare equal");
}
