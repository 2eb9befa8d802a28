//! CI smoke test: the flagship experiment binary must run end-to-end
//! with `--fast --json` — the exact invocation the docs advertise — and
//! produce a parseable, self-consistent JSON dump.

use std::process::Command;

use bench::json::{parse, Value};

#[test]
fn fig10_fast_json_smoke() {
    let out_path = std::env::temp_dir().join(format!("fig10_smoke_{}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_fig10_speedups"))
        .args(["--fast", "--json"])
        .arg(&out_path)
        .output()
        .expect("spawn fig10_speedups");
    assert!(
        output.status.success(),
        "fig10_speedups --fast failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    assert!(stdout.contains("Fig. 10: speedups over Private"), "table header missing");
    assert!(stdout.contains("GM"), "geometric-mean row missing");
    // Harness chatter must stay off stdout (it would break the
    // byte-identical-output guarantee).
    assert!(!stdout.contains("[runner]"), "runner harness output leaked onto stdout");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let wrote = format!("[runner] wrote {}", out_path.display());
    assert!(stderr.contains(&wrote), "`{wrote}` missing from stderr: {stderr}");

    let text = std::fs::read_to_string(&out_path).expect("JSON file written");
    let _ = std::fs::remove_file(&out_path);
    let doc = parse(&text).expect("JSON output parses");
    assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("fig10_speedups"));
    assert_eq!(doc.get("scale").and_then(Value::as_f64), Some(0.25));
    let sweeps = doc.get("sweeps").expect("sweeps").items();
    assert_eq!(sweeps.len(), 25, "one sweep per co-run pair");
    for sw in sweeps {
        assert_eq!(sw.get("results").expect("results").items().len(), 4);
    }
}

/// The binaries that moved onto the worker pool must print the same
/// stdout whatever `--workers` says, and no binary reports host time:
/// stderr carries no wall-clock line.
#[test]
fn pooled_binaries_are_worker_count_invariant() {
    let binaries = [
        env!("CARGO_BIN_EXE_ablation_contention"),
        env!("CARGO_BIN_EXE_ablation_lane_manager"),
        env!("CARGO_BIN_EXE_ablation_monitor"),
        env!("CARGO_BIN_EXE_ablation_prefetch"),
        env!("CARGO_BIN_EXE_fig14_case_study"),
        env!("CARGO_BIN_EXE_sched_quantum"),
    ];
    for binary in binaries {
        let run = |workers: &str| {
            let output = Command::new(binary)
                .args(["--scale", "0.05", "--workers", workers])
                .output()
                .expect("spawn experiment binary");
            let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
            assert!(output.status.success(), "{binary} --workers {workers} failed:\n{stderr}");
            assert!(!stderr.contains("wall"), "{binary} reported host time: {stderr}");
            output.stdout
        };
        let serial = run("1");
        assert!(!serial.is_empty(), "{binary} printed nothing");
        assert!(serial == run("3"), "{binary}: stdout differs between 1 and 3 workers");
    }
}

#[test]
fn unknown_flag_fails_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_fig10_speedups"))
        .arg("--frobnicate")
        .output()
        .expect("spawn fig10_speedups");
    assert_eq!(output.status.code(), Some(2), "unknown flag is a usage error, not a panic");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--frobnicate"), "error should name the bad flag: {stderr}");
    assert!(stderr.contains("--json"), "error should list supported flags: {stderr}");
}

#[test]
fn unwritable_json_path_exits_3() {
    let missing = std::env::temp_dir()
        .join(format!("no_such_dir_{}", std::process::id()))
        .join("out.json");
    let output = Command::new(env!("CARGO_BIN_EXE_tab05_roofline"))
        .arg("--json")
        .arg(&missing)
        .output()
        .expect("spawn tab05_roofline");
    assert_eq!(output.status.code(), Some(3), "a failed write is an output error, not a panic");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot write"), "error should say what failed: {stderr}");
    assert!(stderr.contains("out.json"), "error should name the path: {stderr}");
}

/// No experiment binary silently ignores a shared flag: each one it does
/// not honour (and any unknown one) exits 2, naming the flag and listing
/// what the binary does take, before any simulation runs.
#[test]
fn every_binary_refuses_the_shared_flags_it_ignores() {
    let refused: [(&str, &[&str]); 22] = [
        (env!("CARGO_BIN_EXE_ablation_contention"), &["--json", "--mode"]),
        (env!("CARGO_BIN_EXE_ablation_fma"), &["--fast", "--scale", "--workers", "--json", "--mode"]),
        (env!("CARGO_BIN_EXE_ablation_lane_manager"), &["--json", "--mode"]),
        (env!("CARGO_BIN_EXE_ablation_monitor"), &["--json", "--mode"]),
        (env!("CARGO_BIN_EXE_ablation_prefetch"), &["--json", "--mode"]),
        (env!("CARGO_BIN_EXE_extra_kernels"), &["--fast", "--scale", "--json", "--mode"]),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--mode"]),
        (env!("CARGO_BIN_EXE_fig02_motivation"), &["--mode"]),
        (env!("CARGO_BIN_EXE_fig07_roofline"), &["--fast", "--scale", "--workers", "--json", "--mode"]),
        (env!("CARGO_BIN_EXE_fig10_speedups"), &[]),
        (env!("CARGO_BIN_EXE_fig11_simd_util"), &[]),
        (env!("CARGO_BIN_EXE_fig12_area"), &["--fast", "--scale", "--workers", "--json", "--mode"]),
        (env!("CARGO_BIN_EXE_fig13_rename_stalls"), &["--mode"]),
        (env!("CARGO_BIN_EXE_fig14_case_study"), &["--json", "--mode"]),
        (env!("CARGO_BIN_EXE_fig15_overhead"), &["--mode"]),
        (env!("CARGO_BIN_EXE_fig16_scalability"), &[]),
        (env!("CARGO_BIN_EXE_recovery_campaign"), &["--mode"]),
        (env!("CARGO_BIN_EXE_scalability_8core"), &["--mode"]),
        (env!("CARGO_BIN_EXE_sched_quantum"), &["--mode"]),
        (env!("CARGO_BIN_EXE_speedup"), &["--mode"]),
        (env!("CARGO_BIN_EXE_tab03_workloads"), &["--mode"]),
        (env!("CARGO_BIN_EXE_tab05_roofline"), &["--fast", "--scale", "--mode"]),
    ];
    for (binary, flags) in refused {
        for &flag in flags.iter().chain(&["--bogus"]) {
            let value = match flag {
                "--scale" => Some("0.05"),
                "--workers" => Some("1"),
                "--json" => Some("refused.json"),
                "--mode" => Some("functional"),
                _ => None,
            };
            let output =
                Command::new(binary).arg(flag).args(value).output().expect("spawn binary");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(2), "{binary} {flag}: {stderr}");
            assert!(stderr.contains(flag), "{binary}: error should name {flag}: {stderr}");
            assert!(stderr.contains("supported:"), "{binary}: error should list flags: {stderr}");
            assert!(output.stdout.is_empty(), "{binary} {flag} ran before refusing");
        }
    }
}
