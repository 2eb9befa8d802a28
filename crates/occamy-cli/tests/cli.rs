//! End-to-end tests of the `occamy` binary.

use std::process::Command;

fn occamy() -> Command {
    Command::new(env!("CARGO_BIN_EXE_occamy"))
}

fn write_kernel(name: &str, text: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("occamy_cli_test_{name}.ok"));
    std::fs::write(&path, text).expect("write kernel");
    path
}

#[test]
fn analyze_reports_intensities() {
    let path = write_kernel("analyze", "y[i] = 2.0 * x[i] + y[i]\n");
    let out = occamy().arg("analyze").arg(&path).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("issue=0.1667"), "{text}");
    assert!(text.contains("mem=0.2500"), "{text}");
}

#[test]
fn run_executes_and_prints_stats() {
    let path = write_kernel("run", "kernel t\nc[i] = a[i] + b[i]\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--trip", "500", "--arch", "private"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycles"), "{text}");
    assert!(text.contains("c[0..4]"), "{text}");
}

#[test]
fn disasm_prints_em_simd_assembly() {
    let path = write_kernel("disasm", "y[i] = x[i] * 3.0\n");
    let out = occamy().args(["disasm", path.to_str().unwrap()]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("msr <OI>"), "{text}");
    assert!(text.contains("ld1w"), "{text}");
    assert!(text.contains("whilelo"), "{text}");
}

#[test]
fn roofline_prints_plan() {
    let out = occamy().args(["roofline", "0.09", "1.0"]).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lane partition plan: [8, 24] lanes"), "{text}");
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let path = write_kernel("bad", "y[i] = x[i]\nz[j] = oops\n");
    let out = occamy().args(["analyze", path.to_str().unwrap()]).output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn unknown_arch_is_rejected() {
    let path = write_kernel("arch", "y[i] = x[i] * 2.0\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--arch", "tpu"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown architecture"));
}

#[test]
fn corun_shows_lane_timeline() {
    let mem = write_kernel("corun_mem", "c[i] = a[i] + b[i]\n");
    let comp = write_kernel(
        "corun_comp",
        "y[i] = (x[i] * 1.5 + 0.25) * (x[i] + 0.75) * (x[i] * x[i] + 1.25)\n",
    );
    let out = occamy()
        .args([
            "corun",
            mem.to_str().unwrap(),
            comp.to_str().unwrap(),
            "--trip",
            "2048",
            "--passes",
            "2",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("core0 alloc"), "{text}");
    assert!(text.contains("SIMD utilisation"), "{text}");
}

#[test]
fn shipped_sample_kernels_parse_and_run() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../kernels");
    for entry in std::fs::read_dir(&root).expect("kernels dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "ok") {
            let mut cmd = occamy();
            cmd.args(["run", path.to_str().unwrap(), "--trip", "300"]);
            if path.file_name().is_some_and(|n| n == "saxpy.ok") {
                cmd.args(["--param", "alpha=2.0"]);
            }
            let out = cmd.output().expect("run");
            assert!(
                out.status.success(),
                "{}: {}",
                path.display(),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn opt_flag_folds_constants_before_compiling() {
    let path = write_kernel("optflag", "y[i] = x[i] * (2.0 * 3.0) + 0.0\n");
    let plain = occamy().args(["disasm", path.to_str().unwrap()]).output().expect("run");
    let opt = occamy().args(["disasm", path.to_str().unwrap(), "-O"]).output().expect("run");
    assert!(plain.status.success() && opt.status.success());
    let count = |o: &std::process::Output| {
        String::from_utf8_lossy(&o.stdout).matches("fmul").count()
            + String::from_utf8_lossy(&o.stdout).matches("fadd").count()
    };
    assert!(count(&opt) < count(&plain), "optimizer should remove arithmetic");

    // Optimized and unoptimized runs produce identical results.
    let run = |extra: &[&str]| {
        let mut cmd = occamy();
        cmd.args(["run", path.to_str().unwrap(), "--trip", "300"]).args(extra);
        let out = cmd.output().expect("run");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.contains("y[0..4]"))
            .expect("output line")
            .to_owned()
    };
    assert_eq!(run(&[]), run(&["-O"]));
}

#[test]
fn sched_time_shares_three_kernels() {
    let a = write_kernel("sched_a", "y[i] = x[i] * 2.0\n");
    let b = write_kernel("sched_b", "c[i] = a[i] + b[i]\n");
    let c = write_kernel(
        "sched_c",
        "y[i] = (x[i] * 1.5 + 0.25) * (x[i] + 0.75)\n",
    );
    let out = occamy()
        .args([
            "sched",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            c.to_str().unwrap(),
            "--trip",
            "8192",
            "--quantum",
            "2000",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan"), "{text}");
    // All three tasks appear, and with three tasks on two cores plus a
    // small quantum at least one context switch happens.
    for name in ["#0", "#1", "#2"] {
        assert!(text.contains(name), "{text}");
    }
    assert!(!text.contains("0 context switches"), "{text}");
}

#[test]
fn trace_out_writes_a_kanata_file() {
    let path = write_kernel("kanata", "c[i] = a[i] + b[i]\n");
    let trace = std::env::temp_dir().join("occamy_cli_test.kanata");
    let out = occamy()
        .args([
            "run",
            path.to_str().unwrap(),
            "--trip",
            "300",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&trace).expect("trace file");
    assert!(text.starts_with("Kanata\t0004\n"), "{text}");
    assert!(text.contains("ld1w"), "{text}");
}

#[test]
fn recover_flag_prints_a_summary_on_a_clean_run() {
    let path = write_kernel("recover_clean", "c[i] = a[i] * 2.0\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--trip", "500", "--recover", "default"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recovery:"), "{text}");
    assert!(text.contains("0 residue"), "{text}");
    assert!(text.contains("0 retired"), "{text}");
}

#[test]
fn recover_survives_an_injected_permanent_lane_fault() {
    let path = write_kernel("recover_perm", "c[i] = a[i] * 2.0 + b[i]\n");
    let out = occamy()
        .args([
            "run",
            path.to_str().unwrap(),
            "--trip",
            "4096",
            "--inject",
            "seed=1,lanep=2,lanepat=400",
            "--recover",
            "interval=1000,selftest=2000,strikes=3",
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("quarantined granule(s): [2]"), "{text}");
    assert!(text.contains("1 retired"), "{text}");
}

#[test]
fn an_unrecovered_lane_fault_is_a_simulation_fault() {
    let path = write_kernel("recover_off", "c[i] = a[i] * 2.0 + b[i]\n");
    let out = occamy()
        .args([
            "run",
            path.to_str().unwrap(),
            "--trip",
            "4096",
            "--inject",
            "seed=1,lanep=2,lanepat=400",
        ])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lane"), "{err}");
}

#[test]
fn bad_recover_spec_is_a_usage_error() {
    let path = write_kernel("recover_bad", "c[i] = a[i] * 2.0\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--recover", "bogus=1"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bogus"));
}

#[test]
fn events_flag_writes_chrome_trace_json() {
    let path = write_kernel("events", "c[i] = a[i] + b[i]\n");
    let events = std::env::temp_dir().join("occamy_cli_test_events.json");
    let out = occamy()
        .args([
            "run",
            path.to_str().unwrap(),
            "--trip",
            "2048",
            "--events",
            events.to_str().unwrap(),
        ])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&events).expect("events file");
    assert!(text.starts_with("{\"displayTimeUnit\""), "{text}");
    assert!(text.contains("\"traceEvents\""), "{text}");
    // All four always-on subsystem tracks are named, and real (phase)
    // spans were recorded.
    for track in ["core0", "coproc", "lane-manager", "memory"] {
        assert!(text.contains(&format!("\"name\":\"{track}\"")), "missing {track}: {text}");
    }
    assert!(text.contains("\"ph\":\"X\""), "{text}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote Chrome trace"), "{stdout}");
}

#[test]
fn unknown_mode_is_a_usage_error() {
    let path = write_kernel("mode_sampled", "c[i] = a[i] + b[i]\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--mode", "sampled"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--mode") && err.contains("timing") && err.contains("functional"),
        "{err}"
    );
}

#[test]
fn zero_trace_buf_is_a_usage_error() {
    let path = write_kernel("tracebuf0", "c[i] = a[i] + b[i]\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--trace-buf", "0"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace-buf"));
}

#[test]
fn trace_buf_bounds_the_kanata_window() {
    let path = write_kernel("tracebuf", "c[i] = a[i] * 2.0 + b[i]\n");
    let small = std::env::temp_dir().join("occamy_cli_test_small.kanata");
    let large = std::env::temp_dir().join("occamy_cli_test_large.kanata");
    for (buf, out_path) in [("64", &small), ("4096", &large)] {
        let out = occamy()
            .args([
                "run",
                path.to_str().unwrap(),
                "--trip",
                "2048",
                "--trace-buf",
                buf,
                "--trace-out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("run");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let small_text = std::fs::read_to_string(&small).expect("small trace");
    let large_text = std::fs::read_to_string(&large).expect("large trace");
    assert!(
        small_text.len() < large_text.len(),
        "a 64-event ring should retain less than a 4096-event ring"
    );
}

#[test]
fn overflowing_the_event_ring_warns() {
    let path = write_kernel("overflow", "c[i] = a[i] + b[i]\n");
    let events = std::env::temp_dir().join("occamy_cli_test_overflow.json");
    let run = |buf: &str| {
        let events = events.to_str().unwrap();
        let out = occamy()
            .args(["run", path.to_str().unwrap(), "--trace-buf", buf, "--events", events])
            .output()
            .expect("run");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let small = run("64");
    assert!(small.contains("warning: event ring overflowed"), "{small}");
    assert!(small.contains("--trace-buf"), "{small}");
    // A ring large enough for the whole run drops nothing and says nothing.
    let large = run("1000000");
    assert!(!large.contains("overflowed"), "{large}");
}

#[test]
fn profile_subcommand_attributes_every_cycle() {
    let path = write_kernel("profile", "y[i] = x[i] * 2.0 + 1.0\n");
    let out = occamy()
        .args(["profile", path.to_str().unwrap(), "--trip", "2048"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cycle attribution"), "{text}");
    assert!(text.contains("(exact)"), "{text}");
    assert!(!text.contains("attribution check: 0 attributed"), "{text}");
    for needle in ["compute", "mem", "drain", "monitor", "idle", "other"] {
        assert!(text.contains(needle), "missing column {needle}: {text}");
    }
}

#[test]
fn stats_flag_dumps_the_metrics_registry() {
    let path = write_kernel("statsdump", "c[i] = a[i] + b[i]\n");
    let out = occamy()
        .args(["run", path.to_str().unwrap(), "--trip", "500", "--stats"])
        .output()
        .expect("run");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("begin statistics"), "{text}");
    assert!(text.contains("end statistics"), "{text}");
    for needle in ["sim.cycles", "sim.coproc.retired", "sim.mem.l2.misses", "sim.phase_len"] {
        assert!(text.contains(needle), "missing metric {needle}: {text}");
    }
}

#[test]
fn recover_with_sched_is_rejected() {
    let path = write_kernel("recover_sched", "c[i] = a[i] * 2.0\n");
    let out = occamy()
        .args(["sched", path.to_str().unwrap(), "--recover", "default"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("sched"));
}

/// No simulating subcommand silently ignores an option. For every
/// (subcommand, option) pair the option either changes what the
/// subcommand does (exit status, stdout, stderr or the written file)
/// relative to the same command without it, or is refused as a usage
/// error (exit 2) naming it.
#[test]
fn every_option_changes_the_output_or_is_refused() {
    let k0 = write_kernel("flags_k0", "param alpha\ny[i] = alpha * x[i] * (2.0 * 3.0) + 0.0\n");
    let k1 = write_kernel("flags_k1", "c[i] = a[i] + b[i]\n");
    let (k0, k1) = (k0.to_str().unwrap(), k1.to_str().unwrap());
    let file = std::env::temp_dir().join(format!("occamy_cli_flags_{}.out", std::process::id()));
    let file = file.to_str().unwrap();
    // (option, the command-line context it needs, the option's own words)
    let options: &[(&str, &[&str], &[&str])] = &[
        ("--trip", &[], &["--trip", "128"]),
        ("--passes", &[], &["--passes", "2"]),
        ("--arch", &[], &["--arch", "private"]),
        ("--granules", &["--arch", "vls"], &["--granules", "2"]),
        ("--param", &[], &["--param", "alpha=3.0"]),
        ("--opt", &[], &["-O"]),
        ("--inject", &[], &["--inject", "seed=1,truncate=1.0"]),
        ("--quantum", &[], &["--quantum", "100"]),
        ("--mode", &[], &["--mode", "functional"]),
        ("--recover", &[], &["--recover", "default"]),
        ("--trace", &[], &["--trace"]),
        ("--trace-out", &[], &["--trace-out", file]),
        ("--trace-buf", &["--trace"], &["--trace-buf", "16"]),
        ("--events", &[], &["--events", file]),
        ("--timeline", &[], &["--timeline"]),
        ("--stats", &[], &["--stats"]),
    ];
    let subcommands: &[(&str, &[&str])] = &[
        ("disasm", &[k0]),
        ("run", &[k0]),
        ("profile", &[k0]),
        ("corun", &[k0, k1]),
        ("sched", &[k0, k1]),
    ];
    let observe = |args: &[&str]| {
        let _ = std::fs::remove_file(file);
        let out = occamy().args(args).output().expect("run");
        (out.status.code(), out.stdout, out.stderr, std::fs::read(file).ok())
    };
    for &(cmd, kernels) in subcommands {
        for &(option, context, words) in options {
            let mut base: Vec<&str> = [&[cmd][..], kernels, &["--trip", "256"], context].concat();
            let mut without = observe(&base);
            if without.0 == Some(2) {
                // The subcommand refuses the context; the option alone
                // must be refused too.
                base.truncate(base.len() - context.len());
                without = observe(&base);
            }
            assert_eq!(without.0, Some(0), "`{}` must run", base.join(" "));
            let with: Vec<&str> = [&base[..], words].concat();
            let got = observe(&with);
            if got.0 == Some(2) {
                let stderr = String::from_utf8_lossy(&got.2);
                assert!(
                    stderr.contains(option),
                    "`{}`: the refusal must name {option}: {stderr}",
                    with.join(" ")
                );
            } else {
                assert!(got != without, "`{}` ignores {option}", with.join(" "));
            }
        }
    }
    let _ = std::fs::remove_file(file);
}
