//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs from the repository root. The last line of standard output is
//! the JSON result: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Progress
//! and failures go to standard error. `--write-goldens` regenerates the
//! pinned output digests under the per-cycle reference kernel.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::sim::SimWorkload;
use perfbench::{digest, service, sim, Workload, OUT_DIR};

const USAGE: &str =
    "usage: perfbench --workload <fig10-timing|dram-chase|fig10-functional|occamyd-mixed> \
--seed <n> --seconds <n> --trace <0|1> | --write-goldens";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    WriteGoldens,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        if flag == "--write-goldens" {
            return Ok(Command::WriteGoldens);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn run(args: &Args) -> Result<String, String> {
    let (out, rec) = args.workload.run(args.seed, args.seconds, args.trace)?;
    let problems: Vec<&String> = out.failures.iter().chain(&out.check_errors).collect();
    for p in problems.iter().take(10) {
        eprintln!("[perfbench] FAILED {p}");
    }
    if problems.len() > 10 {
        eprintln!("[perfbench] ... and {} more", problems.len() - 10);
    }
    if let Some(rec) = rec {
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        rec.write(&path)?;
        eprintln!(
            "[perfbench] wrote {} spans to {}",
            rec.len(),
            path.display()
        );
    }
    out.result_line(Workload::catalogue(args.trace))
}

fn write_goldens() -> Result<(), String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden");
    let header = "Pinned output digests; regenerate with `perfbench --write-goldens`\n\
        (per-cycle reference kernel). Columns: label; timing statistics, memory and register\n\
        digests; functional memory digest (Fig. 10 population only).";
    let files = [
        ("fig10.txt", SimWorkload::Fig10Timing),
        ("dram-chase.txt", SimWorkload::DramChase),
    ];
    for (file, workload) in files {
        let rows = sim::golden_rows(workload)?;
        std::fs::write(dir.join(file), digest::render(header, &rows)).map_err(|e| e.to_string())?;
        eprintln!("[perfbench] wrote {} rows to {file}", rows.len());
    }
    let rows = service::golden_rows(Path::new(OUT_DIR))?;
    let header = "Pinned occamyd-mixed payload digests; regenerate with `perfbench --write-goldens`\n\
        (per-cycle reference kernel). Columns: job key address (JobSpec::key_hash), payload digest.";
    std::fs::write(dir.join("occamyd.txt"), digest::render(header, &rows))
        .map_err(|e| e.to_string())?;
    eprintln!("[perfbench] wrote {} rows to occamyd.txt", rows.len());
    Ok(())
}

fn main() -> ExitCode {
    let result = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => run(&args).map(|line| println!("{line}")),
        Ok(Command::WriteGoldens) => {
            // Every machine built from here on, the service's included,
            // uses the per-cycle reference kernel.
            std::env::set_var("OCCAMY_REFERENCE_KERNEL", "1");
            write_goldens()
        }
        Err(e) => Err(format!("{e}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
