//! Table 3: the evaluation workloads — printed with their *computed*
//! operational intensities (Eq. 5) next to the paper's published values.
//!
//! Analysis-only (no simulation), but the per-kernel/per-workload
//! analyses still fan out over the worker pool and the table is
//! available as JSON via `--json`.

use bench::json::Value;
use bench::{rule, runner, Args, Flag};
use occamy_compiler::analyze;
use workloads::table3;

fn main() {
    let args = Args::parse(&[Flag::Scale, Flag::Workers, Flag::Json]);
    let workers = args.workers();

    println!("Table 3: workloads (computed oi_mem [paper], oi_issue where it differs)");
    rule(74);
    println!(
        "{:<16} {:>9} {:>9} {:>7} {:>7} {:>7} {:>9}",
        "phase", "oi_mem", "[paper]", "comp", "loads", "stores", "oi_issue"
    );
    rule(74);
    let names = table3::kernel_names();
    let kernel_rows = runner::run_jobs(names.len(), workers, |i| {
        let name = names[i];
        (name, analyze(&table3::kernel(name)))
    });
    let mut kernels_json = Vec::new();
    for (name, info) in &kernel_rows {
        let issue = if (info.oi.issue() - info.oi.mem()).abs() > 1e-9 {
            format!("{:.3}", info.oi.issue())
        } else {
            String::from("=")
        };
        println!(
            "{:<16} {:>9.3} {:>9} {:>7} {:>7} {:>7} {:>9}",
            name,
            info.oi.mem(),
            table3::paper_oi(name),
            info.comp,
            info.loads,
            info.stores,
            issue
        );
        let mut row = Value::obj();
        row.push("kernel", Value::Str((*name).to_owned()))
            .push("oi_mem", Value::Num(info.oi.mem()))
            .push("oi_issue", Value::Num(info.oi.issue()))
            .push("paper_oi", Value::Num(table3::paper_oi(name)))
            .push("comp", Value::UInt(info.comp as u64))
            .push("loads", Value::UInt(info.loads as u64))
            .push("stores", Value::UInt(info.stores as u64));
        kernels_json.push(row);
    }
    rule(74);

    println!("\nWorkload compositions:");
    // (kind, index) jobs: WL1–22 then cv1–12, all analysed concurrently.
    let jobs: Vec<(&str, usize)> = (1..=22usize)
        .map(|i| ("WL", i))
        .chain((1..=12usize).map(|i| ("cv", i)))
        .collect();
    let compositions = runner::run_jobs(jobs.len(), workers, |j| {
        let (kind, i) = jobs[j];
        let wl = match kind {
            "WL" => table3::spec_workload(i, args.scale),
            _ => table3::opencv_workload(i, args.scale),
        };
        let phases: Vec<(String, f64)> = wl
            .phases
            .iter()
            .map(|p| (p.kernel.name().to_owned(), p.computed_oi_mem()))
            .collect();
        (format!("{:?}", wl.class()), phases)
    });
    let mut workloads_json = Vec::new();
    for ((kind, i), (class, phases)) in jobs.iter().zip(&compositions) {
        let rendered: Vec<String> =
            phases.iter().map(|(name, oi)| format!("{name} ({oi:.2})")).collect();
        let tag = if *kind == "WL" { format!("WL{i}") } else { format!("cv{i}") };
        println!("  {tag:<5} [{class}] {}", rendered.join(" + "));
        let mut row = Value::obj();
        row.push("workload", Value::Str(tag))
            .push("class", Value::Str(class.clone()))
            .push(
                "phases",
                Value::Arr(
                    phases
                        .iter()
                        .map(|(name, oi)| {
                            let mut p = Value::obj();
                            p.push("kernel", Value::Str(name.clone()))
                                .push("oi_mem", Value::Num(*oi));
                            p
                        })
                        .collect(),
                ),
            );
        workloads_json.push(row);
    }
    println!(
        "\n(Known Table 3 inconsistencies in the paper — select_atoms5, sff5,\n\
         rho_eos2 listed with two different intensities — resolved to the\n\
         first-listed value; see workloads::table3.)"
    );

    if let Some(path) = &args.json {
        let mut doc = Value::obj();
        doc.push("experiment", Value::Str("tab03_workloads".to_owned()))
            .push("scale", Value::Num(args.scale))
            .push("kernels", Value::Arr(kernels_json))
            .push("workloads", Value::Arr(workloads_json));
        bench::write_document(path, &doc).unwrap_or_else(|e| e.exit());
    }
}
