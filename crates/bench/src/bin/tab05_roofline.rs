//! Table 5: attainable performance (GFLOP/s) for WL8.p1 (`rho_eos2`,
//! `oi_issue = 0.17`, `oi_mem = 0.25`) as the vector length sweeps from
//! 4 to 32 lanes — the case where the SIMD-issue-bandwidth ceiling, not
//! memory bandwidth, sets the lane demand (§7.4 case 4).
//!
//! Analytic (no simulation); the per-VL rows run on the worker pool and
//! dump as JSON via `--json`.

use bench::json::Value;
use bench::{rule, runner, Args, Flag};
use em_simd::VectorLength;
use occamy_compiler::analyze;
use roofline::{MachineCeilings, MemLevel};
use workloads::table3;

fn main() {
    let args = Args::parse(&[Flag::Workers, Flag::Json]);
    let ceilings = MachineCeilings::paper_default();
    // Use the *actual* analysed intensity of our rho_eos2 kernel — the
    // tests pin it to the paper's (1/6, 0.25).
    let oi = analyze(&table3::kernel("rho_eos2")).oi;
    println!(
        "Table 5: attainable performance for WL8.p1 (oi_issue={:.3}, oi_mem={:.2})",
        oi.issue(),
        oi.mem()
    );
    rule(78);
    println!(
        "{:<6} {:>15} {:>12} {:>12} {:>14}",
        "VL", "SIMDIssueBound", "MemBound", "CompBound", "Performance"
    );
    rule(78);
    let paper_rows: &[(usize, f64, f64, f64, f64)] = &[
        (4, 5.3, 16.0, 8.0, 5.3),
        (8, 10.7, 16.0, 16.0, 10.7),
        (12, 16.0, 16.0, 24.0, 16.0),
        (16, 21.3, 16.0, 32.0, 16.0),
        (20, 26.7, 16.0, 40.0, 16.0),
        (24, 32.0, 16.0, 48.0, 16.0),
        (28, 37.3, 16.0, 56.0, 16.0),
        (32, 42.7, 16.0, 64.0, 16.0),
    ];
    // (lanes, issue-bound, mem-bound, comp-bound, attainable) per row.
    let measured = runner::run_jobs(paper_rows.len(), args.workers(), |i| {
        let lanes = paper_rows[i].0;
        let vl = VectorLength::from_lanes(lanes);
        (
            lanes,
            ceilings.simd_issue_bw(vl) * oi.issue(),
            ceilings.mem_bw(MemLevel::Dram) * oi.mem(),
            ceilings.fp_peak(vl),
            ceilings.attainable(vl, oi, MemLevel::Dram),
        )
    });
    let mut rows_json = Vec::new();
    for (&(_, p_issue, p_mem, p_comp, p_perf), &(lanes, issue, mem, comp, perf)) in
        paper_rows.iter().zip(&measured)
    {
        println!(
            "{:<6} {:>7.1} [{:>4.1}] {:>6.1} [{:>4.1}] {:>6.1} [{:>4.1}] {:>7.1} [{:>4.1}]",
            lanes, issue, p_issue, mem, p_mem, comp, p_comp, perf, p_perf
        );
        let mut row = Value::obj();
        row.push("lanes", Value::UInt(lanes as u64))
            .push("simd_issue_bound", Value::Num(issue))
            .push("mem_bound", Value::Num(mem))
            .push("comp_bound", Value::Num(comp))
            .push("attainable", Value::Num(perf))
            .push("paper_attainable", Value::Num(p_perf));
        rows_json.push(row);
    }
    rule(78);
    println!("(measured [paper]; GFLOP/s)");
    let saturation = ceilings.saturation_vl(oi, MemLevel::Dram, VectorLength::new(8)).lanes();
    println!(
        "\nLane demand: rho_eos2 saturates at {saturation} lanes (paper: 12, trading 4 \
         under-utilised lanes for issue bandwidth)"
    );

    if let Some(path) = &args.json {
        let mut doc = Value::obj();
        doc.push("experiment", Value::Str("tab05_roofline".to_owned()))
            .push("oi_issue", Value::Num(oi.issue()))
            .push("oi_mem", Value::Num(oi.mem()))
            .push("saturation_lanes", Value::UInt(saturation as u64))
            .push("rows", Value::Arr(rows_json));
        bench::write_document(path, &doc).unwrap_or_else(|e| e.exit());
    }
}
