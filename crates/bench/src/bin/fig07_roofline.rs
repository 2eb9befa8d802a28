//! Fig. 7(a): the vector-length-aware roofline model, rendered as an
//! ASCII log-log chart — attainable performance vs operational
//! intensity for each vector length, showing the three ceiling families
//! (FP peak per VL, SIMD-issue bandwidth per VL, DRAM/L2 bandwidth).

use bench::{rule, Args};
use em_simd::{OperationalIntensity, VectorLength};
use roofline::{MachineCeilings, MemLevel};

const WIDTH: usize = 72;
const HEIGHT: usize = 22;
const OI_MIN: f64 = 1.0 / 64.0;
const OI_MAX: f64 = 16.0;
const PERF_MIN: f64 = 0.25;
const PERF_MAX: f64 = 128.0;

fn y_of(perf: f64) -> Option<usize> {
    if perf < PERF_MIN {
        return None;
    }
    let t = (perf / PERF_MIN).log2() / (PERF_MAX / PERF_MIN).log2();
    let row = (t * (HEIGHT - 1) as f64).round() as usize;
    Some((HEIGHT - 1).saturating_sub(row.min(HEIGHT - 1)))
}

fn main() {
    Args::parse(&[]);
    let m = MachineCeilings::paper_default();
    let mut grid = vec![vec![' '; WIDTH]; HEIGHT];

    // One attainable-performance curve per vector length (DRAM level),
    // drawn with the granule count as the glyph.
    for (granules, glyph) in [(1usize, '1'), (2, '2'), (4, '4'), (8, '8')] {
        let vl = VectorLength::new(granules);
        for col in 0..WIDTH {
            let t = col as f64 / (WIDTH - 1) as f64;
            let oi_val = OI_MIN * (OI_MAX / OI_MIN).powf(t);
            let oi = OperationalIntensity::uniform(oi_val);
            let ap = m.attainable(vl, oi, MemLevel::Dram);
            if let Some(row) = y_of(ap) {
                if grid[row][col] == ' ' {
                    grid[row][col] = glyph;
                }
            }
        }
    }

    println!(
        "Fig. 7(a): attainable performance vs operational intensity\n\
         (glyph = vector length in granules; log-log axes; DRAM ceiling)"
    );
    rule(WIDTH + 10);
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{PERF_MAX:>6.0} |")
        } else if r == HEIGHT - 1 {
            format!("{PERF_MIN:>6.2} |")
        } else {
            String::from("       |")
        };
        println!("{label}{}", row.iter().collect::<String>());
    }
    println!("       +{}", "-".repeat(WIDTH));
    println!("        {OI_MIN:<8.3}{:>width$.1}  FLOPs/byte", OI_MAX, width = WIDTH - 10);
    rule(WIDTH + 10);
    println!("Ceilings at the paper's parameters:");
    for granules in [1usize, 2, 4, 8] {
        let vl = VectorLength::new(granules);
        println!(
            "  VL={:<2} lanes={:<3} FP peak {:>5.1} GFLOP/s   issue BW {:>5.1} GB/s",
            granules,
            vl.lanes(),
            m.fp_peak(vl),
            m.simd_issue_bw(vl),
        );
    }
    println!(
        "  DRAM {:.0} GB/s   L2 {:.0} GB/s   VecCache {:.0} GB/s",
        m.mem_bw(MemLevel::Dram),
        m.mem_bw(MemLevel::L2),
        m.mem_bw(MemLevel::VecCache)
    );
}
