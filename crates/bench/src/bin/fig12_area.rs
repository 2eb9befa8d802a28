//! Fig. 12: chip-area breakdown of the four architectures at the 2-core
//! configuration (paper totals: 1.263 mm² for Private/FTS/VLS,
//! 1.265 mm² for Occamy; the Manager stays under 1 %).

use bench::{rule, Args};
use occamy_sim::{Architecture, AreaBreakdown, AreaComponent, SimConfig};

fn main() {
    Args::parse(&[]);
    let cfg = SimConfig::paper_2core();
    let archs = [
        Architecture::Private,
        Architecture::TemporalSharing,
        Architecture::StaticSpatialSharing { partition: vec![4, 4] },
        Architecture::Occamy,
    ];

    println!("Fig. 12: area breakdown for the 2-core configuration (mm²)");
    rule(78);
    print!("{:<16}", "component");
    for arch in &archs {
        print!("{:>12}", arch.short_name());
    }
    println!();
    rule(78);
    let breakdowns: Vec<AreaBreakdown> =
        archs.iter().map(|a| AreaBreakdown::for_config(&cfg, a)).collect();
    for component in AreaComponent::ALL {
        print!("{:<16}", component.to_string());
        for b in &breakdowns {
            print!("{:>12.4}", b.component(component));
        }
        println!();
    }
    rule(78);
    print!("{:<16}", "total");
    for b in &breakdowns {
        print!("{:>12.4}", b.total());
    }
    println!();
    print!("{:<16}", "paper total");
    for arch in &archs {
        let reference = if *arch == Architecture::Occamy { 1.265 } else { 1.263 };
        print!("{reference:>12.3}");
    }
    println!();

    let occamy = &breakdowns[3];
    println!(
        "\nManager area: {:.4} mm² = {:.2}% of the chip (paper: <1%)",
        occamy.component(AreaComponent::Manager),
        100.0 * occamy.component(AreaComponent::Manager) / occamy.total()
    );

    println!("\nScaling to 4 cores (§7.6):");
    let cfg4 = SimConfig::paper(4);
    for arch in [
        Architecture::Private,
        Architecture::TemporalSharing,
        Architecture::Occamy,
    ] {
        let b = AreaBreakdown::for_config(&cfg4, &arch);
        println!("  {:<8} {:.3} mm²", arch.short_name(), b.total());
    }
    println!("  (FTS keeps per-core full-width register contexts: its VRF doubles)");
}
