//! The snapshot byte format is pinned: two Table-3 pairs, stopped
//! mid-run on each of the four architectures, encode to the lengths and
//! CRC-32s recorded below. The round-trip tests only compare a build
//! against itself; this one fails when a change moves any byte a
//! snapshot holds (a field reordered, a class of registers encoded
//! differently, a derived structure leaking into the encoding) without
//! bumping [`SNAPSHOT_VERSION`].
//!
//! Both pairs' memory phases run 134 elements, which no vector length
//! divides (every VL is a multiple of 4 lanes), so each pass ends in a
//! `WHILELO`-governed tail and renames predicate registers as well as
//! vector ones.

use occamy_sim::{snapshot_to_bytes, Architecture, Machine, SimConfig, SNAPSHOT_VERSION};
use workloads::{corun, table3};

/// The cycle each run stops at: mid-way through every run below.
const STOP: u64 = 2_500;

/// `(pair, architecture, snapshot length, CRC-32 of the snapshot
/// without its own CRC trailer)`; the trailer seals the rest, so the
/// CRC of a whole file is the same constant for every file.
const PINNED: &[(&str, &str, usize, u32)] = &[
    ("1+13", "private", 1_250_173, 0xa05ad2ac),
    ("1+13", "fts", 1_267_837, 0x2cf346ac),
    ("1+13", "vls", 1_260_712, 0xfde9bd63),
    ("1+13", "occamy", 1_265_414, 0x578d5449),
    ("6+1", "private", 1_199_098, 0x128e0298),
    ("6+1", "fts", 1_213_759, 0x22aa3431),
    ("6+1", "vls", 1_211_535, 0x54cb4f25),
    ("6+1", "occamy", 1_213_689, 0x31b5e18b),
];

fn architectures(pair: &table3::CorunPair, cfg: &SimConfig) -> [(&'static str, Architecture); 4] {
    let partition = corun::vls_partition(&pair.workloads, cfg);
    [
        ("private", Architecture::Private),
        ("fts", Architecture::TemporalSharing),
        ("vls", Architecture::StaticSpatialSharing { partition }),
        ("occamy", Architecture::Occamy),
    ]
}

/// Physical vector-register entries held beyond the architectural
/// registers: renamed destinations that have not retired yet.
fn renamed_in_flight(m: &Machine) -> usize {
    let cfg = m.config();
    let used: usize = m.block_free_entries().iter().map(|&f| cfg.vregs_per_block - f).sum();
    let arch: usize = (0..cfg.cores).map(|c| em_simd::NUM_VREGS * m.vl(c).granules()).sum();
    used - arch
}

#[test]
fn mid_run_snapshots_keep_their_bytes() {
    assert_eq!(SNAPSHOT_VERSION, 4, "a format change bumps the version and re-pins the bytes");
    let cfg = SimConfig::paper_2core();
    let pairs = table3::all_pairs(0.01);
    let mut seen = Vec::new();
    for label in ["1+13", "6+1"] {
        let pair = pairs.iter().find(|p| p.label == label).expect("a Table-3 pair");
        assert!(pair.workloads.iter().flat_map(|w| &w.phases).any(|p| p.trip % 4 != 0));
        for (arch_name, arch) in architectures(pair, &cfg) {
            let mut m = corun::build_machine(&pair.workloads, &cfg, &arch, 1.0)
                .expect("table-3 pairs build");
            m.run(STOP).expect("runs without a fault");
            assert_eq!(m.cycle(), STOP);
            assert!(!m.done(), "{label} on {arch_name} finished before cycle {STOP}");
            assert!(
                renamed_in_flight(&m) > 0,
                "{label} on {arch_name} has nothing in flight at cycle {STOP}"
            );
            let bytes = snapshot_to_bytes(&m.snapshot()).expect("a running machine snapshots");
            let sealed = &bytes[..bytes.len() - 4];
            seen.push((label, arch_name, bytes.len(), statecodec::crc32(sealed)));
        }
    }
    assert_eq!(seen, PINNED);
}
