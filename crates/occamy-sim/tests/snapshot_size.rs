//! A snapshot carries the memory image and the state the machine holds,
//! not the capacity of its caches: a cold cache encodes as its geometry,
//! so a machine that has not run snapshots to little more than its
//! functional arena.

use occamy_sim::{snapshot_from_bytes, snapshot_to_bytes, Architecture, SimConfig};
use workloads::{corun, table3};

/// Everything a cold Table-3 machine encodes beyond its arena: the
/// programs, the pipeline and the cache geometries.
const OVERHEAD: usize = 64 << 10;

#[test]
fn a_cold_table3_machine_snapshots_to_its_arena_and_little_more() {
    let cfg = SimConfig::paper_2core();
    for pair in table3::all_pairs(0.25) {
        let machine = corun::build_machine(&pair.workloads, &cfg, &Architecture::Occamy, 1.0)
            .expect("table-3 pairs build");
        let arena = machine.memory().capacity();
        let bytes = snapshot_to_bytes(&machine.snapshot()).expect("a cold machine snapshots");
        assert!(
            bytes.len() <= arena + OVERHEAD,
            "{}: {} snapshot bytes for a {arena}-byte arena",
            pair.label,
            bytes.len()
        );
        let decoded = snapshot_from_bytes(&bytes).expect("decodes");
        assert_eq!(snapshot_to_bytes(&decoded).expect("re-encodes"), bytes);
    }
}
