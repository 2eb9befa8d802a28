//! The per-test random stream is part of every property's identity.

use proptest::test_runner::TestRng;

/// Every property draws the cases it has always drawn: the stream for a
/// fixed test name is pinned word for word.
#[test]
fn stream_is_pinned_for_a_test_name() {
    let mut rng = TestRng::for_test("crate::mod::test");
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [0x93bb_5b46_ab40_6054, 0xa403_50fc_6df8_86dd, 0x1423_3ca5_356a_7db0, 0x35de_ccf8_dbf5_2e63]
    );
}
