//! Test-runner plumbing: configuration, the per-test deterministic RNG,
//! and the case-level error type.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Configuration for one `proptest!` block.
///
/// Field layout mirrors upstream so both `ProptestConfig::with_cases(n)`
/// and `ProptestConfig { cases: n, ..ProptestConfig::default() }` work.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases each property must pass.
    pub cases: u32,
    /// Upper bound on rejected cases (`prop_assume!` / `prop_filter`)
    /// before the harness gives up. Kept for API compatibility; the
    /// macro derives its own bound from `cases` when this is larger.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases, max_global_rejects: 1024 }
    }
}

impl ProptestConfig {
    /// A default configuration overriding only the case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases, ..ProptestConfig::default() }
    }
}

/// Why a property case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case was discarded (`prop_assume!`); it does not count.
    Reject(String),
    /// The case failed (`prop_assert!`); the test fails.
    Fail(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }

    /// A discard with the given reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Reject(r) => write!(f, "case rejected: {r}"),
            TestCaseError::Fail(m) => write!(f, "case failed: {m}"),
        }
    }
}

/// The deterministic random source behind every strategy.
///
/// Seeded from the fully-qualified test name (FNV-1a), so each property
/// sees its own fixed stream: failures reproduce exactly on re-run. The
/// stream is the workspace's one generator, [`rand::rngs::StdRng`].
#[derive(Debug, Clone)]
pub struct TestRng(StdRng);

impl TestRng {
    /// An RNG seeded from a test's fully-qualified name.
    pub fn for_test(qualified_name: &str) -> Self {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in qualified_name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        Self::from_seed(hash)
    }

    /// An RNG from an explicit 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_literal_update_syntax_works() {
        let c = ProptestConfig { cases: 24, ..ProptestConfig::default() };
        assert_eq!(c.cases, 24);
        assert_eq!(ProptestConfig::with_cases(12).cases, 12);
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::for_test("crate::mod::test");
        let mut b = TestRng::for_test("crate::mod::test");
        let mut c = TestRng::for_test("crate::mod::other");
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
