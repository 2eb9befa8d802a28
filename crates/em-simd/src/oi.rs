//! Operational intensity of a phase (Eq. 5).

use std::fmt;

/// The operational intensity of a phase, the pair of quantities defined by
/// Eq. 5 of the paper and written to the `<OI>` dedicated register at phase
/// entry.
///
/// * `issue = comp / Σ byte_i` — FLOPs per byte *moved by vector memory
///   instructions* (no reuse), governing the SIMD-issue-bandwidth ceiling.
/// * `mem = comp / footprint` — FLOPs per byte of *memory footprint* with
///   data reuse considered, governing the memory-bandwidth ceiling.
///
/// In the absence of data reuse the two coincide.
///
/// The pair is encoded into the 64-bit `<OI>` register as two `f32`s
/// (`issue` in the high word, `mem` in the low word); an all-zero register
/// marks the end of a phase.
///
/// # Examples
///
/// ```
/// use em_simd::OperationalIntensity;
///
/// let oi = OperationalIntensity::new(0.17, 0.25);
/// let raw = oi.to_bits();
/// let back = OperationalIntensity::from_bits(raw);
/// assert!((back.issue() - 0.17).abs() < 1e-6);
/// assert!((back.mem() - 0.25).abs() < 1e-6);
/// assert!(!oi.is_phase_end());
/// assert!(OperationalIntensity::PHASE_END.is_phase_end());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationalIntensity {
    issue: f32,
    mem: f32,
}

impl OperationalIntensity {
    /// The zero intensity written at the end of a phase (Fig. 9 epilogue).
    pub const PHASE_END: OperationalIntensity = OperationalIntensity { issue: 0.0, mem: 0.0 };

    /// Creates an operational intensity from the issue- and memory-side
    /// FLOPs/byte values.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or not finite.
    pub fn new(issue: f64, mem: f64) -> Self {
        assert!(issue.is_finite() && issue >= 0.0, "oi.issue must be finite and >= 0");
        assert!(mem.is_finite() && mem >= 0.0, "oi.mem must be finite and >= 0");
        OperationalIntensity { issue: issue as f32, mem: mem as f32 }
    }

    /// Creates an intensity without data reuse, where `issue == mem`.
    pub fn uniform(oi: f64) -> Self {
        Self::new(oi, oi)
    }

    /// The issue-side operational intensity (`<OI>.issue`).
    pub fn issue(self) -> f64 {
        f64::from(self.issue)
    }

    /// The memory-side operational intensity (`<OI>.mem`).
    pub fn mem(self) -> f64 {
        f64::from(self.mem)
    }

    /// Whether this is the phase-end marker (both components zero).
    pub fn is_phase_end(self) -> bool {
        self.issue == 0.0 && self.mem == 0.0
    }

    /// Encodes the pair into the 64-bit `<OI>` register representation.
    pub fn to_bits(self) -> u64 {
        (u64::from(self.issue.to_bits()) << 32) | u64::from(self.mem.to_bits())
    }

    /// Decodes the pair from the 64-bit `<OI>` register representation.
    pub fn from_bits(bits: u64) -> Self {
        OperationalIntensity {
            issue: f32::from_bits((bits >> 32) as u32),
            mem: f32::from_bits(bits as u32),
        }
    }
}

impl Default for OperationalIntensity {
    fn default() -> Self {
        Self::PHASE_END
    }
}

impl fmt::Display for OperationalIntensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(issue={}, mem={})", self.issue, self.mem)
    }
}

// --- Checkpoint serialization --------------------------------------------

impl statecodec::Codec for OperationalIntensity {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.to_bits(), sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        Ok(OperationalIntensity::from_bits(<u64 as statecodec::Codec>::decode(src)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_round_trip() {
        let oi = OperationalIntensity::new(0.5, 0.25);
        assert_eq!(OperationalIntensity::from_bits(oi.to_bits()), oi);
    }

    #[test]
    fn phase_end_encodes_to_zero() {
        assert_eq!(OperationalIntensity::PHASE_END.to_bits(), 0);
        assert!(OperationalIntensity::from_bits(0).is_phase_end());
    }

    #[test]
    fn uniform_sets_both_components() {
        let oi = OperationalIntensity::uniform(1.83);
        assert!((oi.issue() - oi.mem()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = OperationalIntensity::new(f64::NAN, 0.5);
    }

    #[test]
    fn display_shows_both() {
        let s = OperationalIntensity::new(0.17, 0.25).to_string();
        assert!(s.contains("issue=0.17") && s.contains("mem=0.25"), "{s}");
    }
}
