//! Vector lengths in 128-bit granules.

use std::fmt;

/// Number of 32-bit lanes in one 128-bit granule.
pub const LANES_PER_GRANULE: usize = 4;

/// Size of one 32-bit lane in bytes.
pub const LANE_BYTES: usize = 4;

/// A vector length expressed in 128-bit granules, the reconfiguration
/// granularity of the EM-SIMD ISA (Table 1: `<VL> = 2` means 256 bits).
///
/// A value of zero means "no lanes currently configured" — the state a
/// workload is in outside any vectorized phase (Fig. 9 sets `<VL> = 0` in
/// the phase epilogue).
///
/// # Examples
///
/// ```
/// use em_simd::VectorLength;
///
/// let vl = VectorLength::new(3);
/// assert_eq!(vl.granules(), 3);
/// assert_eq!(vl.lanes(), 12);
/// assert_eq!(vl.bits(), 384);
/// assert!(!vl.is_zero());
/// assert_eq!(VectorLength::from_lanes(16), VectorLength::new(4));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VectorLength(u8);

impl VectorLength {
    /// The zero vector length (no lanes configured).
    pub const ZERO: VectorLength = VectorLength(0);

    /// Creates a vector length of `granules` 128-bit granules.
    ///
    /// # Panics
    ///
    /// Panics if `granules` exceeds 64 (a deliberately generous bound — the
    /// paper's largest configuration is 16 granules for a 4-core chip).
    pub fn new(granules: usize) -> Self {
        assert!(granules <= 64, "vector length of {granules} granules out of range");
        VectorLength(granules as u8)
    }

    /// Creates a vector length from a number of 32-bit lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a multiple of [`LANES_PER_GRANULE`].
    pub fn from_lanes(lanes: usize) -> Self {
        assert!(
            lanes.is_multiple_of(LANES_PER_GRANULE),
            "{lanes} lanes is not a whole number of 128-bit granules"
        );
        Self::new(lanes / LANES_PER_GRANULE)
    }

    /// The number of 128-bit granules.
    pub fn granules(self) -> usize {
        self.0 as usize
    }

    /// The number of 32-bit lanes (`granules * 4`).
    pub fn lanes(self) -> usize {
        self.granules() * LANES_PER_GRANULE
    }

    /// The vector width in bits (`granules * 128`).
    pub fn bits(self) -> usize {
        self.granules() * 128
    }

    /// The vector width in bytes (`granules * 16`).
    pub fn bytes(self) -> usize {
        self.granules() * 16
    }

    /// Whether no lanes are configured.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction in granules.
    #[must_use]
    pub fn saturating_sub(self, other: VectorLength) -> VectorLength {
        VectorLength(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for VectorLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x128b", self.0)
    }
}

impl From<VectorLength> for u64 {
    fn from(vl: VectorLength) -> u64 {
        u64::from(vl.0)
    }
}

impl TryFrom<u64> for VectorLength {
    type Error = VlOutOfRange;

    fn try_from(value: u64) -> Result<Self, Self::Error> {
        if value <= 64 {
            Ok(VectorLength(value as u8))
        } else {
            Err(VlOutOfRange(value))
        }
    }
}

/// Error returned when converting an out-of-range integer to a
/// [`VectorLength`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlOutOfRange(pub u64);

impl fmt::Display for VlOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vector length {} exceeds the supported maximum of 64 granules", self.0)
    }
}

impl std::error::Error for VlOutOfRange {}

// --- Checkpoint serialization --------------------------------------------

impl statecodec::Codec for VectorLength {
    fn encode(&self, sink: &mut statecodec::Sink) {
        sink.put_byte(self.0);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let granules = <u8 as statecodec::Codec>::decode(src)?;
        if usize::from(granules) > 64 {
            return Err(statecodec::DecodeError::at(
                src,
                format!("vector length of {granules} granules out of range"),
            ));
        }
        Ok(VectorLength(granules))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granule_lane_byte_arithmetic() {
        let vl = VectorLength::new(2);
        assert_eq!(vl.lanes(), 8);
        assert_eq!(vl.bits(), 256);
        assert_eq!(vl.bytes(), 32);
    }

    #[test]
    fn zero_is_default() {
        assert_eq!(VectorLength::default(), VectorLength::ZERO);
        assert!(VectorLength::ZERO.is_zero());
        assert_eq!(VectorLength::ZERO.lanes(), 0);
    }

    #[test]
    fn ordering_follows_granules() {
        assert!(VectorLength::new(1) < VectorLength::new(3));
        assert!(VectorLength::new(4) > VectorLength::ZERO);
    }

    #[test]
    fn round_trips_through_u64() {
        for g in 0..=16 {
            let vl = VectorLength::new(g);
            let raw: u64 = vl.into();
            assert_eq!(VectorLength::try_from(raw).unwrap(), vl);
        }
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(VectorLength::try_from(65).is_err());
        let err = VectorLength::try_from(1000).unwrap_err();
        assert_eq!(err, VlOutOfRange(1000));
        assert!(err.to_string().contains("1000"));
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn from_lanes_rejects_partial_granules() {
        let _ = VectorLength::from_lanes(6);
    }

    #[test]
    fn saturating_sub_stops_at_zero() {
        let a = VectorLength::new(2);
        let b = VectorLength::new(5);
        assert_eq!(b.saturating_sub(a), VectorLength::new(3));
        assert_eq!(a.saturating_sub(b), VectorLength::ZERO);
    }

    #[test]
    fn display_formats_granules() {
        assert_eq!(VectorLength::new(4).to_string(), "4x128b");
    }
}
