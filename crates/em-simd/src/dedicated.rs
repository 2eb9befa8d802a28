//! The five dedicated registers of the EM-SIMD ISA (Table 1).

use std::fmt;

/// One of the five dedicated registers defined by the EM-SIMD ISA
/// (paper Table 1), read and written with `MRS`/`MSR`.
///
/// Per-core registers: [`Oi`](DedicatedReg::Oi),
/// [`Decision`](DedicatedReg::Decision), [`Vl`](DedicatedReg::Vl),
/// [`Status`](DedicatedReg::Status). The free-lane counter
/// [`Al`](DedicatedReg::Al) is shared by all cores.
///
/// # Examples
///
/// ```
/// use em_simd::DedicatedReg;
///
/// assert!(DedicatedReg::Al.is_shared());
/// assert!(!DedicatedReg::Vl.is_shared());
/// assert_eq!(DedicatedReg::Decision.to_string(), "<decision>");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DedicatedReg {
    /// `<OI>`: the operational intensity of the current phase, written at
    /// phase entry (non-zero) and phase exit (zero). Encoded as a pair of
    /// `f32` values, see [`OperationalIntensity`](crate::OperationalIntensity).
    Oi,
    /// `<decision>`: the vector length suggested for this core by the most
    /// recent lane-partition plan.
    Decision,
    /// `<VL>`: the currently configured vector length. Writing it requests
    /// a reconfiguration.
    Vl,
    /// `<status>`: 1 if the most recent `<VL>` write succeeded, 0 otherwise.
    Status,
    /// `<AL>`: the number of free SIMD lanes (granules) available, shared
    /// by all cores.
    Al,
}

impl DedicatedReg {
    /// All five dedicated registers.
    pub const ALL: [DedicatedReg; 5] = [
        DedicatedReg::Oi,
        DedicatedReg::Decision,
        DedicatedReg::Vl,
        DedicatedReg::Status,
        DedicatedReg::Al,
    ];

    /// Whether the register is shared by all cores (only `<AL>` is; the
    /// other four are replicated per core, Fig. 3).
    pub fn is_shared(self) -> bool {
        matches!(self, DedicatedReg::Al)
    }
}

impl fmt::Display for DedicatedReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DedicatedReg::Oi => "<OI>",
            DedicatedReg::Decision => "<decision>",
            DedicatedReg::Vl => "<VL>",
            DedicatedReg::Status => "<status>",
            DedicatedReg::Al => "<AL>",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_al_is_shared() {
        let shared: Vec<_> = DedicatedReg::ALL.iter().filter(|r| r.is_shared()).collect();
        assert_eq!(shared, vec![&DedicatedReg::Al]);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(DedicatedReg::Oi.to_string(), "<OI>");
        assert_eq!(DedicatedReg::Al.to_string(), "<AL>");
        assert_eq!(DedicatedReg::Status.to_string(), "<status>");
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(DedicatedReg {
    0 => Oi,
    1 => Decision,
    2 => Vl,
    3 => Status,
    4 => Al,
});
