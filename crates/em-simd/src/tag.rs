//! Instruction provenance tags.

use std::fmt;

/// Which part of the eager-lazy lane-partitioning skeleton (Fig. 9) an
/// instruction belongs to.
///
/// Tags carry no architectural meaning; the simulator uses them to
/// attribute runtime overhead to the elastic-sharing machinery (the two
/// components of Fig. 15) and tests use them to check the compiler emitted
/// the right skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InstTag {
    /// Ordinary workload instruction (loop body, setup, remainder).
    #[default]
    Body,
    /// Phase prologue: the `MSR <OI>` and initial `<VL>` configuration.
    PhasePrologue,
    /// Phase epilogue: releasing `<OI>` and the lanes.
    PhaseEpilogue,
    /// The partition monitor (`MRS <decision>` and its compare/branch).
    Monitor,
    /// The vector-length reconfiguration block (`MSR <VL>` retry loop and
    /// repair code).
    Reconfigure,
}

impl fmt::Display for InstTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InstTag::Body => "body",
            InstTag::PhasePrologue => "prologue",
            InstTag::PhaseEpilogue => "epilogue",
            InstTag::Monitor => "monitor",
            InstTag::Reconfigure => "reconfigure",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_body() {
        assert_eq!(InstTag::default(), InstTag::Body);
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(InstTag {
    0 => Body,
    1 => PhasePrologue,
    2 => PhaseEpilogue,
    3 => Monitor,
    4 => Reconfigure,
});
