//! The on-chip resource table (`ResourceTbl` in Fig. 3 and Fig. 5).

use std::fmt;

use em_simd::{DedicatedReg, VectorLength};

/// The on-chip resource table: `4 * C + 1` registers for a `C`-core chip —
/// four dedicated registers per core (`<OI>`, `<decision>`, `<VL>`,
/// `<status>`) plus the shared free-lane counter `<AL>` (§4.2.1).
///
/// The table stores raw 64-bit register values; interpretation (e.g. the
/// packed [`OperationalIntensity`](em_simd::OperationalIntensity) in
/// `<OI>`) is up to the reader. Vector-length accounting is done through
/// [`try_reconfigure`](ResourceTable::try_reconfigure), which enforces the
/// lane-availability invariant `c.<VL> + <AL> >= l` of §4.2.2.
///
/// # Examples
///
/// ```
/// use lane_manager::ResourceTable;
/// use em_simd::{DedicatedReg, VectorLength};
///
/// let mut tbl = ResourceTable::new(2, 8);
/// assert_eq!(tbl.read(0, DedicatedReg::Al), 8);
/// tbl.try_reconfigure(0, VectorLength::new(3)).unwrap();
/// assert_eq!(tbl.read(0, DedicatedReg::Vl), 3);
/// assert_eq!(tbl.read(1, DedicatedReg::Al), 5);
/// assert_eq!(tbl.read(0, DedicatedReg::Status), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceTable {
    cores: Vec<CoreRegs>,
    al: usize,
    total: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CoreRegs {
    oi: u64,
    decision: u64,
    vl: u64,
    status: u64,
}

impl ResourceTable {
    /// Creates a table for `cores` cores sharing `total_granules` ExeBUs,
    /// with all lanes initially free and all registers zero.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, total_granules: usize) -> Self {
        assert!(cores > 0, "a resource table needs at least one core");
        ResourceTable {
            cores: vec![CoreRegs::default(); cores],
            al: total_granules,
            total: total_granules,
        }
    }

    /// The number of cores served.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The total number of ExeBUs (granules) managed.
    pub fn total_granules(&self) -> usize {
        self.total
    }

    /// Reads a dedicated register as seen by `core` (reads of `<AL>`
    /// return the shared counter regardless of `core`).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn read(&self, core: usize, reg: DedicatedReg) -> u64 {
        let c = &self.cores[core];
        match reg {
            DedicatedReg::Oi => c.oi,
            DedicatedReg::Decision => c.decision,
            DedicatedReg::Vl => c.vl,
            DedicatedReg::Status => c.status,
            DedicatedReg::Al => self.al as u64,
        }
    }

    /// Writes a dedicated register's raw value. Writes to `<VL>` and
    /// `<AL>` are *not* allowed through this method — vector-length
    /// changes must go through [`try_reconfigure`](Self::try_reconfigure)
    /// so the free-lane accounting stays consistent; such writes are
    /// ignored (and trip a `debug_assert!` in debug builds).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn write(&mut self, core: usize, reg: DedicatedReg, value: u64) {
        let c = &mut self.cores[core];
        match reg {
            DedicatedReg::Oi => c.oi = value,
            DedicatedReg::Decision => c.decision = value,
            DedicatedReg::Status => c.status = value,
            DedicatedReg::Vl | DedicatedReg::Al => {
                // Lane accounting must stay conservative: ignore the
                // write in release builds instead of corrupting <AL>.
                debug_assert!(false, "{reg} must be updated through try_reconfigure");
            }
        }
    }

    /// The vector length currently configured for `core`.
    pub fn vl(&self, core: usize) -> VectorLength {
        VectorLength::new(self.cores[core].vl as usize)
    }

    /// The number of free granules (`<AL>`).
    pub fn free_granules(&self) -> usize {
        self.al
    }

    /// A snapshot of every core's `<decision>` register, in core order
    /// (used by observability layers to detect repartitions).
    pub fn decisions(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.decision).collect()
    }

    /// Attempts the atomic register update of a successful `MSR <VL>, l`
    /// (§4.2.2): requires `c.<VL> + <AL> >= l`; on success sets `<AL>` to
    /// `c.<VL> + <AL> - l`, `c.<VL>` to `l` and `c.<status>` to 1. On
    /// failure leaves `<VL>`/`<AL>` unchanged and sets `c.<status>` to 0.
    ///
    /// # Errors
    ///
    /// Returns [`ReconfigureError`] when not enough lanes are available.
    pub fn try_reconfigure(
        &mut self,
        core: usize,
        requested: VectorLength,
    ) -> Result<(), ReconfigureError> {
        let current = self.cores[core].vl as usize;
        let requested_g = requested.granules();
        if current + self.al < requested_g {
            self.cores[core].status = 0;
            return Err(ReconfigureError {
                core,
                requested,
                available: VectorLength::new(current + self.al),
            });
        }
        self.al = current + self.al - requested_g;
        self.cores[core].vl = requested_g as u64;
        self.cores[core].status = 1;
        debug_assert!(self.invariant_holds());
        Ok(())
    }

    /// Checks the conservation invariant: allocated + free == total.
    pub fn invariant_holds(&self) -> bool {
        let allocated: usize = self.cores.iter().map(|c| c.vl as usize).sum();
        allocated + self.al == self.total
    }

    /// Permanently removes one *free* granule from the machine (lane
    /// quarantine retiring a faulty ExeBU): `<AL>` and the total both
    /// shrink by one, so the conservation invariant keeps holding over
    /// the survivors. Returns `false` (changing nothing) when no granule
    /// is free — the caller must wait for the owner to release it first.
    pub fn retire_granule(&mut self) -> bool {
        if self.al == 0 {
            return false;
        }
        self.al -= 1;
        self.total -= 1;
        debug_assert!(self.invariant_holds());
        true
    }
}

impl fmt::Display for ResourceTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.cores.iter().enumerate() {
            writeln!(
                f,
                "core{i}: <OI>={:#x} <decision>={} <VL>={} <status>={}",
                c.oi, c.decision, c.vl, c.status
            )?;
        }
        write!(f, "<AL>={}", self.al)
    }
}

/// Error returned when a vector-length reconfiguration requests more lanes
/// than are available to the core (`c.<VL> + <AL> < l`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigureError {
    /// The requesting core.
    pub core: usize,
    /// The requested vector length.
    pub requested: VectorLength,
    /// The maximum the core could have requested.
    pub available: VectorLength,
}

impl fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} requested {} but only {} granules are available to it",
            self.core,
            self.requested,
            self.available.granules()
        )
    }
}

impl std::error::Error for ReconfigureError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_has_all_lanes_free() {
        let tbl = ResourceTable::new(4, 16);
        assert_eq!(tbl.free_granules(), 16);
        assert_eq!(tbl.num_cores(), 4);
        for c in 0..4 {
            assert!(tbl.vl(c).is_zero());
        }
        assert!(tbl.invariant_holds());
    }

    #[test]
    fn reconfigure_moves_lanes_between_al_and_vl() {
        let mut tbl = ResourceTable::new(2, 8);
        tbl.try_reconfigure(0, VectorLength::new(5)).unwrap();
        tbl.try_reconfigure(1, VectorLength::new(3)).unwrap();
        assert_eq!(tbl.free_granules(), 0);
        // Shrinking core 0 frees lanes for core 1.
        tbl.try_reconfigure(0, VectorLength::new(2)).unwrap();
        assert_eq!(tbl.free_granules(), 3);
        tbl.try_reconfigure(1, VectorLength::new(6)).unwrap();
        assert_eq!(tbl.free_granules(), 0);
        assert!(tbl.invariant_holds());
    }

    #[test]
    fn oversubscription_fails_and_sets_status_zero() {
        let mut tbl = ResourceTable::new(2, 8);
        tbl.try_reconfigure(0, VectorLength::new(6)).unwrap();
        let err = tbl.try_reconfigure(1, VectorLength::new(3)).unwrap_err();
        assert_eq!(err.available, VectorLength::new(2));
        assert_eq!(tbl.read(1, DedicatedReg::Status), 0);
        assert_eq!(tbl.read(0, DedicatedReg::Status), 1);
        assert!(tbl.vl(1).is_zero());
        assert!(tbl.invariant_holds());
        assert!(err.to_string().contains("core 1"));
    }

    #[test]
    fn release_all_lanes_via_zero_vl() {
        let mut tbl = ResourceTable::new(2, 8);
        tbl.try_reconfigure(0, VectorLength::new(8)).unwrap();
        tbl.try_reconfigure(0, VectorLength::ZERO).unwrap();
        assert_eq!(tbl.free_granules(), 8);
    }

    #[test]
    fn al_is_shared_across_cores() {
        let mut tbl = ResourceTable::new(3, 12);
        tbl.try_reconfigure(2, VectorLength::new(4)).unwrap();
        for c in 0..3 {
            assert_eq!(tbl.read(c, DedicatedReg::Al), 8);
        }
    }

    #[test]
    fn retire_granule_shrinks_al_and_total_together() {
        let mut tbl = ResourceTable::new(2, 8);
        tbl.try_reconfigure(0, VectorLength::new(6)).unwrap();
        assert!(tbl.retire_granule());
        assert_eq!(tbl.free_granules(), 1);
        assert_eq!(tbl.total_granules(), 7);
        assert!(tbl.invariant_holds());
        // The retired lane is really gone: core 0 can no longer grow
        // back to 8.
        assert!(tbl.try_reconfigure(0, VectorLength::new(8)).is_err());
        assert!(tbl.try_reconfigure(0, VectorLength::new(7)).is_ok());
        // Nothing free: retirement must wait.
        assert!(!tbl.retire_granule());
        assert_eq!(tbl.total_granules(), 7);
    }

    // Checks a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "try_reconfigure")]
    fn raw_vl_write_is_rejected() {
        let mut tbl = ResourceTable::new(1, 4);
        tbl.write(0, DedicatedReg::Vl, 2);
    }

    #[test]
    fn decision_and_oi_round_trip() {
        let mut tbl = ResourceTable::new(2, 8);
        tbl.write(0, DedicatedReg::Decision, 5);
        tbl.write(0, DedicatedReg::Oi, 0xdead_beef);
        assert_eq!(tbl.read(0, DedicatedReg::Decision), 5);
        assert_eq!(tbl.read(0, DedicatedReg::Oi), 0xdead_beef);
        // Other core unaffected.
        assert_eq!(tbl.read(1, DedicatedReg::Decision), 0);
    }

    #[test]
    fn display_lists_every_core() {
        let tbl = ResourceTable::new(2, 8);
        let s = tbl.to_string();
        assert!(s.contains("core0") && s.contains("core1") && s.contains("<AL>=8"));
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(CoreRegs { oi, decision, vl, status });

// Hand-written so decode re-establishes the conservation invariant
// (`Σ vl + al == total`) and the per-core vl range that
// `ResourceTable::vl`'s `VectorLength::new` asserts.
impl statecodec::Codec for ResourceTable {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.cores, sink);
        statecodec::Codec::encode(&self.al, sink);
        statecodec::Codec::encode(&self.total, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let cores: Vec<CoreRegs> = statecodec::Codec::decode(src)?;
        let al = <usize as statecodec::Codec>::decode(src)?;
        let total = <usize as statecodec::Codec>::decode(src)?;
        if cores.is_empty() {
            return Err(statecodec::DecodeError::at(src, "resource table has no cores"));
        }
        if let Some((i, c)) = cores.iter().enumerate().find(|(_, c)| c.vl > 64) {
            return Err(statecodec::DecodeError::at(
                src,
                format!("core {i} holds {} granules, beyond the 64-granule ceiling", c.vl),
            ));
        }
        let table = ResourceTable { cores, al, total };
        if !table.invariant_holds() {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "lane conservation violated: allocated + {al} free != {total} total"
                ),
            ));
        }
        Ok(table)
    }
}
