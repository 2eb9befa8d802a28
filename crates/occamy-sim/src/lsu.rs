//! The per-core load/store unit queue (LSU with LHQ/STQ of Fig. 5).

use mem_sim::Cycle;

use crate::regblocks::PhysId;

/// One queued vector memory operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LsuEntry {
    /// Global age (program-order sequence number).
    pub seq: u64,
    /// `true` for stores.
    pub store: bool,
    /// Effective byte address (resolved by the scalar core before
    /// transmission).
    pub addr: u64,
    /// Access width in bytes (`lanes * 4`).
    pub bytes: u64,
    /// Number of f32 lanes.
    pub lanes: usize,
    /// Destination physical register (loads).
    pub dst: Option<PhysId>,
    /// Data source physical register (stores).
    pub src: Option<PhysId>,
    /// Whether the entry has been issued to the memory system.
    pub issued: bool,
    /// Completion cycle once issued.
    pub complete_at: Option<Cycle>,
    /// Loaded value, captured at issue (loads only).
    pub data: Option<Vec<f32>>,
    /// Governing predicate's physical register, if predicated.
    pub pred: Option<PhysId>,
}

impl LsuEntry {
    /// Whether the entry's byte range overlaps `[addr, addr + bytes)`.
    /// Saturating: spans from untrusted programs may sit at the top of
    /// the address space.
    pub fn overlaps(&self, addr: u64, bytes: u64) -> bool {
        self.addr < addr.saturating_add(bytes) && addr < self.addr.saturating_add(self.bytes)
    }
}

/// A bounded, age-ordered queue of in-flight vector memory operations for
/// one core.
///
/// Issue rules (enforced by the co-processor's issue stage using the
/// query methods here):
///
/// * a **load** may issue once no older *un-issued* store overlaps it
///   (issued stores have already performed their functional write);
/// * a **store** may issue once its data register is ready and every
///   older entry has issued (stores keep program order conservatively —
///   the paper's MOB discipline).
#[derive(Debug, Clone, PartialEq)]
pub struct Lsu {
    entries: Vec<LsuEntry>,
    capacity: usize,
}

impl Lsu {
    /// Creates an empty queue of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lsu { entries: Vec::new(), capacity }
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Enqueues an operation (entries must arrive in `seq` order).
    /// Misuse — a full queue or a non-monotonic `seq` — drops the entry
    /// (and trips a `debug_assert!` in debug builds) rather than
    /// corrupting the age order.
    pub fn push(&mut self, entry: LsuEntry) {
        debug_assert!(!self.is_full(), "LSU overflow — rename must check is_full()");
        if self.is_full() {
            return;
        }
        if let Some(last) = self.entries.last() {
            debug_assert!(entry.seq > last.seq, "out-of-order LSU enqueue");
            if entry.seq <= last.seq {
                return;
            }
        }
        self.entries.push(entry);
    }

    /// The entries in age order.
    pub fn entries(&self) -> &[LsuEntry] {
        &self.entries
    }

    /// Mutable access, age order.
    pub fn entries_mut(&mut self) -> &mut [LsuEntry] {
        &mut self.entries
    }

    /// Whether the load at `idx` is blocked by an older un-issued store.
    pub fn load_blocked(&self, idx: usize) -> bool {
        let me = &self.entries[idx];
        self.entries[..idx]
            .iter()
            .any(|e| e.store && !e.issued && e.overlaps(me.addr, me.bytes))
    }

    /// Whether the store at `idx` is blocked by any older un-issued entry.
    pub fn store_blocked(&self, idx: usize) -> bool {
        self.entries[..idx].iter().any(|e| !e.issued)
    }

    /// Removes completed entries (`complete_at <= now`) in age order,
    /// moving each one into `on_done`.
    pub fn drain_completed(&mut self, now: Cycle, mut on_done: impl FnMut(LsuEntry)) {
        let mut i = 0;
        while i < self.entries.len() {
            let e = &self.entries[i];
            if e.issued && e.complete_at.is_some_and(|c| c <= now) {
                on_done(self.entries.remove(i));
            } else {
                i += 1;
            }
        }
    }

    /// Completion cycles of issued entries — the wake-ups the event
    /// kernel's skip horizon folds in.
    pub fn issued_completions(&self) -> impl Iterator<Item = Cycle> + '_ {
        self.entries.iter().filter(|e| e.issued).filter_map(|e| e.complete_at)
    }

    /// Whether any entry (issued or not) overlaps the byte range — the
    /// MOB query scalar cores use before scalar memory accesses
    /// (Table 2's address-overlap ordering).
    pub fn any_overlap(&self, addr: u64, bytes: u64) -> bool {
        self.entries.iter().any(|e| e.overlaps(addr, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(seq: u64, addr: u64, bytes: u64) -> LsuEntry {
        LsuEntry {
            seq,
            store: false,
            addr,
            bytes,
            lanes: (bytes / 4) as usize,
            dst: Some(PhysId(seq as u32)),
            src: None,
            issued: false,
            complete_at: None,
            data: None,
            pred: None,
        }
    }

    fn store(seq: u64, addr: u64, bytes: u64) -> LsuEntry {
        LsuEntry {
            seq,
            store: true,
            addr,
            bytes,
            lanes: (bytes / 4) as usize,
            dst: None,
            src: Some(PhysId(seq as u32)),
            issued: false,
            complete_at: None,
            data: None,
            pred: None,
        }
    }

    #[test]
    fn loads_bypass_nonoverlapping_stores() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        lsu.push(load(2, 0x200, 64));
        assert!(!lsu.load_blocked(1), "different address — may bypass");
    }

    #[test]
    fn loads_wait_for_overlapping_unissued_stores() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        lsu.push(load(2, 0x120, 64));
        assert!(lsu.load_blocked(1));
        lsu.entries_mut()[0].issued = true;
        assert!(!lsu.load_blocked(1), "issued store already wrote memory");
    }

    #[test]
    fn stores_wait_for_all_older_entries() {
        let mut lsu = Lsu::new(8);
        lsu.push(load(1, 0x0, 64));
        lsu.push(store(2, 0x1000, 64));
        assert!(lsu.store_blocked(1));
        lsu.entries_mut()[0].issued = true;
        assert!(!lsu.store_blocked(1));
    }

    #[test]
    fn drain_returns_only_completed() {
        let mut lsu = Lsu::new(8);
        lsu.push(load(1, 0x0, 64));
        lsu.push(load(2, 0x40, 64));
        lsu.entries_mut()[0].issued = true;
        lsu.entries_mut()[0].complete_at = Some(10);
        let mut done = Vec::new();
        lsu.drain_completed(5, |e| done.push(e.seq));
        assert!(done.is_empty());
        lsu.drain_completed(10, |e| done.push(e.seq));
        assert_eq!(done, vec![1]);
        assert_eq!(lsu.len(), 1);
    }

    #[test]
    fn overlap_query_covers_partial_ranges() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        assert!(lsu.any_overlap(0x13c, 4));
        assert!(!lsu.any_overlap(0x140, 4));
        assert!(!lsu.any_overlap(0xfc, 4));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut lsu = Lsu::new(1);
        lsu.push(load(1, 0, 64));
        lsu.push(load(2, 64, 64));
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_enqueue_panics() {
        let mut lsu = Lsu::new(4);
        lsu.push(load(5, 0, 64));
        lsu.push(load(3, 64, 64));
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec!(LsuEntry {
    seq,
    store,
    addr,
    bytes,
    lanes,
    dst,
    src,
    issued,
    complete_at,
    data,
    pred,
});

// Hand-written so decode re-establishes the bounds and age-order
// invariants `push` enforces.
impl statecodec::Codec for Lsu {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.entries, sink);
        statecodec::Codec::encode(&self.capacity, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let entries: Vec<LsuEntry> = statecodec::Codec::decode(src)?;
        let capacity = <usize as statecodec::Codec>::decode(src)?;
        if entries.len() > capacity {
            return Err(statecodec::DecodeError::at(
                src,
                format!("LSU holds {} entries over a capacity of {capacity}", entries.len()),
            ));
        }
        if entries.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return Err(statecodec::DecodeError::at(src, "LSU entries out of age order"));
        }
        Ok(Lsu { entries, capacity })
    }
}
