//! The per-core load/store unit queue (LSU with LHQ/STQ of Fig. 5).

use mem_sim::Cycle;

use crate::regblocks::{PhysId, SameBits};
use crate::slotset::{AgeOrder, SlotSet};

/// One queued vector memory operation.
#[derive(Debug, Clone)]
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

impl PartialEq for LsuEntry {
    fn eq(&self, other: &Self) -> bool {
        let LsuEntry { seq, store, addr, bytes, lanes, dst, src, issued, complete_at, data, pred } =
            self;
        *seq == other.seq
            && *store == other.store
            && *addr == other.addr
            && *bytes == other.bytes
            && *lanes == other.lanes
            && *dst == other.dst
            && *src == other.src
            && *issued == other.issued
            && *complete_at == other.complete_at
            && data.same_bits(&other.data)
            && *pred == other.pred
    }
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
///
/// Entries live in a ring: the `n`-th enqueue takes slot `n % span`, and
/// the slot stays put until the entry completes, so completions and
/// wake-ups address entries directly. Every live entry holds a ROB
/// entry that cannot retire before it, so a ROB-sized span keeps two
/// live entries from ever sharing a slot. Two [`SlotSet`]s over the ring
/// list the live and the unissued entries in age order.
///
/// Because a store only issues as the oldest unissued entry, stores
/// issue in age order. A load is therefore blocked exactly while the
/// youngest older overlapping store that was unissued when the load was
/// enqueued is still unissued; that store is found once, at enqueue.
/// And an unpredicated store that is not the oldest unissued entry can
/// only act by faulting, which a running bound on the end addresses of
/// such stores rules out in one comparison (see
/// [`candidates`](Lsu::candidates)).
#[derive(Debug, Clone, PartialEq)]
pub struct Lsu {
    slots: Vec<Option<LsuEntry>>,
    meta: Vec<SlotMeta>,
    live: SlotSet,
    unissued: SlotSet,
    /// The unissued unpredicated stores.
    quiet: SlotSet,
    /// At least the end address of every store in `quiet` (reset when
    /// `quiet` empties).
    quiet_end: u64,
    /// Enqueues so far: the position the next entry takes.
    pushed: u64,
    /// The slot the next entry takes, where the age-order walk starts.
    next: usize,
    capacity: usize,
}

/// Bookkeeping for one ring slot, derived from the entries and never
/// encoded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SlotMeta {
    /// The entry's position: the number of enqueues before it.
    pos: u64,
    /// The entry's reorder-buffer position.
    rob: u64,
    /// For a load, the position of the youngest older store that
    /// overlaps it and had not issued at enqueue.
    blocker: Option<u64>,
}

impl Lsu {
    /// Creates an empty queue of `capacity` entries over a ring of `span`
    /// slots (at least the ROB size; see the type docs).
    pub fn new(capacity: usize, span: usize) -> Self {
        let span = span.max(1);
        Lsu {
            slots: vec![None; span],
            meta: vec![SlotMeta::default(); span],
            live: SlotSet::new(span),
            unissued: SlotSet::new(span),
            quiet: SlotSet::new(span),
            quiet_end: 0,
            pushed: 0,
            next: 0,
            capacity,
        }
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Enqueues an operation whose ROB position is `rob` (entries must
    /// arrive in `seq` order) and returns its position. Misuse — a full
    /// queue, a non-monotonic `seq` or an overrun ring — drops the entry
    /// (and trips a `debug_assert!` in debug builds) rather than
    /// corrupting the age order.
    pub fn push(&mut self, entry: LsuEntry, rob: u64) -> Option<u64> {
        debug_assert!(!self.is_full(), "LSU overflow — rename must check is_full()");
        if self.is_full() {
            return None;
        }
        let span = self.slots.len();
        if let Some(last) = &self.slots[if self.next == 0 { span } else { self.next } - 1] {
            debug_assert!(entry.seq > last.seq, "out-of-order LSU enqueue");
            if entry.seq <= last.seq {
                return None;
            }
        }
        let slot = self.next;
        debug_assert!(self.slots[slot].is_none(), "LSU ring overrun");
        if self.slots[slot].is_some() {
            return None;
        }
        let blocker = if entry.store {
            None
        } else {
            self.unissued_entries()
                .filter(|(_, e)| e.store && e.overlaps(entry.addr, entry.bytes))
                .last()
                .map(|(s, _)| self.meta[s].pos)
        };
        let pos = self.pushed;
        self.meta[slot] = SlotMeta { pos, rob, blocker };
        self.live.insert(slot);
        if !entry.issued {
            self.unissued.insert(slot);
            if entry.store && entry.pred.is_none() {
                self.quiet.insert(slot);
                // An empty access cannot leave the arena.
                let end = if entry.bytes == 0 { 0 } else { entry.addr.saturating_add(entry.bytes) };
                self.quiet_end = self.quiet_end.max(end);
            }
        }
        self.slots[slot] = Some(entry);
        self.pushed += 1;
        self.next = if slot + 1 == span { 0 } else { slot + 1 };
        Some(pos)
    }

    /// The live entries in age order.
    pub fn entries(&self) -> impl Iterator<Item = &LsuEntry> + '_ {
        self.live.iter_from(self.next).filter_map(|s| self.slots[s].as_ref())
    }

    /// The unissued entries in age order, with their slots.
    pub fn unissued_entries(&self) -> impl Iterator<Item = (usize, &LsuEntry)> + '_ {
        self.unissued.iter_from(self.next).filter_map(|s| Some((s, self.slots[s].as_ref()?)))
    }

    /// The slot of the oldest unissued entry, if any.
    pub fn oldest_unissued(&self) -> Option<usize> {
        self.unissued.first_from(self.next)
    }

    /// The slots of the unissued entries that can act this cycle against
    /// a `capacity`-byte arena unless they are the oldest, in age order:
    /// every one except unpredicated stores, which can neither issue
    /// (stores issue as the oldest) nor fault while the bound on their
    /// end addresses is inside the arena. Past it, every unissued entry.
    pub fn candidates(&self, capacity: u64) -> AgeOrder<'_> {
        if self.quiet_end > capacity {
            self.unissued.iter_from(self.next)
        } else {
            self.unissued.iter_except(self.next, &self.quiet)
        }
    }

    /// Whether the ordering rules hold the unissued entry in `slot`,
    /// given the slot `oldest` of the oldest unissued entry: a store
    /// waits until it is the oldest, a load while an older overlapping
    /// store is unissued.
    pub fn blocked(&self, slot: usize, oldest: usize) -> bool {
        match &self.slots[slot] {
            Some(e) if e.store => slot != oldest,
            // Stores issue in age order, so the blocker is unissued
            // exactly when it is not older than the oldest unissued entry.
            _ => self.meta[slot].blocker.is_some_and(|b| b >= self.meta[oldest].pos),
        }
    }

    /// Marks the entry in `slot` issued, completing at `complete_at`
    /// with the load data `data`, and returns its position.
    pub fn issue(&mut self, slot: usize, complete_at: Cycle, data: Option<Vec<f32>>) -> u64 {
        if let Some(e) = &mut self.slots[slot] {
            e.issued = true;
            e.complete_at = Some(complete_at);
            e.data = data;
        }
        self.unissued.remove(slot);
        self.quiet.remove(slot);
        if self.quiet.is_empty() {
            self.quiet_end = 0;
        }
        self.meta[slot].pos
    }

    /// The entry in `slot`, if live.
    pub fn get(&self, slot: usize) -> Option<&LsuEntry> {
        self.slots[slot].as_ref()
    }

    /// Removes the entry at position `pos` (its access completed),
    /// returning it with its ROB position.
    pub fn complete(&mut self, pos: u64) -> Option<(LsuEntry, u64)> {
        let slot = (pos % self.slots.len() as u64) as usize;
        if self.meta[slot].pos != pos {
            debug_assert!(false, "LSU position {pos} vanished");
            return None;
        }
        let e = self.slots[slot].take()?;
        debug_assert!(e.issued, "completion of an unissued LSU entry");
        self.live.remove(slot);
        Some((e, self.meta[slot].rob))
    }

    /// Empties the queue into a fresh ring of `span` slots, returning
    /// the live entries in age order (snapshot decode re-enqueues them
    /// into the machine's span).
    pub fn respan(&mut self, span: usize) -> Vec<LsuEntry> {
        let order: Vec<usize> = self.live.iter_from(self.next).collect();
        let entries = order.into_iter().filter_map(|s| self.slots[s].take()).collect();
        *self = Lsu::new(self.capacity, span);
        entries
    }

    /// Whether any entry (issued or not) overlaps the byte range — the
    /// MOB query scalar cores use before scalar memory accesses
    /// (Table 2's address-overlap ordering).
    pub fn any_overlap(&self, addr: u64, bytes: u64) -> bool {
        self.entries().any(|e| e.overlaps(addr, bytes))
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

    /// Issues the entry in `slot`, completing at cycle 10.
    fn issue(lsu: &mut Lsu, slot: usize) -> u64 {
        lsu.issue(slot, 10, None)
    }

    fn oldest(lsu: &Lsu) -> Option<usize> {
        lsu.oldest_unissued()
    }

    fn seqs(lsu: &Lsu) -> Vec<u64> {
        lsu.entries().map(|e| e.seq).collect()
    }

    #[test]
    fn loads_bypass_nonoverlapping_stores() {
        let mut lsu = Lsu::new(8, 8);
        lsu.push(store(1, 0x100, 64), 0);
        lsu.push(load(2, 0x200, 64), 1);
        assert_eq!(oldest(&lsu), Some(0));
        assert!(!lsu.blocked(1, 0), "different address — may bypass");
    }

    #[test]
    fn loads_wait_for_overlapping_unissued_stores() {
        let mut lsu = Lsu::new(8, 8);
        lsu.push(store(1, 0x100, 64), 0);
        lsu.push(load(2, 0x120, 64), 1);
        assert!(lsu.blocked(1, 0));
        issue(&mut lsu, 0);
        assert_eq!(oldest(&lsu), Some(1));
        assert!(!lsu.blocked(1, 1), "issued store already wrote memory");
    }

    #[test]
    fn stores_wait_for_all_older_entries() {
        let mut lsu = Lsu::new(8, 8);
        lsu.push(load(1, 0x0, 64), 0);
        lsu.push(store(2, 0x1000, 64), 1);
        assert!(lsu.blocked(1, 0));
        issue(&mut lsu, 0);
        assert!(!lsu.blocked(1, 1));
    }

    #[test]
    fn a_store_ahead_of_an_overlapping_load_blocks_it_until_the_store_issues() {
        // A four-slot ring that has wrapped: the store and the load sit
        // on either side of the wrap, with an unrelated load between.
        let mut lsu = Lsu::new(4, 4);
        for seq in 0..3 {
            let pos = lsu.push(load(seq, 0x1000 * (seq + 1), 64), seq);
            assert_eq!(pos, Some(seq));
            issue(&mut lsu, seq as usize);
            assert!(lsu.complete(seq).is_some());
        }
        lsu.push(load(3, 0x8000, 64), 3); // slot 3
        lsu.push(store(4, 0x100, 64), 4); // slot 0
        lsu.push(load(5, 0x120, 64), 5); // slot 1: overlaps the store
        assert_eq!(seqs(&lsu), [3, 4, 5]);
        let order: Vec<usize> = lsu.unissued_entries().map(|(s, _)| s).collect();
        assert_eq!(order, [3, 0, 1], "age order across the wrap");
        assert!(lsu.blocked(1, 3));
        // The older unrelated load issuing and completing changes nothing.
        issue(&mut lsu, 3);
        assert!(lsu.complete(3).is_some());
        assert_eq!(oldest(&lsu), Some(0));
        assert!(lsu.blocked(1, 0), "the store has not issued yet");
        assert!(!lsu.blocked(0, 0), "the store is now the oldest unissued entry");
        issue(&mut lsu, 0);
        assert!(!lsu.blocked(1, 1));
        // The store completing and its slot being reused by a younger
        // store does not re-block the load.
        assert!(lsu.complete(4).is_some());
        lsu.push(store(6, 0x100, 64), 6); // slot 2
        assert!(!lsu.blocked(1, 1));
    }

    #[test]
    fn stores_behind_the_oldest_entry_are_examined_only_when_they_may_fault() {
        let mut lsu = Lsu::new(8, 8);
        lsu.push(load(1, 0x0, 64), 0);
        lsu.push(store(2, 0x100, 64), 1);
        lsu.push(load(3, 0x200, 64), 2);
        let slots = |lsu: &Lsu, capacity| -> Vec<usize> { lsu.candidates(capacity).collect() };
        assert_eq!(slots(&lsu, 0x1000), [0, 2], "the in-bounds store cannot act");
        assert_eq!(slots(&lsu, 0x120), [0, 1, 2], "the store may leave a small arena");
        issue(&mut lsu, 0);
        assert_eq!(oldest(&lsu), Some(1), "the store is now the oldest");
        assert_eq!(slots(&lsu, 0x1000), [2], "as the oldest it is examined first, not here");
    }

    #[test]
    fn complete_removes_only_the_named_entry() {
        let mut lsu = Lsu::new(8, 8);
        lsu.push(load(1, 0x0, 64), 7);
        lsu.push(load(2, 0x40, 64), 8);
        let pos = issue(&mut lsu, 1);
        let (e, rob) = lsu.complete(pos).expect("issued entry completes");
        assert_eq!((e.seq, rob), (2, 8));
        assert_eq!(seqs(&lsu), [1]);
        assert_eq!(lsu.len(), 1);
    }

    #[test]
    fn overlap_query_covers_partial_ranges() {
        let mut lsu = Lsu::new(8, 8);
        lsu.push(store(1, 0x100, 64), 0);
        assert!(lsu.any_overlap(0x13c, 4));
        assert!(!lsu.any_overlap(0x140, 4));
        assert!(!lsu.any_overlap(0xfc, 4));
    }

    // Checks a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut lsu = Lsu::new(1, 4);
        lsu.push(load(1, 0, 64), 0);
        lsu.push(load(2, 64, 64), 1);
    }

    // Checks a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_enqueue_panics() {
        let mut lsu = Lsu::new(4, 4);
        lsu.push(load(5, 0, 64), 0);
        lsu.push(load(3, 64, 64), 1);
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

// Hand-written so the encoding is the entry list in age order, as it
// has always been, and decode re-establishes the bounds and age-order
// invariants `push` enforces. The ring and its bookkeeping are derived:
// decode stages the entries in a ring of their own length, and the
// co-processor re-enqueues them into the machine's span.
impl statecodec::Codec for Lsu {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.len(), sink);
        for e in self.entries() {
            statecodec::Codec::encode(e, sink);
        }
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
        let mut lsu = Lsu::new(capacity, entries.len());
        for e in entries {
            lsu.push(e, 0);
        }
        Ok(lsu)
    }
}
