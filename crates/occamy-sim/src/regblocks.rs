//! RegBlk ownership (`RegFile.Cfg`/`Dispatch.Cfg`) and physical-register
//! accounting.
//!
//! The paper keeps two configuration tables with identical contents — one
//! in the Dispatcher for ExeBUs and one in the Register File for RegBlks
//! (each ExeBU is hard-wired to its RegBlk, §4.2.1). We model the pair as
//! a single [`RegBlocks`] ownership table.
//!
//! The crucial modeling decision for reproducing Fig. 13: physical
//! registers live in **per-block free lists**, one per [`RegClass`]
//! (vector and predicate). A rename allocates one entry of the
//! destination's class in *every block the destination register spans*:
//!
//! * spatial sharing (Private/VLS/Occamy): a core's registers span only
//!   its own blocks, so cores never contend;
//! * temporal sharing (FTS): every register spans **all** blocks and the
//!   free lists are shared by both cores, so co-running workloads exhaust
//!   them and the renamer stalls.

use std::fmt;
use std::ops::{Index, IndexMut, Range};

use em_simd::{PReg, VReg, LANES_PER_GRANULE, NUM_PREGS, NUM_VREGS};

/// Ownership state of one RegBlk/ExeBU pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockOwner {
    /// Unassigned (available to the lane manager).
    #[default]
    Free,
    /// Exclusively owned by a core (spatial sharing).
    Core(usize),
    /// Shared by every core (temporal sharing / FTS).
    Shared,
}

impl fmt::Display for BlockOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockOwner::Free => f.write_str("free"),
            BlockOwner::Core(c) => write!(f, "core{c}"),
            BlockOwner::Shared => f.write_str("shared"),
        }
    }
}

/// A physical register name. Identifies a value slot in [`PhysRegFile`];
/// the per-block storage it occupies is tracked by [`RegBlocks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysId(pub(crate) u32);

/// Health of one RegBlk/ExeBU pair, as seen by the quarantine state
/// machine (`Healthy → Draining → Retired`, never backward).
///
/// A granule classified as persistently faulty is first marked
/// [`Draining`](LaneHealth::Draining): the lane manager stops planning
/// over it and `RegBlocks::reassign` stops handing it out, but the
/// current owner keeps it (at full width, with detections corrected
/// in place) until its next partition point naturally releases it.
/// Forcing the block away mid-phase would change the owner's `<VL>`
/// between partition points, which compiled kernels are allowed to
/// assume constant. Once the block is free it becomes
/// [`Retired`](LaneHealth::Retired) and leaves the machine for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneHealth {
    /// Fully operational.
    #[default]
    Healthy,
    /// Classified faulty; awaiting natural release by its owner.
    Draining,
    /// Out of service: never planned over, never reassigned.
    Retired,
}

/// A register class. Each RegBlk holds physical registers of both
/// (Fig. 5), and every per-block rule (reservation, rename, retirement,
/// context save) is written once and indexed by the class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RegClass {
    /// The vector registers `z0`-`z31`.
    Vector,
    /// The predicate registers `p0`-`p7` (masks stored as 1.0/0.0 lanes).
    Pred,
}

/// The architectural registers of both classes: the length of a core's
/// rename map.
pub(crate) const ARCH_REGS: usize = NUM_VREGS + NUM_PREGS;

impl RegClass {
    /// Both classes, in the order architectural registers are allocated
    /// (physical register numbering and the recycle lists follow it).
    pub(crate) const ALL: [RegClass; 2] = [RegClass::Vector, RegClass::Pred];

    /// The class's architectural registers, as positions in a core's
    /// rename map (vector registers first).
    pub(crate) fn arch_regs(self) -> Range<usize> {
        match self {
            RegClass::Vector => 0..NUM_VREGS,
            RegClass::Pred => NUM_VREGS..ARCH_REGS,
        }
    }

    /// The class's name in diagnostics.
    pub(crate) fn noun(self) -> &'static str {
        match self {
            RegClass::Vector => "vector",
            RegClass::Pred => "predicate",
        }
    }
}

/// One value per register class: `[T; 2]` indexed by [`RegClass`].
impl<T> Index<RegClass> for [T; 2] {
    type Output = T;
    fn index(&self, class: RegClass) -> &T {
        &self[class as usize]
    }
}

impl<T> IndexMut<RegClass> for [T; 2] {
    fn index_mut(&mut self, class: RegClass) -> &mut T {
        &mut self[class as usize]
    }
}

/// An architectural register name of one class.
pub(crate) trait ArchReg: Copy {
    /// The register's class.
    const CLASS: RegClass;
    /// The register's position in a core's rename map.
    fn map_index(self) -> usize;
}

impl ArchReg for VReg {
    const CLASS: RegClass = RegClass::Vector;
    fn map_index(self) -> usize {
        self.index()
    }
}

impl ArchReg for PReg {
    const CLASS: RegClass = RegClass::Pred;
    fn map_index(self) -> usize {
        RegClass::Pred.arch_regs().start + self.index()
    }
}

/// The RegBlk ownership table plus per-block free-entry counters for
/// each register class (Fig. 5: each RegBlk holds 160 x 128-bit vector
/// registers and 64 x 16-bit predicate registers).
#[derive(Debug, Clone, PartialEq)]
pub struct RegBlocks {
    owner: Vec<BlockOwner>,
    free: [Vec<usize>; 2],
    capacity: [usize; 2],
    health: Vec<LaneHealth>,
}

impl RegBlocks {
    /// Creates `blocks` RegBlks of `capacity[class]` physical registers
    /// of each [`RegClass`], all initially [`BlockOwner::Free`].
    pub(crate) fn new(blocks: usize, capacity: [usize; 2]) -> Self {
        RegBlocks {
            owner: vec![BlockOwner::Free; blocks],
            free: capacity.map(|c| vec![c; blocks]),
            capacity,
            health: vec![LaneHealth::Healthy; blocks],
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.owner.len()
    }

    /// The owner of `block`.
    pub fn owner(&self, block: usize) -> BlockOwner {
        self.owner[block]
    }

    /// Free physical-register entries of `class` remaining in `block`.
    pub(crate) fn free_entries(&self, class: RegClass, block: usize) -> usize {
        self.free[class][block]
    }

    /// Marks every block [`BlockOwner::Shared`] (the FTS configuration).
    pub fn set_all_shared(&mut self) {
        self.owner.iter_mut().for_each(|o| *o = BlockOwner::Shared);
    }

    /// The health state of `block`.
    pub fn health(&self, block: usize) -> LaneHealth {
        self.health[block]
    }

    /// Whether `block` is quarantined (draining or retired).
    pub fn is_quarantined(&self, block: usize) -> bool {
        block < self.health.len() && self.health[block] != LaneHealth::Healthy
    }

    /// Starts quarantining `block`: marks it [`LaneHealth::Draining`] if
    /// currently healthy and free blocks become [`LaneHealth::Retired`]
    /// directly (nothing to drain). Idempotent; returns `true` if the
    /// block left the healthy pool on this call.
    pub fn begin_quarantine(&mut self, block: usize) -> bool {
        if block >= self.health.len() || self.health[block] != LaneHealth::Healthy {
            return false;
        }
        self.health[block] = if self.owner[block] == BlockOwner::Free {
            LaneHealth::Retired
        } else {
            LaneHealth::Draining
        };
        true
    }

    /// Finalizes one quarantine if `block`'s owner has released it
    /// (Draining + Free → Retired). Returns whether the block retired on
    /// this call, so the caller can couple each retirement to its own
    /// resource-table bookkeeping.
    pub fn try_finish_drain(&mut self, block: usize) -> bool {
        if block < self.health.len()
            && self.health[block] == LaneHealth::Draining
            && self.owner[block] == BlockOwner::Free
        {
            self.health[block] = LaneHealth::Retired;
            true
        } else {
            false
        }
    }

    /// Blocks currently in [`LaneHealth::Draining`].
    pub fn draining_blocks(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&i| self.health[i] == LaneHealth::Draining).collect()
    }

    /// Blocks currently in [`LaneHealth::Retired`].
    pub fn retired_blocks(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&i| self.health[i] == LaneHealth::Retired).collect()
    }

    /// Reassigns ownership so that `core` owns exactly `granules` blocks:
    /// its current blocks are freed, then the lowest-indexed free blocks
    /// are claimed. `claimed` receives the indices now owned, in order
    /// (its previous contents are discarded).
    ///
    /// This mirrors the `MSR <VL>` table update of §4.2.2 and must only
    /// be called once the core's pipeline is drained (the caller's
    /// responsibility); any register entries the core still held in the
    /// old blocks must have been released first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `granules` blocks are free after releasing
    /// the core's current blocks — callers check availability through the
    /// resource table first.
    pub fn reassign(&mut self, core: usize, granules: usize, claimed: &mut Vec<usize>) {
        for o in self.owner.iter_mut() {
            if *o == BlockOwner::Core(core) {
                *o = BlockOwner::Free;
            }
        }
        claimed.clear();
        for (i, o) in self.owner.iter_mut().enumerate() {
            if claimed.len() == granules {
                break;
            }
            if *o == BlockOwner::Free && self.health[i] == LaneHealth::Healthy {
                *o = BlockOwner::Core(core);
                claimed.push(i);
            }
        }
        debug_assert!(
            claimed.len() == granules,
            "lane manager over-committed: core {core} wanted {granules} blocks"
        );
    }

    /// Whether one physical-register entry of `class` is free in each of
    /// `blocks`; the renamer stalls when one is exhausted.
    pub(crate) fn can_reserve(&self, class: RegClass, blocks: &[usize]) -> bool {
        let free = &self.free[class];
        !blocks.iter().any(|&b| free[b] == 0)
    }

    /// Reserves one `class` entry in each of `blocks` if
    /// [`can_reserve`](Self::can_reserve) allows; returns whether it did
    /// (reserving nothing otherwise).
    pub(crate) fn try_reserve(&mut self, class: RegClass, blocks: &[usize]) -> bool {
        if !self.can_reserve(class, blocks) {
            return false;
        }
        for &b in blocks {
            self.free[class][b] -= 1;
        }
        true
    }

    /// Releases one `class` entry in each of `blocks` (on retire-time
    /// free or pipeline reset). A release past a block's capacity (double
    /// free) saturates at the capacity (and trips a `debug_assert!` in
    /// debug builds).
    pub(crate) fn release(&mut self, class: RegClass, blocks: &[usize]) {
        let (free, capacity) = (&mut self.free[class], self.capacity[class]);
        for &b in blocks {
            debug_assert!(free[b] < capacity, "{} double free in block {b}", class.noun());
            if free[b] < capacity {
                free[b] += 1;
            }
        }
    }
}

/// Equality of f32 payloads by bit pattern, the equality snapshot bytes
/// have: a NaN lane equals itself, and `0.0` differs from `-0.0`. Machine
/// state compares its vector values this way, so two machines built and
/// run the same way compare equal whatever their registers hold.
pub(crate) trait SameBits {
    fn same_bits(&self, other: &Self) -> bool;
}

impl SameBits for f32 {
    fn same_bits(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl<T: SameBits> SameBits for [T] {
    fn same_bits(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.same_bits(b))
    }
}

impl<T: SameBits> SameBits for Vec<T> {
    fn same_bits(&self, other: &Self) -> bool {
        self.as_slice().same_bits(other)
    }
}

impl<T: SameBits> SameBits for Option<T> {
    fn same_bits(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.same_bits(b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

/// One value slot of the physical register file. A slot keeps its
/// value and block buffers across recycling, so steady-state renames
/// reuse storage instead of allocating it.
#[derive(Debug, Clone)]
struct Slot {
    /// Whether the value has been produced.
    ready: bool,
    /// The vector value (one f32 per lane), empty until written.
    value: Vec<f32>,
    /// The blocks whose free-lists this register occupies.
    blocks: Vec<usize>,
    /// Slot-recycling generation guard.
    live: bool,
    /// Head of the list of issue-queue operands waiting for this value
    /// ([`NO_WAITER`] when none). The issue stage owns the list's links;
    /// this is derived state, rebuilt rather than encoded.
    waiters: u32,
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        let Slot { ready, value, blocks, live, waiters } = self;
        *ready == other.ready
            && value.same_bits(&other.value)
            && *blocks == other.blocks
            && *live == other.live
            && *waiters == other.waiters
    }
}

/// The end of a waiter list (see [`PhysRegFile::add_waiter`]).
pub(crate) const NO_WAITER: u32 = u32::MAX;

/// The physical vector register file: value storage plus readiness
/// scoreboard, keyed by [`PhysId`].
///
/// Block-level *capacity* is enforced by [`RegBlocks`]; this type only
/// stores values, so it can hand out as many slot ids as renames succeed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysRegFile {
    slots: Vec<Slot>,
    recycled: Vec<u32>,
}

impl PhysRegFile {
    /// Allocates a slot spanning `blocks` (whose free-list entries the
    /// caller has already reserved). The value is not ready. A new slot
    /// reserves storage for `max_granules` granules, the widest register
    /// the machine can configure, so recycling never has to grow it.
    pub fn alloc(&mut self, blocks: &[usize], max_granules: usize) -> PhysId {
        if let Some(id) = self.recycled.pop() {
            let s = &mut self.slots[id as usize];
            s.ready = false;
            s.live = true;
            s.value.clear();
            s.blocks.clear();
            s.blocks.extend_from_slice(blocks);
            PhysId(id)
        } else {
            let mut slot_blocks = Vec::with_capacity(max_granules.max(blocks.len()));
            slot_blocks.extend_from_slice(blocks);
            self.slots.push(Slot {
                ready: false,
                value: Vec::with_capacity(max_granules * LANES_PER_GRANULE),
                blocks: slot_blocks,
                live: true,
                waiters: NO_WAITER,
            });
            // Every slot may be free at once: size the recycle stack with
            // the file, so `free` never grows it.
            self.recycled.reserve(self.slots.len() - self.recycled.len());
            PhysId((self.slots.len() - 1) as u32)
        }
    }

    /// Allocates a slot that is immediately ready with an all-zero value
    /// of `lanes` lanes (the architectural state after reset or
    /// reconfiguration); `max_granules` as for [`alloc`](Self::alloc).
    pub fn alloc_zeroed(&mut self, blocks: &[usize], lanes: usize, max_granules: usize) -> PhysId {
        let id = self.alloc(blocks, max_granules);
        let s = &mut self.slots[id.0 as usize];
        s.value.resize(lanes, 0.0);
        s.ready = true;
        id
    }

    /// Whether `id`'s value has been produced. A freed slot reads as not
    /// ready (and trips a `debug_assert!` in debug builds).
    pub fn is_ready(&self, id: PhysId) -> bool {
        let s = &self.slots[id.0 as usize];
        debug_assert!(s.live, "use of freed physical register {id:?}");
        s.live && s.ready
    }

    /// Reads a ready value. A freed or not-ready slot reads as its last
    /// (possibly empty) value, tripping a `debug_assert!` in debug
    /// builds.
    pub fn read(&self, id: PhysId) -> &[f32] {
        let s = &self.slots[id.0 as usize];
        debug_assert!(s.live && s.ready, "read of not-ready physical register {id:?}");
        &s.value
    }

    /// Lends the (empty) value buffer of a not-yet-written slot to its
    /// producer: the issue stage computes the result into it while the
    /// instruction is in flight, and [`write`](Self::write) hands it
    /// back. Buffers thus circulate between slots and in-flight entries
    /// without being allocated per instruction.
    pub fn take_buffer(&mut self, id: PhysId) -> Vec<f32> {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live && !s.ready, "buffer taken from a written physical register {id:?}");
        std::mem::take(&mut s.value)
    }

    /// Produces `id`'s value and marks it ready. Writing a freed or
    /// already-written slot trips a `debug_assert!` in debug builds; in
    /// release builds the last write wins.
    pub fn write(&mut self, id: PhysId, value: Vec<f32>) {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live, "write to freed physical register {id:?}");
        debug_assert!(!s.ready, "double write to physical register {id:?}");
        s.value = value;
        s.ready = true;
    }

    /// Replaces a ready slot's value in place by swapping buffers with
    /// `value`, which receives the old value (the functional engine's
    /// architectural overwrite: the slot, its blocks and its readiness
    /// are unchanged).
    pub fn swap_value(&mut self, id: PhysId, value: &mut Vec<f32>) {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live && s.ready, "overwrite of not-ready physical register {id:?}");
        std::mem::swap(&mut s.value, value);
    }

    /// Subscribes waiter `node` to `id`'s writeback, returning the
    /// previous head of the waiter list (the caller links `node` to it).
    pub(crate) fn add_waiter(&mut self, id: PhysId, node: u32) -> u32 {
        std::mem::replace(&mut self.slots[id.0 as usize].waiters, node)
    }

    /// Empties `id`'s waiter list, returning its head: the operands a
    /// writeback of `id` wakes.
    pub(crate) fn take_waiters(&mut self, id: PhysId) -> u32 {
        std::mem::replace(&mut self.slots[id.0 as usize].waiters, NO_WAITER)
    }

    /// Frees a slot, handing the blocks whose entries the caller must
    /// release back to [`RegBlocks`] to `release`. A double free releases
    /// no blocks (and trips a `debug_assert!` in debug builds) so block
    /// entries are never released twice.
    pub fn free(&mut self, id: PhysId, release: impl FnOnce(&[usize])) {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live, "double free of physical register {id:?}");
        if !s.live {
            return;
        }
        debug_assert_eq!(s.waiters, NO_WAITER, "freed physical register {id:?} still has waiters");
        s.live = false;
        s.ready = false;
        self.recycled.push(id.0);
        release(&s.blocks);
        s.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reassign(rb: &mut RegBlocks, core: usize, granules: usize) -> Vec<usize> {
        let mut claimed = vec![99];
        rb.reassign(core, granules, &mut claimed);
        claimed
    }

    #[test]
    fn reassign_claims_lowest_free_blocks() {
        let mut rb = RegBlocks::new(8, [160, 64]);
        let a = reassign(&mut rb, 0, 3);
        assert_eq!(a, vec![0, 1, 2]);
        let b = reassign(&mut rb, 1, 2);
        assert_eq!(b, vec![3, 4]);
        // Core 0 shrinks to 1: frees 0..3, claims block 0.
        let c = reassign(&mut rb, 0, 1);
        assert_eq!(c, vec![0]);
        assert_eq!(rb.owner(1), BlockOwner::Free);
        assert_eq!((rb.owner(3), rb.owner(4)), (BlockOwner::Core(1), BlockOwner::Core(1)));
    }

    #[test]
    fn quarantine_of_a_free_block_retires_immediately() {
        let mut rb = RegBlocks::new(4, [160, 64]);
        assert!(rb.begin_quarantine(2));
        assert_eq!(rb.health(2), LaneHealth::Retired);
        assert!(!rb.begin_quarantine(2), "idempotent");
        // Retired blocks are never handed out again.
        let claimed = reassign(&mut rb, 0, 3);
        assert_eq!(claimed, vec![0, 1, 3]);
    }

    #[test]
    fn quarantine_of_an_owned_block_drains_then_retires() {
        let mut rb = RegBlocks::new(4, [160, 64]);
        assert_eq!(reassign(&mut rb, 0, 2), vec![0, 1]);
        assert!(rb.begin_quarantine(1));
        assert_eq!(rb.health(1), LaneHealth::Draining);
        assert!(rb.is_quarantined(1));
        // Still owned: nothing retires yet.
        assert!(!rb.try_finish_drain(1));
        assert_eq!(rb.draining_blocks(), vec![1]);
        // Owner repartitions down to one granule: the draining block is
        // freed but not reclaimed, then finalization retires it.
        assert_eq!(reassign(&mut rb, 0, 1), vec![0]);
        assert!(rb.try_finish_drain(1));
        assert_eq!(rb.retired_blocks(), vec![1]);
        // Growing again skips the retired block.
        assert_eq!(reassign(&mut rb, 0, 3), vec![0, 2, 3]);
    }

    #[test]
    fn shared_blocks_span_everything() {
        let mut rb = RegBlocks::new(4, [160, 64]);
        rb.set_all_shared();
        assert!((0..4).all(|b| rb.owner(b) == BlockOwner::Shared));
    }

    #[test]
    fn reserve_fails_atomically_when_any_block_is_full() {
        for (class, other) in [(RegClass::Vector, RegClass::Pred), (RegClass::Pred, RegClass::Vector)] {
            let mut rb = RegBlocks::new(2, [1, 1]);
            assert!(rb.try_reserve(class, &[0]));
            // Block 0 now empty; a span covering both blocks must not
            // touch block 1 when it fails.
            assert!(!rb.try_reserve(class, &[0, 1]));
            assert_eq!(rb.free_entries(class, 1), 1);
            // The other class keeps its own free lists.
            assert!(rb.can_reserve(other, &[0, 1]));
            rb.release(class, &[0]);
            assert!(rb.try_reserve(class, &[0, 1]));
        }
    }

    // Checks a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    fn release_past_capacity_panics() {
        for class in RegClass::ALL {
            let mut rb = RegBlocks::new(1, [2, 2]);
            let err = std::panic::catch_unwind(move || rb.release(class, &[0]))
                .expect_err("a release past capacity panics");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("double free"), "{class:?}: {msg}");
        }
    }

    #[test]
    fn phys_file_value_lifecycle() {
        let mut prf = PhysRegFile::default();
        let id = prf.alloc(&[0, 1], 2);
        assert!(!prf.is_ready(id));
        prf.write(id, vec![1.0; 8]);
        assert!(prf.is_ready(id));
        assert_eq!(prf.read(id)[3], 1.0);
        let mut released = Vec::new();
        prf.free(id, |b| released.extend_from_slice(b));
        assert_eq!(released, vec![0, 1]);
    }

    #[test]
    fn slots_are_recycled() {
        let mut prf = PhysRegFile::default();
        let a = prf.alloc(&[0], 1);
        prf.free(a, |_| {});
        let b = prf.alloc(&[1], 1);
        assert_eq!(a.0, b.0, "slot recycled");
        assert!(!prf.is_ready(b));
    }

    // Checks a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double write")]
    fn double_write_panics() {
        let mut prf = PhysRegFile::default();
        let id = prf.alloc_zeroed(&[0], 4, 1);
        prf.write(id, vec![1.0; 4]);
    }

    // Checks a `debug_assert!`, which release builds compile out.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "freed physical register")]
    fn use_after_free_panics() {
        let mut prf = PhysRegFile::default();
        let id = prf.alloc(&[0], 1);
        prf.free(id, |_| {});
        let _ = prf.is_ready(id);
    }

    #[test]
    fn recycled_slots_reuse_their_buffers() {
        let mut prf = PhysRegFile::default();
        let a = prf.alloc_zeroed(&[0, 1], 8, 3);
        assert_eq!(prf.read(a).len(), 8);
        prf.free(a, |_| {});
        let b = prf.alloc(&[2], 3);
        assert_eq!(a, b);
        let buf = prf.take_buffer(b);
        assert!(buf.is_empty() && buf.capacity() >= 12, "the slot keeps its full-width buffer");
        prf.write(b, buf);
        assert!(prf.is_ready(b));
        let mut released = Vec::new();
        prf.free(b, |blocks| released.extend_from_slice(blocks));
        assert_eq!(released, vec![2]);
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(BlockOwner {
    0 => Free,
    1 => Core(core),
    2 => Shared,
});

statecodec::impl_codec_enum!(LaneHealth {
    0 => Healthy,
    1 => Draining,
    2 => Retired,
});

impl statecodec::Codec for PhysId {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.0, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        Ok(PhysId(<u32 as statecodec::Codec>::decode(src)?))
    }
}

// Hand-written so the derived waiter list stays out of the encoding.
impl statecodec::Codec for Slot {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.ready, sink);
        statecodec::Codec::encode(&self.value, sink);
        statecodec::Codec::encode(&self.blocks, sink);
        statecodec::Codec::encode(&self.live, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        Ok(Slot {
            ready: statecodec::Codec::decode(src)?,
            value: statecodec::Codec::decode(src)?,
            blocks: statecodec::Codec::decode(src)?,
            live: statecodec::Codec::decode(src)?,
            waiters: NO_WAITER,
        })
    }
}
statecodec::impl_codec!(PhysRegFile { slots, recycled });

statecodec::impl_codec_enum!(RegClass {
    0 => Vector,
    1 => Pred,
});

// Hand-written so decode re-establishes the parallel-array invariant
// (one free-count per class and one health state per block, free counts
// within capacity). Each class encodes its free counts, then its
// capacity.
impl statecodec::Codec for RegBlocks {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.owner, sink);
        for class in RegClass::ALL {
            statecodec::Codec::encode(&self.free[class], sink);
            statecodec::Codec::encode(&self.capacity[class], sink);
        }
        statecodec::Codec::encode(&self.health, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let owner: Vec<BlockOwner> = statecodec::Codec::decode(src)?;
        let (mut free, mut capacity) = (<[Vec<usize>; 2]>::default(), [0; 2]);
        for class in RegClass::ALL {
            free[class] = statecodec::Codec::decode(src)?;
            capacity[class] = statecodec::Codec::decode(src)?;
        }
        let health: Vec<LaneHealth> = statecodec::Codec::decode(src)?;
        let blocks = owner.len();
        if free.iter().any(|f| f.len() != blocks) || health.len() != blocks {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "regblock tables disagree on block count: {blocks} owners, {} free, \
                     {} pred_free, {} health",
                    free[RegClass::Vector].len(),
                    free[RegClass::Pred].len(),
                    health.len()
                ),
            ));
        }
        if RegClass::ALL.iter().any(|&c| free[c].iter().any(|&f| f > capacity[c])) {
            return Err(statecodec::DecodeError::at(
                src,
                "regblock free count exceeds its capacity",
            ));
        }
        Ok(RegBlocks { owner, free, capacity, health })
    }
}

impl PhysRegFile {
    /// Number of slots ever allocated (live or recycled); checkpoint
    /// decoding bounds-checks rename maps against it.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}
