//! Functional (value-carrying) memory with a bump allocator.

use std::fmt;

/// Flat, byte-addressable functional memory with a simple bump allocator
/// for laying out workload arrays.
///
/// This holds the *values* that simulated programs load and store; all
/// timing is handled separately by [`MemorySystem`](crate::MemorySystem).
/// Addresses start at 64 (address 0 is reserved so that a zero pointer is
/// always invalid) and allocations are 64-byte aligned so that arrays
/// never straddle a cache line unnecessarily.
///
/// # Examples
///
/// ```
/// use mem_sim::Memory;
///
/// let mut mem = Memory::new(4096);
/// let a = mem.alloc_f32(8);
/// for i in 0..8 {
///     mem.write_f32(a + 4 * i, i as f32);
/// }
/// assert_eq!(mem.read_f32(a + 12), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Memory {
    bytes: Vec<u8>,
    next_free: u64,
}

impl Memory {
    /// Creates a memory arena of `capacity` bytes, zero-initialised.
    pub fn new(capacity: usize) -> Self {
        // Whole MiB, so that a freed arena fits the next (INTERNALS, "Memory system").
        let mut bytes = vec![0; capacity.checked_next_multiple_of(1 << 20).unwrap_or(capacity)];
        bytes.truncate(capacity);
        Memory { bytes, next_free: 64 }
    }

    /// The arena capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes currently allocated (including the reserved prefix).
    pub fn allocated(&self) -> u64 {
        self.next_free
    }

    /// Allocates `bytes` bytes, 64-byte aligned, returning the address.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted; use [`try_alloc`](Self::try_alloc)
    /// for a fallible variant.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        self.try_alloc(bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Allocates `count` f32 elements, 64-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted.
    pub fn alloc_f32(&mut self, count: u64) -> u64 {
        self.alloc(count * 4)
    }

    /// Fallible allocation of `bytes` bytes, 64-byte aligned.
    ///
    /// # Errors
    ///
    /// Returns [`OutOfArena`] if the arena cannot satisfy the request.
    pub fn try_alloc(&mut self, bytes: u64) -> Result<u64, OutOfArena> {
        let addr = self.next_free;
        let end = addr
            .checked_add(bytes)
            .ok_or(OutOfArena { requested: bytes, capacity: self.capacity() as u64 })?;
        if end > self.bytes.len() as u64 {
            return Err(OutOfArena { requested: bytes, capacity: self.capacity() as u64 });
        }
        self.next_free = (end + 63) & !63;
        Ok(addr)
    }

    /// Reads an `f32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the arena.
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_le_bytes(self.read_array(addr))
    }

    /// Writes an `f32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the arena.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a `u32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the arena.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Writes a `u32` at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds the arena.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let a = addr as usize;
        self.bytes[a..a + N].try_into().expect("slice length matches")
    }

    fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("capacity", &self.bytes.len())
            .field("allocated", &self.next_free)
            .finish()
    }
}

/// Error returned when the functional memory arena is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfArena {
    /// The requested allocation size in bytes.
    pub requested: u64,
    /// The arena capacity in bytes.
    pub capacity: u64,
}

impl fmt::Display for OutOfArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "allocation of {} bytes exceeds arena of {} bytes", self.requested, self.capacity)
    }
}

impl std::error::Error for OutOfArena {}

// --- Checkpoint serialization --------------------------------------------

// Hand-written: the arena is large (megabytes), so the bytes are copied
// as one block instead of element-by-element through `Vec<u8>`'s generic
// impl.
impl statecodec::Codec for Memory {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.bytes.len(), sink);
        sink.put(&self.bytes);
        statecodec::Codec::encode(&self.next_free, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let len = <usize as statecodec::Codec>::decode(src)?;
        if len > src.remaining() {
            return Err(statecodec::DecodeError::at(
                src,
                format!("memory arena claims {len} bytes but only {} remain", src.remaining()),
            ));
        }
        let bytes = src.take(len)?.to_vec();
        let next_free = <u64 as statecodec::Codec>::decode(src)?;
        Ok(Memory { bytes, next_free })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_aligned_and_disjoint() {
        let mut mem = Memory::new(1 << 16);
        let a = mem.alloc_f32(10); // 40 bytes -> rounded to 64
        let b = mem.alloc_f32(10);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 40);
    }

    #[test]
    fn zero_address_is_never_allocated() {
        let mut mem = Memory::new(1024);
        assert!(mem.alloc(8) >= 64);
    }

    #[test]
    fn f32_round_trip() {
        let mut mem = Memory::new(1024);
        let a = mem.alloc_f32(4);
        mem.write_f32(a + 8, -2.25);
        assert_eq!(mem.read_f32(a + 8), -2.25);
    }

    #[test]
    fn u32_round_trip() {
        let mut mem = Memory::new(1024);
        let a = mem.alloc(16);
        mem.write_u32(a, 0xdead_beef);
        assert_eq!(mem.read_u32(a), 0xdead_beef);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut mem = Memory::new(256);
        let err = mem.try_alloc(4096).unwrap_err();
        assert_eq!(err.requested, 4096);
        assert!(err.to_string().contains("4096"));
    }

    #[test]
    fn arenas_are_allocated_in_whole_mib() {
        for (capacity, allocated) in [(0, 0), (1024, 1 << 20), (1 << 20, 1 << 20), (1_300_000, 2 << 20)] {
            let mem = Memory::new(capacity);
            assert_eq!((mem.capacity(), mem.bytes.capacity()), (capacity, allocated));
        }
        let mut mem = Memory::new(1024);
        assert!(mem.try_alloc(2048).is_err(), "the rounding is not addressable");
    }

    #[test]
    fn memory_starts_zeroed() {
        let mut mem = Memory::new(1024);
        let a = mem.alloc_f32(16);
        assert_eq!(mem.read_f32(a + 32), 0.0);
    }
}
