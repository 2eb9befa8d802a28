//! # Memory-hierarchy substrate
//!
//! The cycle-level memory system underneath the Occamy simulator,
//! implementing the hierarchy of Fig. 4 / Table 4 of the paper:
//!
//! * per-scalar-core 64 KB L1 data caches (4-cycle latency),
//! * a shared 128 KB vector cache (5-cycle latency, 128 B/cycle),
//! * a shared unified 8 MB L2 (18-cycle latency, 64 B/cycle),
//! * DRAM at 64 GB/s (32 B/cycle at 2 GHz).
//!
//! Functional state (the bytes programs actually read and write) lives in
//! [`Memory`]; timing lives in [`MemorySystem`], which combines
//! set-associative LRU tag arrays ([`Cache`]) with per-level bandwidth
//! regulators so that co-running workloads genuinely contend for shared
//! bandwidth — the root cause of the SIMD-pipeline stalls that motivate
//! elastic lane sharing.
//!
//! # Examples
//!
//! ```
//! use mem_sim::{Memory, MemorySystem, MemConfig};
//!
//! let mut mem = Memory::new(1 << 20);
//! let a = mem.alloc_f32(16);
//! mem.write_f32(a, 1.5);
//!
//! let mut sys = MemorySystem::new(MemConfig::paper(2));
//! let (t_first, _) = sys.vector_access(0, 0, a, 64, false);
//! let (t_again, _) = sys.vector_access(t_first, 0, a, 64, false);
//! assert!(t_again - t_first < t_first, "second access hits the vector cache");
//! ```

mod cache;
mod hierarchy;
mod memory;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use hierarchy::{Cycle, LevelStats, MemConfig, MemStats, MemorySystem, ServiceLevel};
pub use memory::{Memory, OutOfArena};
