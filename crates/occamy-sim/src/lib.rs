//! # The Occamy cycle-level simulator
//!
//! A from-scratch cycle-level model of a multi-core processor with a
//! shared SIMD co-processor, reproducing the simulation substrate of the
//! Occamy paper (ASPLOS '23, §4 and §7). Four SIMD architectures are
//! supported (Fig. 1):
//!
//! * [`Architecture::Private`] — fixed core-private lanes,
//! * [`Architecture::TemporalSharing`] — FTS, full-width time-multiplexed
//!   sharing with shared issue arbitration and shared physical registers,
//! * [`Architecture::StaticSpatialSharing`] — VLS, a fixed lane partition,
//! * [`Architecture::Occamy`] — elastic spatial sharing driven by the
//!   lane manager and the EM-SIMD ISA.
//!
//! The simulator executes programs **functionally** (real `f32` values in
//! a real memory image) *and* **temporally** (an out-of-order
//! co-processor pipeline over a bandwidth-regulated cache hierarchy), so
//! tests can check both that elastic vector-length reconfiguration is
//! semantically transparent and that the performance phenomena of the
//! paper emerge.
//!
//! # Examples
//!
//! See [`Machine`] for an end-to-end example; the `workloads` crate
//! produces ready-made co-running workload pairs.

mod area;
mod config;
mod coproc;
mod error;
mod events;
mod exec;
mod fault;
mod functional;
mod lsu;
mod machine;
mod metrics;
mod profile;
mod recovery;
mod regblocks;
mod scalar;
mod slotset;
pub mod snapshot_io;
mod stats;
mod trace;
mod viz;

pub use area::{AreaBreakdown, AreaComponent};
pub use config::{Architecture, SimConfig};
pub use error::{CoreDump, SimError, WatchdogDump};
pub use events::{to_chrome_trace, Event, EventKind, EventLog, TraceStage, Track};
pub use fault::{FaultPlan, FaultState, FaultStats};
pub use machine::{ConfigError, Machine, MachineSnapshot, SavedTask, SimMode};
pub use metrics::{Histogram, Metric, MetricValue, MetricsRegistry};
pub use profile::{render_profile, CoreProfile, CycleBreakdown, CycleClass, ProfileState};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use regblocks::LaneHealth;
pub use snapshot_io::{snapshot_from_bytes, snapshot_to_bytes, SnapshotIoError, SNAPSHOT_VERSION};
pub use stats::{CoreStats, MachineStats, PhaseStats, Timeline, TimelineBucket};
pub use trace::{render_pipeview, to_kanata};
pub use viz::render_lane_timeline;
