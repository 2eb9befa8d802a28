//! Versioned binary serialization of [`MachineSnapshot`]s.
//!
//! This is the crate's only public entry point to the checkpoint codec:
//! the machine encoder itself is crate-private so every external caller
//! goes through the refusal gate here. A snapshot file is
//!
//! ```text
//! +------+---------+---------------+-------+
//! | OCSN | version |  machine body | crc32 |
//! +------+---------+---------------+-------+
//!   4 B     u32 LE     variable      u32 LE
//! ```
//!
//! where the CRC covers magic, version and body. Decoding is fully
//! bounds-checked and re-validates structural invariants (configuration
//! validity, rename-map bounds, lane conservation, …), so a truncated,
//! bit-flipped, or adversarially crafted file yields a typed error, never
//! a panic or a machine that panics later.
//!
//! Machines with observer or controller state attached — tracing, event
//! logging, the profiler, the recovery controller, fault injection with a
//! latched fault — are refused at encode time ([`SnapshotIoError::Refused`]):
//! that state is intentionally outside the format, and silently dropping
//! it would break the "resume is bit-faithful" contract this module
//! exists to provide.

use std::fmt;

use statecodec::{crc32, Codec, DecodeError, Sink, Src};

use crate::machine::{decode_machine, encode_machine};
use crate::MachineSnapshot;

/// File magic: "OCSN" (OCcamy SNapshot).
const MAGIC: [u8; 4] = *b"OCSN";

/// Current format version. Bump on any encoding change; readers refuse
/// versions they do not know rather than guessing.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why snapshot serialization or deserialization failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotIoError {
    /// The machine carries state the format intentionally excludes.
    Refused(&'static str),
    /// The input does not start with the snapshot magic.
    BadMagic,
    /// The input declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// The input is shorter than the fixed header and trailer.
    Truncated,
    /// The CRC trailer does not match the content.
    CrcMismatch {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC stored in the trailer.
        stored: u32,
    },
    /// The body failed structural decoding at `offset`.
    Corrupt {
        /// Byte offset into the body where decoding failed.
        offset: usize,
        /// What the decoder was unhappy about.
        detail: String,
    },
}

impl fmt::Display for SnapshotIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotIoError::Refused(why) => {
                write!(f, "machine cannot be snapshotted to disk: {why}")
            }
            SnapshotIoError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotIoError::UnsupportedVersion(v) => {
                write!(f, "snapshot format version {v} is not supported (expected {SNAPSHOT_VERSION})")
            }
            SnapshotIoError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotIoError::CrcMismatch { computed, stored } => write!(
                f,
                "snapshot checksum mismatch (computed {computed:#010x}, stored {stored:#010x})"
            ),
            SnapshotIoError::Corrupt { offset, detail } => {
                write!(f, "snapshot body corrupt at byte {offset}: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotIoError {}

impl From<DecodeError> for SnapshotIoError {
    fn from(e: DecodeError) -> Self {
        SnapshotIoError::Corrupt { offset: e.offset, detail: e.detail }
    }
}

/// Serializes a snapshot to the versioned, CRC-trailed byte format.
///
/// # Errors
///
/// [`SnapshotIoError::Refused`] if the snapshotted machine carries
/// observer or controller state the format excludes (see module docs).
pub fn snapshot_to_bytes(snap: &MachineSnapshot) -> Result<Vec<u8>, SnapshotIoError> {
    let m = snap.inner();
    if let Some(why) = m.snapshot_io_refusal() {
        return Err(SnapshotIoError::Refused(why));
    }
    let mut sink = Sink::new();
    sink.put(&MAGIC);
    Codec::encode(&SNAPSHOT_VERSION, &mut sink);
    encode_machine(m, &mut sink);
    let mut bytes = sink.into_bytes();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    Ok(bytes)
}

/// Deserializes a snapshot previously produced by [`snapshot_to_bytes`].
///
/// The restored machine has no tracing, event logging, profiler,
/// recovery controller, or latched fault — exactly the states
/// [`snapshot_to_bytes`] refuses to serialize — and is otherwise
/// bit-identical to the snapshotted one: running it produces the same
/// results as running the original.
///
/// # Errors
///
/// A typed [`SnapshotIoError`] for any malformed input: wrong magic,
/// unknown version, truncation, checksum mismatch, or a body that fails
/// structural validation.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<MachineSnapshot, SnapshotIoError> {
    // Header (4) + version (4) + trailer (4) is the floor.
    if bytes.len() < 12 {
        if bytes.len() >= 4 && bytes[..4] != MAGIC {
            return Err(SnapshotIoError::BadMagic);
        }
        return Err(SnapshotIoError::Truncated);
    }
    if bytes[..4] != MAGIC {
        return Err(SnapshotIoError::BadMagic);
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let computed = crc32(content);
    if computed != stored {
        return Err(SnapshotIoError::CrcMismatch { computed, stored });
    }
    let mut src = Src::new(&content[4..]);
    let version = <u32 as Codec>::decode(&mut src)?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotIoError::UnsupportedVersion(version));
    }
    let machine = decode_machine(&mut src)?;
    src.finish().map_err(SnapshotIoError::from)?;
    Ok(MachineSnapshot::from_inner(machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, Machine, SimConfig};
    use em_simd::{
        DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder,
        ScalarInst, VBinOp, VReg, VectorInst, XReg,
    };
    use mem_sim::Memory;

    /// A tiny Fig. 9-style phase that exercises configuration, vector
    /// compute and memory, so the snapshot carries real pipeline state.
    fn small_program(a: u64, c: u64, n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.scalar(ScalarInst::MovImm { dst: XReg::X1, imm: a as i64 });
        b.scalar(ScalarInst::MovImm { dst: XReg::X2, imm: c as i64 });
        b.em_simd(EmSimdInst::Msr {
            reg: DedicatedReg::Oi,
            src: Operand::Imm(OperationalIntensity::uniform(0.5).to_bits() as i64),
        });
        let retry = b.fresh_label("cfg");
        b.bind(retry);
        b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(2) });
        b.em_simd(EmSimdInst::Mrs { dst: XReg::X9, reg: DedicatedReg::Status });
        b.scalar(ScalarInst::Bne { a: XReg::X9, b: Operand::Imm(1), target: retry });
        b.scalar(ScalarInst::MovImm { dst: XReg::X3, imm: 0 });
        let lp = b.fresh_label("lp");
        let done = b.fresh_label("done");
        b.bind(lp);
        b.scalar(ScalarInst::Bge { a: XReg::X3, b: Operand::Imm(n), target: done });
        b.vector(VectorInst::Load { dst: VReg::Z1, base: XReg::X1, index: XReg::X3 });
        b.vector(VectorInst::Binary { op: VBinOp::Fadd, dst: VReg::Z2, a: VReg::Z1, b: VReg::Z1 });
        b.vector(VectorInst::Store { src: VReg::Z2, base: XReg::X2, index: XReg::X3 });
        b.scalar(ScalarInst::Add { dst: XReg::X3, a: XReg::X3, b: Operand::Imm(8) });
        b.scalar(ScalarInst::B { target: lp });
        b.bind(done);
        b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Oi, src: Operand::Imm(0) });
        let rel = b.fresh_label("rel");
        b.bind(rel);
        b.em_simd(EmSimdInst::Msr { reg: DedicatedReg::Vl, src: Operand::Imm(0) });
        b.em_simd(EmSimdInst::Mrs { dst: XReg::X9, reg: DedicatedReg::Status });
        b.scalar(ScalarInst::Bne { a: XReg::X9, b: Operand::Imm(1), target: rel });
        b.halt();
        b.build()
    }

    fn small_machine() -> Machine {
        let n = 64usize;
        let mut mem = Memory::new(1 << 16);
        let a = mem.alloc_f32(n as u64);
        let c = mem.alloc_f32(n as u64);
        for i in 0..n {
            mem.write_f32(a + 4 * i as u64, i as f32);
        }
        let mut m =
            Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem).expect("config");
        m.load_program(0, small_program(a, c, n as i64));
        m.load_program(1, small_program(a, c, n as i64));
        m
    }

    #[test]
    fn round_trips_mid_run_machine() {
        let mut m = small_machine();
        m.run(50).expect("run");
        let snap = m.snapshot();
        let bytes = snapshot_to_bytes(&snap).expect("encode");
        let back = snapshot_from_bytes(&bytes).expect("decode");
        assert_eq!(back.cycle(), snap.cycle());
        // Resume both and compare observable results.
        let mut a = small_machine();
        a.restore_snapshot(&snap);
        let mut b = small_machine();
        b.restore_snapshot(&back);
        a.run(5_000).expect("run a");
        b.run(5_000).expect("run b");
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn rejects_bad_magic_truncation_and_bitflips() {
        let m = small_machine();
        let bytes = snapshot_to_bytes(&m.snapshot()).expect("encode");

        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(snapshot_from_bytes(&wrong), Err(SnapshotIoError::BadMagic));

        assert_eq!(snapshot_from_bytes(&bytes[..8]), Err(SnapshotIoError::Truncated));

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        match snapshot_from_bytes(&flipped) {
            Err(SnapshotIoError::CrcMismatch { .. }) => {}
            other => panic!("expected CRC mismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_version() {
        let m = small_machine();
        let mut bytes = snapshot_to_bytes(&m.snapshot()).expect("encode");
        bytes[4] = 0xfe; // version low byte
        // Re-seal the CRC so the version check (not the CRC) fires.
        let n = bytes.len();
        let crc = crc32(&bytes[..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(snapshot_from_bytes(&bytes), Err(SnapshotIoError::UnsupportedVersion(0xfe)));
    }

    #[test]
    fn refuses_machines_with_observer_state() {
        let mut m = small_machine();
        m.enable_trace(16);
        match snapshot_to_bytes(&m.snapshot()) {
            Err(SnapshotIoError::Refused(why)) => assert!(why.contains("tracing"), "{why}"),
            other => panic!("expected refusal, got {other:?}"),
        }
    }
}
