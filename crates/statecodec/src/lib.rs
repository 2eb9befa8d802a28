//! Deterministic binary state serialization for simulator checkpoints.
//!
//! The simulator's durability layer ([`occamy-sim`'s `snapshot_io`])
//! needs to write a whole `Machine` to disk and read it back
//! *bit-identically* — the resumed run must produce the same bytes as
//! an uninterrupted one. `serde` is unavailable offline, so this crate
//! provides the small, auditable subset actually needed:
//!
//! - [`Codec`]: encode into a [`Sink`], decode from a bounds-checked
//!   [`Src`]. Encoding is infallible and canonical (one byte string per
//!   value — little-endian fixed-width integers, floats by bit
//!   pattern, length-prefixed sequences). Decoding returns a typed
//!   [`DecodeError`] with the failing byte offset; it never panics and
//!   never allocates proportionally to a *claimed* length without the
//!   bytes actually being present (hostile-input safety).
//! - [`impl_codec!`] / [`impl_codec_enum!`]: derive-style macros so the
//!   per-field boilerplate lives next to each type's definition (field
//!   privacy in Rust is module-scoped, so the impls must sit in the
//!   defining modules).
//!
//! - [`crc32`]: the one integrity check every durable byte format in
//!   the workspace seals its records with (snapshot files, the
//!   `occamyd` journal and result cache).
//!
//! Floats round-trip by bit pattern (`to_bits`/`from_bits`), so NaN
//! payloads and signed zeros survive — cycle-accounting fields like
//! busy-lane fractions are `f64` and must not be perturbed.

/// CRC-32 (IEEE 802.3, the zlib polynomial), bit-reflected, one byte at
/// a time. Slow-but-simple is fine: it guards snapshots written at
/// checkpoint cadence and service records, never a per-cycle path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Encoding destination: an append-only byte buffer.
#[derive(Debug, Default)]
pub struct Sink {
    buf: Vec<u8>,
}

impl Sink {
    /// An empty sink.
    pub fn new() -> Sink {
        Sink::default()
    }

    /// Appends raw bytes.
    pub fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_byte(&mut self, byte: u8) {
        self.buf.push(byte);
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the sink, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Why decoding failed, with the byte offset at which it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Offset into the source buffer where the failure was detected.
    pub offset: usize,
    /// Human-readable description.
    pub detail: String,
}

impl DecodeError {
    /// A decode error at `src`'s current position.
    pub fn at(src: &Src<'_>, detail: impl Into<String>) -> DecodeError {
        DecodeError { offset: src.pos, detail: detail.into() }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.detail)
    }
}

impl std::error::Error for DecodeError {}

/// Decoding source: a byte slice with a cursor. All reads are
/// bounds-checked; running off the end is a typed [`DecodeError`].
#[derive(Debug)]
pub struct Src<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Src<'a> {
    /// A source over `bytes`, cursor at the start.
    pub fn new(bytes: &'a [u8]) -> Src<'a> {
        Src { buf: bytes, pos: 0 }
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError {
                offset: self.pos,
                detail: format!("wanted {n} bytes, {} remain", self.remaining()),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Asserts the buffer is fully consumed (call after the outermost
    /// decode — trailing garbage means a framing or version mismatch).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] when bytes remain.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError {
                offset: self.pos,
                detail: format!("{} trailing bytes after the value", self.remaining()),
            });
        }
        Ok(())
    }
}

/// A value with a canonical binary form.
pub trait Codec: Sized {
    /// Appends this value's canonical encoding to `sink`.
    fn encode(&self, sink: &mut Sink);

    /// Decodes one value from `src`, advancing the cursor.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on truncation or an invalid encoding
    /// (bad tag byte, out-of-range index, non-UTF-8 string…).
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError>;
}

macro_rules! impl_int {
    ($($ty:ty),+) => {$(
        impl Codec for $ty {
            fn encode(&self, sink: &mut Sink) {
                sink.put(&self.to_le_bytes());
            }
            fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
                let bytes = src.take(std::mem::size_of::<$ty>())?;
                // take() returned exactly size_of bytes, so the slice
                // always converts.
                let arr = bytes.try_into().map_err(|_| DecodeError {
                    offset: src.pos,
                    detail: "fixed-width slice conversion failed".into(),
                })?;
                Ok(<$ty>::from_le_bytes(arr))
            }
        }
    )+};
}

impl_int!(u8, u16, u32, u64, i64);

impl Codec for usize {
    fn encode(&self, sink: &mut Sink) {
        (*self as u64).encode(sink);
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        let v = u64::decode(src)?;
        usize::try_from(v)
            .map_err(|_| DecodeError::at(src, format!("usize value {v} exceeds the platform")))
    }
}

impl Codec for bool {
    fn encode(&self, sink: &mut Sink) {
        sink.put_byte(u8::from(*self));
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        match u8::decode(src)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError::at(src, format!("bool byte must be 0 or 1, got {other}"))),
        }
    }
}

impl Codec for f32 {
    fn encode(&self, sink: &mut Sink) {
        self.to_bits().encode(sink);
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        Ok(f32::from_bits(u32::decode(src)?))
    }
}

impl Codec for f64 {
    fn encode(&self, sink: &mut Sink) {
        self.to_bits().encode(sink);
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        Ok(f64::from_bits(u64::decode(src)?))
    }
}

impl Codec for String {
    fn encode(&self, sink: &mut Sink) {
        self.len().encode(sink);
        sink.put(self.as_bytes());
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(src)?;
        let bytes = src.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| DecodeError::at(src, "string is not valid UTF-8"))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, sink: &mut Sink) {
        self.len().encode(sink);
        for item in self {
            item.encode(sink);
        }
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        let len = usize::decode(src)?;
        // Every element costs at least one byte, so a claimed length
        // beyond the remaining bytes is corrupt — reject before
        // reserving memory for it (hostile-input safety).
        if len > src.remaining() {
            return Err(DecodeError::at(
                src,
                format!("sequence claims {len} elements but only {} bytes remain", src.remaining()),
            ));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(src)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for std::collections::VecDeque<T> {
    fn encode(&self, sink: &mut Sink) {
        self.len().encode(sink);
        for item in self {
            item.encode(sink);
        }
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode(src)?.into())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, sink: &mut Sink) {
        match self {
            None => sink.put_byte(0),
            Some(v) => {
                sink.put_byte(1);
                v.encode(sink);
            }
        }
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        match u8::decode(src)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(src)?)),
            other => {
                Err(DecodeError::at(src, format!("option tag must be 0 or 1, got {other}")))
            }
        }
    }
}

impl<T: Codec> Codec for Box<T> {
    fn encode(&self, sink: &mut Sink) {
        (**self).encode(sink);
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        Ok(Box::new(T::decode(src)?))
    }
}

impl<T: Codec, const N: usize> Codec for [T; N] {
    fn encode(&self, sink: &mut Sink) {
        for item in self {
            item.encode(sink);
        }
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decode(src)?);
        }
        out.try_into()
            .map_err(|_| DecodeError::at(src, "array length conversion failed"))
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, sink: &mut Sink) {
        self.0.encode(sink);
        self.1.encode(sink);
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(src)?, B::decode(src)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, sink: &mut Sink) {
        self.0.encode(sink);
        self.1.encode(sink);
        self.2.encode(sink);
    }
    fn decode(src: &mut Src<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(src)?, B::decode(src)?, C::decode(src)?))
    }
}

/// Implements [`Codec`] for a struct by listing its fields in encoding
/// order. Must be invoked in the module that can see every field.
///
/// ```
/// struct Point { x: u64, y: u64 }
/// statecodec::impl_codec!(Point { x, y });
/// ```
#[macro_export]
macro_rules! impl_codec {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, sink: &mut $crate::Sink) {
                $( $crate::Codec::encode(&self.$field, sink); )+
            }
            fn decode(src: &mut $crate::Src<'_>) -> Result<Self, $crate::DecodeError> {
                Ok(Self { $( $field: $crate::Codec::decode(src)?, )+ })
            }
        }
    };
}

/// Implements [`Codec`] for an enum with explicit one-byte tags. Unit,
/// tuple and struct variants are supported; tuple variants name their
/// binders (the names are arbitrary, they only drive the repetition).
///
/// ```
/// enum Owner { Free, Core(usize), Named { name: String } }
/// statecodec::impl_codec_enum!(Owner {
///     0 => Free,
///     1 => Core(core),
///     2 => Named { name },
/// });
/// ```
#[macro_export]
macro_rules! impl_codec_enum {
    ($ty:ty { $( $tag:literal => $variant:ident
                 $( ( $($tf:ident),+ $(,)? ) )?
                 $( { $($sf:ident),+ $(,)? } )? ),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn encode(&self, sink: &mut $crate::Sink) {
                match self {
                    $( Self::$variant $( ( $($tf),+ ) )? $( { $($sf),+ } )? => {
                        sink.put_byte($tag);
                        $( $( $crate::Codec::encode($tf, sink); )+ )?
                        $( $( $crate::Codec::encode($sf, sink); )+ )?
                    } )+
                }
            }
            fn decode(src: &mut $crate::Src<'_>) -> Result<Self, $crate::DecodeError> {
                let tag = <u8 as $crate::Codec>::decode(src)?;
                match tag {
                    $( $tag => Ok(Self::$variant
                        $( ( $( {
                            // `stringify!` pins the repetition to the
                            // binder list; the binder itself is unused.
                            let _ = stringify!($tf);
                            $crate::Codec::decode(src)?
                        } ),+ ) )?
                        $( { $( $sf: $crate::Codec::decode(src)?, )+ } )?
                    ), )+
                    other => Err($crate::DecodeError::at(
                        src,
                        format!(
                            "invalid tag {other} for {}",
                            stringify!($ty)
                        ),
                    )),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let mut sink = Sink::new();
        value.encode(&mut sink);
        let bytes = sink.into_bytes();
        let mut src = Src::new(&bytes);
        let back = T::decode(&mut src).expect("decodes");
        src.finish().expect("fully consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u16::MAX);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f32);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("héllo\nworld"));
        round_trip(String::new());
    }

    #[test]
    fn float_bit_patterns_survive() {
        let nan = f32::from_bits(0x7fc0_1234);
        let mut sink = Sink::new();
        nan.encode(&mut sink);
        let bytes = sink.into_bytes();
        let back = f32::decode(&mut Src::new(&bytes)).expect("decodes");
        assert_eq!(back.to_bits(), nan.to_bits(), "NaN payload preserved");
        round_trip((-0.0f64).to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(std::collections::VecDeque::from([1u32, 2]));
        round_trip(Some(7u64));
        round_trip(Option::<u64>::None);
        round_trip(Box::new(9u8));
        round_trip([1u64, 2, 3]);
        round_trip((1u8, String::from("x")));
        round_trip((1u8, 2u16, 3u32));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut sink = Sink::new();
        0xabcd_ef01_2345_6789u64.encode(&mut sink);
        let bytes = sink.into_bytes();
        for cut in 0..bytes.len() {
            let err = u64::decode(&mut Src::new(&bytes[..cut])).expect_err("truncated");
            assert_eq!(err.offset, 0);
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // A sequence claiming u64::MAX elements with a 1-byte payload.
        let mut sink = Sink::new();
        u64::MAX.encode(&mut sink);
        sink.put_byte(0);
        let bytes = sink.into_bytes();
        let err = Vec::<u64>::decode(&mut Src::new(&bytes)).expect_err("rejected");
        assert!(err.detail.contains("claims"), "{err}");
    }

    #[test]
    fn invalid_tags_are_typed_errors() {
        assert!(bool::decode(&mut Src::new(&[2])).is_err());
        assert!(Option::<u8>::decode(&mut Src::new(&[9])).is_err());
        let bad = String::decode(&mut Src::new(&{
            let mut sink = Sink::new();
            2usize.encode(&mut sink);
            sink.put(&[0xff, 0xfe]);
            sink.into_bytes()
        }));
        assert!(bad.is_err(), "invalid UTF-8 rejected");
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut sink = Sink::new();
        1u8.encode(&mut sink);
        sink.put_byte(0);
        let bytes = sink.into_bytes();
        let mut src = Src::new(&bytes);
        u8::decode(&mut src).expect("decodes");
        assert!(src.finish().is_err());
    }

    // Macro coverage on local types.
    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: Vec<String>,
    }
    impl_codec!(Demo { a, b });

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u64, u64),
        Poly { sides: usize, closed: bool },
    }
    impl_codec_enum!(Shape {
        0 => Dot,
        1 => Line(from, to),
        2 => Poly { sides, closed },
    });

    #[test]
    fn macros_cover_all_variant_shapes() {
        round_trip(Demo { a: 5, b: vec!["x".into(), "y".into()] });
        round_trip(Shape::Dot);
        round_trip(Shape::Line(3, 9));
        round_trip(Shape::Poly { sides: 6, closed: true });
        let err = Shape::decode(&mut Src::new(&[7])).expect_err("bad tag");
        assert!(err.detail.contains("invalid tag 7"), "{err}");
    }
}
