//! Architectural register names.

use std::fmt;

/// Number of architectural scalar registers.
pub const NUM_XREGS: usize = 32;

/// Number of architectural vector registers (SVE `z0`–`z31`).
pub const NUM_VREGS: usize = 32;

/// Number of architectural predicate registers (`p0`–`p7`; SVE defines
/// sixteen, of which compilers use a handful — eight keeps the rename
/// tables small).
pub const NUM_PREGS: usize = 8;

macro_rules! reg_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal, $count:expr, $($var:ident = $idx:expr),+ $(,)?) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum $name {
            $(#[doc = concat!("Register ", $prefix, stringify!($idx), ".")] $var = $idx),+
        }

        impl $name {
            /// All registers in index order.
            pub const ALL: [$name; $count] = [$($name::$var),+];

            /// The register's index (0-based).
            pub fn index(self) -> usize {
                self as usize
            }

            /// The register with the given index.
            ///
            /// # Panics
            ///
            /// Panics if `index` is out of range.
            pub fn from_index(index: usize) -> Self {
                Self::ALL[index]
            }
        }

        /// The first register (`x0`, `z0`, `p0`): the filler of unused
        /// [`RegList`](crate::RegList) slots.
        impl Default for $name {
            fn default() -> Self {
                Self::ALL[0]
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $prefix, self.index())
            }
        }
    };
}

reg_type!(
    /// An architectural scalar (general-purpose) register, `x0`–`x31`.
    ///
    /// Scalar registers hold 64-bit values. Scalar floating-point
    /// instructions operate on the low 32 bits interpreted as an `f32`
    /// (a simplification of the separate ARM FP register file that is
    /// immaterial to the timing model).
    XReg, "x", 32,
    X0 = 0, X1 = 1, X2 = 2, X3 = 3, X4 = 4, X5 = 5, X6 = 6, X7 = 7,
    X8 = 8, X9 = 9, X10 = 10, X11 = 11, X12 = 12, X13 = 13, X14 = 14, X15 = 15,
    X16 = 16, X17 = 17, X18 = 18, X19 = 19, X20 = 20, X21 = 21, X22 = 22, X23 = 23,
    X24 = 24, X25 = 25, X26 = 26, X27 = 27, X28 = 28, X29 = 29, X30 = 30, X31 = 31,
);

reg_type!(
    /// An architectural vector register, `z0`–`z31`, of vector-length
    /// agnostic width (the configured `<VL>` granules at execution time).
    VReg, "z", 32,
    Z0 = 0, Z1 = 1, Z2 = 2, Z3 = 3, Z4 = 4, Z5 = 5, Z6 = 6, Z7 = 7,
    Z8 = 8, Z9 = 9, Z10 = 10, Z11 = 11, Z12 = 12, Z13 = 13, Z14 = 14, Z15 = 15,
    Z16 = 16, Z17 = 17, Z18 = 18, Z19 = 19, Z20 = 20, Z21 = 21, Z22 = 22, Z23 = 23,
    Z24 = 24, Z25 = 25, Z26 = 26, Z27 = 27, Z28 = 28, Z29 = 29, Z30 = 30, Z31 = 31,
);

reg_type!(
    /// An architectural predicate register, `p0`–`p7`: one bit per
    /// 32-bit lane, governing predicated vector instructions.
    PReg, "p", 8,
    P0 = 0, P1 = 1, P2 = 2, P3 = 3, P4 = 4, P5 = 5, P6 = 6, P7 = 7,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip() {
        for i in 0..NUM_XREGS {
            assert_eq!(XReg::from_index(i).index(), i);
        }
        for i in 0..NUM_VREGS {
            assert_eq!(VReg::from_index(i).index(), i);
        }
        for i in 0..NUM_PREGS {
            assert_eq!(PReg::from_index(i).index(), i);
        }
    }

    #[test]
    fn display_uses_arm_names() {
        assert_eq!(XReg::X7.to_string(), "x7");
        assert_eq!(VReg::Z31.to_string(), "z31");
        assert_eq!(PReg::P5.to_string(), "p5");
    }

    #[test]
    fn all_is_in_index_order() {
        assert!(XReg::ALL.windows(2).all(|w| w[0].index() + 1 == w[1].index()));
        assert!(VReg::ALL.windows(2).all(|w| w[0].index() + 1 == w[1].index()));
    }
}

// --- Checkpoint serialization --------------------------------------------

macro_rules! impl_reg_codec {
    ($name:ident, $count:expr) => {
        impl statecodec::Codec for $name {
            fn encode(&self, sink: &mut statecodec::Sink) {
                sink.put_byte(self.index() as u8);
            }
            fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
                let idx = usize::from(<u8 as statecodec::Codec>::decode(src)?);
                if idx >= $count {
                    return Err(statecodec::DecodeError::at(
                        src,
                        format!(
                            "{} index {idx} out of range 0..{}",
                            stringify!($name),
                            $count
                        ),
                    ));
                }
                Ok($name::from_index(idx))
            }
        }
    };
}

impl_reg_codec!(XReg, NUM_XREGS);
impl_reg_codec!(VReg, NUM_VREGS);
impl_reg_codec!(PReg, NUM_PREGS);
