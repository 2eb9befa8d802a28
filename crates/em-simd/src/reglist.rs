//! Inline register lists for operand queries.

use std::fmt;
use std::ops::Deref;

/// Most registers any instruction names in one operand role (`FMLA`
/// reads three vector registers; `STR` reads three scalar registers).
const CAPACITY: usize = 3;

/// A short list of registers held inline, so operand queries such as
/// [`VectorInst::vector_srcs`](crate::VectorInst::vector_srcs) cost no
/// heap allocation. Derefs to a slice.
///
/// # Examples
///
/// ```
/// use em_simd::{VReg, VectorInst};
///
/// let fma = VectorInst::Fma { dst: VReg::Z3, a: VReg::Z1, b: VReg::Z2 };
/// assert_eq!(*fma.vector_srcs(), [VReg::Z3, VReg::Z1, VReg::Z2]);
/// ```
#[derive(Clone, Copy)]
pub struct RegList<T> {
    items: [T; CAPACITY],
    len: u8,
}

impl<T: Copy + Default> RegList<T> {
    /// The most registers a list holds.
    pub const CAPACITY: usize = CAPACITY;

    /// An empty list.
    pub fn new() -> Self {
        RegList { items: [T::default(); CAPACITY], len: 0 }
    }

    /// Appends a register.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`CAPACITY`](Self::CAPACITY)
    /// registers.
    pub fn push(&mut self, reg: T) {
        let len = usize::from(self.len);
        assert!(len < CAPACITY, "a register list holds at most {CAPACITY} registers");
        self.items[len] = reg;
        self.len += 1;
    }
}

impl<T: Copy + Default> Default for RegList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for RegList<T> {
    fn from(regs: [T; N]) -> Self {
        regs.into_iter().collect()
    }
}

impl<T: Copy + Default> FromIterator<T> for RegList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = RegList::new();
        for reg in iter {
            list.push(reg);
        }
        list
    }
}

impl<T> Deref for RegList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..usize::from(self.len)]
    }
}

impl<'a, T> IntoIterator for &'a RegList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for RegList<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for RegList<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for RegList<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for RegList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Encoded exactly like a `Vec<T>` (length, then the items), so a list
/// can replace a vector in a serialized structure without changing its
/// byte format.
impl<T: statecodec::Codec + Copy + Default> statecodec::Codec for RegList<T> {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.len(), sink);
        for reg in self.iter() {
            reg.encode(sink);
        }
    }

    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let items: Vec<T> = statecodec::Codec::decode(src)?;
        if items.len() > CAPACITY {
            return Err(statecodec::DecodeError::at(
                src,
                format!("{} registers in a list of at most {CAPACITY}", items.len()),
            ));
        }
        Ok(items.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VReg;

    #[test]
    fn derefs_to_the_pushed_prefix() {
        let mut l = RegList::new();
        assert!(l.is_empty());
        l.push(VReg::Z4);
        l.push(VReg::Z1);
        assert_eq!(*l, [VReg::Z4, VReg::Z1]);
        assert_eq!(l, vec![VReg::Z4, VReg::Z1]);
    }

    #[test]
    #[should_panic(expected = "at most 3")]
    fn overflow_panics() {
        let _: RegList<VReg> = [VReg::Z0; 4].into();
    }

    #[test]
    fn codec_matches_vec_bytes() {
        let list: RegList<VReg> = [VReg::Z2, VReg::Z7].into();
        let as_vec = vec![VReg::Z2, VReg::Z7];
        let mut a = statecodec::Sink::default();
        statecodec::Codec::encode(&list, &mut a);
        let mut b = statecodec::Sink::default();
        statecodec::Codec::encode(&as_vec, &mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }
}
