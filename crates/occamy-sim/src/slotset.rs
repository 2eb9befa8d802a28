//! A fixed-size set of ring slots, iterated in age order.
//!
//! The issue queue and the LSU keep their entries in rings where entry
//! `n` (counting enqueues since creation) lives in slot `n % slots`.
//! When no two live entries are `slots` or more enqueues apart, walking
//! the ring from the slot the next entry will take visits the live
//! entries oldest first. A [`SlotSet`] marks a subset of those slots
//! (ready entries, unissued entries, live entries) so that walk touches
//! one bit per slot and one word per 64 slots.

/// A bitset over the slots of an age-ordered ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotSet {
    words: Vec<u64>,
    slots: usize,
    /// Members, so an empty set answers without a walk.
    len: usize,
}

impl SlotSet {
    /// An empty set over `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        SlotSet { words: vec![0; slots.div_ceil(64)], slots, len: 0 }
    }

    pub(crate) fn insert(&mut self, slot: usize) {
        debug_assert!(slot < self.slots);
        let (word, bit) = (&mut self.words[slot / 64], 1 << (slot % 64));
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    pub(crate) fn remove(&mut self, slot: usize) {
        let (word, bit) = (&mut self.words[slot / 64], 1 << (slot % 64));
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members in ring order starting at `start` (the slot of the
    /// oldest possible entry) and wrapping around: oldest first.
    pub(crate) fn iter_from(&self, start: usize) -> AgeOrder<'_> {
        self.iter_except_words(start, &[])
    }

    /// The members not in `except`, in age order from `start`.
    pub(crate) fn iter_except<'a>(&'a self, start: usize, except: &'a SlotSet) -> AgeOrder<'a> {
        self.iter_except_words(start, &except.words)
    }

    fn iter_except_words<'a>(&'a self, start: usize, except: &'a [u64]) -> AgeOrder<'a> {
        let w = start / 64;
        let below = (1 << (start % 64)) - 1;
        let left = if self.len == 0 { 0 } else { self.words.len() };
        let mut walk = AgeOrder { words: &self.words, except, w, bits: 0, left, below };
        walk.bits = walk.word(w) & !below;
        walk
    }

    /// The oldest member, counting from `start` as for
    /// [`iter_from`](Self::iter_from).
    pub(crate) fn first_from(&self, start: usize) -> Option<usize> {
        self.iter_from(start).next()
    }
}

/// The members of a [`SlotSet`] in age order (see
/// [`SlotSet::iter_from`]): the start word's bits from the start slot
/// up, every other word in ring order, then the start word's bits below
/// the start slot.
pub(crate) struct AgeOrder<'a> {
    words: &'a [u64],
    /// Members to skip (empty: none).
    except: &'a [u64],
    /// The word `bits` came from.
    w: usize,
    /// Members of word `w` not yet yielded.
    bits: u64,
    /// Words still to load.
    left: usize,
    /// The start word's bits below the start slot.
    below: u64,
}

impl AgeOrder<'_> {
    fn word(&self, w: usize) -> u64 {
        self.words[w] & !self.except.get(w).copied().unwrap_or(0)
    }
}

impl Iterator for AgeOrder<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.w * 64 + bit);
            }
            if self.left == 0 {
                return None;
            }
            self.left -= 1;
            self.w = if self.w + 1 == self.words.len() { 0 } else { self.w + 1 };
            self.bits = self.word(self.w);
            if self.left == 0 {
                // Back at the start word: only its older half remains.
                self.bits &= self.below;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_ring_order_from_the_start_slot() {
        let mut s = SlotSet::new(130);
        for slot in [0, 5, 63, 64, 100, 129] {
            s.insert(slot);
        }
        assert_eq!(s.iter_from(0).collect::<Vec<_>>(), [0, 5, 63, 64, 100, 129]);
        assert_eq!(s.iter_from(64).collect::<Vec<_>>(), [64, 100, 129, 0, 5, 63]);
        assert_eq!(s.iter_from(101).collect::<Vec<_>>(), [129, 0, 5, 63, 64, 100]);
        assert_eq!(s.first_from(6), Some(63));
        s.remove(63);
        assert_eq!(s.first_from(6), Some(64));
        let mut except = SlotSet::new(130);
        except.insert(100);
        except.insert(5);
        assert_eq!(s.iter_except(64, &except).collect::<Vec<_>>(), [64, 129, 0]);
    }

    #[test]
    fn empty_and_single_word_sets() {
        let mut s = SlotSet::new(3);
        assert_eq!(s.first_from(1), None);
        s.insert(0);
        assert_eq!(s.first_from(1), Some(0));
        assert_eq!(s.first_from(0), Some(0));
        let full_word = SlotSet::new(64);
        assert_eq!(full_word.first_from(17), None);
    }
}
