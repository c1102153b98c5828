//! A compact dynamic bitset used for column masks and row sets.
//!
//! The suppression machinery stores, for every row, the set of suppressed
//! columns; the diameter machinery stores, for every group, the set of
//! non-constant columns. Both are hot paths, so we use a dense `u64`-block
//! representation instead of `HashSet<usize>`.

use std::fmt;

const BLOCK_BITS: usize = 64;

/// A fixed-capacity set of `usize` indices backed by `u64` blocks.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitSet {
    blocks: Vec<u64>,
    /// Number of addressable bits (indices `0..len`).
    len: usize,
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitSet {
            blocks: vec![0; len.div_ceil(BLOCK_BITS)],
            len,
        }
    }

    /// Creates a set containing every index in `0..len`.
    #[must_use]
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for b in &mut s.blocks {
            *b = u64::MAX;
        }
        s.clear_tail();
        s
    }

    /// Number of addressable bits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `index`, returning whether it was newly inserted.
    ///
    /// # Panics
    /// Panics if `index >= capacity()`.
    pub fn insert(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        let block = &mut self.blocks[index / BLOCK_BITS];
        let mask = 1u64 << (index % BLOCK_BITS);
        let fresh = *block & mask == 0;
        *block |= mask;
        fresh
    }

    /// Removes `index`, returning whether it was present.
    ///
    /// # Panics
    /// Panics if `index >= capacity()`.
    pub fn remove(&mut self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} out of range {}", self.len);
        let block = &mut self.blocks[index / BLOCK_BITS];
        let mask = 1u64 << (index % BLOCK_BITS);
        let present = *block & mask != 0;
        *block &= !mask;
        present
    }

    /// Tests membership of `index`.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        if index >= self.len {
            return false;
        }
        self.blocks[index / BLOCK_BITS] & (1u64 << (index % BLOCK_BITS)) != 0
    }

    /// Number of elements in the set.
    #[must_use]
    pub fn count(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for b in &mut self.blocks {
            *b = 0;
        }
    }

    /// Iterates over the member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(i, &block)| BitBlockIter {
                block,
                base: i * BLOCK_BITS,
            })
    }

    /// Collects the member indices into a vector (ascending).
    #[must_use]
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    fn clear_tail(&mut self) {
        let used = self.len % BLOCK_BITS;
        if used != 0 {
            if let Some(last) = self.blocks.last_mut() {
                *last &= (1u64 << used) - 1;
            }
        }
    }
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to fit the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let len = items.iter().max().map_or(0, |&m| m + 1);
        let mut s = BitSet::new(len);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

struct BitBlockIter {
    block: u64,
    base: usize,
}

impl Iterator for BitBlockIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.block == 0 {
            return None;
        }
        let tz = self.block.trailing_zeros() as usize;
        self.block &= self.block - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_respects_capacity() {
        for len in [0, 1, 63, 64, 65, 127, 128, 130] {
            let s = BitSet::full(len);
            assert_eq!(s.count(), len, "len = {len}");
            assert_eq!(s.to_vec(), (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn iter_order_is_ascending() {
        let mut s = BitSet::new(200);
        for i in [199, 0, 65, 63, 64, 128] {
            s.insert(i);
        }
        assert_eq!(s.to_vec(), vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(10);
        assert!(!s.contains(10));
        assert!(!s.contains(1000));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = BitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::full(100);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn from_iterator_handles_empty() {
        let s: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(s.capacity(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn debug_format_lists_members() {
        let s: BitSet = [2usize, 7].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{2, 7}");
    }
}
