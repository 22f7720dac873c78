//! A fixed-size set of tile indices, one bit per tile.
//!
//! The per-cycle sweeps keep one [`TileSet`] per kind of pending work
//! (routers with buffered flits, home banks with messages, ...) and walk
//! only its members, so a cycle's cost follows the number of active
//! tiles rather than the mesh size. Membership is tracked in 64-bit
//! words: tile `t` is bit `t % 64` of word `t / 64`.

/// A set of tile indices below a fixed bound, as a bitset.
///
/// ```
/// use inpg_sim::TileSet;
///
/// let mut set = TileSet::new(130);
/// set.set(3);
/// set.set(64);
/// set.set(129);
/// let mut walked = Vec::new();
/// let mut next = 0;
/// while let Some(tile) = set.next_from(next) {
///     walked.push(tile);
///     next = tile + 1;
/// }
/// assert_eq!(walked, [3, 64, 129]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileSet {
    words: Vec<u64>,
}

impl TileSet {
    /// An empty set over tiles `0..tiles`.
    pub fn new(tiles: usize) -> Self {
        TileSet { words: vec![0; tiles.div_ceil(64)] }
    }

    /// The set holding every tile in `0..tiles`.
    pub fn full(tiles: usize) -> Self {
        let mut set = TileSet::new(tiles);
        for tile in 0..tiles {
            set.set(tile);
        }
        set
    }

    /// Adds `tile`.
    #[inline]
    pub fn set(&mut self, tile: usize) {
        self.words[tile / 64] |= 1 << (tile % 64);
    }

    /// Removes `tile`.
    #[inline]
    pub fn clear(&mut self, tile: usize) {
        self.words[tile / 64] &= !(1 << (tile % 64));
    }

    /// Whether `tile` is a member.
    #[inline]
    pub fn contains(&self, tile: usize) -> bool {
        (self.words[tile / 64] >> (tile % 64)) & 1 == 1
    }

    /// The lowest member at or above `from`, if any. Asking again from
    /// the returned tile plus one walks the members in ascending order,
    /// and sees changes made to the set between calls.
    #[inline]
    pub fn next_from(&self, from: usize) -> Option<usize> {
        self.next_matching(from, |_| u64::MAX)
    }

    /// Like [`next_from`](Self::next_from), over the members also in
    /// `other`.
    #[inline]
    pub fn next_from_in(&self, from: usize, other: &TileSet) -> Option<usize> {
        self.next_matching(from, |word| other.words[word])
    }

    fn next_matching(&self, from: usize, filter: impl Fn(usize) -> u64) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.words.get(word)? & filter(word) & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.words.get(word)? & filter(word);
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(set: &TileSet) -> Vec<usize> {
        let mut out = Vec::new();
        let mut next = 0;
        while let Some(tile) = set.next_from(next) {
            out.push(tile);
            next = tile + 1;
        }
        out
    }

    #[test]
    fn walks_members_in_ascending_order_across_words() {
        let mut set = TileSet::new(256);
        for tile in [255, 0, 63, 64, 128, 200] {
            set.set(tile);
        }
        assert_eq!(members(&set), vec![0, 63, 64, 128, 200, 255]);
        assert_eq!(set.next_from(65), Some(128));
        assert_eq!(set.next_from(256), None);
        set.clear(64);
        assert!(!set.contains(64));
        assert!(set.contains(63));
        assert_eq!(members(&set), vec![0, 63, 128, 200, 255]);
    }

    #[test]
    fn intersection_walk_skips_tiles_outside_the_other_set() {
        let mut set = TileSet::new(144);
        let mut other = TileSet::new(144);
        for tile in [1, 2, 70, 140] {
            set.set(tile);
        }
        for tile in [2, 3, 140] {
            other.set(tile);
        }
        assert_eq!(set.next_from_in(0, &other), Some(2));
        assert_eq!(set.next_from_in(3, &other), Some(140));
        assert_eq!(set.next_from_in(141, &other), None);
    }

    #[test]
    fn full_set_holds_exactly_the_tiles_in_range() {
        let set = TileSet::full(70);
        assert_eq!(members(&set), (0..70).collect::<Vec<_>>());
        assert_eq!(TileSet::new(0).next_from(0), None);
    }
}
