//! Reusable open-addressing hash accumulator.
//!
//! The core data structure behind the paper's sort-free kernels: a linear
//! probing table keyed by row index, reused across output columns (the
//! "workhorse collection" pattern — clearing touches only occupied slots,
//! so a hyper-sparse column doesn't pay for the table's full capacity).
//!
//! The table is bounded by the output's row count: a column can hold at
//! most `nrows` distinct rows whatever its flop bound. A column whose
//! bound reaches `nrows / DENSE_COL_DIVISOR` rows is *dense*
//! (`is_dense_col`): the table then indexes directly by row, one slot
//! per row and no probing. Sparser columns hash into a table of twice
//! their bound, and the probe mask always spans the whole table.
//!
//! A sorted drain orders a column by one of two means, chosen per column
//! by `sorts_by_bitmap` whatever the table's mode: a scan of the
//! workspace's `RowBitmap`, or a comparison sort of the occupied slots
//! by key. Both emit the same rows and values.

use super::lg;
use super::workspace::{drain_set_rows, RowBitmap};
use crate::semiring::Semiring;

const EMPTY: u32 = u32::MAX;

/// Hash multiplier of sparse columns; a dense column multiplies by 1.
const HASH_MULT: u32 = 0x9E37_79B1;

/// A column is dense when its distinct-row bound is at least
/// `nrows / DENSE_COL_DIVISOR`.
const DENSE_COL_DIVISOR: usize = 16;

/// True when a column with at most `ub` entries over `nrows` rows is dense:
/// `min(ub, nrows) · DENSE_COL_DIVISOR >= nrows`. Dense columns are
/// accumulated by row index.
#[inline]
pub(crate) fn is_dense_col(ub: usize, nrows: usize) -> bool {
    ub.min(nrows) * DENSE_COL_DIVISOR >= nrows
}

/// True when `n` entries over `nrows` rows sort faster by a row-bitmap
/// scan than by comparisons: the scan's `nrows / 64` words cost no more
/// than the sort's `n·lg n`.
#[inline]
pub(crate) fn sorts_by_bitmap(n: usize, nrows: usize) -> bool {
    nrows.div_ceil(64) as f64 <= n as f64 * lg(n)
}

/// Open-addressing (linear probing) accumulator mapping row index → value.
///
/// Capacity is always a power of two. In hash mode it is at least 2× the
/// expected number of distinct keys, keeping the load factor ≤ 0.5; in
/// direct mode (a dense column) it covers every row.
pub struct HashAccum<T> {
    keys: Vec<u32>,
    vals: Vec<T>,
    /// Slots currently occupied, in insertion order (drain + reset list).
    occupied: Vec<u32>,
    mask: usize,
    /// [`HASH_MULT`], or 1 for a dense column: the table covers every row,
    /// so `slot = row & mask = row`.
    mult: u32,
    /// Row count of the current column's output (set by [`Self::reset`]).
    nrows: usize,
    /// Heap allocations performed by table growth since construction.
    grows: u64,
    fill: T,
}

impl<T> std::fmt::Debug for HashAccum<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HashAccum")
            .field("capacity", &self.keys.len())
            .field("occupied", &self.occupied.len())
            .field("direct", &(self.mult == 1))
            .finish_non_exhaustive()
    }
}

impl<T: Copy> HashAccum<T> {
    /// New accumulator. `fill` initializes value slots (any value works; the
    /// `keys` sentinel is authoritative). Typically `S::zero()`.
    pub fn new(fill: T) -> Self {
        HashAccum {
            keys: Vec::new(),
            vals: Vec::new(),
            occupied: Vec::new(),
            mask: 0,
            mult: HASH_MULT,
            nrows: 0,
            grows: 0,
            fill,
        }
    }

    /// Prepare for a column with at most `expected` entries whose keys are
    /// rows below `nrows`: grows the table if needed and clears previous
    /// occupancy. A dense column (`is_dense_col`) gets one slot per row;
    /// any other gets `2·expected` slots, fewer than `nrows / 8`. Both
    /// round up to a power of two.
    pub fn reset(&mut self, expected: usize, nrows: usize) {
        let direct = is_dense_col(expected, nrows);
        self.mult = if direct { 1 } else { HASH_MULT };
        self.nrows = nrows;
        let want = if direct { nrows.max(1) } else { expected.max(1) * 2 }.next_power_of_two();
        if want > self.keys.len() {
            self.keys = vec![EMPTY; want];
            self.vals = vec![self.fill; want];
            self.mask = want - 1;
            // Two fresh buffers (keys + vals); capacity only ever grows.
            self.grows += 2;
        } else {
            for &slot in &self.occupied {
                self.keys[slot as usize] = EMPTY;
            }
        }
        self.occupied.clear();
    }

    /// Number of distinct keys currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.occupied.len()
    }

    /// True if no keys stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.occupied.is_empty()
    }

    /// Heap allocations performed by table growth so far (two buffers per
    /// growth event; never decreases — the table only grows).
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Bytes currently held by the table and its occupancy list.
    pub fn footprint_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<T>()
            + self.occupied.capacity() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        // Multiply by an odd constant and keep the *low* bits. Those bits
        // are a bijection of the key's low bits, so keys congruent modulo
        // the table size collide exactly as under identity hashing; linear
        // probing resolves them. A dense column's multiplier is 1, and its
        // first probe always lands on the key's own slot.
        (key.wrapping_mul(self.mult) as usize) & self.mask
    }

    /// `table[key] ⊕= val` under semiring `S`.
    #[inline]
    pub fn accumulate<S: Semiring<T = T>>(&mut self, key: u32, val: T) {
        debug_assert_ne!(key, EMPTY, "row index u32::MAX is reserved");
        let mut slot = self.slot_of(key);
        loop {
            let k = self.keys[slot];
            if k == key {
                self.vals[slot] = S::add(self.vals[slot], val);
                return;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = val;
                self.occupied.push(slot as u32);
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Append stored `(key, value)` pairs to the output vectors in
    /// *insertion* order (unsorted — the whole point of the sort-free
    /// kernels), then leave the table ready for reuse via [`Self::reset`].
    pub fn drain_into(&mut self, rows: &mut Vec<u32>, vals: &mut Vec<T>) {
        for &slot in &self.occupied {
            rows.push(self.keys[slot as usize]);
            vals.push(self.vals[slot as usize]);
        }
    }

    /// Append stored `(key, value)` pairs sorted ascending by key.
    ///
    /// Allocation-free once the bitmap has grown to the row count (its
    /// growth is counted). When [`sorts_by_bitmap`] holds, each stored row is marked in the
    /// all-zero bitmap with its slot in the position table, and a word
    /// scan emits them in order and leaves the bitmap zero again.
    /// Otherwise the occupancy list is sorted by key in place and drained
    /// in that order. Reordering `occupied` is safe — its insertion order
    /// only matters to [`Self::drain_into`], and after a drain the next
    /// [`Self::reset`] clears it regardless of order.
    pub(crate) fn drain_into_sorted(
        &mut self,
        rows: &mut Vec<u32>,
        vals: &mut Vec<T>,
        bitmap: &mut RowBitmap,
    ) {
        if !sorts_by_bitmap(self.len(), self.nrows) {
            let keys = &self.keys;
            self.occupied
                .sort_unstable_by_key(|&slot| keys[slot as usize]);
            self.drain_into(rows, vals);
            return;
        }
        let (bits, pos) = bitmap.bits_and_pos(self.nrows);
        for &slot in &self.occupied {
            let r = self.keys[slot as usize];
            bits[r as usize / 64] |= 1 << (r % 64);
            pos[r as usize] = slot;
        }
        drain_set_rows(bits, self.occupied.len(), |r| {
            rows.push(r as u32);
            vals.push(self.vals[pos[r] as usize]);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};

    /// Rows of a tall output: every column below stays in hash mode.
    const NROWS: usize = 1 << 20;

    #[test]
    fn accumulate_combines_duplicates() {
        let mut acc = HashAccum::new(0.0);
        acc.reset(4, NROWS);
        acc.accumulate::<PlusTimesF64>(7, 1.0);
        acc.accumulate::<PlusTimesF64>(7, 2.0);
        acc.accumulate::<PlusTimesF64>(3, 5.0);
        assert_eq!(acc.len(), 2);
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into_sorted(&mut r, &mut v, &mut RowBitmap::default());
        assert_eq!(r, vec![3, 7]);
        assert_eq!(v, vec![5.0, 3.0]);
    }

    #[test]
    fn reset_clears_only_occupied() {
        let mut acc = HashAccum::new(0u64);
        acc.reset(8, NROWS);
        for k in 0..8 {
            acc.accumulate::<PlusTimesU64>(k, 1);
        }
        acc.reset(8, NROWS);
        assert!(acc.is_empty());
        acc.accumulate::<PlusTimesU64>(3, 9);
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into(&mut r, &mut v);
        assert_eq!(r, vec![3]);
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn grows_when_expected_exceeds_capacity() {
        let mut acc = HashAccum::new(0u64);
        acc.reset(2, NROWS);
        acc.reset(1000, NROWS);
        for k in 0..1000 {
            acc.accumulate::<PlusTimesU64>(k, 1);
        }
        assert_eq!(acc.len(), 1000);
    }

    #[test]
    fn collision_heavy_keys_all_stored() {
        // Keys that collide under the multiplier still resolve by probing.
        let mut acc = HashAccum::new(0u64);
        acc.reset(64, NROWS);
        for i in 0..64u32 {
            acc.accumulate::<PlusTimesU64>(i * 64, u64::from(i) + 1);
        }
        assert_eq!(acc.len(), 64);
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into(&mut r, &mut v);
        assert_eq!(r, (0..64u32).map(|i| i * 64).collect::<Vec<_>>());
        assert_eq!(v, (1..=64u64).collect::<Vec<_>>());
    }

    #[test]
    fn table_is_capped_by_the_row_count() {
        // A flop bound far above the row count: at most `nrows` distinct
        // keys, so the table never needs more than one slot per row.
        for nrows in [1usize, 63, 64, 65, 300, 5000] {
            let mut acc = HashAccum::new(0u64);
            acc.reset(64 * nrows, nrows);
            assert!(acc.keys.len() <= 2 * nrows.next_power_of_two(), "nrows {nrows}");
        }
    }

    #[test]
    fn dense_columns_index_by_row_and_switch_back_cleanly() {
        let nrows = 100;
        let mut acc = HashAccum::new(0u64);
        // Dense: bound 7 ≥ 100/16, one slot per row.
        acc.reset(7, nrows);
        assert_eq!(acc.mult, 1);
        assert_eq!(acc.keys.len(), 128);
        for k in [99u32, 3, 64, 3, 0] {
            acc.accumulate::<PlusTimesU64>(k, u64::from(k) + 1);
        }
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into(&mut r, &mut v);
        assert_eq!(r, vec![99, 3, 64, 0], "insertion order");
        assert_eq!(v, vec![100, 8, 65, 1]);
        // Sparse: bound 6 < 100/16 hashes into the same table; the dense
        // column's keys are gone.
        acc.reset(6, nrows);
        assert_eq!(acc.mult, HASH_MULT);
        assert_eq!(acc.mask, 127, "the mask never shrinks");
        for k in [64u32, 99, 64] {
            acc.accumulate::<PlusTimesU64>(k, 1);
        }
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into_sorted(&mut r, &mut v, &mut RowBitmap::default());
        assert_eq!(r, vec![64, 99]);
        assert_eq!(v, vec![2, 1]);
    }

    #[test]
    fn growth_and_footprint_are_tracked() {
        let mut acc = HashAccum::new(0u64);
        assert_eq!(acc.grows(), 0);
        acc.reset(4, NROWS);
        assert_eq!(acc.grows(), 2, "first reset allocates keys + vals");
        acc.reset(4, NROWS);
        assert_eq!(acc.grows(), 2, "reuse at same size must not allocate");
        acc.reset(1000, NROWS);
        assert_eq!(acc.grows(), 4, "growing past capacity reallocates");
        // 1000 keys → 2048-slot table: keys and vals are 8 bytes per slot.
        assert!(acc.footprint_bytes() >= 2048 * (4 + 8));
    }

    #[test]
    fn sorted_drain_after_reuse_stays_sorted() {
        // Reordering `occupied` in a sorted drain must not corrupt later
        // resets or drains on the same table.
        let mut acc = HashAccum::new(0u64);
        for round in 0..3u64 {
            acc.reset(16, NROWS);
            for k in [9u32, 2, 14, 2, 5] {
                acc.accumulate::<PlusTimesU64>(k, round + 1);
            }
            let (mut r, mut v) = (Vec::new(), Vec::new());
            acc.drain_into_sorted(&mut r, &mut v, &mut RowBitmap::default());
            assert_eq!(r, vec![2, 5, 9, 14], "round {round}");
            assert_eq!(v, vec![2 * (round + 1), round + 1, round + 1, round + 1]);
        }
    }

    #[test]
    fn insertion_order_drain_is_unsorted_but_complete() {
        let mut acc = HashAccum::new(0.0);
        acc.reset(4, NROWS);
        acc.accumulate::<PlusTimesF64>(9, 1.0);
        acc.accumulate::<PlusTimesF64>(2, 2.0);
        acc.accumulate::<PlusTimesF64>(5, 3.0);
        let (mut r, mut v) = (Vec::new(), Vec::new());
        acc.drain_into(&mut r, &mut v);
        assert_eq!(r, vec![9, 2, 5]); // insertion order
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }
}
