//! Single-part merges: nothing to combine.
//!
//! Merge-Layer gets one stage partial when `√(p/l) = 1`, and Merge-Fiber
//! gets one layer piece when `l = 1`. The ⊕-sum of one matrix is the
//! matrix itself, so the merge does only what the output contract
//! needs. Both the serial and the column-parallel hash merges apply this
//! one rule:
//!
//! * the output may be unsorted, or the part is already sorted: move the
//!   part through, with no copy and no work;
//! * the output must be sorted and the part is not (the final Merge-Fiber
//!   of the sort-free pipeline): sort each column in place. The columns
//!   are split by nnz over the caller's workspaces, one thread each, with
//!   the sort scratch taken from each thread's workspace.
//!
//! Output and metering equal the hash accumulator's on the same part, bit
//! for bit. Without duplicate rows the accumulator emits each column's
//! entries unchanged and, in the sorted variant, ascending by row. Its
//! per-column work formula is charged here in the same column order and
//! over the same ranges as the parallel accumulator path. A column that
//! holds a duplicate row hands the part back for the accumulator to sum.
//! The in-place sort is stable, so duplicates keep their input order and
//! the sums come out the same.
//!
//! A column is sorted by a scan of a row bitmap when `sorts_by_bitmap`
//! holds, the same rule as the accumulator's sorted drain, and by a key
//! sort otherwise. Both leave a column with a duplicate row untouched.

use crate::csc::CscMatrix;
use crate::par::{
    merge_col_weights, run_ranges_with, split_cols_by_weight, split_lens, RangeBalance,
};
use crate::spgemm::accum::sorts_by_bitmap;
use crate::spgemm::workspace::{drain_set_rows, SpGemmWorkspace};
use crate::spgemm::{lg, WorkStats, C_DRAIN, C_MERGE_HASH, C_SORT};
use crate::{Result, Sortedness};

/// Outcome of [`merge_single`].
#[derive(Debug)]
pub(crate) enum SingleMerge<T: Copy> {
    /// The merged matrix, its stats and the per-range balance.
    Done(CscMatrix<T>, WorkStats, RangeBalance),
    /// Some column holds a duplicate row: the part (columns possibly
    /// reordered, duplicates still in input order) must be summed by the
    /// accumulator.
    Duplicates(CscMatrix<T>),
}

/// Merge one part; `sort` asks for sorted output columns. `workspaces`
/// holds one arena per kernel thread (one for a serial call).
pub(crate) fn merge_single<T: Copy + Send + Sync>(
    mut part: CscMatrix<T>,
    sort: bool,
    workspaces: &mut [SpGemmWorkspace<T>],
) -> Result<SingleMerge<T>> {
    if !sort || part.is_sorted() {
        let stats = WorkStats {
            nnz_out: part.nnz() as u64,
            ..WorkStats::default()
        };
        let expected = if sort {
            Sortedness::Sorted
        } else {
            Sortedness::Unsorted
        };
        crate::debug_validate!(part, expected, "hash-merge output (single part, moved)");
        return Ok(SingleMerge::Done(
            part,
            stats,
            RangeBalance::from_work(&[0.0]),
        ));
    }
    // Parallel: the ranges the parallel accumulator path would cut, so the
    // per-range work sums (and their fold) match it exactly.
    let nthreads = workspaces.len();
    let ranges = (nthreads > 1 && part.ncols() > 1)
        .then(|| split_cols_by_weight(&merge_col_weights(std::slice::from_ref(&part)), nthreads));
    let nrows = part.nrows();
    let (colptr, rows, vals) = part.entries_mut();
    let (clean, stats, balance) = if let Some(ranges) = ranges {
        let lens = || ranges.iter().map(|r| colptr[r.end] - colptr[r.start]);
        let chunks: Vec<_> = ranges
            .iter()
            .map(|r| &colptr[r.start..=r.end])
            .zip(split_lens(rows, lens()))
            .zip(split_lens(vals, lens()))
            .map(|((colptr, rows), vals)| (colptr, rows, vals))
            .collect();
        let (clean, stats, balance) = run_ranges_with(
            &ranges,
            chunks,
            workspaces,
            |_, (colptr, rows, vals), ws| Ok(sort_cols_in_place(colptr, rows, vals, nrows, ws)),
        )?;
        (clean.iter().all(|&c| c), stats, balance)
    } else {
        // Serial: one range, sorted inline (no thread, no allocation).
        let mut fallback = SpGemmWorkspace::new();
        let ws = workspaces.first_mut().unwrap_or(&mut fallback);
        let (clean, stats) = sort_cols_in_place(colptr, rows, vals, nrows, ws);
        (clean, stats, RangeBalance::from_work(&[stats.work_units]))
    };
    if !clean {
        return Ok(SingleMerge::Duplicates(part));
    }
    part.mark_sorted();
    crate::debug_validate!(
        part,
        Sortedness::Sorted,
        "hash-merge output (single part, sorted in place)"
    );
    Ok(SingleMerge::Done(part, stats, balance))
}

/// Sort the columns delimited by `colptr` (absolute offsets; `rows` and
/// `vals` start at `colptr[0]`; rows below `nrows`) in place, charging
/// the accumulator's sorted-merge work per nonempty column. Returns
/// `false` as soon as a column holds a duplicate row, leaving that column
/// untouched.
fn sort_cols_in_place<T: Copy>(
    colptr: &[usize],
    rows: &mut [u32],
    vals: &mut [T],
    nrows: usize,
    ws: &mut SpGemmWorkspace<T>,
) -> (bool, WorkStats) {
    let allocs_before = ws.total_allocs();
    let base = colptr[0];
    let mut stats = WorkStats::default();
    let mut clean = true;
    for w in colptr.windows(2) {
        let seg = w[0] - base..w[1] - base;
        let n = seg.len();
        if n == 0 {
            continue;
        }
        if !sort_col_stable(&mut rows[seg.clone()], &mut vals[seg], nrows, ws) {
            clean = false;
            break;
        }
        stats.nnz_out += n as u64;
        stats.work_units += n as f64 * C_MERGE_HASH + n as f64 * C_DRAIN;
        stats.work_units += n as f64 * lg(n) * C_SORT;
    }
    ws.note_peak();
    stats.allocs = ws.total_allocs() - allocs_before;
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    (clean, stats)
}

/// Stable in-place sort of one column by row. Returns `false`, with the
/// column unchanged, if two entries share a row.
fn sort_col_stable<T: Copy>(
    rows: &mut [u32],
    vals: &mut [T],
    nrows: usize,
    ws: &mut SpGemmWorkspace<T>,
) -> bool {
    if rows.windows(2).all(|w| w[0] < w[1]) {
        return true;
    }
    if u32::try_from(rows.len()).is_err() {
        return false;
    }
    if sorts_by_bitmap(rows.len(), nrows) {
        sort_col_bitmap(rows, vals, nrows, ws)
    } else {
        sort_col_keys(rows, vals, ws)
    }
}

/// Key sort: keys pack `(row, position)` into a `u64`, so they are
/// distinct and an unstable sort of them is a stable sort of the column.
fn sort_col_keys<T: Copy>(rows: &mut [u32], vals: &mut [T], ws: &mut SpGemmWorkspace<T>) -> bool {
    let (keys, saved) = ws.sort_scratch(rows.len());
    keys.extend(
        rows.iter()
            .enumerate()
            .map(|(i, &r)| (u64::from(r) << 32) | i as u64),
    );
    keys.sort_unstable();
    if keys.windows(2).any(|w| w[0] >> 32 == w[1] >> 32) {
        return false;
    }
    saved.extend_from_slice(vals);
    for ((r, v), &k) in rows.iter_mut().zip(vals.iter_mut()).zip(keys.iter()) {
        *r = (k >> 32) as u32;
        *v = saved[(k & 0xFFFF_FFFF) as usize];
    }
    true
}

/// Bitmap sort: mark each row in the row bitmap, remembering its
/// position, then scan the bitmap in row order. A row marked twice is a
/// duplicate. Either way the bitmap is left all zero.
fn sort_col_bitmap<T: Copy>(
    rows: &mut [u32],
    vals: &mut [T],
    nrows: usize,
    ws: &mut SpGemmWorkspace<T>,
) -> bool {
    let (bits, pos, saved) = ws.bitmap_sort_scratch(nrows, rows.len());
    for (i, &r) in rows.iter().enumerate() {
        let (word, bit) = (r as usize / 64, 1u64 << (r % 64));
        if bits[word] & bit != 0 {
            for &r in &rows[..i] {
                bits[r as usize / 64] = 0;
            }
            return false;
        }
        bits[word] |= bit;
        pos[r as usize] = i as u32;
    }
    saved.extend_from_slice(vals);
    let mut out = rows.iter_mut().zip(vals.iter_mut());
    drain_set_rows(bits, saved.len(), |r| {
        let (row, val) = out.next().expect("one output slot per marked row");
        *row = r as u32;
        *val = saved[pos[r] as usize];
    });
    true
}
