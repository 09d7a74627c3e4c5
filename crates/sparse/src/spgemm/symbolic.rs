//! Symbolic (structure-only) SpGEMM — `LocalSymbolic` in Alg. 3.
//!
//! Counts `nnz(A·B)` without computing values. Much cheaper than a numeric
//! multiply (no value traffic, no output materialization), which is why the
//! paper's Symbolic3D step is communication-dominated (Fig. 8).
//!
//! A column needs only its distinct rows, so the sweep counts them in the
//! workspace's row bitmap, with no hashing and no probing. A column with
//! fewer flops than the bitmap has words counts first touches by
//! test-and-set and then clears the words it touched; any other sets a
//! bit per flop and then counts and zeroes every word in one popcount
//! pass. Either way the bitmap is all zero again after each column. The
//! work-unit formula still charges a hash probe per flop, so the modeled
//! clocks do not depend on how the count is taken.

use super::workspace::SpGemmWorkspace;
use super::{col_flops, WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::csc::CscMatrix;
use crate::{Result, SparseError};
use std::ops::Range;

/// Per-column output nnz of `a · b`, plus flop count.
///
/// Returns `(col_counts, stats)` where `col_counts[j] = nnz((A·B)(:,j))`.
/// `stats.nnz_out` is the total; `stats.flops` the multiplication count the
/// numeric kernel would perform. Convenience wrapper over
/// [`symbolic_col_counts_with_workspace`] with a throwaway workspace.
pub fn symbolic_col_counts<T: Copy, U: Copy>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
) -> Result<(Vec<u64>, WorkStats)> {
    symbolic_col_counts_with_workspace(a, b, &mut SpGemmWorkspace::<()>::new())
}

/// [`symbolic_col_counts`] against caller-owned reusable scratch.
///
/// Only the workspace's row bitmap is used, so the workspace's value type
/// `W` is independent of the operand types — the same per-rank workspace
/// that serves the numeric kernels serves the symbolic sweep.
pub fn symbolic_col_counts_with_workspace<T: Copy, U: Copy, W: Copy>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    ws: &mut SpGemmWorkspace<W>,
) -> Result<(Vec<u64>, WorkStats)> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: (a.ncols(), a.ncols()),
            found: (b.nrows(), b.ncols()),
        });
    }
    crate::debug_validate!(*a, crate::Sortedness::Unsorted, "symbolic sweep input A");
    crate::debug_validate!(*b, crate::Sortedness::Unsorted, "symbolic sweep input B");
    let mut counts = vec![0u64; b.ncols()];
    let mut stats = symbolic_cols(a, b, 0..b.ncols(), &mut counts, ws);
    // One exact-size allocation for the counts themselves.
    stats.allocs += 1;
    Ok((counts, stats))
}

/// The sweep body: `counts[k]` becomes the number of distinct rows of
/// output column `cols.start + k`, counted in the row bitmap, which is
/// all zero again when the sweep returns.
pub(crate) fn symbolic_cols<T: Copy, U: Copy, W: Copy>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    cols: Range<usize>,
    counts: &mut [u64],
    ws: &mut SpGemmWorkspace<W>,
) -> WorkStats {
    let nrows = a.nrows();
    let allocs_before = ws.total_allocs();
    let bits = ws.bitmap.bits(nrows);
    let mut stats = WorkStats::default();
    for (j, count) in cols.zip(counts.iter_mut()) {
        let (b_rows, _) = b.col(j);
        let ub = col_flops(a, b_rows);
        if ub == 0 {
            continue;
        }
        *count = if ub < bits.len() {
            // Fewer touches than words: count first touches, then clear
            // the words touched.
            let mut distinct = 0u64;
            for &i in b_rows {
                for &r in a.col(i as usize).0 {
                    let (word, bit) = (&mut bits[r as usize / 64], 1u64 << (r % 64));
                    distinct += u64::from(*word & bit == 0);
                    *word |= bit;
                }
            }
            for &i in b_rows {
                for &r in a.col(i as usize).0 {
                    bits[r as usize / 64] = 0;
                }
            }
            distinct
        } else {
            // At least as many touches as words: mark them all, then count
            // and clear every word in one pass.
            for &i in b_rows {
                for &r in a.col(i as usize).0 {
                    bits[r as usize / 64] |= 1 << (r % 64);
                }
            }
            bits.iter_mut()
                .map(|w| u64::from(std::mem::take(w).count_ones()))
                .sum()
        };
        stats.flops += ub as u64;
        stats.nnz_out += *count;
        // Symbolic probes cost like numeric probes but skip the value math
        // and the drain; model at half the per-flop constant.
        stats.work_units += ub as f64 * (C_HASH_FLOP * 0.5) + *count as f64 * (C_DRAIN * 0.25);
    }
    // Any bitmap growth the sweep caused.
    stats.allocs = ws.total_allocs() - allocs_before;
    ws.note_peak();
    stats.peak_scratch_bytes = ws.peak_scratch_bytes();
    stats
}

/// Total `nnz(A·B)` (convenience wrapper over [`symbolic_col_counts`]).
pub fn symbolic_nnz<T: Copy, U: Copy>(a: &CscMatrix<T>, b: &CscMatrix<U>) -> Result<(u64, WorkStats)> {
    let (_, stats) = symbolic_col_counts(a, b)?;
    Ok((stats.nnz_out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::PlusTimesF64;
    use crate::spgemm::dense_acc::spgemm_spa;

    #[test]
    fn counts_match_numeric_kernel() {
        let a = er_random::<PlusTimesF64>(70, 70, 6, 51);
        let b = er_random::<PlusTimesF64>(70, 70, 6, 52);
        let (counts, stats) = symbolic_col_counts(&a, &b).unwrap();
        let (c, num_stats) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        for (j, &count) in counts.iter().enumerate() {
            assert_eq!(count as usize, c.col_nnz(j), "column {j}");
        }
        assert_eq!(stats.nnz_out, c.nnz() as u64);
        assert_eq!(stats.flops, num_stats.flops);
    }

    #[test]
    fn symbolic_cheaper_than_numeric_in_work_units() {
        let a = er_random::<PlusTimesF64>(100, 100, 8, 61);
        let b = er_random::<PlusTimesF64>(100, 100, 8, 62);
        let (_, sym) = symbolic_nnz(&a, &b).unwrap();
        let (_, num) = spgemm_spa::<PlusTimesF64>(&a, &b).unwrap();
        assert!(sym.work_units < num.work_units);
    }

    #[test]
    fn empty_product() {
        let a = CscMatrix::<f64>::zero(5, 5);
        let b = er_random::<PlusTimesF64>(5, 5, 2, 1);
        let (n, _) = symbolic_nnz(&a, &b).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn dimension_check() {
        let a = CscMatrix::<f64>::zero(5, 4);
        let b = CscMatrix::<f64>::zero(5, 5);
        assert!(symbolic_nnz(&a, &b).is_err());
    }
}
