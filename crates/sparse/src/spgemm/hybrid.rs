//! Hybrid sorted SpGEMM — the kernel of Nagasaka et al. \[25\] that the
//! paper's previous-generation pipeline used after \[13\].
//!
//! Per output column: if the column has few input streams (low estimated
//! compression work) use a heap merge, otherwise a hash accumulator; either
//! way the finished column is **sorted** before moving on. The paper's
//! unsorted-hash kernel removes exactly this final sort (and the heap
//! path's input-sortedness requirement); Fig. 15 / Table VII quantify the
//! difference.

use super::accum::HashAccum;
use super::heap::heap_col;
use super::workspace::SpGemmWorkspace;
use super::{col_flops, lg, range_flops, WorkStats, C_HASH_FLOP, C_HEAP_FLOP, C_SORT};
use crate::csc::CscMatrix;
use crate::par::par_spgemm_hybrid;
use crate::semiring::Semiring;
use crate::Result;
use std::ops::Range;

/// Streams-per-column threshold below which the heap path wins (few streams
/// mean the log factor is tiny and the heap's sorted output is free).
const HEAP_STREAMS_MAX: usize = 4;

/// Multiply `a · b`, choosing heap or hash per column; sorted output.
///
/// Requires sorted `a` (the heap path consumes sorted columns, matching the
/// prior-work pipeline where every intermediate was kept sorted).
/// Convenience wrapper over [`spgemm_hybrid_with_workspace`] with a
/// throwaway workspace.
pub fn spgemm_hybrid<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    spgemm_hybrid_with_workspace::<S>(a, b, &mut SpGemmWorkspace::new())
}

/// [`spgemm_hybrid`] against caller-owned reusable scratch (hash table,
/// merge heap, cursors, and output arenas). Bit-identical output.
pub fn spgemm_hybrid_with_workspace<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    par_spgemm_hybrid::<S>(a, b, std::slice::from_mut(ws)).map(|(c, stats, _)| (c, stats))
}

/// The kernel body: output columns `cols` of `a · b` (sorted `a`) into the
/// workspace's arenas. Every column comes out sorted.
pub(crate) fn hybrid_cols<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    cols: Range<usize>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> (bool, WorkStats) {
    ws.prepare_output(cols.len(), range_flops(a, b, cols.clone()));
    ws.ensure_streams(HEAP_STREAMS_MAX);
    let mut stats = WorkStats::default();
    ws.colptr.push(0);

    for j in cols {
        let (b_rows, b_vals) = b.col(j);
        let k = b_rows.len();
        if k == 0 {
            ws.colptr.push(ws.rowidx.len());
            continue;
        }
        let col_flops = col_flops(a, b_rows) as u64;
        let col_start = ws.rowidx.len();
        if k <= HEAP_STREAMS_MAX {
            // Heap path: sorted output for free.
            heap_col::<S>(a, b_rows, b_vals, ws);
            stats.work_units += col_flops as f64 * lg(k) * C_HEAP_FLOP;
        } else {
            // Hash path + explicit sort of the finished column.
            let acc = ws.accum.get_or_insert_with(|| HashAccum::new(S::zero()));
            acc.reset(col_flops as usize, a.nrows());
            for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
                let (a_rows, a_vals) = a.col(i as usize);
                for (&r, &av) in a_rows.iter().zip(a_vals.iter()) {
                    acc.accumulate::<S>(r, S::mul(av, bv));
                }
            }
            acc.drain_into_sorted(&mut ws.rowidx, &mut ws.vals, &mut ws.bitmap);
            let produced = ws.rowidx.len() - col_start;
            stats.work_units +=
                col_flops as f64 * C_HASH_FLOP + produced as f64 * lg(produced) * C_SORT;
        }
        let produced = ws.rowidx.len() - col_start;
        stats.flops += col_flops;
        stats.nnz_out += produced as u64;
        ws.colptr.push(ws.rowidx.len());
    }
    (true, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};
    use crate::spgemm::dense_acc::spgemm_spa;
    use crate::spgemm::hash::spgemm_hash_unsorted;

    #[test]
    fn matches_spa_and_hash_kernels() {
        let a = er_random::<PlusTimesU64>(80, 80, 7, 21).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(80, 80, 7, 22).map(|_| 1u64);
        let (c_hy, _) = spgemm_hybrid::<PlusTimesU64>(&a, &b).unwrap();
        let (c_spa, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        let (c_hash, _) = spgemm_hash_unsorted::<PlusTimesU64>(&a, &b).unwrap();
        assert!(c_hy.eq_modulo_order(&c_spa));
        assert!(c_hy.eq_modulo_order(&c_hash));
        assert!(c_hy.is_sorted());
    }

    #[test]
    fn exercises_both_paths() {
        // Columns with 1 stream (heap path) and columns with many (hash path).
        let a = er_random::<PlusTimesF64>(60, 60, 3, 31);
        let b_sparse = er_random::<PlusTimesF64>(60, 30, 1, 32); // heap path
        let b_dense = er_random::<PlusTimesF64>(60, 30, 12, 33); // hash path
        let (c1, _) = spgemm_hybrid::<PlusTimesF64>(&a, &b_sparse).unwrap();
        let (c2, _) = spgemm_hybrid::<PlusTimesF64>(&a, &b_dense).unwrap();
        let (o1, _) = spgemm_spa::<PlusTimesF64>(&a, &b_sparse).unwrap();
        let (o2, _) = spgemm_spa::<PlusTimesF64>(&a, &b_dense).unwrap();
        assert!(c1.approx_eq(&o1, 1e-12));
        assert!(c2.approx_eq(&o2, 1e-12));
    }

    #[test]
    fn hybrid_work_exceeds_unsorted_hash() {
        // The extra sort makes hybrid cost more work units on hash-path columns.
        let a = er_random::<PlusTimesF64>(120, 120, 10, 41);
        let b = er_random::<PlusTimesF64>(120, 120, 10, 42);
        let (_, s_hy) = spgemm_hybrid::<PlusTimesF64>(&a, &b).unwrap();
        let (_, s_hash) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b).unwrap();
        assert!(s_hy.work_units > s_hash.work_units);
    }

    #[test]
    fn rejects_unsorted_a() {
        let a = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).unwrap();
        let b = CscMatrix::<f64>::zero(1, 2);
        assert!(spgemm_hybrid::<PlusTimesF64>(&a, &b).is_err());
    }
}
