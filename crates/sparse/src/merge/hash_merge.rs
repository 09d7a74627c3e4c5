//! Sort-free hash merging — this paper's "unsorted-hash-merge" (Sec. IV-D).
//!
//! Forms column `j` of the merged output from column `j` of every input via
//! a reusable hash accumulator. Inputs may be unsorted (they are, coming
//! out of the unsorted-hash SpGEMM); output is unsorted unless the sorted
//! variant is requested (final Merge-Fiber only).
//!
//! One part has nothing to combine: the entry points hand it to
//! [`super::single`], which moves it through or sorts it in place, and it
//! reaches the accumulator only if some column holds a duplicate row.

use crate::csc::CscMatrix;
use crate::semiring::Semiring;
use crate::spgemm::accum::HashAccum;
use crate::spgemm::workspace::SpGemmWorkspace;
use crate::spgemm::{lg, WorkStats, C_DRAIN, C_MERGE_HASH, C_SORT};
use crate::Result;
use std::ops::Range;

use crate::par::merge_hash_with;

/// Merge (⊕-sum) same-shaped matrices; unsorted output columns.
///
/// Takes the parts by value: a single part is moved through untouched
/// (see [`super::single`]).
pub fn merge_hash_unsorted<S: Semiring>(parts: Vec<CscMatrix<S::T>>) -> Result<(CscMatrix<S::T>, WorkStats)> {
    merge_hash_unsorted_with_workspace::<S>(parts, &mut SpGemmWorkspace::new())
}

/// Merge (⊕-sum) same-shaped matrices; sorted output columns.
///
/// Used for the final Merge-Fiber, after which the application sees a
/// conventionally sorted matrix. A single unsorted part is sorted in
/// place instead of re-hashed (see [`super::single`]).
pub fn merge_hash_sorted<S: Semiring>(parts: Vec<CscMatrix<S::T>>) -> Result<(CscMatrix<S::T>, WorkStats)> {
    merge_hash_sorted_with_workspace::<S>(parts, &mut SpGemmWorkspace::new())
}

/// [`merge_hash_unsorted`] against caller-owned reusable scratch.
pub fn merge_hash_unsorted_with_workspace<S: Semiring>(
    parts: Vec<CscMatrix<S::T>>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    merge_hash_with::<S>(parts, false, std::slice::from_mut(ws)).map(|(c, stats, _)| (c, stats))
}

/// [`merge_hash_sorted`] against caller-owned reusable scratch.
pub fn merge_hash_sorted_with_workspace<S: Semiring>(
    parts: Vec<CscMatrix<S::T>>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    merge_hash_with::<S>(parts, true, std::slice::from_mut(ws)).map(|(c, stats, _)| (c, stats))
}

/// The accumulator body: output columns `cols`, column `j` from column `j`
/// of every part, into the workspace's arenas. Applies to any number of
/// parts; the public entry points route a single part through
/// [`super::single`] first, and come here only when it holds a duplicate
/// row. Returns whether every column came out sorted and the work done.
pub(crate) fn hash_merge_cols<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    sort: bool,
    cols: Range<usize>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> (bool, WorkStats) {
    let nrows = parts.first().map_or(0, |p| p.nrows());
    let total_nnz: usize = parts
        .iter()
        .map(|p| p.colptr()[cols.end] - p.colptr()[cols.start])
        .sum();
    ws.prepare_output(cols.len(), total_nnz);
    let mut stats = WorkStats::default();
    let acc = ws.accum.get_or_insert_with(|| HashAccum::new(S::zero()));
    ws.colptr.push(0);

    for j in cols {
        let total_in: usize = parts.iter().map(|p| p.col_nnz(j)).sum();
        if total_in == 0 {
            ws.colptr.push(ws.rowidx.len());
            continue;
        }
        acc.reset(total_in, nrows);
        for p in parts {
            let (rows, vs) = p.col(j);
            for (&r, &v) in rows.iter().zip(vs.iter()) {
                acc.accumulate::<S>(r, v);
            }
        }
        let before = ws.rowidx.len();
        if sort {
            acc.drain_into_sorted(&mut ws.rowidx, &mut ws.vals, &mut ws.bitmap);
        } else {
            acc.drain_into(&mut ws.rowidx, &mut ws.vals);
        }
        let produced = ws.rowidx.len() - before;
        stats.nnz_out += produced as u64;
        stats.work_units += total_in as f64 * C_MERGE_HASH + produced as f64 * C_DRAIN;
        if sort {
            stats.work_units += produced as f64 * lg(produced) * C_SORT;
        }
        ws.colptr.push(ws.rowidx.len());
    }
    let trivially_sorted = ws.colptr.windows(2).all(|w| w[1] - w[0] <= 1);
    (sort || trivially_sorted, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{PlusTimesF64, PlusTimesU64};
    use crate::triples::Triples;

    fn parts_u64() -> Vec<CscMatrix<u64>> {
        (0..4)
            .map(|s| er_random::<PlusTimesU64>(30, 30, 3, 100 + s).map(|_| 1u64))
            .collect()
    }

    /// Oracle: concatenate all triples and dedup-sum.
    fn oracle(parts: &[CscMatrix<u64>]) -> CscMatrix<u64> {
        let mut t = Triples::new(parts[0].nrows(), parts[0].ncols());
        for p in parts {
            for (r, c, v) in p.iter() {
                t.push(r, c as u32, v);
            }
        }
        t.to_csc_dedup::<PlusTimesU64>()
    }

    #[test]
    fn matches_triple_sum_oracle() {
        let parts = parts_u64();
        let (merged, _) = merge_hash_unsorted::<PlusTimesU64>(parts.clone()).unwrap();
        assert!(merged.eq_modulo_order(&oracle(&parts)));
    }

    #[test]
    fn sorted_variant_is_sorted_and_equal() {
        let parts = parts_u64();
        let (merged, _) = merge_hash_sorted::<PlusTimesU64>(parts.clone()).unwrap();
        assert!(merged.is_sorted());
        assert!(merged.check_sorted());
        assert!(merged.eq_modulo_order(&oracle(&parts)));
    }

    #[test]
    fn single_part_identity() {
        let p = er_random::<PlusTimesF64>(20, 20, 4, 9);
        let (merged, stats) = merge_hash_unsorted::<PlusTimesF64>(vec![p.clone()]).unwrap();
        assert!(merged.eq_modulo_order(&p));
        assert_eq!(stats.nnz_out, p.nnz() as u64);
    }

    #[test]
    fn empty_input_list_is_error() {
        let parts: Vec<CscMatrix<f64>> = vec![];
        assert!(merge_hash_unsorted::<PlusTimesF64>(parts).is_err());
    }

    #[test]
    fn shape_mismatch_is_error() {
        let parts = vec![CscMatrix::<f64>::zero(2, 2), CscMatrix::<f64>::zero(3, 2)];
        assert!(merge_hash_unsorted::<PlusTimesF64>(parts).is_err());
    }

    #[test]
    fn overlapping_entries_sum() {
        let mut t1 = Triples::new(2, 1);
        t1.push(0, 0, 1.5);
        let mut t2 = Triples::new(2, 1);
        t2.push(0, 0, 2.5);
        t2.push(1, 0, 1.0);
        let parts = vec![t1.to_csc(), t2.to_csc()];
        let (m, _) = merge_hash_sorted::<PlusTimesF64>(parts).unwrap();
        assert_eq!(m.col(0), (&[0u32, 1][..], &[4.0, 1.0][..]));
    }

    #[test]
    fn accepts_unsorted_inputs() {
        let unsorted =
            CscMatrix::from_parts(3, 1, vec![0, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!unsorted.is_sorted());
        let parts = vec![unsorted.clone(), unsorted];
        let (m, _) = merge_hash_sorted::<PlusTimesF64>(parts).unwrap();
        assert_eq!(m.col(0), (&[0u32, 1, 2][..], &[4.0, 6.0, 2.0][..]));
    }
}
