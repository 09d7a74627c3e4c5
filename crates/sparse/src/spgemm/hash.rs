//! Sort-free "unsorted-hash" SpGEMM — this paper's local kernel (Sec. IV-D).
//!
//! Computes `C(:,j) = Σ_{i : B(i,j)≠0} A(:,i)·B(i,j)` with a hash
//! accumulator per output column. Neither input needs sorted columns and
//! the output columns are left **unsorted**: the distributed pipeline only
//! sorts once, after Merge-Fiber.

use super::accum::HashAccum;
use super::workspace::SpGemmWorkspace;
use super::{col_flops, range_flops, WorkStats, C_DRAIN, C_HASH_FLOP};
use crate::csc::CscMatrix;
use crate::par::par_spgemm_hash_unsorted;
use crate::semiring::Semiring;
use crate::Result;
use std::ops::Range;

/// Multiply `a · b` with hash accumulation; unsorted output columns.
///
/// Works with sorted or unsorted inputs. Returns the product and the work
/// performed (`flops` = scalar multiplications). Convenience wrapper over
/// [`spgemm_hash_unsorted_with_workspace`] with a throwaway workspace; hot
/// paths (one multiply per SUMMA stage per batch) should hold a long-lived
/// [`SpGemmWorkspace`] instead.
pub fn spgemm_hash_unsorted<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    spgemm_hash_unsorted_with_workspace::<S>(a, b, &mut SpGemmWorkspace::new())
}

/// [`spgemm_hash_unsorted`] against caller-owned reusable scratch.
///
/// Bit-identical output to the plain entry point (it is the same code);
/// with a warmed-up workspace the call performs only the exact-size output
/// copies instead of re-growing every buffer from empty.
pub fn spgemm_hash_unsorted_with_workspace<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> Result<(CscMatrix<S::T>, WorkStats)> {
    par_spgemm_hash_unsorted::<S>(a, b, std::slice::from_mut(ws)).map(|(c, stats, _)| (c, stats))
}

/// The kernel body: output columns `cols` of `a · b` into the workspace's
/// arenas. Returns whether every column came out sorted (only columns of
/// length ≤ 1 are known to be) and the work done.
pub(crate) fn hash_unsorted_cols<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    cols: Range<usize>,
    ws: &mut SpGemmWorkspace<S::T>,
) -> (bool, WorkStats) {
    ws.prepare_output(cols.len(), range_flops(a, b, cols.clone()));
    let mut stats = WorkStats::default();
    let acc = ws.accum.get_or_insert_with(|| HashAccum::new(S::zero()));
    ws.colptr.push(0);

    for j in cols {
        let (b_rows, b_vals) = b.col(j);
        // Upper bound on distinct output rows in this column.
        let ub = col_flops(a, b_rows);
        if ub > 0 {
            acc.reset(ub, a.nrows());
            for (&i, &bv) in b_rows.iter().zip(b_vals.iter()) {
                let (a_rows, a_vals) = a.col(i as usize);
                for (&r, &av) in a_rows.iter().zip(a_vals.iter()) {
                    acc.accumulate::<S>(r, S::mul(av, bv));
                }
            }
            let before = ws.rowidx.len();
            acc.drain_into(&mut ws.rowidx, &mut ws.vals);
            let produced = ws.rowidx.len() - before;
            stats.flops += ub as u64;
            stats.nnz_out += produced as u64;
            stats.work_units += ub as f64 * C_HASH_FLOP + produced as f64 * C_DRAIN;
        }
        ws.colptr.push(ws.rowidx.len());
    }
    // Columns of length ≤ 1 are trivially sorted; keeps the flag honest for
    // degenerate outputs without scanning row indices.
    let sorted = ws.colptr.windows(2).all(|w| w[1] - w[0] <= 1);
    (sorted, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::er_random;
    use crate::semiring::{BoolOrAnd, PlusTimesF64, PlusTimesU64};
    use crate::spgemm::dense_acc::spgemm_spa;
    use crate::triples::Triples;

    fn small_a() -> CscMatrix<f64> {
        // [[1,2],[3,0]]
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 3.0);
        t.push(0, 1, 2.0);
        t.to_csc()
    }

    fn small_b() -> CscMatrix<f64> {
        // [[5,0],[6,7]]
        let mut t = Triples::new(2, 2);
        t.push(0, 0, 5.0);
        t.push(1, 0, 6.0);
        t.push(1, 1, 7.0);
        t.to_csc()
    }

    #[test]
    fn small_product_matches_manual() {
        let (c, stats) = spgemm_hash_unsorted::<PlusTimesF64>(&small_a(), &small_b()).unwrap();
        // C = [[17,14],[15,0]]
        let c = c.sorted_copy();
        assert_eq!(c.col(0), (&[0u32, 1][..], &[17.0, 15.0][..]));
        assert_eq!(c.col(1), (&[0u32][..], &[14.0][..]));
        assert_eq!(stats.flops, 4); // 3 + 1 scalar multiplies... (col0: A(:,0)*5 has 2, A(:,1)*6 has 1; col1: A(:,1)*7 has 1)
        assert_eq!(stats.nnz_out, 3);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CscMatrix::<f64>::zero(2, 3);
        let b = CscMatrix::<f64>::zero(2, 2);
        assert!(spgemm_hash_unsorted::<PlusTimesF64>(&a, &b).is_err());
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let a = CscMatrix::<f64>::zero(4, 4);
        let b = CscMatrix::<f64>::zero(4, 4);
        let (c, stats) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(stats.flops, 0);
    }

    #[test]
    fn matches_spa_oracle_on_random_u64() {
        let a = er_random::<PlusTimesU64>(40, 40, 5, 42).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(40, 40, 5, 43).map(|_| 1u64);
        let (c_hash, _) = spgemm_hash_unsorted::<PlusTimesU64>(&a, &b).unwrap();
        let (c_spa, _) = spgemm_spa::<PlusTimesU64>(&a, &b).unwrap();
        assert!(c_hash.eq_modulo_order(&c_spa));
    }

    #[test]
    fn works_with_unsorted_inputs() {
        // Shuffle columns of A, result must be identical.
        let a = CscMatrix::from_parts(3, 2, vec![0, 2, 3], vec![2, 0, 1], vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!a.is_sorted());
        let b = CscMatrix::identity(2);
        let b = CscMatrix::from_parts(2, 2, b.colptr().to_vec(), b.rowidx().to_vec(), b.vals().to_vec()).unwrap();
        let (c, _) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b).unwrap();
        assert!(c.eq_modulo_order(&a));
    }

    #[test]
    fn boolean_semiring_reachability() {
        // Path 0 -> 1 -> 2: A² should contain (2,0).
        let mut t = Triples::new(3, 3);
        t.push(1, 0, true);
        t.push(2, 1, true);
        let a = t.to_csc();
        let (c, _) = spgemm_hash_unsorted::<BoolOrAnd>(&a, &a).unwrap();
        let c = c.sorted_copy();
        assert_eq!(c.col(0), (&[2u32][..], &[true][..]));
    }

    #[test]
    fn flops_counts_scalar_multiplies() {
        let a = er_random::<PlusTimesF64>(30, 30, 4, 7);
        let b = er_random::<PlusTimesF64>(30, 30, 4, 8);
        let (_, stats) = spgemm_hash_unsorted::<PlusTimesF64>(&a, &b).unwrap();
        // flops = sum over b entries of nnz(A(:, i))
        let mut expect = 0u64;
        for (i, _j, _v) in b.iter() {
            expect += a.col_nnz(i as usize) as u64;
        }
        // note: b.iter() yields (row, col, val) of B; inner index is the row of B
        assert_eq!(stats.flops, expect);
    }
}
