//! Bit-identity of the parallel kernel wrappers (`spgemm_sparse::par`).
//!
//! The Native backend's correctness contract is that every parallel entry
//! point produces output **bit-identical** to its serial counterpart for
//! any thread count — same `colptr`, `rowidx`, `vals` and `sorted` flag
//! (full `PartialEq` on `CscMatrix`), and the exact-integer meters
//! (`flops`, `nnz_out`) match too. Only arena-warmth meters (allocs, peak
//! scratch, memcpy) may differ, so those are deliberately not compared.

use proptest::prelude::*;
use spgemm_sparse::gen::er_random;
use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_unsorted, merge_heap};
use spgemm_sparse::par::{
    par_merge_hash_sorted, par_merge_hash_unsorted, par_merge_heap, par_spgemm_hash_unsorted,
    par_spgemm_heap, par_spgemm_hybrid, par_symbolic_col_counts, split_cols_by_weight,
};
use spgemm_sparse::semiring::{BoolOrAnd, MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_heap, spgemm_hybrid, symbolic_col_counts,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, Triples};

/// The thread counts every comparison sweeps (1 exercises the inline
/// fallback path; 3 gives uneven ranges; 8 exceeds small matrices'
/// column counts).
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn arenas<T: Copy>(n: usize) -> Vec<SpGemmWorkspace<T>> {
    (0..n).map(|_| SpGemmWorkspace::new()).collect()
}

/// Multiply kernels: parallel output equals serial bit-for-bit at every
/// thread count. `a` and `b` must be sorted (hybrid/heap require it; the
/// hash kernel doesn't care).
fn check_multiply<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>) {
    let (hash, hash_stats) = spgemm_hash_unsorted::<S>(a, b).unwrap();
    let (hybrid, hybrid_stats) = spgemm_hybrid::<S>(a, b).unwrap();
    let (heap, heap_stats) = spgemm_heap::<S>(a, b).unwrap();
    let (counts, sym_stats) = symbolic_col_counts(a, b).unwrap();
    for nthreads in THREADS {
        let mut ws = arenas::<S::T>(nthreads);
        let (c, stats, _) = par_spgemm_hash_unsorted::<S>(a, b, &mut ws).unwrap();
        assert_eq!(c, hash, "hash kernel diverged at {nthreads} threads");
        assert_eq!((stats.flops, stats.nnz_out), (hash_stats.flops, hash_stats.nnz_out));

        let (c, stats, _) = par_spgemm_hybrid::<S>(a, b, &mut ws).unwrap();
        assert_eq!(c, hybrid, "hybrid kernel diverged at {nthreads} threads");
        assert_eq!((stats.flops, stats.nnz_out), (hybrid_stats.flops, hybrid_stats.nnz_out));

        let (c, stats, _) = par_spgemm_heap::<S>(a, b, &mut ws).unwrap();
        assert_eq!(c, heap, "heap kernel diverged at {nthreads} threads");
        assert_eq!((stats.flops, stats.nnz_out), (heap_stats.flops, heap_stats.nnz_out));

        let (pc, stats, _) = par_symbolic_col_counts(a, b, &mut ws).unwrap();
        assert_eq!(pc, counts, "symbolic counts diverged at {nthreads} threads");
        assert_eq!(stats.nnz_out, sym_stats.nnz_out);
        assert_eq!(stats.flops, sym_stats.flops);
    }
}

/// Merge kernels: parallel equals serial at every thread count. Parts
/// must be sorted (heap merge requires it).
fn check_merge<S: Semiring>(parts: &[CscMatrix<S::T>]) {
    let (unsorted, _) = merge_hash_unsorted::<S>(parts.to_vec()).unwrap();
    let (sorted, _) = merge_hash_sorted::<S>(parts.to_vec()).unwrap();
    let (heap, _) = merge_heap::<S>(parts).unwrap();
    for nthreads in THREADS {
        let mut ws = arenas::<S::T>(nthreads);
        let (c, _, _) = par_merge_hash_unsorted::<S>(parts.to_vec(), &mut ws).unwrap();
        assert_eq!(c, unsorted, "hash merge diverged at {nthreads} threads");
        let (c, _, _) = par_merge_hash_sorted::<S>(parts.to_vec(), &mut ws).unwrap();
        assert_eq!(c, sorted, "sorted hash merge diverged at {nthreads} threads");
        let (c, _, _) = par_merge_heap::<S>(parts, &mut ws).unwrap();
        assert_eq!(c, heap, "heap merge diverged at {nthreads} threads");
    }
}

/// Single-part merges against the accumulator. The accumulator's answer
/// for one part is the merge of that part with an empty one: the empty
/// part adds no entries, no work and no column weight, so the parallel
/// path cuts the same ranges. A sorted merge of an unsorted part must
/// match it bit for bit — output, `nnz_out` and `work_units` — at every
/// thread count. Every other single-part merge keeps the part's own
/// content and flag and charges no work. Without duplicate rows the part
/// moves (or is sorted) in place: its `rowidx` buffer is the output's.
fn check_single_part<S: Semiring>(part: &CscMatrix<S::T>) {
    let has_duplicates = (0..part.ncols()).any(|j| {
        let mut rows = part.col(j).0.to_vec();
        rows.sort_unstable();
        rows.windows(2).any(|w| w[0] == w[1])
    });
    let empty = CscMatrix::<S::T>::zero(part.nrows(), part.ncols());
    let (serial, serial_stats) = merge_hash_sorted::<S>(vec![part.clone()]).unwrap();
    for nthreads in THREADS {
        let (want, want_stats, _) =
            par_merge_hash_sorted::<S>(vec![part.clone(), empty.clone()], &mut arenas(nthreads))
                .unwrap();
        let owned = part.clone();
        let ptr = owned.rowidx().as_ptr();
        let (got, stats, _) =
            par_merge_hash_sorted::<S>(vec![owned], &mut arenas(nthreads)).unwrap();
        assert_eq!(got, want, "sorted single-part merge diverged at {nthreads} threads");
        assert!(got.is_sorted());
        assert_eq!(stats.nnz_out, want_stats.nnz_out, "nnz_out at {nthreads} threads");
        if part.is_sorted() {
            assert_eq!(stats.work_units.to_bits(), 0f64.to_bits(), "a sorted part moves for free");
        } else {
            assert_eq!(
                stats.work_units.to_bits(),
                want_stats.work_units.to_bits(),
                "work units diverged at {nthreads} threads"
            );
        }
        if !has_duplicates {
            assert_eq!(got.rowidx().as_ptr(), ptr, "single part copied at {nthreads} threads");
        }
        if nthreads == 1 {
            assert_eq!(serial, got, "serial and parallel single-part merges differ");
            assert_eq!(serial_stats.work_units.to_bits(), stats.work_units.to_bits());
        }

        // Unsorted output: the part itself, moved. (A duplicate row is an
        // invariant violation for any merge output, so such parts are only
        // merged sorted, where the accumulator sums them.)
        if !has_duplicates {
            let owned = part.clone();
            let ptr = owned.rowidx().as_ptr();
            let (got, stats, _) =
                par_merge_hash_unsorted::<S>(vec![owned], &mut arenas(nthreads)).unwrap();
            assert_eq!(got, *part, "unsorted single-part merge changed the part");
            assert_eq!(got.rowidx().as_ptr(), ptr, "single part copied at {nthreads} threads");
            assert_eq!(stats.nnz_out, part.nnz() as u64);
            assert_eq!(stats.work_units.to_bits(), 0f64.to_bits());
        }
    }
}

/// `m` with every column's entries reversed (unsorted wherever a column
/// holds two or more).
fn reversed<T: Copy>(m: &CscMatrix<T>) -> CscMatrix<T> {
    let (mut rows, mut vals) = (Vec::with_capacity(m.nnz()), Vec::with_capacity(m.nnz()));
    for j in 0..m.ncols() {
        let (rs, vs) = m.col(j);
        rows.extend(rs.iter().rev());
        vals.extend(vs.iter().rev());
    }
    CscMatrix::from_parts(m.nrows(), m.ncols(), m.colptr().to_vec(), rows, vals).unwrap()
}

/// `m` with a second copy of the first entry of every `every`-th nonempty
/// column appended to that column, valued `extra`.
fn with_duplicates<T: Copy>(m: &CscMatrix<T>, every: usize, extra: T) -> CscMatrix<T> {
    let mut colptr = vec![0usize];
    let (mut rows, mut vals) = (Vec::new(), Vec::new());
    for j in 0..m.ncols() {
        let (rs, vs) = m.col(j);
        rows.extend_from_slice(rs);
        vals.extend_from_slice(vs);
        if !rs.is_empty() && j % every == 0 {
            rows.push(rs[0]);
            vals.push(extra);
        }
        colptr.push(rows.len());
    }
    CscMatrix::from_parts(m.nrows(), m.ncols(), colptr, rows, vals).unwrap()
}

/// Every single-part shape for one semiring: sorted, unsorted, with
/// duplicate rows, with empty columns, and with no columns at all.
fn check_single_part_shapes<S: Semiring>(base: &CscMatrix<S::T>, extra: S::T) {
    let mut holey = base.clone();
    holey.retain(|_, j, _| j % 3 != 1);
    for part in [
        base.clone(),
        reversed(base),
        with_duplicates(&reversed(base), 4, extra),
        with_duplicates(base, 5, extra),
        reversed(&holey),
        CscMatrix::zero(base.nrows(), base.ncols()),
        CscMatrix::zero(base.nrows(), 0),
        CscMatrix::from_parts(base.nrows(), 0, vec![0], Vec::new(), Vec::new()).unwrap(),
    ] {
        check_single_part::<S>(&part);
    }
}

fn arb_square(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = CscMatrix<u64>> {
    (2..=maxdim).prop_flat_map(move |n| {
        proptest::collection::vec((0..n as u32, 0..n as u32, 1..9u64), 0..=maxnnz).prop_map(
            move |entries| {
                let mut t = Triples::with_capacity(n, n, entries.len());
                for (r, c, v) in entries {
                    t.push(r, c, v);
                }
                let mut m = t.to_csc_dedup::<PlusTimesU64>();
                m.sort_columns();
                m
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random squarings: all parallel multiply kernels bit-match serial.
    #[test]
    fn parallel_multiply_matches_serial(m in arb_square(24, 90)) {
        check_multiply::<PlusTimesU64>(&m, &m);
    }

    /// Random part stacks: all parallel merge kernels bit-match serial.
    #[test]
    fn parallel_merge_matches_serial(m in arb_square(20, 60), seed in 0u64..500) {
        let mut b = er_random::<PlusTimesU64>(m.nrows(), m.ncols(), 3, seed);
        b.sort_columns();
        let parts = [m.clone(), b, m];
        check_merge::<PlusTimesU64>(&parts);
    }

    /// Random single parts, sorted, reversed and with duplicate rows:
    /// single-part merges match the accumulator.
    #[test]
    fn single_part_merge_matches_accumulator(m in arb_square(24, 90), every in 1usize..4) {
        check_single_part::<PlusTimesU64>(&m);
        check_single_part::<PlusTimesU64>(&reversed(&m));
        check_single_part::<PlusTimesU64>(&with_duplicates(&reversed(&m), every, 5));
    }
}

/// Single-part merges across the four semirings and every part shape.
#[test]
fn single_part_merges_all_semirings() {
    let n = 40;
    check_single_part_shapes::<PlusTimesF64>(&er_random::<PlusTimesF64>(n, n, 6, 31), 0.1);
    check_single_part_shapes::<MinPlusF64>(&er_random::<MinPlusF64>(n, n, 6, 32), 0.1);
    check_single_part_shapes::<BoolOrAnd>(&er_random::<BoolOrAnd>(n, n, 6, 33), true);
    check_single_part_shapes::<PlusTimesU64>(&er_random::<PlusTimesU64>(n, n, 6, 34), 7);
}

/// Every supported semiring round-trips bit-identically — including the
/// non-commutative-add-sensitive min-plus and the boolean semiring.
#[test]
fn all_semirings_bit_identical() {
    let n = 48;
    let af = er_random::<PlusTimesF64>(n, n, 5, 7);
    check_multiply::<PlusTimesF64>(&af, &af);
    check_merge::<PlusTimesF64>(&[af, er_random::<PlusTimesF64>(n, n, 4, 8)]);

    let am = er_random::<MinPlusF64>(n, n, 5, 9);
    check_multiply::<MinPlusF64>(&am, &am);
    check_merge::<MinPlusF64>(&[am, er_random::<MinPlusF64>(n, n, 4, 10)]);

    let ab = er_random::<BoolOrAnd>(n, n, 5, 11);
    check_multiply::<BoolOrAnd>(&ab, &ab);
    check_merge::<BoolOrAnd>(&[ab, er_random::<BoolOrAnd>(n, n, 4, 12)]);

    let au = er_random::<PlusTimesU64>(n, n, 5, 13);
    check_multiply::<PlusTimesU64>(&au, &au);
}

/// Degenerate splitter input: B made almost entirely of empty columns.
#[test]
fn empty_columns_split_and_match() {
    let a = er_random::<PlusTimesU64>(32, 32, 4, 21);
    let mut t = Triples::with_capacity(32, 32, 6);
    for r in 0..6u32 {
        t.push(r, 17, 1 + r as u64); // one lone populated column
    }
    let b = t.to_csc_dedup::<PlusTimesU64>();
    check_multiply::<PlusTimesU64>(&a, &b);
    // A fully empty operand too.
    let empty = Triples::<u64>::with_capacity(32, 32, 0).to_csc_dedup::<PlusTimesU64>();
    check_multiply::<PlusTimesU64>(&a, &empty);
    check_merge::<PlusTimesU64>(&[empty.clone(), empty]);
}

/// Degenerate splitter input: one dense column dwarfing everything else.
#[test]
fn single_dense_column_matches() {
    let a = er_random::<PlusTimesU64>(40, 40, 3, 22);
    let mut t = Triples::with_capacity(40, 40, 40 + 39);
    for r in 0..40u32 {
        t.push(r, 13, (r + 1) as u64); // dense column 13
    }
    for c in 0..40u32 {
        if c != 13 {
            t.push(c % 40, c, 1);
        }
    }
    let mut b = t.to_csc_dedup::<PlusTimesU64>();
    b.sort_columns();
    check_multiply::<PlusTimesU64>(&a, &b);
}

/// Degenerate splitter input: all nonzeros land in one thread's range
/// (leading columns hold everything; trailing columns are structural
/// only). Also covers ncols < nthreads via a 3-column B against 8 threads.
#[test]
fn all_nnz_in_one_thread_range_matches() {
    let a = er_random::<PlusTimesU64>(24, 24, 4, 23);
    let mut t = Triples::with_capacity(24, 24, 24 * 3);
    for c in 0..3u32 {
        for r in 0..24u32 {
            t.push(r, c, (r + c + 1) as u64);
        }
    }
    let mut b = t.to_csc_dedup::<PlusTimesU64>();
    b.sort_columns();
    check_multiply::<PlusTimesU64>(&a, &b);

    // Narrower than the thread pool: 3 output columns, 8 threads.
    let mut narrow = Triples::with_capacity(24, 3, 24 * 3);
    for c in 0..3u32 {
        for r in 0..24u32 {
            narrow.push(r, c, (r + 2 * c + 1) as u64);
        }
    }
    let mut nb = narrow.to_csc_dedup::<PlusTimesU64>();
    nb.sort_columns();
    check_multiply::<PlusTimesU64>(&a, &nb);
}

/// The splitter itself on degenerate weight vectors: covers, stays in
/// bounds, and never emits an empty range.
#[test]
fn splitter_degenerate_weights() {
    for nparts in THREADS {
        for weights in [
            vec![],
            vec![0u64; 1],
            vec![0u64; 13],
            {
                let mut w = vec![0u64; 9];
                w[0] = u64::MAX / 16;
                w
            },
            {
                let mut w = vec![1u64; 9];
                w[8] = 1 << 40;
                w
            },
        ] {
            let ranges = split_cols_by_weight(&weights, nparts);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= nparts.max(1));
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, weights.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            if !weights.is_empty() {
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }
}
