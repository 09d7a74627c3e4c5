//! The accumulator's two modes against first-touch references.
//!
//! A column whose flop bound `ub` satisfies `min(ub, nrows) · 16 >= nrows`
//! is *dense*: the hash accumulator indexes it directly by row, the
//! symbolic pass counts it with a row bitmap, and the single-part sorted
//! merge sorts it with a bitmap scan. Every other column hashes, counts in
//! a hash table and sorts by key. Neither mode may change a bit of the
//! output or its meters. For row counts around a power of two, with
//! columns on both sides of the threshold, across the four semirings and
//! with `-0.0` among the values, this file checks, serially and at 2, 3
//! and 8 threads:
//!
//! * the numeric kernel's `colptr`, `rowidx` and value bits equal a
//!   first-touch reference (`spgemm_spa`'s loop without its final sort);
//! * `flops`, `nnz_out` and the bits of `work_units` equal the reference's;
//! * the symbolic counts equal the reference's column lengths;
//! * a single-part sorted merge of a part with a duplicate row returns the
//!   accumulator's result, whether the duplicate sits in a dense column
//!   (bitmap path) or a sparse one (key-sort path).

use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_sorted_with_workspace};
use spgemm_sparse::par::{
    par_merge_hash_sorted, par_spgemm_hash_unsorted, par_symbolic_col_counts,
};
use spgemm_sparse::semiring::{BoolOrAnd, MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted_with_workspace, spgemm_spa, symbolic_col_counts_with_workspace, C_DRAIN,
    C_HASH_FLOP,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, WorkStats};

const NROWS: [usize; 5] = [1, 63, 64, 65, 300];
const THREADS: [usize; 3] = [2, 3, 8];
/// Inner dimension and output columns of every product.
const INNER: usize = 40;
const NCOLS: usize = 24;

/// Exact value identity: bit patterns for floats.
trait Bits: Copy {
    fn bits(self) -> u64;
}

impl Bits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Bits for u64 {
    fn bits(self) -> u64 {
        self
    }
}

impl Bits for bool {
    fn bits(self) -> u64 {
        u64::from(self)
    }
}

/// Deterministic pseudo-random stream (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    /// `k` distinct indices below `n`, in shuffled order.
    fn distinct(&mut self, n: usize, k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..n as u32).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// A `nrows × ncols` matrix with unsorted columns of the given lengths.
fn matrix<T: Copy>(
    nrows: usize,
    lens: impl Iterator<Item = usize>,
    rng: &mut Lcg,
    value: &impl Fn(usize) -> T,
) -> CscMatrix<T> {
    let mut colptr = vec![0usize];
    let (mut rows, mut vals) = (Vec::new(), Vec::new());
    for len in lens {
        for r in rng.distinct(nrows, len.min(nrows)) {
            rows.push(r);
            vals.push(value(rng.below(1 << 20)));
        }
        colptr.push(rows.len());
    }
    let ncols = colptr.len() - 1;
    CscMatrix::from_parts(nrows, ncols, colptr, rows, vals).unwrap()
}

/// Operands whose product columns have flop bounds from 0 up to several
/// times `nrows`: `A`'s columns hold between none and every row, and
/// `B`'s columns between none and six entries.
fn operands<T: Copy>(
    nrows: usize,
    seed: u64,
    value: &impl Fn(usize) -> T,
) -> (CscMatrix<T>, CscMatrix<T>) {
    let mut rng = Lcg(seed);
    let a_lens = [
        0,
        1,
        2,
        3,
        nrows / 16,
        nrows / 8,
        nrows / 4,
        nrows / 2,
        nrows,
    ];
    let a = matrix(
        nrows,
        (0..INNER).map(|i| a_lens[i % a_lens.len()]),
        &mut rng,
        value,
    );
    let b = matrix(INNER, (0..NCOLS).map(|j| (j * 5) % 7), &mut rng, value);
    (a, b)
}

/// The dense-column rule, restated.
fn is_dense(ub: usize, nrows: usize) -> bool {
    ub.min(nrows) * 16 >= nrows
}

/// Flop bound of every output column of `a · b`.
fn col_bounds<T: Copy>(a: &CscMatrix<T>, b: &CscMatrix<T>) -> Vec<usize> {
    (0..b.ncols())
        .map(|j| b.col(j).0.iter().map(|&i| a.col_nnz(i as usize)).sum())
        .collect()
}

/// `spgemm_spa`'s loop without the final sort: rows in first-touch order,
/// each value the product of its first touch ⊕ the later ones, in order.
/// Its meters follow the hash kernel's work formula. Every term is a
/// multiple of 0.5 far below 2^52, so any summation order gives the same
/// bits.
fn first_touch<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
) -> (CscMatrix<S::T>, WorkStats) {
    let nrows = a.nrows();
    let mut slot: Vec<Option<usize>> = vec![None; nrows];
    let mut colptr = vec![0usize];
    let (mut rows, mut vals) = (Vec::<u32>::new(), Vec::<S::T>::new());
    let mut stats = WorkStats::default();
    for j in 0..b.ncols() {
        let start = rows.len();
        let (b_rows, b_vals) = b.col(j);
        let mut ub = 0usize;
        for (&i, &bv) in b_rows.iter().zip(b_vals) {
            let (a_rows, a_vals) = a.col(i as usize);
            ub += a_rows.len();
            for (&r, &av) in a_rows.iter().zip(a_vals) {
                let prod = S::mul(av, bv);
                match slot[r as usize] {
                    Some(k) => vals[k] = S::add(vals[k], prod),
                    None => {
                        slot[r as usize] = Some(rows.len());
                        rows.push(r);
                        vals.push(prod);
                    }
                }
            }
        }
        for &r in &rows[start..] {
            slot[r as usize] = None;
        }
        let produced = rows.len() - start;
        if ub > 0 {
            stats.flops += ub as u64;
            stats.nnz_out += produced as u64;
            stats.work_units += ub as f64 * C_HASH_FLOP + produced as f64 * C_DRAIN;
        }
        colptr.push(rows.len());
    }
    let c = CscMatrix::from_parts(nrows, b.ncols(), colptr, rows, vals).unwrap();
    (c, stats)
}

fn assert_bits<T: Bits + std::fmt::Debug>(got: &CscMatrix<T>, want: &CscMatrix<T>, what: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{what}: shape"
    );
    assert_eq!(got.colptr(), want.colptr(), "{what}: colptr");
    assert_eq!(got.rowidx(), want.rowidx(), "{what}: rowidx");
    let bits = |m: &CscMatrix<T>| m.vals().iter().map(|v| v.bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}

fn assert_meters(got: &WorkStats, want: &WorkStats, what: &str) {
    assert_eq!(got.flops, want.flops, "{what}: flops");
    assert_eq!(got.nnz_out, want.nnz_out, "{what}: nnz_out");
    assert_eq!(
        got.work_units.to_bits(),
        want.work_units.to_bits(),
        "{what}: work_units"
    );
}

/// Checks one: the numeric kernel, its meters and the symbolic counts.
fn check_multiply<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>, what: &str)
where
    S::T: Bits,
{
    let (want, want_stats) = first_touch::<S>(a, b);
    let counts: Vec<u64> = (0..want.ncols()).map(|j| want.col_nnz(j) as u64).collect();

    let mut ws = SpGemmWorkspace::new();
    let (c, stats) = spgemm_hash_unsorted_with_workspace::<S>(a, b, &mut ws).unwrap();
    assert_bits(&c, &want, &format!("{what}, serial multiply"));
    assert_meters(&stats, &want_stats, &format!("{what}, serial multiply"));
    let (got, stats) = symbolic_col_counts_with_workspace(a, b, &mut ws).unwrap();
    assert_eq!(got, counts, "{what}, serial symbolic counts");
    assert_eq!(
        (stats.flops, stats.nnz_out),
        (want_stats.flops, want_stats.nnz_out)
    );

    for nthreads in THREADS {
        let mut wss: Vec<SpGemmWorkspace<S::T>> =
            (0..nthreads).map(|_| SpGemmWorkspace::new()).collect();
        let (c, stats, _) = par_spgemm_hash_unsorted::<S>(a, b, &mut wss).unwrap();
        assert_bits(
            &c,
            &want,
            &format!("{what}, multiply at {nthreads} threads"),
        );
        assert_meters(
            &stats,
            &want_stats,
            &format!("{what}, multiply at {nthreads} threads"),
        );
        let (got, stats, _) = par_symbolic_col_counts(a, b, &mut wss).unwrap();
        assert_eq!(got, counts, "{what}, symbolic counts at {nthreads} threads");
        assert_eq!(
            (stats.flops, stats.nnz_out),
            (want_stats.flops, want_stats.nnz_out)
        );
    }
}

/// `part` with two more copies of the first entry's row appended to
/// column `j`, valued `extra`: the accumulator sums three entries of one
/// row in input order.
fn with_duplicate<T: Copy>(part: &CscMatrix<T>, j: usize, extra: [T; 2]) -> CscMatrix<T> {
    let mut colptr = vec![0usize];
    let (mut rows, mut vals) = (Vec::new(), Vec::new());
    for k in 0..part.ncols() {
        let (rs, vs) = part.col(k);
        rows.extend_from_slice(rs);
        vals.extend_from_slice(vs);
        if k == j {
            rows.extend([rs[0]; 2]);
            vals.extend(extra);
        }
        colptr.push(rows.len());
    }
    CscMatrix::from_parts(part.nrows(), part.ncols(), colptr, rows, vals).unwrap()
}

/// Checks two: single-part sorted merges. Without duplicates the product
/// sorts into `spgemm_spa`'s output. With a duplicate row in a dense or a
/// sparse column, the merge returns what the accumulator returns for the
/// part plus an empty part. Returns which of the two paths ran.
fn check_single_part<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    extra: [S::T; 2],
    what: &str,
) -> [bool; 2]
where
    S::T: Bits,
{
    let (product, _) = first_touch::<S>(a, b);
    let (spa, _) = spgemm_spa::<S>(a, b).unwrap();
    let nrows = product.nrows();
    let (got, _) = merge_hash_sorted::<S>(vec![product.clone()]).unwrap();
    assert_bits(&got, &spa, &format!("{what}, sorted product"));

    let lens: Vec<usize> = (0..product.ncols()).map(|j| product.col_nnz(j)).collect();
    let dense = lens.iter().position(|&n| n > 0 && is_dense(n + 2, nrows));
    let sparse = lens.iter().position(|&n| n > 0 && !is_dense(n + 2, nrows));
    for (path, col) in [("bitmap", dense), ("key-sort", sparse)] {
        let Some(j) = col else { continue };
        let part = with_duplicate(&product, j, extra);
        let empty = CscMatrix::<S::T>::zero(part.nrows(), part.ncols());
        let what = format!("{what}, duplicate in column {j} ({path} path)");
        let mut ws = SpGemmWorkspace::new();
        let (want, want_stats) =
            merge_hash_sorted_with_workspace::<S>(vec![part.clone(), empty.clone()], &mut ws)
                .unwrap();
        let (got, stats) =
            merge_hash_sorted_with_workspace::<S>(vec![part.clone()], &mut ws).unwrap();
        assert_bits(&got, &want, &format!("{what}, serial"));
        assert_meters(&stats, &want_stats, &format!("{what}, serial"));
        for nthreads in THREADS {
            let arenas = || {
                (0..nthreads)
                    .map(|_| SpGemmWorkspace::new())
                    .collect::<Vec<_>>()
            };
            let (want, want_stats, _) =
                par_merge_hash_sorted::<S>(vec![part.clone(), empty.clone()], &mut arenas())
                    .unwrap();
            let (got, stats, _) =
                par_merge_hash_sorted::<S>(vec![part.clone()], &mut arenas()).unwrap();
            assert_bits(&got, &want, &format!("{what}, {nthreads} threads"));
            assert_meters(&stats, &want_stats, &format!("{what}, {nthreads} threads"));
        }
    }
    [dense.is_some(), sparse.is_some()]
}

/// Every row count and seed for one semiring.
fn check_semiring<S: Semiring>(value: impl Fn(usize) -> S::T, extra: [S::T; 2])
where
    S::T: Bits,
{
    for nrows in NROWS {
        let mut paths = [false; 2];
        for seed in [1u64, 2, 3] {
            let (a, b) = operands(nrows, seed * 1000 + nrows as u64, &value);
            let bounds = col_bounds(&a, &b);
            if nrows > 1 {
                assert!(
                    bounds.iter().any(|&ub| ub > 0 && !is_dense(ub, nrows)),
                    "no sparse column"
                );
            }
            assert!(
                bounds.iter().any(|&ub| is_dense(ub, nrows) && ub > 0),
                "no dense column"
            );
            assert!(
                bounds.iter().any(|&ub| ub > nrows),
                "no column bound above the row count"
            );
            let what = format!("nrows {nrows}, seed {seed}");
            check_multiply::<S>(&a, &b, &what);
            let ran = check_single_part::<S>(&a, &b, extra, &what);
            paths = [paths[0] || ran[0], paths[1] || ran[1]];
        }
        // With one row every nonempty column is dense.
        assert_eq!(paths, [true, nrows > 1], "merge paths run at nrows {nrows}");
    }
}

/// Float values whose sums depend on order and on a signed zero.
const F64_VALUES: [f64; 8] = [1.5, -0.0, 0.0, -2.25, 1e16, -1e16, 3.0, 0.1];

#[test]
fn plus_times_f64_modes_match_first_touch() {
    check_semiring::<PlusTimesF64>(|k| F64_VALUES[k % F64_VALUES.len()], [1e16, -1e16]);
}

#[test]
fn min_plus_f64_modes_match_first_touch() {
    check_semiring::<MinPlusF64>(|k| F64_VALUES[k % F64_VALUES.len()], [-0.0, 0.0]);
}

#[test]
fn bool_or_and_modes_match_first_touch() {
    check_semiring::<BoolOrAnd>(|k| k % 3 != 0, [false, true]);
}

#[test]
fn plus_times_u64_modes_match_first_touch() {
    check_semiring::<PlusTimesU64>(|k| (k % 9) as u64 + 1, [7, 11]);
}
