//! The accumulator's two modes, the row-bitmap sorts and the bitmap
//! symbolic counts against first-touch references.
//!
//! A column whose flop bound `ub` satisfies `min(ub, nrows) · 16 >= nrows`
//! is *dense*: the hash accumulator indexes it directly by row; every
//! other column hashes. Every sorted drain and in-place column sort of
//! `n` entries scans the row bitmap when `nrows.div_ceil(64) <= n·lg n`
//! and sorts by key otherwise; the symbolic pass counts every column in
//! the row bitmap. None of this may change a bit of the
//! output or its meters, and the bitmap must be all zero after every
//! call. For row counts around a power of two and far above one, with
//! columns on both sides of each rule, across the four semirings and with
//! `-0.0` and order-sensitive sums among the values, this file checks,
//! serially and at 2, 3 and 8 threads:
//!
//! * the numeric kernel's `colptr`, `rowidx` and value bits equal a
//!   first-touch reference (`spgemm_spa`'s loop without its final sort);
//! * `flops`, `nnz_out` and the bits of `work_units` equal the reference's;
//! * the symbolic counts equal the reference's column lengths;
//! * a single-part sorted merge of a part with a duplicate row returns the
//!   accumulator's result, whether the duplicate sits in a column sorted
//!   by bitmap or by key;
//! * a sorted merge of several parts with rows shared across parts equals
//!   a first-touch merge sorted by row, meters included;
//! * one workspace driven through a mixed sequence of these calls gets
//!   every result right and ends with an all-zero bitmap.

use spgemm_sparse::merge::{merge_hash_sorted, merge_hash_sorted_with_workspace};
use spgemm_sparse::par::{
    merge_col_weights, par_merge_hash_sorted, par_spgemm_hash_unsorted, par_spgemm_hybrid,
    par_symbolic_col_counts, split_cols_by_weight,
};
use spgemm_sparse::semiring::{BoolOrAnd, MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted_with_workspace, spgemm_spa, symbolic_col_counts_with_workspace, C_DRAIN,
    C_HASH_FLOP, C_MERGE_HASH, C_SORT,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, WorkStats};
use std::ops::Range;

const NROWS: [usize; 5] = [1, 63, 64, 65, 300];
/// A row count whose bitmap (16,384 words) outweighs every small column.
const TALL: usize = 1 << 20;
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

/// log₂ clamped below at 1, as the kernels' work formulas use it.
fn lg(n: usize) -> f64 {
    (n.max(2) as f64).log2()
}

/// The sort rule, restated: `n` entries over `nrows` rows are sorted by a
/// row-bitmap scan when its words cost no more than `n·lg n`.
fn sorts_by_bitmap(n: usize, nrows: usize) -> bool {
    nrows.div_ceil(64) as f64 <= n as f64 * lg(n)
}

fn assert_clear<T: Copy>(wss: &[SpGemmWorkspace<T>], what: &str) {
    for (t, ws) in wss.iter().enumerate() {
        assert!(
            ws.row_bitmap_is_clear(),
            "{what}: bitmap of workspace {t} left bits set"
        );
    }
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
    assert_clear(
        std::slice::from_ref(&ws),
        &format!("{what}, serial symbolic counts"),
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
        assert_clear(
            &wss,
            &format!("{what}, symbolic counts at {nthreads} threads"),
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
/// sorts into `spgemm_spa`'s output. With a duplicate row in a column
/// sorted by bitmap or by key, the merge returns what the accumulator
/// returns for the part plus an empty part. Returns which of the two
/// paths ran.
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
    let bitmap = lens
        .iter()
        .position(|&n| n > 0 && sorts_by_bitmap(n + 2, nrows));
    let keys = lens
        .iter()
        .position(|&n| n > 0 && !sorts_by_bitmap(n + 2, nrows));
    for (path, col) in [("bitmap", bitmap), ("key-sort", keys)] {
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
        assert_clear(std::slice::from_ref(&ws), &format!("{what}, serial"));
        for nthreads in THREADS {
            let arenas = || {
                (0..nthreads)
                    .map(|_| SpGemmWorkspace::new())
                    .collect::<Vec<_>>()
            };
            let (want, want_stats, _) =
                par_merge_hash_sorted::<S>(vec![part.clone(), empty.clone()], &mut arenas())
                    .unwrap();
            let mut wss = arenas();
            let (got, stats, _) = par_merge_hash_sorted::<S>(vec![part.clone()], &mut wss).unwrap();
            assert_bits(&got, &want, &format!("{what}, {nthreads} threads"));
            assert_meters(&stats, &want_stats, &format!("{what}, {nthreads} threads"));
            assert_clear(&wss, &format!("{what}, {nthreads} threads"));
        }
    }
    [bitmap.is_some(), keys.is_some()]
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
        // Up to 64 rows the bitmap is one word and every column sorts by
        // it; the shortest column with a duplicate holds three entries.
        assert_eq!(
            paths,
            [true, !sorts_by_bitmap(3, nrows)],
            "merge paths run at nrows {nrows}"
        );
    }
}

/// Float values whose sums depend on order and on a signed zero.
const F64_VALUES: [f64; 8] = [1.5, -0.0, 0.0, -2.25, 1e16, -1e16, 3.0, 0.1];

/// `nparts` same-shaped parts over `nrows` rows whose column `k` draws
/// `lens[k]` distinct rows per part from a shared pool of half as many
/// again, so rows repeat across parts. Every pool holds the word-edge rows 63,
/// 64 and 65 that fit.
fn shared_row_parts<T: Copy>(
    nrows: usize,
    lens: &[usize],
    nparts: usize,
    rng: &mut Lcg,
    value: &impl Fn(usize) -> T,
) -> Vec<CscMatrix<T>> {
    let pools: Vec<Vec<u32>> = lens
        .iter()
        .map(|&len| {
            let mut pool: Vec<u32> = [63u32, 64, 65]
                .into_iter()
                .filter(|&r| (r as usize) < nrows)
                .collect();
            let want = (len + len / 2).min(nrows);
            pool.extend(
                rng.distinct(nrows, want)
                    .into_iter()
                    .filter(|r| !(63..=65).contains(r)),
            );
            pool.truncate(want);
            pool
        })
        .collect();
    (0..nparts)
        .map(|_| {
            let mut colptr = vec![0usize];
            let (mut rows, mut vals) = (Vec::new(), Vec::new());
            for (pool, &len) in pools.iter().zip(lens) {
                for k in rng.distinct(pool.len(), len.min(pool.len())) {
                    rows.push(pool[k as usize]);
                    vals.push(value(rng.below(1 << 20)));
                }
                colptr.push(rows.len());
            }
            CscMatrix::from_parts(nrows, lens.len(), colptr, rows, vals).unwrap()
        })
        .collect()
}

/// A first-touch ⊕ of the parts, in part order, with each column then
/// sorted by row: what the accumulator's sorted merge must return.
fn merge_reference<S: Semiring>(parts: &[CscMatrix<S::T>]) -> CscMatrix<S::T> {
    let (nrows, ncols) = (parts[0].nrows(), parts[0].ncols());
    let mut slot: Vec<Option<usize>> = vec![None; nrows];
    let mut colptr = vec![0usize];
    let (mut rows, mut vals) = (Vec::<u32>::new(), Vec::<S::T>::new());
    for j in 0..ncols {
        let mut col: Vec<(u32, S::T)> = Vec::new();
        for p in parts {
            let (rs, vs) = p.col(j);
            for (&r, &v) in rs.iter().zip(vs) {
                match slot[r as usize] {
                    Some(k) => col[k].1 = S::add(col[k].1, v),
                    None => {
                        slot[r as usize] = Some(col.len());
                        col.push((r, v));
                    }
                }
            }
        }
        for &(r, _) in &col {
            slot[r as usize] = None;
        }
        col.sort_unstable_by_key(|&(r, _)| r);
        rows.extend(col.iter().map(|&(r, _)| r));
        vals.extend(col.iter().map(|&(_, v)| v));
        colptr.push(rows.len());
    }
    CscMatrix::from_parts(nrows, ncols, colptr, rows, vals).unwrap()
}

/// The sorted merge's work units over the column `ranges` the kernel
/// splits into, summed in its order: per column, then per range.
fn merge_work(
    parts: &[CscMatrix<impl Copy>],
    merged: &CscMatrix<impl Copy>,
    ranges: &[Range<usize>],
) -> f64 {
    let mut total = 0.0;
    for range in ranges {
        let mut work = 0.0;
        for j in range.clone() {
            let total_in: usize = parts.iter().map(|p| p.col_nnz(j)).sum();
            let produced = merged.col_nnz(j);
            if total_in == 0 {
                continue;
            }
            work += total_in as f64 * C_MERGE_HASH + produced as f64 * C_DRAIN;
            work += produced as f64 * lg(produced) * C_SORT;
        }
        total += work;
    }
    total
}

/// Checks three: multi-part sorted merges against [`merge_reference`],
/// with column lengths on both sides of the sort rule wherever the row
/// count allows both. Returns which sides ran.
fn check_sorted_merge<S: Semiring>(
    nrows: usize,
    seed: u64,
    value: &impl Fn(usize) -> S::T,
) -> [bool; 2]
where
    S::T: Bits,
{
    let lens = [0usize, 1, 2, 3, 5, 8, 16, 40, 100, 400, 1500, 3000];
    let mut rng = Lcg(seed);
    let parts = shared_row_parts(nrows, &lens, 3, &mut rng, value);
    let want = merge_reference::<S>(&parts);
    let what = format!("sorted merge, nrows {nrows}, seed {seed}");
    let sides = (0..want.ncols())
        .map(|j| want.col_nnz(j))
        .filter(|&n| n > 0)
        .fold([false; 2], |[b, k], n| {
            let bitmap = sorts_by_bitmap(n, nrows);
            [b || bitmap, k || !bitmap]
        });
    let shared = (0..want.ncols()).any(|j| {
        let total_in: usize = parts.iter().map(|p| p.col_nnz(j)).sum();
        want.col_nnz(j) < total_in
    });
    assert!(shared || nrows == 1, "{what}: no row repeats across parts");

    let mut ws = SpGemmWorkspace::new();
    let (got, stats) = merge_hash_sorted_with_workspace::<S>(parts.clone(), &mut ws).unwrap();
    assert!(got.is_sorted(), "{what}: sorted flag");
    assert_bits(&got, &want, &format!("{what}, serial"));
    assert_eq!(stats.nnz_out, want.nnz() as u64, "{what}, serial nnz_out");
    assert_eq!(
        stats.work_units.to_bits(),
        merge_work(&parts, &want, std::slice::from_ref(&(0..want.ncols()))).to_bits(),
        "{what}, serial work_units"
    );
    assert_clear(std::slice::from_ref(&ws), &format!("{what}, serial"));
    for nthreads in THREADS {
        let mut wss: Vec<SpGemmWorkspace<S::T>> =
            (0..nthreads).map(|_| SpGemmWorkspace::new()).collect();
        let (got, stats, _) = par_merge_hash_sorted::<S>(parts.clone(), &mut wss).unwrap();
        let what = format!("{what}, {nthreads} threads");
        assert_bits(&got, &want, &what);
        let ranges = split_cols_by_weight(&merge_col_weights(&parts), nthreads);
        assert_eq!(stats.nnz_out, want.nnz() as u64, "{what}: nnz_out");
        assert_eq!(
            stats.work_units.to_bits(),
            merge_work(&parts, &want, &ranges).to_bits(),
            "{what}: work_units"
        );
        assert_clear(&wss, &what);
    }
    sides
}

fn check_sorted_merges<S: Semiring>(value: impl Fn(usize) -> S::T)
where
    S::T: Bits,
{
    for nrows in [1, 63, 64, 65, 300, TALL] {
        let mut sides = [false; 2];
        for seed in [1u64, 2] {
            let ran = check_sorted_merge::<S>(nrows, seed * 7919 + nrows as u64, &value);
            sides = [sides[0] || ran[0], sides[1] || ran[1]];
        }
        // One word of bitmap is never more than a one-entry sort.
        assert_eq!(sides, [true, nrows > 64], "sort sides run at nrows {nrows}");
    }
}

#[test]
fn sorted_merges_match_first_touch_plus_times_f64() {
    check_sorted_merges::<PlusTimesF64>(|k| F64_VALUES[k % F64_VALUES.len()]);
}

#[test]
fn sorted_merges_match_first_touch_min_plus_f64() {
    check_sorted_merges::<MinPlusF64>(|k| F64_VALUES[k % F64_VALUES.len()]);
}

/// The symbolic counts equal the numeric kernel's column lengths on a
/// tall output, where short columns count first touches and clear the
/// words they touched, and long ones (one of them dense) count and zero
/// every word in one popcount pass.
#[test]
fn symbolic_counts_match_numeric_nnz_on_a_tall_output() {
    let mut rng = Lcg(97);
    let a_lens = [0usize, 1, 2, 3, 64, 1500, TALL / 16];
    let a = matrix(
        TALL,
        (0..INNER).map(|i| a_lens[i % a_lens.len()]),
        &mut rng,
        &|k| k as f64,
    );
    let b = matrix(INNER, (0..NCOLS).map(|j| (j * 5) % 7), &mut rng, &|k| {
        k as f64
    });
    let bounds = col_bounds(&a, &b);
    let words = TALL.div_ceil(64);
    assert!(
        bounds.iter().any(|&ub| ub > 0 && ub < words),
        "no re-walked column"
    );
    assert!(
        bounds.iter().any(|&ub| ub >= words),
        "no word-zeroed column"
    );
    assert!(
        bounds.iter().any(|&ub| is_dense(ub, TALL)),
        "no dense column"
    );
    check_multiply::<PlusTimesF64>(&a, &b, "tall output");
}

/// A column over `nrows` rows holding `rows` (in this order), valued by
/// position.
fn single_col(nrows: usize, rows: &[u32]) -> CscMatrix<f64> {
    let vals = (1..=rows.len()).map(|k| k as f64).collect();
    CscMatrix::from_parts(nrows, 1, vec![0, rows.len()], rows.to_vec(), vals).unwrap()
}

/// One set of workspaces (one, or one per thread) through every user of
/// the row bitmap in turn, twice over: each result must be right and the
/// bitmap all zero after each call.
fn mixed_sequence(nthreads: usize) {
    const N: usize = 1000; // 16 bitmap words
    let mut wss: Vec<SpGemmWorkspace<f64>> =
        (0..nthreads).map(|_| SpGemmWorkspace::new()).collect();
    let mut rng = Lcg(4242 + nthreads as u64);
    // Flop bounds 64 (dense, word-zeroed) and 3 (sparse, re-walked).
    let a = matrix(N, [64usize, 1, 1, 1].into_iter(), &mut rng, &|k| {
        (k % 5) as f64
    });
    let dense_b = CscMatrix::from_parts(4, 2, vec![0, 1, 1], vec![0], vec![1.0]).unwrap();
    let sparse_b = CscMatrix::from_parts(4, 2, vec![0, 0, 3], vec![1, 2, 3], vec![1.0; 3]).unwrap();
    // Descending rows: 7 sort by bitmap (7·lg 7 > 16), 5 by key.
    let desc = |n: u32| (0..n).map(|k| 990 - 70 * k).collect::<Vec<u32>>();
    let bitmap_col = single_col(N, &desc(7));
    let key_col = single_col(N, &desc(5));
    // Seven entries (bitmap sort) over six rows: the duplicate hands the
    // column to the accumulator, whose drain of six rows key-sorts and so
    // cannot mask bits the failed bitmap sort left behind.
    let mut dup = desc(7);
    dup[6] = dup[2];
    let dup_col = single_col(N, &dup);
    // Hybrid columns: 8 streams (hashed, drained by bitmap), 5 streams of
    // one row each (hashed, drained by key sort) and 2 (heap). Small
    // integer values keep every sum exact in any ⊕ order.
    let hybrid_a = matrix(
        N,
        [64usize, 1, 1, 1, 1, 1, 30, 2].into_iter(),
        &mut rng,
        &|k| (k % 5) as f64,
    )
    .sorted_copy();
    let hybrid_rows = vec![0, 1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7];
    let hybrid_b =
        CscMatrix::from_parts(8, 3, vec![0, 8, 13, 15], hybrid_rows, vec![1.0; 15]).unwrap();
    let mut parts_rng = Lcg(17);
    let parts = shared_row_parts(N, &[3, 40, 0, 700, 1], 3, &mut parts_rng, &|k| {
        (k % 7) as f64
    });

    for round in 0..2 {
        let what = |step: &str| format!("{nthreads} workspace(s), round {round}, {step}");
        for (b, step) in [
            (&dense_b, "dense symbolic column"),
            (&sparse_b, "sparse symbolic column"),
        ] {
            let (counts, _, _) = par_symbolic_col_counts(&a, b, &mut wss).unwrap();
            let (c, _) = spgemm_spa::<PlusTimesF64>(&a, b).unwrap();
            let want: Vec<u64> = (0..c.ncols()).map(|j| c.col_nnz(j) as u64).collect();
            assert_eq!(counts, want, "{}", what(step));
            assert_clear(&wss, &what(step));
        }
        for (col, step) in [
            (&bitmap_col, "bitmap sort"),
            (&key_col, "key sort"),
            (&dup_col, "duplicate row"),
        ] {
            let (got, _, _) =
                par_merge_hash_sorted::<PlusTimesF64>(vec![col.clone()], &mut wss).unwrap();
            let want = merge_reference::<PlusTimesF64>(std::slice::from_ref(col));
            assert_bits(&got, &want, &what(step));
            assert_clear(&wss, &what(step));
        }
        let (got, _, _) = par_merge_hash_sorted::<PlusTimesF64>(parts.clone(), &mut wss).unwrap();
        assert_bits(
            &got,
            &merge_reference::<PlusTimesF64>(&parts),
            &what("sorted merge"),
        );
        assert_clear(&wss, &what("sorted merge"));
        let (got, _, _) =
            par_spgemm_hybrid::<PlusTimesF64>(&hybrid_a, &hybrid_b, &mut wss).unwrap();
        let (want, _) = spgemm_spa::<PlusTimesF64>(&hybrid_a, &hybrid_b).unwrap();
        assert_bits(&got, &want, &what("hybrid multiply"));
        assert_clear(&wss, &what("hybrid multiply"));
    }
}

#[test]
fn one_workspace_through_every_bitmap_user_stays_clear() {
    for nthreads in [1, 2, 3, 8] {
        mixed_sequence(nthreads);
    }
}

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
