//! Column-range parallel wrappers over the local kernels.
//!
//! The paper runs 16 OpenMP threads per MPI process; every local kernel in
//! this crate is embarrassingly parallel over *output columns* (Azad et al.,
//! "Exploiting Multiple Levels of Parallelism in SpGEMM"). This module
//! exploits that. Each kernel is one *body* that computes a range of
//! output columns into a [`SpGemmWorkspace`]'s output arenas.
//! `run_kernel` splits the output column space into contiguous ranges
//! balanced by a **flop estimate** (not column count) and runs the body on
//! each range in its own thread with its own workspace. It then allocates
//! one exact-size output and copies every range's arenas into their own
//! disjoint slices of it, in parallel. With one workspace the body runs
//! inline over every column and `SpGemmWorkspace::take_output` copies
//! the arenas out: that is the serial `_with_workspace` entry point.
//!
//! ## Bit-identity
//!
//! The parallel entry points produce output bit-identical to their serial
//! counterparts for any thread count, because every kernel here is
//! per-output-column independent:
//!
//! * column `j` of the result depends only on `B(:,j)` (and all of `A`),
//!   which a body reads in place;
//! * [`HashAccum`](crate::spgemm::accum::HashAccum)'s insertion order and
//!   per-key accumulation order depend only on the order the column's data
//!   is fed in — never on table capacity, on whether the column indexes
//!   the table directly, or on what previous columns did;
//! * the `sorted` flag every body computes is a per-column conjunction,
//!   so AND-ing the per-range flags reproduces the serial flag.
//!
//! Only the *metering* differs: `WorkStats::allocs`/`peak_scratch_bytes`/
//! `memcpy_bytes` depend on per-thread arena warmth, and the f64
//! `work_units` sum may differ in the last ulp from the serial
//! left-to-right sum. `flops` and `nnz_out` are exact integers and match
//! the serial run exactly.

use crate::csc::CscMatrix;
use crate::merge::hash_merge::hash_merge_cols;
use crate::merge::heap_merge::heap_merge_cols;
use crate::merge::single::{merge_single, SingleMerge};
use crate::semiring::Semiring;
use crate::spgemm::hash::hash_unsorted_cols;
use crate::spgemm::heap::heap_cols;
use crate::spgemm::hybrid::hybrid_cols;
use crate::spgemm::symbolic::symbolic_cols;
use crate::spgemm::workspace::SpGemmWorkspace;
use crate::spgemm::{symbolic_col_counts_with_workspace, WorkStats};
use crate::{Result, SparseError, Sortedness};
use std::mem::size_of;
use std::ops::Range;

/// Split `0..weights.len()` into at most `nparts` contiguous, non-empty
/// ranges with approximately equal total weight.
///
/// Greedy prefix cut against a fair-share target recomputed from the
/// remaining weight (the same scheme as the `Balanced` batch splitter in
/// `spgemm-core`). Each column's weight is scaled by `n` and offset by 1 so
/// zero-weight (empty) columns still spread across ranges instead of all
/// landing in one. Guarantees: the ranges cover `0..n` in order, every
/// range is non-empty (when `n > 0`), and at most `nparts` are returned —
/// possibly fewer when the weight mass makes more cuts pointless (e.g. all
/// weight in the last column).
pub fn split_cols_by_weight(weights: &[u64], nparts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if nparts <= 1 || n <= 1 {
        #[allow(clippy::single_range_in_vec_init)] // a one-range plan, not a [0; n] typo
        return vec![0..n];
    }
    let nparts = nparts.min(n);
    let scaled = |j: usize| weights[j] as u128 * n as u128 + 1;
    let mut remaining: u128 = (0..n).map(scaled).sum();
    let mut ranges: Vec<Range<usize>> = Vec::with_capacity(nparts);
    let mut start = 0usize;
    let mut acc: u128 = 0;
    for j in 0..n {
        acc += scaled(j);
        let parts_left = (nparts - ranges.len()) as u128;
        let target = remaining.div_ceil(parts_left);
        if acc >= target && ranges.len() + 1 < nparts && j + 1 < n {
            ranges.push(start..j + 1);
            start = j + 1;
            remaining -= acc;
            acc = 0;
        }
    }
    ranges.push(start..n);
    ranges
}

/// Flop estimate per output column of `a · b` — what the symbolic pass
/// counts: `est[j] = Σ_{i ∈ B(:,j)} nnz(A(:,i))`.
pub fn multiply_col_flops<T: Copy, U: Copy>(a: &CscMatrix<T>, b: &CscMatrix<U>) -> Vec<u64> {
    (0..b.ncols())
        .map(|j| {
            let (rows, _) = b.col(j);
            rows.iter().map(|&i| a.col_nnz(i as usize) as u64).sum()
        })
        .collect()
}

/// Work estimate per output column of a merge: total input entries landing
/// in the column across all parts.
pub fn merge_col_weights<T: Copy>(parts: &[CscMatrix<T>]) -> Vec<u64> {
    let ncols = parts.first().map_or(0, |p| p.ncols());
    (0..ncols)
        .map(|j| parts.iter().map(|p| p.col_nnz(j) as u64).sum())
        .collect()
}

/// Observed per-thread load balance of one or more parallel kernel
/// invocations.
///
/// Per invocation the splitter's ranges each report their work (modeled
/// work units — the flop-cost estimate the splitter balances); the balance
/// records the busiest range and the mean. Merging across invocations sums
/// both, so [`Self::imbalance`] is the work-weighted average of the
/// per-invocation max/mean ratios: `Σ max_i / Σ mean_i`. A value of 1.0
/// means perfectly balanced ranges; 0.0 means nothing was recorded (serial
/// execution).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RangeBalance {
    /// Parallel kernel invocations recorded.
    pub invocations: u64,
    /// Sum over invocations of the busiest range's work units.
    pub sum_max_work: f64,
    /// Sum over invocations of the mean work units per range.
    pub sum_mean_work: f64,
}

impl RangeBalance {
    /// Balance of a single invocation from its per-range work units.
    pub fn from_work(per_range: &[f64]) -> Self {
        if per_range.is_empty() {
            return RangeBalance::default();
        }
        let total: f64 = per_range.iter().sum();
        let max = per_range.iter().copied().fold(0.0f64, f64::max);
        RangeBalance {
            invocations: 1,
            sum_max_work: max,
            sum_mean_work: total / per_range.len() as f64,
        }
    }

    /// Fold another invocation (or another rank's aggregate) into this one.
    pub fn merge(&mut self, other: RangeBalance) {
        self.invocations += other.invocations;
        self.sum_max_work += other.sum_max_work;
        self.sum_mean_work += other.sum_mean_work;
    }

    /// Work-weighted max/mean ratio; `>= 1.0` once anything is recorded,
    /// `0.0` when nothing is (serial runs).
    pub fn imbalance(&self) -> f64 {
        if self.sum_mean_work > 0.0 {
            self.sum_max_work / self.sum_mean_work
        } else {
            0.0
        }
    }
}

fn check_mul_dims<T: Copy, U: Copy>(a: &CscMatrix<T>, b: &CscMatrix<U>) -> Result<()> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: (a.ncols(), a.ncols()),
            found: (b.nrows(), b.ncols()),
        });
    }
    Ok(())
}

/// Run `run` over each range on its own thread, each with its own
/// workspace, and fold the results in range order. `ranges.len()` must not
/// exceed `workspaces.len()` (the splitter guarantees this when called
/// with `nparts = workspaces.len()`); a single range runs inline on the
/// calling thread.
fn run_ranges<R, W, F>(
    ranges: &[Range<usize>],
    workspaces: &mut [SpGemmWorkspace<W>],
    run: F,
) -> Result<(Vec<R>, WorkStats, RangeBalance)>
where
    R: Send,
    W: Copy + Send,
    F: Fn(Range<usize>, &mut SpGemmWorkspace<W>) -> Result<(R, WorkStats)> + Sync,
{
    let inputs = vec![(); ranges.len()];
    run_ranges_with(ranges, inputs, workspaces, |range, (), ws| run(range, ws))
}

/// [`run_ranges`] with one owned input per range (for instance the
/// disjoint `&mut` slices of an in-place kernel), handed to its thread.
pub(crate) fn run_ranges_with<I, R, W, F>(
    ranges: &[Range<usize>],
    inputs: Vec<I>,
    workspaces: &mut [SpGemmWorkspace<W>],
    run: F,
) -> Result<(Vec<R>, WorkStats, RangeBalance)>
where
    I: Send,
    R: Send,
    W: Copy + Send,
    F: Fn(Range<usize>, I, &mut SpGemmWorkspace<W>) -> Result<(R, WorkStats)> + Sync,
{
    debug_assert_eq!(ranges.len(), inputs.len());
    let mut slots: Vec<Option<Result<(R, WorkStats)>>> = Vec::new();
    slots.resize_with(ranges.len(), || None);
    if ranges.len() <= 1 {
        let mut fallback = SpGemmWorkspace::new();
        let ws = workspaces.first_mut().unwrap_or(&mut fallback);
        if let (Some(slot), Some(input)) = (slots.first_mut(), inputs.into_iter().next()) {
            *slot = Some(run(ranges[0].clone(), input, ws));
        }
    } else {
        debug_assert!(ranges.len() <= workspaces.len());
        std::thread::scope(|scope| {
            for (((range, input), ws), slot) in ranges
                .iter()
                .cloned()
                .zip(inputs)
                .zip(workspaces.iter_mut())
                .zip(slots.iter_mut())
            {
                let run = &run;
                scope.spawn(move || *slot = Some(run(range, input, ws)));
            }
        });
    }
    let mut outs = Vec::with_capacity(ranges.len());
    let mut stats = WorkStats::default();
    let mut per_range = Vec::with_capacity(ranges.len());
    for slot in slots {
        let (r, s) = slot.expect("every spawned range writes its slot")?;
        per_range.push(s.work_units);
        stats.merge(s);
        outs.push(r);
    }
    Ok((outs, stats, RangeBalance::from_work(&per_range)))
}

/// Split `buf` into consecutive disjoint slices of the given lengths.
pub(crate) fn split_lens<T>(mut buf: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
    .collect()
}

/// Run a kernel `body` over the output columns `0..shape.1` and return its
/// output as one exact-size matrix, with the work done and the per-range
/// balance.
///
/// A body computes the columns of its range into the workspace's output
/// arenas (`colptr` counted from the range's first entry) and returns
/// whether every column came out sorted. With one workspace (or at most
/// one column) the body runs inline over every column and
/// [`SpGemmWorkspace::take_output`] copies the arenas out. Otherwise the
/// body runs over ranges balanced by `weights`, one thread and workspace
/// each; then one exact-size output is allocated and each thread copies
/// its warm arenas into its own disjoint slices of it.
pub(crate) fn run_kernel<T, F>(
    shape: (usize, usize),
    fill: T,
    weights: impl FnOnce() -> Vec<u64>,
    workspaces: &mut [SpGemmWorkspace<T>],
    body: F,
) -> Result<(CscMatrix<T>, WorkStats, RangeBalance)>
where
    T: Copy + Send + Sync,
    F: Fn(Range<usize>, &mut SpGemmWorkspace<T>) -> (bool, WorkStats) + Sync,
{
    let (nrows, ncols) = shape;
    if workspaces.len() <= 1 || ncols <= 1 {
        let mut fallback = SpGemmWorkspace::new();
        let ws = workspaces.first_mut().unwrap_or(&mut fallback);
        let allocs_before = ws.total_allocs();
        let (sorted, mut stats) = body(0..ncols, ws);
        let (c, copied) = ws.take_output(nrows, ncols, sorted);
        stats.allocs = ws.total_allocs() - allocs_before;
        stats.peak_scratch_bytes = ws.peak_scratch_bytes();
        stats.memcpy_bytes = copied;
        return Ok((c, stats, RangeBalance::from_work(&[stats.work_units])));
    }
    let ranges = split_cols_by_weight(&weights(), workspaces.len());
    let (sorted, mut stats, balance) = run_ranges(&ranges, workspaces, |range, ws| {
        let allocs_before = ws.total_allocs();
        let (sorted, mut stats) = body(range, ws);
        ws.note_peak();
        stats.allocs = ws.total_allocs() - allocs_before;
        stats.peak_scratch_bytes = ws.peak_scratch_bytes();
        Ok((sorted, stats))
    })?;

    let used = &mut workspaces[..ranges.len()];
    let lens: Vec<usize> = used.iter().map(|ws| ws.rowidx.len()).collect();
    let nnz: usize = lens.iter().sum();
    let mut colptr = vec![0usize; ncols + 1];
    let mut rowidx = vec![0u32; nnz];
    let mut vals = vec![fill; nnz];
    let bases = lens.iter().scan(0, |base, &len| {
        let start = *base;
        *base += len;
        Some(start)
    });
    let chunks: Vec<_> = bases
        .zip(split_lens(&mut colptr[1..], ranges.iter().map(|r| r.len())))
        .zip(split_lens(&mut rowidx, lens.iter().copied()))
        .zip(split_lens(&mut vals, lens.iter().copied()))
        .collect();
    run_ranges_with(&ranges, chunks, used, |_, (((base, ends), rows), vals), ws| {
        for (end, &local) in ends.iter_mut().zip(&ws.colptr[1..]) {
            *end = base + local;
        }
        rows.copy_from_slice(&ws.rowidx);
        vals.copy_from_slice(&ws.vals);
        Ok(((), WorkStats::default()))
    })?;
    // Exact-size `vec!`s: an empty one doesn't touch the heap.
    stats.allocs += 1 + 2 * u64::from(nnz > 0);
    stats.memcpy_bytes =
        (colptr.len() * size_of::<usize>() + nnz * (size_of::<u32>() + size_of::<T>())) as u64;
    let sorted = sorted.iter().all(|&s| s);
    let c = CscMatrix::from_parts_unchecked(nrows, ncols, colptr, rowidx, vals, sorted);
    Ok((c, stats, balance))
}

/// Check shapes, then run a multiply body over flop-balanced column
/// ranges of `b`.
fn par_multiply<S, F>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
    body: F,
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)>
where
    S: Semiring,
    F: Fn(Range<usize>, &mut SpGemmWorkspace<S::T>) -> (bool, WorkStats) + Sync,
{
    check_mul_dims(a, b)?;
    let shape = (a.nrows(), b.ncols());
    run_kernel(shape, S::zero(), || multiply_col_flops(a, b), workspaces, body)
}

fn require_sorted<T: Copy>(m: &CscMatrix<T>, what: &str) -> Result<()> {
    if m.is_sorted() {
        Ok(())
    } else {
        Err(SparseError::InvalidStructure(format!("{what} requires sorted columns in A")))
    }
}

/// Parallel [`crate::spgemm::spgemm_hash_unsorted_with_workspace`]: this
/// paper's sort-free kernel over flop-balanced column ranges.
/// Bit-identical to serial.
pub fn par_spgemm_hash_unsorted<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    let out = par_multiply::<S, _>(a, b, workspaces, |cols, ws| {
        hash_unsorted_cols::<S>(a, b, cols, ws)
    })?;
    crate::debug_validate!(out.0, Sortedness::Unsorted, "unsorted-hash SpGEMM output");
    Ok(out)
}

/// Parallel [`crate::spgemm::spgemm_hybrid_with_workspace`]
/// (previous-generation sorted kernel). Requires sorted `a`, like the
/// serial path.
pub fn par_spgemm_hybrid<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    check_mul_dims(a, b)?;
    require_sorted(a, "hybrid SpGEMM")?;
    let out = par_multiply::<S, _>(a, b, workspaces, |cols, ws| hybrid_cols::<S>(a, b, cols, ws))?;
    crate::debug_validate!(out.0, Sortedness::Sorted, "hybrid SpGEMM output");
    Ok(out)
}

/// Parallel [`crate::spgemm::spgemm_heap`]. Requires sorted `a`, like the
/// serial path.
pub fn par_spgemm_heap<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    check_mul_dims(a, b)?;
    require_sorted(a, "heap SpGEMM")?;
    let out = par_multiply::<S, _>(a, b, workspaces, |cols, ws| heap_cols::<S>(a, b, cols, ws))?;
    crate::debug_validate!(out.0, Sortedness::Sorted, "heap SpGEMM output");
    Ok(out)
}

/// Check shapes, then run a merge body over weight-balanced column ranges
/// of same-shaped `parts`.
fn par_merge<S, F>(
    parts: &[CscMatrix<S::T>],
    workspaces: &mut [SpGemmWorkspace<S::T>],
    body: F,
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)>
where
    S: Semiring,
    F: Fn(Range<usize>, &mut SpGemmWorkspace<S::T>) -> (bool, WorkStats) + Sync,
{
    let shape = crate::merge::common_shape(parts)?;
    run_kernel(shape, S::zero(), || merge_col_weights(parts), workspaces, body)
}

/// Every hash merge, serial (one workspace) or column-parallel (one per
/// thread). A single part takes the [`merge_single`] rule; several parts,
/// or a single part with a duplicate row in some column, go through the
/// accumulator over weight-balanced column ranges.
pub(crate) fn merge_hash_with<S: Semiring>(
    mut parts: Vec<CscMatrix<S::T>>,
    sort: bool,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    crate::merge::common_shape(&parts)?;
    if parts.len() == 1 {
        let part = parts.pop().expect("one part");
        match merge_single(part, sort, workspaces)? {
            SingleMerge::Done(c, stats, balance) => return Ok((c, stats, balance)),
            SingleMerge::Duplicates(part) => parts.push(part),
        }
    }
    let out = par_merge::<S, _>(&parts, workspaces, |cols, ws| {
        hash_merge_cols::<S>(&parts, sort, cols, ws)
    })?;
    let expected = if sort { Sortedness::Sorted } else { Sortedness::Unsorted };
    crate::debug_validate!(out.0, expected, "hash-merge output ({} parts)", parts.len());
    Ok(out)
}

/// Parallel [`crate::merge::merge_hash_unsorted_with_workspace`].
pub fn par_merge_hash_unsorted<S: Semiring>(
    parts: Vec<CscMatrix<S::T>>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    merge_hash_with::<S>(parts, false, workspaces)
}

/// Parallel [`crate::merge::merge_hash_sorted_with_workspace`].
pub fn par_merge_hash_sorted<S: Semiring>(
    parts: Vec<CscMatrix<S::T>>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    merge_hash_with::<S>(parts, true, workspaces)
}

/// Parallel [`crate::merge::merge_heap_with_workspace`]. Requires sorted
/// inputs, like the serial path.
pub fn par_merge_heap<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    crate::merge::common_shape(parts)?;
    if parts.iter().any(|p| !p.is_sorted()) {
        return Err(SparseError::InvalidStructure(
            "heap merge requires sorted inputs".into(),
        ));
    }
    let out =
        par_merge::<S, _>(parts, workspaces, |cols, ws| heap_merge_cols::<S>(parts, cols, ws))?;
    crate::debug_validate!(out.0, Sortedness::Sorted, "heap-merge output ({} parts)", parts.len());
    Ok(out)
}

/// Parallel [`symbolic_col_counts_with_workspace`]: per-column nnz counts
/// of `a · b` over flop-balanced column ranges, each thread writing its
/// own slice of the counts. Counts are exact integers, identical to serial.
pub fn par_symbolic_col_counts<T, U, W>(
    a: &CscMatrix<T>,
    b: &CscMatrix<U>,
    workspaces: &mut [SpGemmWorkspace<W>],
) -> Result<(Vec<u64>, WorkStats, RangeBalance)>
where
    T: Copy + Sync,
    U: Copy + Sync,
    W: Copy + Send,
{
    check_mul_dims(a, b)?;
    if workspaces.len() <= 1 || b.ncols() <= 1 {
        let mut fallback = SpGemmWorkspace::new();
        let ws = workspaces.first_mut().unwrap_or(&mut fallback);
        let (counts, stats) = symbolic_col_counts_with_workspace(a, b, ws)?;
        return Ok((counts, stats, RangeBalance::from_work(&[stats.work_units])));
    }
    crate::debug_validate!(*a, Sortedness::Unsorted, "symbolic sweep input A");
    crate::debug_validate!(*b, Sortedness::Unsorted, "symbolic sweep input B");
    let weights = multiply_col_flops(a, b);
    let ranges = split_cols_by_weight(&weights, workspaces.len());
    let mut counts = vec![0u64; b.ncols()];
    let chunks = split_lens(&mut counts, ranges.iter().map(|r| r.len()));
    let (_, mut stats, bal) = run_ranges_with(&ranges, chunks, workspaces, |range, counts, ws| {
        Ok(((), symbolic_cols(a, b, range, counts, ws)))
    })?;
    // One exact-size allocation for the counts themselves.
    stats.allocs += 1;
    Ok((counts, stats, bal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_cover(ranges: &[Range<usize>], n: usize, nparts: usize) {
        assert!(!ranges.is_empty());
        assert!(ranges.len() <= nparts.max(1));
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        if n > 0 {
            for r in ranges {
                assert!(!r.is_empty(), "range {r:?} is empty");
            }
        }
    }

    #[test]
    fn splitter_covers_and_bounds_parts() {
        for nparts in [1, 2, 3, 8] {
            for n in [0usize, 1, 2, 7, 100] {
                let weights = vec![1u64; n];
                let ranges = split_cols_by_weight(&weights, nparts);
                assert_cover(&ranges, n, nparts);
            }
        }
    }

    #[test]
    fn splitter_balances_uniform_weights() {
        let weights = vec![10u64; 64];
        let ranges = split_cols_by_weight(&weights, 8);
        assert_eq!(ranges.len(), 8);
        for r in &ranges {
            assert_eq!(r.len(), 8, "uniform weights split evenly: {ranges:?}");
        }
    }

    #[test]
    fn splitter_isolates_a_dense_column() {
        // One column dwarfs the rest: it should get (essentially) its own
        // range rather than dragging half the matrix with it.
        let mut weights = vec![1u64; 32];
        weights[5] = 100_000;
        let ranges = split_cols_by_weight(&weights, 4);
        assert_cover(&ranges, 32, 4);
        let heavy = ranges.iter().find(|r| r.contains(&5)).unwrap();
        assert!(heavy.len() <= 6, "dense column's range too wide: {ranges:?}");
    }

    #[test]
    fn splitter_handles_empty_columns() {
        // All-zero weights still spread columns across ranges.
        let ranges = split_cols_by_weight(&[0u64; 16], 4);
        assert_cover(&ranges, 16, 4);
        assert_eq!(ranges.len(), 4);
        for r in &ranges {
            assert_eq!(r.len(), 4);
        }
    }

    #[test]
    fn splitter_all_weight_in_last_column() {
        let mut weights = vec![0u64; 8];
        weights[7] = 1_000;
        let ranges = split_cols_by_weight(&weights, 4);
        assert_cover(&ranges, 8, 4);
    }

    #[test]
    fn balance_merges_as_weighted_average() {
        let mut b = RangeBalance::from_work(&[4.0, 4.0]);
        assert!((b.imbalance() - 1.0).abs() < 1e-12);
        b.merge(RangeBalance::from_work(&[6.0, 2.0]));
        // (4 + 6) / (4 + 4) = 1.25
        assert!((b.imbalance() - 1.25).abs() < 1e-12);
        assert_eq!(b.invocations, 2);
        assert_eq!(RangeBalance::default().imbalance(), 0.0);
    }
}
