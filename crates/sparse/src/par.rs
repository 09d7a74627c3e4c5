//! Column-range parallel wrappers over the serial local kernels.
//!
//! The paper runs 16 OpenMP threads per MPI process; every local kernel in
//! this crate is embarrassingly parallel over *output columns* (Azad et al.,
//! "Exploiting Multiple Levels of Parallelism in SpGEMM"). This module
//! exploits that: it splits the output column space into contiguous ranges
//! balanced by a **flop estimate** (not column count), runs the existing
//! serial `_with_workspace` kernel on each range in its own thread with its
//! own [`SpGemmWorkspace`] arena, and concatenates the per-range outputs.
//!
//! ## Bit-identity
//!
//! The parallel entry points produce output bit-identical to their serial
//! counterparts for any thread count, because every kernel here is
//! per-output-column independent:
//!
//! * column `j` of the result depends only on `B(:,j)` (and all of `A`),
//!   which [`col_block`] extraction preserves exactly;
//! * [`HashAccum`](crate::spgemm::accum::HashAccum)'s insertion order and
//!   per-key accumulation order depend only on the order the column's data
//!   is fed in — never on table capacity or on what previous columns did;
//! * the `sorted` flag every kernel computes is a per-column conjunction,
//!   so AND-ing the per-range flags (what [`col_concat`] does) reproduces
//!   the serial flag.
//!
//! Only the *metering* differs: `WorkStats::allocs`/`peak_scratch_bytes`/
//! `memcpy_bytes` depend on per-thread arena warmth, and the f64
//! `work_units` sum may differ in the last ulp from the serial
//! left-to-right sum. `flops` and `nnz_out` are exact integers and match
//! the serial run exactly.

use crate::csc::CscMatrix;
use crate::merge::hash_merge::merge_hash_accumulate;
use crate::merge::single::{merge_single, SingleMerge};
use crate::merge::merge_heap_with_workspace;
use crate::ops::{col_block, col_concat};
use crate::semiring::Semiring;
use crate::spgemm::workspace::SpGemmWorkspace;
use crate::spgemm::{
    spgemm_hash_unsorted_with_workspace, spgemm_heap, spgemm_hybrid_with_workspace,
    symbolic_col_counts_with_workspace, WorkStats,
};
use crate::{Result, SparseError};
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

/// Dispatch a multiply-shaped kernel over flop-balanced column ranges of
/// `b`, concatenating the per-range outputs.
fn par_multiply<S, F>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
    kernel: F,
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)>
where
    S: Semiring,
    F: Fn(&CscMatrix<S::T>, &CscMatrix<S::T>, &mut SpGemmWorkspace<S::T>) -> Result<(CscMatrix<S::T>, WorkStats)>
        + Sync,
{
    check_mul_dims(a, b)?;
    if workspaces.len() <= 1 || b.ncols() <= 1 {
        let mut fallback = SpGemmWorkspace::new();
        let ws = workspaces.first_mut().unwrap_or(&mut fallback);
        let (c, stats) = kernel(a, b, ws)?;
        return Ok((c, stats, RangeBalance::from_work(&[stats.work_units])));
    }
    let weights = multiply_col_flops(a, b);
    let ranges = split_cols_by_weight(&weights, workspaces.len());
    let (parts, stats, bal) = run_ranges(&ranges, workspaces, |range, ws| {
        let sub = col_block(b, range);
        kernel(a, &sub, ws)
    })?;
    Ok((col_concat(&parts)?, stats, bal))
}

/// Parallel [`spgemm_hash_unsorted_with_workspace`]: this paper's sort-free
/// kernel over flop-balanced column ranges. Bit-identical to serial.
pub fn par_spgemm_hash_unsorted<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par_multiply::<S, _>(a, b, workspaces, |a, b, ws| {
        spgemm_hash_unsorted_with_workspace::<S>(a, b, ws)
    })
}

/// Parallel [`spgemm_hybrid_with_workspace`] (previous-generation sorted
/// kernel). Requires sorted `a`, like the serial path.
pub fn par_spgemm_hybrid<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par_multiply::<S, _>(a, b, workspaces, |a, b, ws| {
        spgemm_hybrid_with_workspace::<S>(a, b, ws)
    })
}

/// Parallel [`spgemm_heap`]. The heap kernel has no workspace variant
/// (it owns no reusable arenas), so the workspaces only determine the
/// thread count here.
pub fn par_spgemm_heap<S: Semiring>(
    a: &CscMatrix<S::T>,
    b: &CscMatrix<S::T>,
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par_multiply::<S, _>(a, b, workspaces, |a, b, _ws| spgemm_heap::<S>(a, b))
}

/// Dispatch a merge-shaped kernel over weight-balanced column ranges of
/// same-shaped `parts`.
fn par_merge<S, F>(
    parts: &[CscMatrix<S::T>],
    workspaces: &mut [SpGemmWorkspace<S::T>],
    kernel: F,
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)>
where
    S: Semiring,
    F: Fn(&[CscMatrix<S::T>], &mut SpGemmWorkspace<S::T>) -> Result<(CscMatrix<S::T>, WorkStats)>
        + Sync,
{
    let (_, ncols) = crate::merge::common_shape(parts)?;
    if workspaces.len() <= 1 || ncols <= 1 {
        let mut fallback = SpGemmWorkspace::new();
        let ws = workspaces.first_mut().unwrap_or(&mut fallback);
        let (c, stats) = kernel(parts, ws)?;
        return Ok((c, stats, RangeBalance::from_work(&[stats.work_units])));
    }
    let weights = merge_col_weights(parts);
    let ranges = split_cols_by_weight(&weights, workspaces.len());
    let (outs, stats, bal) = run_ranges(&ranges, workspaces, |range, ws| {
        let subs: Vec<CscMatrix<S::T>> =
            parts.iter().map(|p| col_block(p, range.clone())).collect();
        kernel(&subs, ws)
    })?;
    Ok((col_concat(&outs)?, stats, bal))
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
    par_merge::<S, _>(&parts, workspaces, |parts, ws| merge_hash_accumulate::<S>(parts, sort, ws))
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

/// Parallel [`merge_heap_with_workspace`]. Requires sorted inputs, like
/// the serial path.
pub fn par_merge_heap<S: Semiring>(
    parts: &[CscMatrix<S::T>],
    workspaces: &mut [SpGemmWorkspace<S::T>],
) -> Result<(CscMatrix<S::T>, WorkStats, RangeBalance)> {
    par_merge::<S, _>(parts, workspaces, |parts, ws| {
        merge_heap_with_workspace::<S>(parts, ws)
    })
}

/// Parallel [`symbolic_col_counts_with_workspace`]: per-column nnz counts
/// of `a · b` over flop-balanced column ranges. Counts are exact integers,
/// identical to serial.
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
    let weights = multiply_col_flops(a, b);
    let ranges = split_cols_by_weight(&weights, workspaces.len());
    let (chunks, stats, bal) = run_ranges(&ranges, workspaces, |range, ws| {
        let sub = col_block(b, range);
        symbolic_col_counts_with_workspace(a, &sub, ws)
    })?;
    let mut counts = Vec::with_capacity(b.ncols());
    for chunk in chunks {
        counts.extend_from_slice(&chunk);
    }
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
