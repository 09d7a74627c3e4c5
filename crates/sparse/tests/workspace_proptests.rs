//! Property tests for workspace-backed kernel entry points.
//!
//! The `_with_workspace` variants must be **bit-identical** to the
//! allocating entry points — same `colptr`, same `rowidx` order, same
//! value bits (identical accumulation order makes f64 exact), same
//! sortedness flag — including when one workspace is reused across an
//! interleaved multiply → merge → multiply sequence whose operand shapes
//! grow and shrink. Stale state in a reused accumulator, arena, heap, or
//! cursor vector is exactly the bug class these tests hunt.

use proptest::prelude::*;
use spgemm_sparse::merge::{
    merge_hash_sorted, merge_hash_sorted_with_workspace, merge_hash_unsorted,
    merge_hash_unsorted_with_workspace, merge_heap, merge_heap_with_workspace,
};
use spgemm_sparse::semiring::{BoolOrAnd, MinPlusF64, PlusTimesF64, PlusTimesU64};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_hash_unsorted_with_workspace, spgemm_hybrid,
    spgemm_hybrid_with_workspace, symbolic_col_counts, symbolic_col_counts_with_workspace,
};
use spgemm_sparse::{CscMatrix, Semiring, SpGemmWorkspace, Triples};

/// Exact structural + bit equality (not `eq_modulo_order`).
fn assert_bit_identical<T: Copy + PartialEq + std::fmt::Debug>(
    ws_out: &CscMatrix<T>,
    ref_out: &CscMatrix<T>,
    what: &str,
) {
    assert_eq!(ws_out.nrows(), ref_out.nrows(), "{what}: nrows");
    assert_eq!(ws_out.ncols(), ref_out.ncols(), "{what}: ncols");
    assert_eq!(ws_out.colptr(), ref_out.colptr(), "{what}: colptr");
    assert_eq!(ws_out.rowidx(), ref_out.rowidx(), "{what}: rowidx");
    assert_eq!(ws_out.vals(), ref_out.vals(), "{what}: vals");
    assert_eq!(ws_out.is_sorted(), ref_out.is_sorted(), "{what}: sorted flag");
}

/// One full kernel round on `(a, b)` against `ws`, checking every
/// workspace entry point against its allocating twin.
fn round_trip<S: Semiring>(a: &CscMatrix<S::T>, b: &CscMatrix<S::T>, ws: &mut SpGemmWorkspace<S::T>)
where
    S::T: PartialEq + std::fmt::Debug,
{
    let (c_ws, _) = spgemm_hash_unsorted_with_workspace::<S>(a, b, ws).unwrap();
    let (c_ref, _) = spgemm_hash_unsorted::<S>(a, b).unwrap();
    assert_bit_identical(&c_ws, &c_ref, "hash multiply");

    let (h_ws, _) = spgemm_hybrid_with_workspace::<S>(a, b, ws).unwrap();
    let (h_ref, _) = spgemm_hybrid::<S>(a, b).unwrap();
    assert_bit_identical(&h_ws, &h_ref, "hybrid multiply");

    let (counts_ws, _) = symbolic_col_counts_with_workspace(a, b, ws).unwrap();
    let (counts_ref, _) = symbolic_col_counts(a, b).unwrap();
    assert_eq!(counts_ws, counts_ref, "symbolic counts");

    let parts = [c_ws.clone(), c_ws, c_ref];
    let (mu_ws, _) = merge_hash_unsorted_with_workspace::<S>(parts.to_vec(), ws).unwrap();
    let (mu_ref, _) = merge_hash_unsorted::<S>(parts.to_vec()).unwrap();
    assert_bit_identical(&mu_ws, &mu_ref, "hash merge unsorted");

    let (ms_ws, _) = merge_hash_sorted_with_workspace::<S>(parts.to_vec(), ws).unwrap();
    let (ms_ref, _) = merge_hash_sorted::<S>(parts.to_vec()).unwrap();
    assert_bit_identical(&ms_ws, &ms_ref, "hash merge sorted");
    assert!(ms_ws.is_sorted());

    // Heap merge needs sorted inputs: reuse the sorted merge outputs.
    let sorted_parts = [ms_ws.clone(), ms_ws];
    let (hp_ws, _) = merge_heap_with_workspace::<S>(&sorted_parts, ws).unwrap();
    let (hp_ref, _) = merge_heap::<S>(&sorted_parts).unwrap();
    assert_bit_identical(&hp_ws, &hp_ref, "heap merge");
}

/// A conformable (A: m×k, B: k×n) pair built from arbitrary triples.
fn arb_pair(maxdim: usize, maxnnz: usize) -> impl Strategy<Value = (CscMatrix<u64>, CscMatrix<u64>)> {
    (1..=maxdim, 1..=maxdim, 1..=maxdim).prop_flat_map(move |(m, k, n)| {
        (
            proptest::collection::vec((0..m as u32, 0..k as u32, 1..9u64), 0..=maxnnz),
            proptest::collection::vec((0..k as u32, 0..n as u32, 1..9u64), 0..=maxnnz),
        )
            .prop_map(move |(ea, eb)| {
                let build = |nr: usize, nc: usize, entries: Vec<(u32, u32, u64)>| {
                    let mut t = Triples::with_capacity(nr, nc, entries.len());
                    for (r, c, v) in entries {
                        t.push(r, c, v);
                    }
                    t.to_csc_dedup::<PlusTimesU64>()
                };
                (build(m, k, ea), build(k, n, eb))
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every workspace entry point is bit-identical to its allocating
    /// twin, for a u64 arithmetic semiring, with one workspace shared by
    /// the whole round (multiplies, merges, symbolic).
    #[test]
    fn workspace_paths_bit_identical_u64((a, b) in arb_pair(24, 90)) {
        let mut ws = SpGemmWorkspace::new();
        round_trip::<PlusTimesU64>(&a, &b, &mut ws);
    }

    /// Same, over f64 (+,×): identical accumulation order means exact
    /// float bit equality, not approximate.
    #[test]
    fn workspace_paths_bit_identical_f64((a, b) in arb_pair(20, 70)) {
        let fa = a.map(|v| v as f64 * 0.37);
        let fb = b.map(|v| v as f64 * 0.53);
        let mut ws = SpGemmWorkspace::new();
        round_trip::<PlusTimesF64>(&fa, &fb, &mut ws);
    }

    /// Same, over the tropical (min,+) semiring whose zero is +∞ — the
    /// accumulator's `fill` value differs wildly from (+,×), so a
    /// workspace previously used under one semiring must not leak its
    /// fill into another.
    #[test]
    fn workspace_paths_bit_identical_minplus((a, b) in arb_pair(20, 70)) {
        let fa = a.map(|v| v as f64);
        let fb = b.map(|v| v as f64);
        let mut ws = SpGemmWorkspace::new();
        round_trip::<MinPlusF64>(&fa, &fb, &mut ws);
        // Cross-semiring reuse on the same scratch: the (+,×) round after
        // a (min,+) round must stay exact.
        round_trip::<PlusTimesF64>(&fa, &fb, &mut ws);
    }

    /// Same, over the boolean semiring (structure-only products).
    #[test]
    fn workspace_paths_bit_identical_bool((a, b) in arb_pair(24, 90)) {
        let ba = a.map(|_| true);
        let bb = b.map(|_| true);
        let mut ws = SpGemmWorkspace::new();
        round_trip::<BoolOrAnd>(&ba, &bb, &mut ws);
    }

    /// A reused workspace stays bit-identical across an interleaved
    /// sequence of rounds whose shapes grow and shrink — the arena
    /// lengths from a big round must never bleed into a small one.
    #[test]
    fn reused_workspace_survives_shape_changes(
        pairs in proptest::collection::vec(arb_pair(22, 60), 2..=4)
    ) {
        let mut ws = SpGemmWorkspace::new();
        let mut scratch_prev = 0u64;
        for (a, b) in &pairs {
            round_trip::<PlusTimesU64>(a, b, &mut ws);
            // Capacity is monotone: shrinking shapes never shrink scratch.
            let scratch = ws.scratch_bytes();
            prop_assert!(scratch >= scratch_prev, "scratch shrank: {scratch} < {scratch_prev}");
            scratch_prev = scratch;
        }
        prop_assert!(ws.peak_scratch_bytes() >= scratch_prev);
    }
}

/// Deterministic capacity-monotonicity check: a big round then a small
/// round leaves capacity at the big round's level while counting zero new
/// allocations for the small one.
#[test]
fn capacity_monotone_and_small_rounds_are_free() {
    use spgemm_sparse::gen::er_random;
    let big_a = er_random::<PlusTimesU64>(120, 120, 6, 1).map(|_| 1u64);
    let big_b = er_random::<PlusTimesU64>(120, 120, 6, 2).map(|_| 1u64);
    let small_a = er_random::<PlusTimesU64>(15, 15, 3, 3).map(|_| 1u64);
    let small_b = er_random::<PlusTimesU64>(15, 15, 3, 4).map(|_| 1u64);

    let mut ws = SpGemmWorkspace::new();
    let _ = spgemm_hash_unsorted_with_workspace::<PlusTimesU64>(&big_a, &big_b, &mut ws).unwrap();
    let cap = ws.scratch_bytes();
    let allocs = ws.total_allocs();

    let (c_small, stats) =
        spgemm_hash_unsorted_with_workspace::<PlusTimesU64>(&small_a, &small_b, &mut ws).unwrap();
    assert_eq!(ws.scratch_bytes(), cap, "small round must not resize scratch");
    // Only the three exact-size output copies; no scratch allocations.
    assert_eq!(ws.total_allocs() - allocs, 3);
    assert_eq!(stats.allocs, 3);

    // And the small output is still exactly right.
    let (c_ref, _) = spgemm_hash_unsorted::<PlusTimesU64>(&small_a, &small_b).unwrap();
    assert_bit_identical(&c_small, &c_ref, "small-after-big multiply");
}
