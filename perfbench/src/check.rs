//! Output checks. Every workload runs its outputs through one of these;
//! a mismatch marks the run incorrect.

use spgemm_apps::components::components_from_pattern;
use spgemm_apps::mcl::mcl_init;
use spgemm_core::serve::JobId;
use spgemm_sparse::ops::{col_sums, scale_cols};
use spgemm_sparse::spgemm::spgemm_spa;
use spgemm_sparse::{CscMatrix, PlusTimesF64};
use std::collections::HashMap;

/// Relative tolerance of the product check.
pub const PRODUCT_TOL: f64 = 1e-10;

/// The serial dense-accumulator product every distributed product is
/// checked against.
pub fn reference_product(a: &CscMatrix<f64>, b: &CscMatrix<f64>) -> CscMatrix<f64> {
    spgemm_spa::<PlusTimesF64>(a, b)
        .expect("reference product: operand shapes were built to agree")
        .0
}

/// `got` must equal `want` entry for entry within [`PRODUCT_TOL`].
pub fn check_product(got: &CscMatrix<f64>, want: &CscMatrix<f64>) -> Result<(), String> {
    if got.approx_eq(want, PRODUCT_TOL) {
        Ok(())
    } else {
        Err(format!(
            "product mismatch: got {}x{} with {} nonzeros, reference {}x{} with {} nonzeros",
            got.nrows(),
            got.ncols(),
            got.nnz(),
            want.nrows(),
            want.ncols(),
            want.nnz()
        ))
    }
}

/// The MCL iteration rule the benchmark runs (the library defaults for
/// inflation and threshold; `select` and the iteration count are the
/// workload's).
#[derive(Debug, Clone, Copy)]
pub struct MclRule {
    pub inflation: f64,
    pub prune_threshold: f64,
    pub select: usize,
    pub iterations: usize,
}

fn normalize(m: &mut CscMatrix<f64>) {
    let factors: Vec<f64> = col_sums::<PlusTimesF64>(m)
        .iter()
        .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
        .collect();
    scale_cols(m, &factors);
}

/// Inflate, normalize, keep each column's top `select` entries above the
/// threshold, re-normalize: HipMCL's per-column prune, applied to a whole
/// expanded matrix at once.
fn inflate_and_prune(expanded: &CscMatrix<f64>, rule: &MclRule) -> CscMatrix<f64> {
    let mut m = expanded.map(|v| v.abs().powf(rule.inflation));
    normalize(&mut m);
    let kth: Vec<f64> = (0..m.ncols())
        .map(|j| {
            let mut vals = m.col(j).1.to_vec();
            if vals.len() > rule.select {
                vals.sort_unstable_by(|a, b| b.total_cmp(a));
                vals[rule.select - 1]
            } else {
                0.0
            }
        })
        .collect();
    m.retain(|_, j, v| v >= kth[j] && v >= rule.prune_threshold);
    normalize(&mut m);
    m
}

/// Cluster labels of a serial Markov clustering: `mcl_init`, then
/// `rule.iterations` rounds of serial squaring and [`inflate_and_prune`],
/// then connected components of the surviving pattern.
pub fn serial_mcl_labels(adj: &CscMatrix<f64>, rule: &MclRule) -> Vec<usize> {
    let mut m = mcl_init(adj);
    for _ in 0..rule.iterations {
        m = inflate_and_prune(&reference_product(&m, &m), rule);
    }
    components_from_pattern(&m, rule.prune_threshold)
}

/// Labels must be identical, node for node.
pub fn check_labels(got: &[usize], want: &[usize]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} labels, reference has {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!(
            "label of node {i} is {}, serial reference says {}",
            got[i], want[i]
        )),
    }
}

/// What one serve report said: `Some(nnz_c)` for a completed job, `None`
/// for a rejected one.
pub type ServeOutcome = (JobId, Option<usize>);

/// Every submitted job must report exactly once, complete, and carry the
/// product size `expected` gives for its id. Returns how many jobs failed
/// (lost, rejected, duplicated or wrong), with the first failure.
pub fn check_serve(
    expected: &HashMap<JobId, usize>,
    reports: &[ServeOutcome],
) -> (usize, Result<(), String>) {
    let mut seen: HashMap<JobId, usize> = HashMap::new();
    let mut failed = 0;
    let mut first: Option<String> = None;
    let mut fail = |msg: String| {
        failed += 1;
        first.get_or_insert(msg);
    };
    for &(id, outcome) in reports {
        *seen.entry(id).or_default() += 1;
        match (expected.get(&id), outcome) {
            (None, _) => fail(format!("report for job {id}, which was never submitted")),
            (Some(_), None) => fail(format!("job {id} was rejected")),
            (Some(&want), Some(got)) if got != want => {
                fail(format!(
                    "job {id}: nnz(C) = {got}, symbolic count says {want}"
                ));
            }
            _ => {}
        }
    }
    for (&id, &n) in &seen {
        if n > 1 && expected.contains_key(&id) {
            fail(format!("job {id} reported {n} times"));
        }
    }
    for &id in expected.keys() {
        if !seen.contains_key(&id) {
            fail(format!("job {id} was lost"));
        }
    }
    (failed, first.map_or(Ok(()), Err))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::clustered_similarity;

    fn operand() -> CscMatrix<f64> {
        clustered_similarity(4, 12, 5, 1, 17)
    }

    /// Rebuild `m` with `edit` applied to its value array.
    fn with_vals(m: &CscMatrix<f64>, edit: impl FnOnce(&mut Vec<f64>)) -> CscMatrix<f64> {
        let (r, c, colptr, rowidx, mut vals, _) = m.clone().into_parts();
        edit(&mut vals);
        CscMatrix::from_parts(r, c, colptr, rowidx, vals).expect("same structure")
    }

    #[test]
    fn product_check_accepts_the_reference_and_rejects_perturbations() {
        let a = operand();
        let c = reference_product(&a, &a);
        assert!(check_product(&c, &c).is_ok());
        let mid = c.nnz() / 2;
        let nudged = with_vals(&c, |v| v[mid] *= 1.0 + 1e-6);
        assert!(check_product(&nudged, &c).is_err());
        let mut dropped = c.clone();
        let mut past_first = false;
        dropped.retain(|_, _, _| std::mem::replace(&mut past_first, true));
        assert_eq!(dropped.nnz() + 1, c.nnz());
        assert!(check_product(&dropped, &c).is_err());
        // Summation-order noise far below the tolerance passes.
        let rounded = with_vals(&c, |v| v[0] *= 1.0 + 1e-14);
        assert!(check_product(&rounded, &c).is_ok());
    }

    #[test]
    fn serial_mcl_matches_markov_cluster_and_labels_check_is_exact() {
        use spgemm_apps::mcl::{markov_cluster, MclParams};
        // Four disconnected communities of 12 (no inter-community links).
        let adj = clustered_similarity(4, 12, 8, 0, 5);
        let mut params = MclParams::new(4, 1);
        params.select = 8;
        params.max_iters = 6;
        params.chaos_threshold = 0.0;
        let rule = MclRule {
            inflation: params.inflation,
            prune_threshold: params.prune_threshold,
            select: params.select,
            iterations: params.max_iters,
        };
        let labels = serial_mcl_labels(&adj, &rule);
        for i in 0..48 {
            for j in 0..48 {
                if i / 12 != j / 12 {
                    assert_ne!(labels[i], labels[j], "nodes {i} and {j} share a cluster");
                }
            }
        }
        let distributed = markov_cluster(&adj, &params).expect("small MCL runs");
        assert!(check_labels(&distributed.labels, &labels).is_ok());
        let mut other = labels.clone();
        other[3] += 1;
        assert!(check_labels(&other, &labels).is_err());
        assert!(check_labels(&labels[1..], &labels).is_err());
    }

    #[test]
    fn serve_check_counts_lost_rejected_wrong_and_duplicate_jobs() {
        let expected: HashMap<JobId, usize> = [(1, 10), (2, 20), (3, 30)].into_iter().collect();
        let good = [(1, Some(10)), (2, Some(20)), (3, Some(30))];
        assert_eq!(check_serve(&expected, &good).0, 0);
        assert_eq!(check_serve(&expected, &good[..2]).0, 1, "lost job");
        let wrong = [(1, Some(10)), (2, Some(21)), (3, None)];
        let (failed, res) = check_serve(&expected, &wrong);
        assert_eq!(failed, 2);
        assert!(res.unwrap_err().contains("job 2"));
        let dup = [(1, Some(10)), (1, Some(10)), (2, Some(20)), (3, Some(30))];
        assert_eq!(check_serve(&expected, &dup).0, 1);
    }
}
