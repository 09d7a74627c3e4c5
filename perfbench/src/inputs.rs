//! Seeded workload inputs.
//!
//! Built directly from `spgemm_sparse::gen` and a symmetric random
//! permutation, because the repository's named workload constructors pin
//! their seeds. The same `--seed` gives the same matrices; every stream is
//! derived from it through splitmix64 so different workloads and roles
//! never share a generator seed.

use spgemm_sparse::gen::{clustered_similarity, rmat};
use spgemm_sparse::ops::{permute_symmetric, random_permutation};
use spgemm_sparse::{CscMatrix, PlusTimesF64};

/// splitmix64 finalizer: a well-mixed 64-bit value per (seed, stream).
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomly relabel vertices so communities do not line up with the
/// process grid's blocks (HipMCL/CombBLAS ingestion practice).
fn scrambled(m: &CscMatrix<f64>, seed: u64) -> CscMatrix<f64> {
    permute_symmetric(m, &random_permutation(m.nrows(), seed))
}

/// Friendster-like social graph: symmetric Graph500 R-MAT of order
/// `2^scale`, edge factor 12, scrambled.
pub fn friendster_like(scale: u32, seed: u64, stream: u64) -> CscMatrix<f64> {
    let g = rmat::<PlusTimesF64>(scale, 12, None, true, derive(seed, stream));
    scrambled(&g, derive(seed, stream + 1))
}

/// Isolates-like protein-similarity network: `nclusters` dense
/// communities of `size` vertices (14 intra-, 2 inter-community links per
/// column), scrambled.
pub fn isolates_like(nclusters: usize, size: usize, seed: u64, stream: u64) -> CscMatrix<f64> {
    let g = clustered_similarity(nclusters, size, 14, 2, derive(seed, stream));
    scrambled(&g, derive(seed, stream + 1))
}
