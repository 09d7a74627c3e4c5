//! Local kernel strategies: the *previous generation* (sorted, heap/hybrid
//! — CombBLAS SUMMA3D \[13\] with the hybrid kernel of \[25\]) versus
//! **this paper's** sort-free unsorted-hash pipeline (Sec. IV-D).
//!
//! The strategy decides three things at once, because sortedness must be
//! consistent across the pipeline: how Local-Multiply forms columns, how
//! Merge-Layer combines stage outputs, and how Merge-Fiber combines layer
//! pieces. Under `Previous` every intermediate stays sorted; under `New`
//! only the final Merge-Fiber output is sorted.

use crate::backend::{Backend, BackendKind};
use spgemm_simgrid::{Rank, Step};
use spgemm_sparse::merge::{
    merge_hash_sorted, merge_hash_sorted_with_workspace, merge_hash_unsorted,
    merge_hash_unsorted_with_workspace, merge_heap, merge_heap_with_workspace,
};
use spgemm_sparse::par::{
    par_merge_hash_sorted, par_merge_hash_unsorted, par_merge_heap, par_spgemm_hash_unsorted,
    par_spgemm_hybrid, par_symbolic_col_counts, RangeBalance,
};
use spgemm_sparse::spgemm::{
    spgemm_hash_unsorted, spgemm_hash_unsorted_with_workspace, spgemm_hybrid,
    spgemm_hybrid_with_workspace, symbolic_col_counts_with_workspace,
};
use spgemm_sparse::{CscMatrix, Semiring, Sortedness, SpGemmWorkspace, WorkStats};
use std::time::Instant;

/// Which local-kernel generation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelStrategy {
    /// Prior work \[13, 25\]: hybrid (hash-or-heap) sorted SpGEMM,
    /// heap-based merging, everything kept sorted.
    Previous,
    /// This paper: unsorted-hash SpGEMM and hash merging; only the final
    /// Merge-Fiber output is sorted.
    #[default]
    New,
}

impl KernelStrategy {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelStrategy::Previous => "previous(heap/hybrid,sorted)",
            KernelStrategy::New => "new(unsorted-hash)",
        }
    }

    /// The column-order contract of this generation's *intermediates*
    /// (Local-Multiply and Merge-Layer outputs). `Previous` keeps
    /// everything sorted; `New` defers sorting to Merge-Fiber (Sec. IV-D).
    pub fn intermediate_sortedness(self) -> Sortedness {
        match self {
            KernelStrategy::Previous => Sortedness::Sorted,
            KernelStrategy::New => Sortedness::Unsorted,
        }
    }

    /// Local-Multiply: one SUMMA stage's `Ã_recv · B̃_recv`.
    pub fn local_multiply<S: Semiring>(
        self,
        a: &CscMatrix<S::T>,
        b: &CscMatrix<S::T>,
    ) -> spgemm_sparse::Result<(CscMatrix<S::T>, WorkStats)> {
        match self {
            KernelStrategy::Previous => spgemm_hybrid::<S>(a, b),
            KernelStrategy::New => spgemm_hash_unsorted::<S>(a, b),
        }
    }

    /// Merge-Layer: combine the per-stage partial products within a layer.
    pub fn merge_layer<S: Semiring>(
        self,
        parts: Vec<CscMatrix<S::T>>,
    ) -> spgemm_sparse::Result<(CscMatrix<S::T>, WorkStats)> {
        match self {
            KernelStrategy::Previous => merge_heap::<S>(&parts),
            KernelStrategy::New => merge_hash_unsorted::<S>(parts),
        }
    }

    /// Merge-Fiber: combine the per-layer pieces. Both strategies produce
    /// sorted output here — the final matrix is conventionally sorted
    /// (Sec. IV-D keeps exactly this one result sorted).
    pub fn merge_fiber<S: Semiring>(
        self,
        parts: Vec<CscMatrix<S::T>>,
    ) -> spgemm_sparse::Result<(CscMatrix<S::T>, WorkStats)> {
        match self {
            KernelStrategy::Previous => merge_heap::<S>(&parts),
            KernelStrategy::New => merge_hash_sorted::<S>(parts),
        }
    }
}

/// A rank's local-kernel engine: the chosen [`KernelStrategy`] bound to a
/// long-lived [`SpGemmWorkspace`] so every Local-Multiply, Merge-Layer,
/// Merge-Fiber and symbolic sweep on the rank reuses one set of scratch
/// buffers across SUMMA stages and batches (allocation-free hot paths).
///
/// Also accumulates the per-rank [`WorkStats`] totals — flops, output nnz,
/// work units, and the workspace's allocation/byte counters — which the
/// harness surfaces in reports.
///
/// The engine is also bound to a [`Backend`]: under the default
/// `Simgrid` backend kernels run serially and ranks are charged modeled
/// work units; under `Native` with more than one thread the `run_*`
/// methods dispatch to the column-range parallel kernels of
/// [`spgemm_sparse::par`] — each thread owning one workspace from
/// `thread_workspaces` — and ranks are charged the measured wall-clock
/// seconds. Output is bit-identical either way.
pub struct LocalKernels<T: Copy> {
    strategy: KernelStrategy,
    backend: Box<dyn Backend>,
    workspace: SpGemmWorkspace<T>,
    /// Per-thread arenas for the parallel path; empty unless the backend
    /// runs more than one kernel thread. Each workspace is owned by
    /// exactly one thread for the duration of a kernel call (the ranges
    /// are disjoint, so no sharing, no locking).
    thread_workspaces: Vec<SpGemmWorkspace<T>>,
    totals: WorkStats,
    balance: RangeBalance,
}

impl<T: Copy> std::fmt::Debug for LocalKernels<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalKernels")
            .field("strategy", &self.strategy)
            .field("backend", &self.backend)
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

impl<T: Copy> LocalKernels<T> {
    /// Fresh engine for one rank; scratch starts empty and warms up over
    /// the first stages. Runs the default modeled-clock backend.
    pub fn new(strategy: KernelStrategy) -> Self {
        Self::with_backend(strategy, BackendKind::Simgrid)
    }

    /// Fresh engine bound to an explicit backend.
    pub fn with_backend(strategy: KernelStrategy, kind: BackendKind) -> Self {
        let threads = kind.threads();
        LocalKernels {
            strategy,
            backend: kind.to_backend(),
            workspace: SpGemmWorkspace::new(),
            thread_workspaces: if threads > 1 {
                (0..threads).map(|_| SpGemmWorkspace::new()).collect()
            } else {
                Vec::new()
            },
            totals: WorkStats::default(),
            balance: RangeBalance::default(),
        }
    }

    /// The kernel generation this engine runs.
    pub fn strategy(&self) -> KernelStrategy {
        self.strategy
    }

    /// The backend configuration this engine runs under.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend.kind()
    }

    /// Accumulated stats over every kernel invocation so far.
    pub fn totals(&self) -> WorkStats {
        self.totals
    }

    /// Accumulated per-thread load balance of the parallel kernel calls
    /// (default/empty when kernels ran serially).
    pub fn balance(&self) -> RangeBalance {
        self.balance
    }

    /// The reusable scratch (for capacity/footprint diagnostics).
    pub fn workspace(&self) -> &SpGemmWorkspace<T> {
        &self.workspace
    }

    /// True when the `run_*` methods dispatch to the parallel kernels.
    fn parallel(&self) -> bool {
        self.thread_workspaces.len() > 1
    }

    /// Local-Multiply through the shared workspace.
    pub fn local_multiply<S: Semiring<T = T>>(
        &mut self,
        a: &CscMatrix<T>,
        b: &CscMatrix<T>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let (c, stats) = match self.strategy {
            KernelStrategy::Previous => {
                spgemm_hybrid_with_workspace::<S>(a, b, &mut self.workspace)?
            }
            KernelStrategy::New => {
                spgemm_hash_unsorted_with_workspace::<S>(a, b, &mut self.workspace)?
            }
        };
        spgemm_sparse::debug_validate!(
            c,
            self.strategy.intermediate_sortedness(),
            "Local-Multiply output ({})",
            self.strategy.name()
        );
        self.totals.merge(stats);
        Ok((c, stats))
    }

    /// Merge-Layer through the shared workspace.
    pub fn merge_layer<S: Semiring<T = T>>(
        &mut self,
        parts: Vec<CscMatrix<T>>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let nparts = parts.len();
        let (c, stats) = match self.strategy {
            KernelStrategy::Previous => merge_heap_with_workspace::<S>(&parts, &mut self.workspace)?,
            KernelStrategy::New => {
                merge_hash_unsorted_with_workspace::<S>(parts, &mut self.workspace)?
            }
        };
        spgemm_sparse::debug_validate!(
            c,
            self.strategy.intermediate_sortedness(),
            "Merge-Layer output ({}, {} parts)",
            self.strategy.name(),
            nparts
        );
        self.totals.merge(stats);
        Ok((c, stats))
    }

    /// Merge-Fiber through the shared workspace (sorted output).
    pub fn merge_fiber<S: Semiring<T = T>>(
        &mut self,
        parts: Vec<CscMatrix<T>>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let nparts = parts.len();
        let (c, stats) = match self.strategy {
            KernelStrategy::Previous => merge_heap_with_workspace::<S>(&parts, &mut self.workspace)?,
            KernelStrategy::New => {
                merge_hash_sorted_with_workspace::<S>(parts, &mut self.workspace)?
            }
        };
        spgemm_sparse::debug_validate!(
            c,
            Sortedness::Sorted,
            "Merge-Fiber output ({}, {} parts)",
            self.strategy.name(),
            nparts
        );
        self.totals.merge(stats);
        Ok((c, stats))
    }

    /// `LocalSymbolic` (Alg. 3) through the shared workspace's row
    /// bitmap.
    pub fn symbolic_col_counts(
        &mut self,
        a: &CscMatrix<T>,
        b: &CscMatrix<T>,
    ) -> spgemm_sparse::Result<(Vec<u64>, WorkStats)> {
        let (counts, stats) = symbolic_col_counts_with_workspace(a, b, &mut self.workspace)?;
        self.totals.merge(stats);
        Ok((counts, stats))
    }

    /// Local-Multiply under the backend: runs the kernel (parallel when
    /// the backend has threads) and charges `rank`'s clock — modeled work
    /// units or measured seconds, per the backend.
    pub fn run_local_multiply<S: Semiring<T = T>>(
        &mut self,
        rank: &mut Rank,
        a: &CscMatrix<T>,
        b: &CscMatrix<T>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let t0 = Instant::now();
        let (c, stats) = if self.parallel() {
            let (c, stats, bal) = match self.strategy {
                KernelStrategy::Previous => {
                    par_spgemm_hybrid::<S>(a, b, &mut self.thread_workspaces)?
                }
                KernelStrategy::New => {
                    par_spgemm_hash_unsorted::<S>(a, b, &mut self.thread_workspaces)?
                }
            };
            spgemm_sparse::debug_validate!(
                c,
                self.strategy.intermediate_sortedness(),
                "parallel Local-Multiply output ({})",
                self.strategy.name()
            );
            self.balance.merge(bal);
            self.totals.merge(stats);
            (c, stats)
        } else {
            self.local_multiply::<S>(a, b)?
        };
        self.backend.charge(rank, Step::LocalMultiply, &stats, t0.elapsed().as_secs_f64());
        Ok((c, stats))
    }

    /// Merge-Layer under the backend; see [`Self::run_local_multiply`].
    pub fn run_merge_layer<S: Semiring<T = T>>(
        &mut self,
        rank: &mut Rank,
        parts: Vec<CscMatrix<T>>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let t0 = Instant::now();
        let nparts = parts.len();
        let (c, stats) = if self.parallel() {
            let (c, stats, bal) = match self.strategy {
                KernelStrategy::Previous => {
                    par_merge_heap::<S>(&parts, &mut self.thread_workspaces)?
                }
                KernelStrategy::New => {
                    par_merge_hash_unsorted::<S>(parts, &mut self.thread_workspaces)?
                }
            };
            spgemm_sparse::debug_validate!(
                c,
                self.strategy.intermediate_sortedness(),
                "parallel Merge-Layer output ({}, {} parts)",
                self.strategy.name(),
                nparts
            );
            self.balance.merge(bal);
            self.totals.merge(stats);
            (c, stats)
        } else {
            self.merge_layer::<S>(parts)?
        };
        self.backend.charge(rank, Step::MergeLayer, &stats, t0.elapsed().as_secs_f64());
        Ok((c, stats))
    }

    /// Merge-Fiber under the backend (sorted output); see
    /// [`Self::run_local_multiply`].
    pub fn run_merge_fiber<S: Semiring<T = T>>(
        &mut self,
        rank: &mut Rank,
        parts: Vec<CscMatrix<T>>,
    ) -> spgemm_sparse::Result<(CscMatrix<T>, WorkStats)> {
        let t0 = Instant::now();
        let nparts = parts.len();
        let (c, stats) = if self.parallel() {
            let (c, stats, bal) = match self.strategy {
                KernelStrategy::Previous => {
                    par_merge_heap::<S>(&parts, &mut self.thread_workspaces)?
                }
                KernelStrategy::New => {
                    par_merge_hash_sorted::<S>(parts, &mut self.thread_workspaces)?
                }
            };
            spgemm_sparse::debug_validate!(
                c,
                Sortedness::Sorted,
                "parallel Merge-Fiber output ({}, {} parts)",
                self.strategy.name(),
                nparts
            );
            self.balance.merge(bal);
            self.totals.merge(stats);
            (c, stats)
        } else {
            self.merge_fiber::<S>(parts)?
        };
        self.backend.charge(rank, Step::MergeFiber, &stats, t0.elapsed().as_secs_f64());
        Ok((c, stats))
    }

    /// `LocalSymbolic` under the backend, charged as symbolic compute;
    /// see [`Self::run_local_multiply`].
    pub fn run_symbolic_col_counts(
        &mut self,
        rank: &mut Rank,
        a: &CscMatrix<T>,
        b: &CscMatrix<T>,
    ) -> spgemm_sparse::Result<(Vec<u64>, WorkStats)>
    where
        T: Send + Sync,
    {
        let t0 = Instant::now();
        let (counts, stats) = if self.parallel() {
            let (counts, stats, bal) = par_symbolic_col_counts(a, b, &mut self.thread_workspaces)?;
            self.balance.merge(bal);
            self.totals.merge(stats);
            (counts, stats)
        } else {
            self.symbolic_col_counts(a, b)?
        };
        self.backend.charge(rank, Step::SymbolicComp, &stats, t0.elapsed().as_secs_f64());
        Ok((counts, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spgemm_sparse::gen::er_random;
    use spgemm_sparse::semiring::PlusTimesU64;

    #[test]
    fn strategies_agree_on_products() {
        let a = er_random::<PlusTimesU64>(50, 50, 5, 1).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(50, 50, 5, 2).map(|_| 1u64);
        let (c_prev, _) = KernelStrategy::Previous.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
        let (c_new, _) = KernelStrategy::New.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
        assert!(c_prev.eq_modulo_order(&c_new));
        assert!(c_prev.is_sorted(), "previous keeps intermediates sorted");
    }

    #[test]
    fn strategies_agree_on_merges() {
        let parts: Vec<_> = (0..4)
            .map(|s| er_random::<PlusTimesU64>(40, 20, 3, 10 + s).map(|_| 1u64))
            .collect();
        let (m_prev, _) = KernelStrategy::Previous.merge_layer::<PlusTimesU64>(parts.clone()).unwrap();
        let (m_new, _) = KernelStrategy::New.merge_layer::<PlusTimesU64>(parts.clone()).unwrap();
        assert!(m_prev.eq_modulo_order(&m_new));
        let (f_prev, _) = KernelStrategy::Previous.merge_fiber::<PlusTimesU64>(parts.clone()).unwrap();
        let (f_new, _) = KernelStrategy::New.merge_fiber::<PlusTimesU64>(parts).unwrap();
        assert!(f_prev.eq_modulo_order(&f_new));
        assert!(f_new.is_sorted(), "final merge-fiber output must be sorted");
        assert!(f_prev.is_sorted());
    }

    #[test]
    fn local_kernels_match_stateless_strategy_calls() {
        // The workspace-backed engine must be bit-identical to the
        // allocating entry points, for both generations, across a reused
        // multiply → merge → multiply sequence with shape changes.
        let mut engines = [
            LocalKernels::<u64>::new(KernelStrategy::New),
            LocalKernels::<u64>::new(KernelStrategy::Previous),
        ];
        for engine in &mut engines {
            let strat = engine.strategy();
            for (n, seed) in [(50usize, 1u64), (12, 5), (70, 9)] {
                let a = er_random::<PlusTimesU64>(n, n, 5, seed).map(|_| 1u64);
                let b = er_random::<PlusTimesU64>(n, n, 5, seed + 1).map(|_| 1u64);
                let (c_ws, s_ws) = engine.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
                let (c_ref, s_ref) = strat.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
                assert_eq!(c_ws.colptr(), c_ref.colptr());
                assert_eq!(c_ws.rowidx(), c_ref.rowidx());
                assert_eq!(c_ws.vals(), c_ref.vals());
                assert_eq!(s_ws.flops, s_ref.flops);
                assert_eq!(s_ws.nnz_out, s_ref.nnz_out);
                let parts = [c_ws.clone(), c_ws];
                let (m_ws, _) = engine.merge_layer::<PlusTimesU64>(parts.to_vec()).unwrap();
                let (m_ref, _) = strat.merge_layer::<PlusTimesU64>(parts.to_vec()).unwrap();
                assert_eq!(m_ws.rowidx(), m_ref.rowidx());
                assert_eq!(m_ws.vals(), m_ref.vals());
                let (f_ws, _) = engine.merge_fiber::<PlusTimesU64>(parts.to_vec()).unwrap();
                assert!(f_ws.is_sorted());
            }
        }
    }

    #[test]
    fn local_kernels_accumulate_totals_and_reuse_scratch() {
        let mut engine = LocalKernels::<u64>::new(KernelStrategy::New);
        let a = er_random::<PlusTimesU64>(60, 60, 6, 11).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(60, 60, 6, 12).map(|_| 1u64);
        engine.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
        let warm_allocs = engine.totals().allocs;
        let warm_scratch = engine.workspace().scratch_bytes();
        assert!(warm_allocs > 0);
        // Same-shape repeats only pay the exact-size output copies (3
        // allocations per call), never scratch growth.
        for _ in 0..5 {
            engine.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
        }
        assert_eq!(engine.totals().allocs, warm_allocs + 5 * 3);
        assert_eq!(engine.workspace().scratch_bytes(), warm_scratch);
        assert!(engine.totals().flops > 0);
        assert!(engine.totals().memcpy_bytes > 0);
    }

    #[test]
    fn new_pipeline_consumes_its_own_unsorted_output() {
        // Merge-layer of unsorted local products must work (heap merge
        // would reject them) — the crux of the sort-free pipeline.
        let a = er_random::<PlusTimesU64>(60, 60, 6, 3).map(|_| 1u64);
        let b = er_random::<PlusTimesU64>(60, 60, 6, 4).map(|_| 1u64);
        let (c1, _) = KernelStrategy::New.local_multiply::<PlusTimesU64>(&a, &b).unwrap();
        let (c2, _) = KernelStrategy::New.local_multiply::<PlusTimesU64>(&b, &a).unwrap();
        let (merged, _) = KernelStrategy::New.merge_layer::<PlusTimesU64>(vec![c1, c2]).unwrap();
        assert!(merged.nnz() > 0);
    }
}
