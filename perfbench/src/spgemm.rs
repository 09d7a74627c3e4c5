//! The two single-multiply workloads.
//!
//! * `spgemm-local`: Friendster-like R-MAT A² at scale 13 on one rank, one
//!   layer, the Native backend with `nproc` kernel threads, output kept.
//!   The local kernels do nearly all the work and the runtime moves no
//!   bytes, so this isolates the local hot path; at l=1 both merges get a
//!   single part and are pure overhead. Communication changes bypass it.
//! * `spgemm-batched`: Isolates-like A² (128 clusters of 160) at p=16,
//!   l=4 under a 48 MB aggregate budget on the modeled clock, each batch
//!   discarded: the paper's memory-constrained regime, where every step
//!   is nonzero and per-batch collectives, exchange and scatter/gather
//!   outweigh kernel work.
//!
//! Untraced operations go through `run_spgemm`. The traced run rebuilds
//! its choreography from public calls (`run_ranks_checked`,
//! `dist::scatter`, `batched::batched_summa3d`, `dist::gather_pieces`) so
//! it can hold spans around each of them, and checks that its modeled
//! step table equals the untraced one.

use crate::check::{check_product, reference_product};
use crate::common::{
    measure_for, modeled_step_metrics, repeat_setup, single_tenant_metrics, Ctx, Host, Outcome,
};
use crate::inputs::{friendster_like, isolates_like};
use crate::report::{median, percentile, Metrics};
use crate::trace::{per_op_max, self_times, Span, Tracer};
use spgemm_core::batched::{batched_summa3d, BatchConfig};
use spgemm_core::dist::{gather_pieces, scatter, DistKind};
use spgemm_core::{run_spgemm, BackendKind, MemoryBudget, RunConfig};
use spgemm_simgrid::{max_breakdown, run_ranks_checked, CheckMode, Grid3D, Step, StepBreakdown};
use spgemm_sparse::par::{par_spgemm_hash_unsorted, RangeBalance};
use spgemm_sparse::spgemm::spgemm_hash_unsorted;
use spgemm_sparse::{CscMatrix, PlusTimesF64, SpGemmWorkspace, WorkStats};
use std::sync::Arc;
use std::time::Instant;

/// One of the two multiply workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Local,
    Batched,
}

impl Shape {
    fn p(self) -> usize {
        match self {
            Shape::Local => 1,
            Shape::Batched => 16,
        }
    }

    fn layers(self) -> usize {
        match self {
            Shape::Local => 1,
            Shape::Batched => 4,
        }
    }

    fn backend(self, ctx: &Ctx) -> BackendKind {
        match self {
            Shape::Local => BackendKind::Native { threads: ctx.nproc },
            Shape::Batched => BackendKind::Simgrid,
        }
    }

    /// Kernel compute steps the Native backend charges with measured
    /// seconds (every other step stays on the modeled clock).
    const MEASURED_STEPS: [Step; 4] = [
        Step::SymbolicComp,
        Step::LocalMultiply,
        Step::MergeLayer,
        Step::MergeFiber,
    ];

    pub fn host(self, ctx: &Ctx) -> Host {
        let backend = self.backend(ctx);
        Host {
            ranks: self.p(),
            threads_per_rank: backend.threads(),
            backend: backend.name(),
        }
    }

    fn config(self, ctx: &Ctx, keep_output: bool) -> RunConfig {
        let mut cfg = RunConfig::new(self.p(), self.layers());
        cfg.backend = self.backend(ctx);
        cfg.check = CheckMode::Off;
        cfg.discard_output = !keep_output;
        if self == Shape::Batched {
            cfg.budget = MemoryBudget::new(48_000_000);
        }
        cfg
    }

    fn input(self, seed: u64) -> CscMatrix<f64> {
        match self {
            Shape::Local => friendster_like(13, seed, 10),
            Shape::Batched => isolates_like(128, 160, seed, 20),
        }
    }

    /// The measured operation keeps its product only on spgemm-local.
    fn keeps_output(self) -> bool {
        self == Shape::Local
    }

    /// The parts of a step table that are modeled: under the Native
    /// backend the kernel steps (and the waits their skew causes) are
    /// measured, so they are left out of the comparison.
    fn modeled_view(self, bd: &StepBreakdown) -> StepBreakdown {
        let mut v = *bd;
        if self == Shape::Local {
            for s in Self::MEASURED_STEPS.into_iter().chain([Step::Wait]) {
                v.secs[s as usize] = 0.0;
                v.overlap_secs[s as usize] = 0.0;
            }
        }
        v
    }
}

/// What one multiply reports, untraced or traced.
struct Product {
    c: Option<CscMatrix<f64>>,
    max: StepBreakdown,
    per_rank: Vec<StepBreakdown>,
    nbatches: usize,
    peak_bytes: usize,
    kernel_stats: WorkStats,
    load_balance: RangeBalance,
}

fn untraced(cfg: &RunConfig, a: &CscMatrix<f64>) -> Result<Product, String> {
    let out = run_spgemm::<PlusTimesF64>(cfg, a, a).map_err(|e| e.to_string())?;
    Ok(Product {
        c: out.c,
        max: out.max,
        per_rank: out.per_rank,
        nbatches: out.nbatches,
        peak_bytes: out.peak_bytes.iter().copied().max().unwrap_or(0),
        kernel_stats: out.kernel_stats,
        load_balance: out.load_balance,
    })
}

struct RankOut {
    breakdown: StepBreakdown,
    peak: usize,
    nbatches: usize,
    c: Option<CscMatrix<f64>>,
    kernel_stats: WorkStats,
    load_balance: RangeBalance,
    spans: Vec<Span>,
}

/// `run_spgemm`'s fixed-layer SUMMA choreography with a span around each
/// call into a layer: `core.harness` (the whole operation) ⊃
/// `simgrid.run_ranks` ⊃ per-rank `rank` ⊃ {`core.dist.scatter`,
/// `core.batched` ⊃ `core.batched.batch`, `core.dist.gather`}. A batch
/// span runs from the previous batch callback (or the call's start, so
/// batch 0 includes the symbolic step) to its own callback.
fn traced(
    shape: Shape,
    cfg: &RunConfig,
    a: &CscMatrix<f64>,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Product, String> {
    let root = tracer.open("core.harness", op, None, None);
    let a_arc = Arc::new(a.clone());
    let b_arc = Arc::new(a.clone());
    let (m, n) = (a.nrows(), a.ncols());
    let cfg = *cfg;
    let layers = shape.layers();
    let epoch = tracer.epoch();
    let world = tracer.open("simgrid.run_ranks", op, Some(root.id), None);
    let world_id = world.id;
    let results = run_ranks_checked(cfg.p, cfg.machine, cfg.check, move |rank| {
        let mut t = Tracer::new(epoch);
        let me = Some(rank.rank());
        let body = t.open("rank", op, Some(world_id), me);
        let grid = Grid3D::new(rank, layers);
        let is_root = rank.rank() == 0;
        let (da, db) = t.time("core.dist.scatter", op, Some(body.id), me, || {
            let da = scatter(
                rank,
                &grid,
                DistKind::AStyle,
                is_root.then(|| Arc::clone(&a_arc)),
            );
            let db = scatter(
                rank,
                &grid,
                DistKind::BStyle,
                is_root.then(|| Arc::clone(&b_arc)),
            );
            (da, db)
        });
        let bcfg = BatchConfig {
            kernels: cfg.kernels,
            batching: cfg.batching,
            budget: cfg.budget,
            forced_batches: cfg.forced_batches,
            merge_schedule: cfg.merge_schedule,
            overlap: cfg.overlap,
            exchange: cfg.exchange,
            backend: cfg.backend,
            algorithm: cfg.algorithm,
        };
        let discard = cfg.discard_output;
        let bs = t.open("core.batched", op, Some(body.id), me);
        let mut last = t.now();
        let result = batched_summa3d::<PlusTimesF64>(rank, &grid, &da, &db, &bcfg, |_r, out| {
            let now = t.now();
            let batch = t.open_at("core.batched.batch", op, Some(bs.id), me, last);
            t.push(batch, now);
            last = now;
            (!discard).then_some(out.piece)
        });
        t.close(bs);
        let result = result.map_err(|e| e.to_string())?;
        let c = if discard {
            None
        } else {
            t.time("core.dist.gather", op, Some(body.id), me, || {
                gather_pieces(rank, &grid.world, result.pieces, m, n)
            })
        };
        t.close(body);
        Ok::<_, String>(RankOut {
            breakdown: *rank.clock().breakdown(),
            peak: result.peak_bytes,
            nbatches: result.nbatches,
            c,
            kernel_stats: result.kernel_stats,
            load_balance: result.load_balance,
            spans: t.spans,
        })
    });
    tracer.close(world);
    let mut product = Product {
        c: None,
        max: StepBreakdown::default(),
        per_rank: Vec::with_capacity(cfg.p),
        nbatches: 0,
        peak_bytes: 0,
        kernel_stats: WorkStats::default(),
        load_balance: RangeBalance::default(),
    };
    for (i, r) in results.into_iter().enumerate() {
        let r = r?;
        if i == 0 {
            product.c = r.c;
            product.nbatches = r.nbatches;
        }
        product.per_rank.push(r.breakdown);
        product.peak_bytes = product.peak_bytes.max(r.peak);
        product.kernel_stats.merge(r.kernel_stats);
        product.load_balance.merge(r.load_balance);
        tracer.spans.extend(r.spans);
    }
    product.max = max_breakdown(&product.per_rank);
    tracer.close(root);
    Ok(product)
}

/// Checks the first kept product against the serial reference and every
/// later one for bit-identity with the first.
#[derive(Default)]
struct ProductCheck {
    first: Option<CscMatrix<f64>>,
}

impl ProductCheck {
    fn keep(&mut self, out: &mut Outcome, c: Option<CscMatrix<f64>>) {
        match (c, &self.first) {
            (None, _) => out.fail("a kept product came back empty".into()),
            (Some(c), None) => self.first = Some(c),
            (Some(c), Some(first)) => {
                if c != *first {
                    out.fail("repeated multiplies of one input differ".into());
                }
            }
        }
    }

    fn finish(self, out: &mut Outcome, a: &CscMatrix<f64>) {
        match self.first {
            Some(c) => out.check(check_product(&c, &reference_product(a, a))),
            None => out.fail("no product was kept for the reference check".into()),
        }
    }
}

pub fn run(shape: Shape, ctx: &Ctx) -> Outcome {
    let (a, setup_s) = repeat_setup(|| shape.input(ctx.seed));
    let mut out = Outcome::default();
    if ctx.trace {
        run_traced(shape, ctx, &a, &mut out);
        return out;
    }
    let cfg = shape.config(ctx, shape.keeps_output());
    let mut walls = Vec::new();
    let mut check = ProductCheck::default();
    let mut modeled: Option<StepBreakdown> = None;
    let elapsed = measure_for(ctx.seconds, 3, |_| {
        out.attempted += 1;
        let t = Instant::now();
        let res = untraced(&cfg, &a);
        walls.push(t.elapsed().as_secs_f64());
        match res {
            Ok(p) => {
                let view = shape.modeled_view(&p.max);
                if *modeled.get_or_insert(view) != view {
                    out.fail("modeled step table changed between identical multiplies".into());
                }
                if shape.keeps_output() {
                    check.keep(&mut out, p.c);
                }
            }
            Err(e) => out.fail(e),
        }
    });
    single_tenant_metrics(&mut out, setup_s, &walls, elapsed);
    if !shape.keeps_output() {
        // One untimed multiply that keeps its product, for the check.
        match untraced(&shape.config(ctx, true), &a) {
            Ok(p) => check.keep(&mut out, p.c),
            Err(e) => out.fail(e),
        }
    }
    check.finish(&mut out, &a);
    out
}

fn run_traced(shape: Shape, ctx: &Ctx, a: &CscMatrix<f64>, out: &mut Outcome) {
    let keep = shape.keeps_output();
    let cfg = shape.config(ctx, keep);
    let half = ctx.seconds / 2.0;

    // Untraced half: the baseline the tracing overhead is measured against.
    let mut untraced_walls = Vec::new();
    let mut baseline: Vec<Product> = Vec::new();
    measure_for(half, 2, |_| {
        out.attempted += 1;
        let t = Instant::now();
        let res = untraced(&cfg, a);
        untraced_walls.push(t.elapsed().as_secs_f64());
        match res {
            Ok(mut p) => {
                p.c = None;
                baseline.push(p);
            }
            Err(e) => out.fail(e),
        }
    });

    // Traced half.
    let mut tracer = Tracer::new(Instant::now());
    let mut traced_ops: Vec<Product> = Vec::new();
    let mut check = ProductCheck::default();
    measure_for(half, 2, |i| {
        out.attempted += 1;
        let op = i as u64 + 1;
        match traced(shape, &cfg, a, &mut tracer, op) {
            Ok(mut p) => {
                if keep {
                    check.keep(out, p.c.take());
                }
                traced_ops.push(p);
            }
            Err(e) => out.fail(e),
        }
    });
    // The gather is measured on a traced multiply that keeps its product
    // (the measured operation of spgemm-batched discards every batch).
    if !keep {
        out.attempted += 1;
        match traced(shape, &shape.config(ctx, true), a, &mut tracer, 0) {
            Ok(mut p) => check.keep(out, p.c.take()),
            Err(e) => out.fail(e),
        }
    }
    check.finish(out, a);

    let (Some(base), Some(first)) = (baseline.first(), traced_ops.first()) else {
        out.fail("no multiply completed in the traced run".into());
        return;
    };
    for p in &traced_ops {
        if shape.modeled_view(&p.max) != shape.modeled_view(&base.max) {
            out.fail("traced modeled step table differs from the untraced one".into());
            break;
        }
    }

    let spans = std::mem::take(&mut tracer.spans);
    let selfs = self_times(&spans);
    // Op 0 is the extra keep-output multiply; the rest are timed ones.
    let timed: Vec<Span> = spans.iter().filter(|s| s.op != 0).cloned().collect();
    let traced_walls = per_op_max(&timed, "core.harness", |s| s.end - s.start);
    let m = &mut out.metrics;
    m.measured(
        "trace.overhead_s",
        "s",
        median(&traced_walls) - median(&untraced_walls),
    );
    m.measured(
        "core.harness.self_s",
        "s",
        median(&per_op_max(&timed, "core.harness", |s| selfs[&s.id])),
    );
    m.measured(
        "simgrid.run_ranks.self_s",
        "s",
        median(&per_op_max(&timed, "simgrid.run_ranks", |s| selfs[&s.id])),
    );
    m.measured(
        "core.dist.scatter_s",
        "s",
        median(&per_op_max(&timed, "core.dist.scatter", |s| {
            s.end - s.start
        })),
    );
    let gathers = per_op_max(&spans, "core.dist.gather", |s| s.end - s.start);
    if !gathers.is_empty() {
        m.measured("core.dist.gather_s", "s", median(&gathers));
    }

    match shape {
        Shape::Local => local_layers(ctx, a, m, base, &baseline, &traced_ops, &timed),
        Shape::Batched => batched_layers(m, first, &timed),
    }
    out.spans = spans;
    out.latency_samples = traced_walls.len();
}

/// Native-measured kernel seconds and counts of spgemm-local, plus the
/// thread-level kernel rates measured directly on the input.
fn local_layers(
    ctx: &Ctx,
    a: &CscMatrix<f64>,
    m: &mut Metrics,
    base: &Product,
    baseline: &[Product],
    traced_ops: &[Product],
    timed: &[Span],
) {
    let step_median = |step: Step| {
        median(
            &baseline
                .iter()
                .map(|p| p.max.secs_of(step))
                .collect::<Vec<_>>(),
        )
    };
    m.measured(
        "sparse.local_multiply_s",
        "s",
        step_median(Step::LocalMultiply),
    );
    m.measured("sparse.merge_layer_s", "s", step_median(Step::MergeLayer));
    m.measured("sparse.merge_fiber_s", "s", step_median(Step::MergeFiber));
    m.measured("sparse.symbolic_s", "s", step_median(Step::SymbolicComp));
    m.count(
        "sparse.thread_imbalance",
        "ratio",
        base.load_balance.imbalance(),
    );
    m.count("sparse.allocs", "count", base.kernel_stats.allocs as f64);
    m.count(
        "sparse.memcpy_bytes",
        "B",
        base.kernel_stats.memcpy_bytes as f64,
    );
    m.count(
        "sparse.peak_scratch_bytes",
        "B",
        base.kernel_stats.peak_scratch_bytes as f64,
    );

    // What run_spgemm spends outside the measured kernel steps: clones,
    // scatter and gather of C.
    let harness = per_op_max(timed, "core.harness", |s| s.end - s.start);
    let outside: Vec<f64> = traced_ops
        .iter()
        .zip(&harness)
        .map(|(p, wall)| {
            wall - Shape::MEASURED_STEPS
                .iter()
                .map(|&s| p.max.secs_of(s))
                .sum::<f64>()
        })
        .collect();
    m.measured("core.outside_kernels_s", "s", median(&outside));

    let mut ws: Vec<SpGemmWorkspace<f64>> =
        (0..ctx.nproc).map(|_| SpGemmWorkspace::new()).collect();
    let mut flops = 1;
    let par: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let r = par_spgemm_hash_unsorted::<PlusTimesF64>(a, a, &mut ws);
            let secs = t.elapsed().as_secs_f64();
            flops = std::hint::black_box(r.expect("kernel operands agree"))
                .1
                .flops
                .max(1);
            secs
        })
        .collect();
    let serial: Vec<f64> = (0..2)
        .map(|_| {
            let t = Instant::now();
            let r = spgemm_hash_unsorted::<PlusTimesF64>(a, a);
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(r.expect("kernel operands agree"));
            secs
        })
        .collect();
    let (par_s, serial_s) = (median(&par), median(&serial));
    m.count("sparse.flops", "count", flops as f64);
    m.measured(
        "sparse.multiply_ns_per_flop",
        "ns",
        par_s * 1e9 / flops as f64,
    );
    m.measured(
        "sparse.multiply_1t_ns_per_flop",
        "ns",
        serial_s * 1e9 / flops as f64,
    );
    m.measured("sparse.par_speedup", "ratio", serial_s / par_s);
}

/// Modeled step tables, batching, memory and per-batch spans of
/// spgemm-batched.
fn batched_layers(m: &mut Metrics, first: &Product, timed: &[Span]) {
    modeled_step_metrics(m, &first.max);
    m.modeled("modeled_s", "s", first.max.total());
    let comm_bytes: u64 = first.per_rank.iter().map(StepBreakdown::bytes_total).sum();
    m.modeled("comm_bytes", "B", comm_bytes as f64);
    m.count("core.symbolic.batches", "count", first.nbatches as f64);
    m.modeled("core.memory.peak_bytes_max", "B", first.peak_bytes as f64);

    // Batch 0's span also holds the symbolic step; it is reported apart.
    let mut by_rank_op: std::collections::HashMap<(u64, Option<usize>), Vec<&Span>> =
        std::collections::HashMap::new();
    for s in timed.iter().filter(|s| s.name == "core.batched.batch") {
        by_rank_op.entry((s.op, s.rank)).or_default().push(s);
    }
    let mut first_ms = Vec::new();
    let mut rest_ms = Vec::new();
    for batches in by_rank_op.values_mut() {
        batches.sort_by(|x, y| x.start.total_cmp(&y.start));
        for (i, s) in batches.iter().enumerate() {
            let ms = (s.end - s.start) * 1e3;
            if i == 0 {
                first_ms.push(ms);
            } else {
                rest_ms.push(ms);
            }
        }
    }
    if !rest_ms.is_empty() {
        m.measured("core.batched.batch_ms_p50", "ms", median(&rest_ms));
        m.measured("core.batched.batch_ms_max", "ms", percentile(&rest_ms, 1.0));
    }
    if !first_ms.is_empty() {
        m.measured("core.batched.first_batch_ms", "ms", median(&first_ms));
    }
}
