//! `mcl-session`: HipMCL on an Isolates-like network (128 clusters of 80)
//! at p=16, l=4 with `ExchangeMode::SparseFetch`, select 24 and chaos
//! threshold 0, so every run is exactly 20 iterations.
//!
//! It drives the same multiply layers differently from spgemm-batched:
//! the iterate stays resident, operands move by point-to-point fetch with
//! a cross-iteration cache instead of broadcasts, each batch runs the
//! prune callback, and the products shrink as pruning settles, so fixed
//! per-iteration costs dominate. The traced run holds one span around
//! each `markov_cluster` call; the library exposes no finer boundary.

use crate::check::{check_labels, serial_mcl_labels, MclRule};
use crate::common::{
    measure_for, modeled_step_metrics, repeat_setup, single_tenant_metrics, Ctx, Host, Outcome,
};
use crate::inputs::isolates_like;
use crate::report::{median, Metrics};
use crate::trace::Tracer;
use spgemm_apps::mcl::{markov_cluster, MclParams, MclResult};
use spgemm_core::ExchangeMode;
use spgemm_simgrid::{Step, StepBreakdown};
use spgemm_sparse::CscMatrix;
use std::time::Instant;

const ITERATIONS: usize = 20;

fn params() -> MclParams {
    let mut p = MclParams::new(16, 4);
    p.select = 24;
    p.max_iters = ITERATIONS;
    p.chaos_threshold = 0.0;
    p.exchange = ExchangeMode::SparseFetch;
    p
}

pub fn host() -> Host {
    let p = params();
    Host {
        ranks: p.p,
        threads_per_rank: p.backend.threads(),
        backend: p.backend.name(),
    }
}

fn rule() -> MclRule {
    let p = params();
    MclRule {
        inflation: p.inflation,
        prune_threshold: p.prune_threshold,
        select: p.select,
        iterations: ITERATIONS,
    }
}

/// Run once; a run that stops short of 20 iterations is a failure.
fn cluster(adj: &CscMatrix<f64>) -> Result<MclResult, String> {
    let r = markov_cluster(adj, &params()).map_err(|e| e.to_string())?;
    if r.iterations != ITERATIONS {
        return Err(format!(
            "MCL ran {} iterations, not {ITERATIONS}",
            r.iterations
        ));
    }
    Ok(r)
}

fn step_tables(r: &MclResult) -> Vec<StepBreakdown> {
    r.per_iter.iter().map(|s| s.breakdown).collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (adj, setup_s) = repeat_setup(|| isolates_like(128, 80, ctx.seed, 30));
    let mut out = Outcome::default();
    let mut labels: Vec<Vec<usize>> = Vec::new();
    let mut walls = Vec::new();
    let mut results: Vec<MclResult> = Vec::new();
    let mut tracer = Tracer::new(Instant::now());

    if ctx.trace {
        // Untraced half, then a traced half with one span per run.
        let mut untraced_walls = Vec::new();
        measure_for(ctx.seconds / 2.0, 2, |_| {
            out.attempted += 1;
            let t = Instant::now();
            let r = cluster(&adj);
            untraced_walls.push(t.elapsed().as_secs_f64());
            match r {
                Ok(r) => {
                    labels.push(r.labels.clone());
                    results.push(r);
                }
                Err(e) => out.fail(e),
            }
        });
        let baseline = results.first().map(step_tables);
        measure_for(ctx.seconds / 2.0, 2, |i| {
            out.attempted += 1;
            let span = tracer.open("apps.mcl", i as u64 + 1, None, None);
            let r = cluster(&adj);
            tracer.close(span);
            match r {
                Ok(r) => {
                    if baseline.as_ref() != Some(&step_tables(&r)) {
                        out.fail("traced modeled step tables differ from the untraced ones".into());
                    }
                    labels.push(r.labels);
                }
                Err(e) => out.fail(e),
            }
        });
        walls = tracer.spans.iter().map(|s| s.end - s.start).collect();
        if let Some(first) = results.first() {
            mcl_layers(&mut out.metrics, first);
            out.metrics.measured(
                "trace.overhead_s",
                "s",
                median(&walls) - median(&untraced_walls),
            );
        }
        out.latency_samples = walls.len();
        out.spans = std::mem::take(&mut tracer.spans);
    } else {
        let elapsed = measure_for(ctx.seconds, 3, |_| {
            out.attempted += 1;
            let t = Instant::now();
            let r = cluster(&adj);
            walls.push(t.elapsed().as_secs_f64());
            match r {
                Ok(r) => labels.push(r.labels),
                Err(e) => out.fail(e),
            }
        });
        single_tenant_metrics(&mut out, setup_s, &walls, elapsed);
    }

    let want = serial_mcl_labels(&adj, &rule());
    for got in &labels {
        out.check(check_labels(got, &want));
    }
    out
}

/// Modeled tables summed over the 20 iterations, fetch-cache counters,
/// and the iteration profile.
fn mcl_layers(m: &mut Metrics, r: &MclResult) {
    let mut sum = StepBreakdown::default();
    for it in &r.per_iter {
        let b = &it.breakdown;
        for i in 0..sum.secs.len() {
            sum.secs[i] += b.secs[i];
            sum.bytes[i] += b.bytes[i];
            sum.msgs[i] += b.msgs[i];
        }
    }
    modeled_step_metrics(m, &sum);
    m.modeled("modeled_s", "s", sum.total());
    m.modeled(
        "comm_bytes",
        "B",
        r.per_iter.iter().map(|s| s.modeled_bytes).sum::<u64>() as f64,
    );
    let hits: u64 = r.per_iter.iter().map(|s| s.fetch_hits).sum();
    let misses: u64 = r.per_iter.iter().map(|s| s.fetch_misses).sum();
    m.count("core.exchange.fetch_hits", "count", hits as f64);
    m.count("core.exchange.fetch_misses", "count", misses as f64);
    m.count(
        "core.exchange.fetch_hit_base",
        "count",
        (hits + misses) as f64,
    );
    m.count(
        "core.exchange.fetch_hit_rate",
        "ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.count(
        "core.exchange.invalidated_cols",
        "count",
        r.per_iter.iter().map(|s| s.invalidated_cols).sum::<u64>() as f64,
    );
    let per_iter: Vec<f64> = r.per_iter.iter().map(|s| s.breakdown.total()).collect();
    m.count("apps.mcl.iterations", "count", r.iterations as f64);
    m.modeled("apps.mcl.first_iter_modeled_s", "s", per_iter[0]);
    m.modeled("apps.mcl.warm_iter_modeled_s", "s", median(&per_iter[1..]));
    m.modeled("apps.mcl.prune_modeled_s", "s", sum.secs_of(Step::Other));
    m.count(
        "apps.mcl.final_nnz",
        "count",
        r.per_iter.last().map_or(0, |s| s.nnz) as f64,
    );
}
