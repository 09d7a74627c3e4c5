//! `serve-closed`: a resident `JobServer` under a closed loop of 2
//! tenants, each waiting for its reply, with `max_concurrency` 2.
//!
//! The job pool has 8 plan keys: a Friendster-like scale-7 graph and an
//! Isolates-like 4×20 network, each at p ∈ {4, 16}, once with an
//! unlimited budget and once with a tight high-priority budget, on the
//! `knl_mini` machine. Jobs are tiny, so per-job fixed costs dominate —
//! admission, plan-cache lookup, rank-world spawn, scatter and gather —
//! which the other workloads amortise.
//!
//! Set-up starts the server, registers the operands and warms the plan
//! cache with a `run_loadgen` campaign. The measured loop submits through
//! `JobServer::submit_with` itself, because the output check needs every
//! job's report, which `run_loadgen` reduces to aggregates. One measured
//! operation is a campaign of [`CAMPAIGN_JOBS`] jobs; each end-to-end
//! metric is the median over the run's campaigns of that campaign's
//! value, so a stall on a shared host moves one campaign, not the run.

use crate::check::{check_serve, ServeOutcome};
use crate::common::{measure_for, repeat_setup, Ctx, Host, Outcome};
use crate::inputs::{derive, friendster_like, isolates_like};
use crate::report::{median, percentile, rss_peak_mb, Metrics};
use crate::trace::{self_times, Tracer};
use spgemm_core::planner::{self, PlannerConfig};
use spgemm_core::serve::{
    run_loadgen, ArrivalProcess, JobId, JobOutcome, JobReport, LoadgenConfig, Priority,
};
use spgemm_core::{BackendKind, JobServer, JobSpec, MemoryBudget, ServerConfig};
use spgemm_simgrid::{CheckMode, Machine};
use spgemm_sparse::spgemm::symbolic_nnz;
use spgemm_sparse::CscMatrix;
use std::collections::HashMap;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Tenants in the closed loop, and the server's worker count.
const TENANTS: usize = 2;
/// Global modeled-memory budget; the tight jobs ask for a third of it.
const GLOBAL_BUDGET: usize = 6_000_000;
/// Jobs in one measured campaign. A run measures at least two.
const CAMPAIGN_JOBS: usize = 1000;
/// Jobs in the set-up's cache-warming campaign.
const WARMUP_JOBS: usize = 64;

pub fn host() -> Host {
    Host {
        ranks: 16,
        threads_per_rank: 1,
        backend: BackendKind::Simgrid.name(),
    }
}

fn machine() -> Machine {
    Machine::knl_mini()
}

/// A started, warmed server with its job pool.
struct Pool {
    server: JobServer,
    specs: Vec<JobSpec>,
    /// Operands in registration order, kept for the checks and planner.
    operands: Vec<CscMatrix<f64>>,
    warmup_completed: usize,
}

fn start(seed: u64) -> Pool {
    let mut cfg = ServerConfig::new(GLOBAL_BUDGET);
    cfg.machine = machine();
    cfg.max_concurrency = TENANTS;
    cfg.cache_capacity = 64;
    cfg.backend = BackendKind::Simgrid;
    cfg.check = CheckMode::Off;
    let server = JobServer::start(cfg);
    let operands = vec![friendster_like(7, seed, 40), isolates_like(4, 20, seed, 50)];
    let mut specs = Vec::new();
    for m in &operands {
        let handle = server.register(m.clone());
        for p in [4usize, 16] {
            let mut spec = JobSpec::new(handle, handle, p, MemoryBudget::unlimited());
            specs.push(spec.clone());
            spec.budget = MemoryBudget::new(GLOBAL_BUDGET / 3);
            spec.priority = Priority::High;
            specs.push(spec);
        }
    }
    let warm = run_loadgen(
        &server,
        &specs,
        &LoadgenConfig {
            jobs: WARMUP_JOBS,
            arrival: ArrivalProcess::Closed {
                concurrency: TENANTS,
            },
            seed: derive(seed, 60),
        },
    );
    Pool {
        server,
        specs,
        operands,
        warmup_completed: warm.completed,
    }
}

/// One job as the client saw it.
struct Job {
    id: JobId,
    /// Index into the pool's specs; `None` for a report whose id was
    /// never submitted (the check counts it as a failure).
    spec: Option<usize>,
    /// Seconds since the campaign tracer's epoch.
    submitted: f64,
    received: f64,
    report: JobReport,
}

/// One measured campaign.
struct Campaign {
    wall: f64,
    jobs: Vec<Job>,
    /// Submitted jobs (id, spec) whose reply never came.
    lost: Vec<(JobId, usize)>,
}

/// How long the client waits for any reply before it declares the
/// outstanding jobs lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// A closed-loop campaign: `TENANTS` jobs outstanding, the next submitted
/// as each reply arrives. Specs are drawn from the pool by a seeded
/// stream, so a seed fixes the submission sequence.
fn campaign(pool: &Pool, pick_seed: u64, clock: &Tracer) -> Campaign {
    let (tx, rx) = channel::<JobReport>();
    let mut pending: HashMap<JobId, (usize, f64)> = HashMap::new();
    let mut jobs = Vec::with_capacity(CAMPAIGN_JOBS);
    let submit = |n: usize, pending: &mut HashMap<JobId, (usize, f64)>| {
        let spec = (derive(pick_seed, n as u64) % pool.specs.len() as u64) as usize;
        let at = clock.now();
        let id = pool
            .server
            .submit_with(pool.specs[spec].clone(), tx.clone());
        pending.insert(id, (spec, at));
    };
    let start = Instant::now();
    let mut submitted = TENANTS.min(CAMPAIGN_JOBS);
    for n in 0..submitted {
        submit(n, &mut pending);
    }
    while jobs.len() < CAMPAIGN_JOBS {
        let Ok(mut report) = rx.recv_timeout(REPLY_TIMEOUT) else {
            break;
        };
        let received = clock.now();
        // Only nnz(C) is checked; holding every product would make the
        // client, not the server, set the memory high-water mark.
        if let JobOutcome::Completed(done) = &mut report.outcome {
            done.c = None;
        }
        let (spec, submitted_at) = pending
            .remove(&report.id)
            .map_or((None, received), |(spec, at)| (Some(spec), at));
        jobs.push(Job {
            id: report.id,
            spec,
            submitted: submitted_at,
            received,
            report,
        });
        if submitted < CAMPAIGN_JOBS {
            submit(submitted, &mut pending);
            submitted += 1;
        }
    }
    Campaign {
        wall: start.elapsed().as_secs_f64(),
        jobs,
        lost: pending
            .into_iter()
            .map(|(id, (spec, _))| (id, spec))
            .collect(),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (pool, setup_s) = repeat_setup(|| start(ctx.seed));
    let mut out = Outcome::default();
    if pool.warmup_completed != WARMUP_JOBS {
        out.fail(format!(
            "warm-up completed {} of {WARMUP_JOBS} jobs",
            pool.warmup_completed
        ));
    }
    let mut tracer = Tracer::new(Instant::now());
    let mut campaigns = 0u64;
    let mut run_campaigns = |seconds: f64| {
        let mut done: Vec<Campaign> = Vec::new();
        measure_for(seconds, 2, |_| {
            campaigns += 1;
            done.push(campaign(&pool, derive(ctx.seed, 100 + campaigns), &tracer));
        });
        done
    };
    let latencies =
        |js: &[Job]| -> Vec<f64> { js.iter().map(|j| j.received - j.submitted).collect() };
    let mut lost: Vec<(JobId, usize)> = Vec::new();
    let mut flatten = |cs: Vec<Campaign>| -> Vec<Job> {
        cs.into_iter()
            .flat_map(|c| {
                lost.extend(c.lost);
                c.jobs
            })
            .collect()
    };
    let mut jobs: Vec<Job>;

    if ctx.trace {
        let untraced_jobs = flatten(run_campaigns(ctx.seconds / 2.0));
        jobs = flatten(run_campaigns(ctx.seconds / 2.0));
        record_spans(&mut tracer, &jobs);
        let untraced_lat = latencies(&untraced_jobs);
        let traced_lat = latencies(&jobs);
        serve_layers(&mut out.metrics, &pool, &tracer, &jobs);
        out.metrics.measured(
            "trace.overhead_s",
            "s",
            median(&traced_lat) - median(&untraced_lat),
        );
        // The client-seen tail. Not a bounded end-to-end metric: at a few
        // milliseconds per job it moves with the hypervisor's CPU steal
        // far more than with the program (see README.md).
        out.metrics.measured(
            "core.serve.latency_s_p99",
            "s",
            percentile(&traced_lat, 0.99),
        );
        out.latency_samples = traced_lat.len();
        jobs.extend(untraced_jobs);
        out.spans = std::mem::take(&mut tracer.spans);
    } else {
        let done = run_campaigns(ctx.seconds);
        let per_campaign = |f: &dyn Fn(f64, &[f64]) -> f64| -> f64 {
            median(
                &done
                    .iter()
                    .map(|c| f(c.wall, &latencies(&c.jobs)))
                    .collect::<Vec<_>>(),
            )
        };
        let m = &mut out.metrics;
        m.measured("setup_s", "s", setup_s);
        m.measured("wall_s", "s", per_campaign(&|wall, _| wall));
        m.measured(
            "jobs_per_s",
            "1/s",
            per_campaign(&|wall, lat| lat.len() as f64 / wall),
        );
        m.measured(
            "job_latency_p50_s",
            "s",
            per_campaign(&|_, lat| percentile(lat, 0.50)),
        );
        m.measured("rss_peak_mb", "MiB", rss_peak_mb());
        jobs = flatten(done);
        out.latency_samples = jobs.len();
    }

    // Every job must complete with nnz(C) equal to the symbolic count of
    // its operands, and none may be lost.
    out.attempted += (jobs.len() + lost.len()) as u64;
    let nnz: Vec<usize> = pool
        .operands
        .iter()
        .map(|m| symbolic_nnz(m, m).expect("square operands").0 as usize)
        .collect();
    let expected: HashMap<JobId, usize> = jobs
        .iter()
        .filter_map(|j| Some((j.id, j.spec?)))
        .chain(lost)
        .map(|(id, spec)| (id, nnz[pool.specs[spec].a.index()]))
        .collect();
    let seen: Vec<ServeOutcome> = jobs
        .iter()
        .map(|j| (j.id, j.report.completed().map(|c| c.nnz_c)))
        .collect();
    let (failed, res) = check_serve(&expected, &seen);
    out.failed += failed as u64;
    if let Err(e) = res {
        out.error.get_or_insert(e);
    }
    let stats = pool.server.shutdown();
    if stats.peak_reserved_bytes > stats.budget_bytes {
        out.fail("admitted peaks exceeded the global budget".into());
    }
    out
}

/// Per job: a `core.serve.job` span from submit to the client's receipt
/// of the report, with `core.serve.queue` and `core.serve.run` children
/// placed from the report's own phase durations.
fn record_spans(tracer: &mut Tracer, jobs: &[Job]) {
    for j in jobs {
        let job = tracer.open_at("core.serve.job", j.id, None, None, j.submitted);
        let q_end = j.submitted + j.report.queue_secs;
        let queue = tracer.open_at("core.serve.queue", j.id, Some(job.id), None, j.submitted);
        tracer.push(queue, q_end);
        let run = tracer.open_at("core.serve.run", j.id, Some(job.id), None, q_end);
        tracer.push(run, q_end + j.report.run_secs);
        tracer.push(job, j.received);
    }
}

fn serve_layers(m: &mut Metrics, pool: &Pool, tracer: &Tracer, jobs: &[Job]) {
    let done: Vec<&Job> = jobs
        .iter()
        .filter(|j| matches!(j.report.outcome, JobOutcome::Completed(_)))
        .collect();
    let queue: Vec<f64> = done.iter().map(|j| j.report.queue_secs).collect();
    let run: Vec<f64> = done.iter().map(|j| j.report.run_secs).collect();
    if !done.is_empty() {
        m.measured("core.serve.queue_s_p50", "s", percentile(&queue, 0.50));
        m.measured("core.serve.queue_s_p99", "s", percentile(&queue, 0.99));
        m.measured("core.serve.run_s_p50", "s", percentile(&run, 0.50));
        m.measured("core.serve.run_s_p99", "s", percentile(&run, 0.99));
    }
    let selfs = self_times(&tracer.spans);
    let job_self: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "core.serve.job")
        .map(|s| selfs[&s.id])
        .collect();
    if !job_self.is_empty() {
        m.measured("core.serve.job.self_s", "s", median(&job_self));
    }

    // Server counters cover its whole life, the warm-up included.
    let s = pool.server.stats();
    let c = s.cache;
    m.count("core.serve.plan_hit_rate", "ratio", c.plan_hit_rate());
    m.count(
        "core.serve.plan_hit_base",
        "count",
        (c.plan_hits + c.plan_misses) as f64,
    );
    let probes = c.probe_hits + c.probe_misses;
    m.count(
        "core.serve.probe_hit_rate",
        "ratio",
        c.probe_hits as f64 / probes.max(1) as f64,
    );
    m.count("core.serve.probe_hit_base", "count", probes as f64);
    m.count(
        "core.serve.shrunk_admissions",
        "count",
        s.shrunk_admissions as f64,
    );
    m.count(
        "core.serve.peak_queue_depth",
        "count",
        s.peak_queue_depth as f64,
    );
    m.count(
        "core.serve.peak_reserved_frac",
        "ratio",
        s.peak_reserved_bytes as f64 / s.budget_bytes as f64,
    );

    // The plan-cache miss path: a full plan per distinct spec.
    let plan_ms: Vec<f64> = pool
        .specs
        .iter()
        .map(|spec| {
            let a = &pool.operands[spec.a.index()];
            let pcfg = PlannerConfig::new(machine(), spec.budget);
            let t = Instant::now();
            let report = planner::plan(spec.p, a, a, &pcfg);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(report.expect("pool specs plan"));
            ms
        })
        .collect();
    m.measured("core.planner.plan_ms", "ms", median(&plan_ms));
}
