//! What every workload shares: the run context, its outcome, the host
//! record, the measuring loop, and the microbenchmarks of the simgrid
//! runtime.

use crate::report::{median, Metrics};
use crate::trace::Span;
use spgemm_simgrid::clock::ALL_STEPS;
use spgemm_simgrid::{run_ranks_checked, CheckMode, Machine, Step, StepBreakdown};
use std::time::Instant;

/// Command-line settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// `true`: the traced run reporting per-layer metrics.
    pub trace: bool,
    /// The host's available parallelism.
    pub nproc: usize,
}

/// How the workload maps onto the host.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub ranks: usize,
    pub threads_per_rank: usize,
    pub backend: &'static str,
}

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First check failure or operation error, if any.
    pub error: Option<String>,
    pub metrics: Metrics,
    /// Spans of the traced run (empty in untraced runs).
    pub spans: Vec<Span>,
    /// Operations behind the latency percentiles.
    pub latency_samples: usize,
}

impl Outcome {
    /// Record a failed operation or check, keeping the first message.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.error.get_or_insert(msg);
    }

    /// Record a check that is not an operation of its own.
    pub fn check(&mut self, res: Result<(), String>) {
        if let Err(e) = res {
            self.fail(e);
        }
    }
}

/// Number of times the set-up is repeated; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Run `setup` [`SETUP_REPS`] times; return the last result and the
/// median seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), median(&secs))
}

/// Call `op` until `seconds` have passed and at least `min_ops` ran.
/// Returns the elapsed seconds.
pub fn measure_for(seconds: f64, min_ops: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed().as_secs_f64() < seconds {
        op(i);
        i += 1;
    }
    start.elapsed().as_secs_f64()
}

/// The end-to-end metrics every single-tenant workload reports from its
/// per-operation wall times. One operation's latency is its wall time, so
/// its p50 latency is `wall_s` again.
pub fn single_tenant_metrics(out: &mut Outcome, setup_s: f64, walls: &[f64], elapsed: f64) {
    out.latency_samples = walls.len();
    let m = &mut out.metrics;
    m.measured("setup_s", "s", setup_s);
    m.measured("wall_s", "s", median(walls));
    m.measured("jobs_per_s", "1/s", walls.len() as f64 / elapsed);
    m.measured("job_latency_p50_s", "s", median(walls));
    m.measured("rss_peak_mb", "MiB", crate::report::rss_peak_mb());
}

/// `simgrid.modeled.<step>_s` for every step, and `simgrid.bytes.<step>`
/// and `simgrid.msgs.<step>` for the communication steps, from a
/// critical-path (max over ranks) breakdown.
///
/// Steps the workload's algorithm never enters (no time and no message,
/// e.g. the 1.5D shift under SUMMA) are left out of the record; the
/// result line reports those named in the manifest as 0.
pub fn modeled_step_metrics(m: &mut Metrics, bd: &StepBreakdown) {
    let used = |s: &Step| bd.secs_of(*s) > 0.0 || bd.msgs[*s as usize] > 0;
    for step in ALL_STEPS.into_iter().filter(used) {
        m.modeled(
            format!("simgrid.modeled.{}_s", step.label()),
            "s",
            bd.secs_of(step),
        );
    }
    for step in ALL_STEPS
        .into_iter()
        .filter(|s| s.is_communication() && used(s))
    {
        m.modeled(
            format!("simgrid.bytes.{}", step.label()),
            "B",
            bd.bytes_of(step) as f64,
        );
        m.modeled(
            format!("simgrid.msgs.{}", step.label()),
            "count",
            bd.msgs[step as usize] as f64,
        );
    }
}

/// The rank runtime's own fixed costs, which every workload pays: a world
/// barrier on p=16 (`simgrid.rendezvous_us`) and spawning an empty world
/// at p=4 and p=16 (`simgrid.world_spawn_ms_p4`, `_p16`). Measured in
/// every traced run, after the workload.
pub fn runtime_layers(m: &mut Metrics) {
    m.measured(
        "simgrid.rendezvous_us",
        "us",
        rendezvous_secs(16, 200) * 1e6,
    );
    m.measured(
        "simgrid.world_spawn_ms_p4",
        "ms",
        world_spawn_secs(4, 30) * 1e3,
    );
    m.measured(
        "simgrid.world_spawn_ms_p16",
        "ms",
        world_spawn_secs(16, 30) * 1e3,
    );
}

/// Seconds per call of a world barrier on a `p`-rank world, over a fixed
/// loop (the runtime's own rendezvous cost, not the modeled one).
fn rendezvous_secs(p: usize, rounds: usize) -> f64 {
    let per_rank = run_ranks_checked(p, Machine::knl(), CheckMode::Off, |rank| {
        let world = rank.world_comm();
        rank.barrier(&world, Step::Other);
        let t = Instant::now();
        for _ in 0..rounds {
            rank.barrier(&world, Step::Other);
        }
        t.elapsed().as_secs_f64()
    });
    median(&per_rank) / rounds as f64
}

/// Median seconds to spawn and join a `p`-rank world with an empty body.
fn world_spawn_secs(p: usize, reps: usize) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            run_ranks_checked(p, Machine::knl(), CheckMode::Off, |_rank| ());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}
