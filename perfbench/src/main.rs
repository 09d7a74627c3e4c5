//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--record <file.jsonl>] [--trace-dir <dir>]
//! ```
//!
//! Runs one workload for about `--seconds`, checks its outputs, and
//! prints as its last line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of the traced run with `--trace 1`, each list exactly as
//! BENCHMARK.json names it (see `manifest`). The line before it is the
//! run's full record (host, counts, and the metrics grouped as measured,
//! modeled or counts), which `--record` also appends to a file for
//! `compare.py`. `--trace-dir` receives the traced run's spans as a
//! Chrome trace. See README.md for the workloads and metrics.

mod check;
mod common;
mod inputs;
mod manifest;
mod mcl;
mod report;
mod serve;
mod spgemm;
mod trace;

use common::{Ctx, Host, Outcome};
use report::{grouped_metrics, metrics_object, num, string};
use spgemm::Shape;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 4] = [
    "spgemm-local",
    "spgemm-batched",
    "mcl-session",
    "serve-closed",
];

struct Args {
    workload: String,
    ctx: Ctx,
    record: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut record, mut trace_dir) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--record" => record = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        },
        record,
        trace_dir,
    })
}

fn run(workload: &str, ctx: &Ctx) -> (Host, Outcome) {
    match workload {
        "spgemm-local" => (Shape::Local.host(ctx), spgemm::run(Shape::Local, ctx)),
        "spgemm-batched" => (Shape::Batched.host(ctx), spgemm::run(Shape::Batched, ctx)),
        "mcl-session" => (mcl::host(), mcl::run(ctx)),
        "serve-closed" => (serve::host(), serve::run(ctx)),
        _ => unreachable!("workload names are validated by parse"),
    }
}

fn record_json(args: &Args, host: &Host, out: &Outcome, correct: bool, steal_share: f64) -> String {
    let ctx = &args.ctx;
    let oversubscribed = host.ranks * host.threads_per_rank > ctx.nproc;
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"host\": {{\"nproc\": {}, \"ranks\": {}, \"threads_per_rank\": {}, \"backend\": {}, \
         \"oversubscribed\": {}, \"steal_share\": {}}}, \"attempted\": {}, \"failed\": {}, \"fail_share\": {}, \
         \"correct\": {}, \"error\": {}, \"latency_samples\": {}, {}}}",
        string(&args.workload),
        ctx.seed,
        u8::from(ctx.trace),
        num(ctx.seconds),
        ctx.nproc,
        host.ranks,
        host.threads_per_rank,
        string(host.backend),
        oversubscribed,
        num(steal_share),
        out.attempted,
        out.failed,
        num(out.failed as f64 / out.attempted.max(1) as f64),
        correct,
        out.error.as_deref().map_or_else(|| "null".to_string(), string),
        out.latency_samples,
        grouped_metrics(&out.metrics.0),
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks = report::cpu_ticks();
    let (host, mut out) = run(&args.workload, &args.ctx);
    if args.ctx.trace && !out.metrics.0.is_empty() {
        common::runtime_layers(&mut out.metrics);
    }
    let (steal, total) = report::cpu_ticks();
    let steal_share = (steal - ticks.0) as f64 / (total - ticks.1).max(1) as f64;
    if out.attempted == 0 || out.metrics.0.is_empty() {
        eprintln!("perfbench: {} produced no measurement", args.workload);
        return ExitCode::FAILURE;
    }
    let correct = out.failed == 0 && out.error.is_none();
    if let Some(e) = &out.error {
        eprintln!("perfbench: {}: {e}", args.workload);
    }

    for m in &out.metrics.0 {
        println!("{:<40} {:>18} {}", m.name, num(m.value), m.unit);
    }
    let record = record_json(&args, &host, &out, correct, steal_share);
    println!("record {record}");
    if let Some(path) = &args.record {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let (Some(dir), false) = (&args.trace_dir, out.spans.is_empty()) {
        let path = dir.join(format!(
            "{}-seed{}.trace.json",
            args.workload, args.ctx.seed
        ));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&out.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let table: &[(&str, &str)] = if args.ctx.trace {
        &manifest::PER_LAYER
    } else {
        &manifest::END_TO_END
    };
    let line = match manifest::result_metrics(table, &out.metrics.0) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_object(&line)
    );
    ExitCode::SUCCESS
}
