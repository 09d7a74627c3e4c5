//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so this crate provides
//! the benchmark-harness API surface the workspace's `criterion_*` benches
//! use: [`criterion_group!`] / [`criterion_main!`], benchmark groups with
//! `sample_size`, `bench_function` / `bench_with_input` with
//! [`BenchmarkId`], and `Bencher::iter` / `Bencher::iter_batched`.
//!
//! Measurement is deliberately simple: each benchmark is warmed up, an
//! iteration count is calibrated to a ~200 ms budget, and the mean, min
//! and max per-iteration times over `sample_size` samples are printed.
//! No statistical regression analysis, plotting, or disk state — the
//! numbers are for relative comparison within one run.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Opaque value sink preventing the optimizer from deleting benchmarked
/// work (re-export of `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for one benchmark within a group: a function name plus a
/// displayed parameter, printed as `function/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("kernel", size)` → `kernel/size`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id with no parameter part.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Top-level harness context.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Begin a named group of related benchmarks.
    pub fn benchmark_group(&mut self, group_name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = group_name.into();
        println!("\n== benchmark group: {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name,
            sample_size: 10,
        }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (upstream default is 100;
    /// the workspace's benches set 10 for the heavy kernels).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Benchmark a routine that takes no external input.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        bencher.report(&self.name, &id.id);
        self
    }

    /// Benchmark a routine parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher, input);
        bencher.report(&self.name, &id.id);
        self
    }

    /// End the group (kept for API compatibility; prints a terminator).
    pub fn finish(self) {
        println!("== end group: {} ==", self.name);
    }
}

/// Target wall-clock budget for one benchmark's measurement phase.
const MEASURE_BUDGET: Duration = Duration::from_millis(200);

/// How many inputs [`Bencher::iter_batched`] may build ahead; accepted for
/// API compatibility (this stand-in builds one input per call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Cheap inputs.
    SmallInput,
    /// Inputs expensive to hold many of at once.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Timing context handed to benchmark closures.
pub struct Bencher {
    sample_size: usize,
    /// (mean per-iteration nanoseconds, iterations) per sample.
    samples: Vec<(f64, u64)>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples: Vec::new(),
        }
    }

    /// Time `routine`, calibrating iteration count to the budget.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warmup + calibration: one untimed call, then estimate cost.
        let t0 = Instant::now();
        black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_sample = MEASURE_BUDGET.as_nanos() / self.sample_size.max(1) as u128;
        let iters = (per_sample / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let dt = start.elapsed();
            self.samples
                .push((dt.as_nanos() as f64 / iters as f64, iters));
        }
    }

    /// Time `routine` on inputs built by an untimed `setup`, one input per
    /// call (for routines that consume their input).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let t0 = Instant::now();
        black_box(routine(input));
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_sample = MEASURE_BUDGET.as_nanos() / self.sample_size.max(1) as u128;
        let iters = (per_sample / once.as_nanos().max(1)).clamp(1, 1_000_000) as u64;

        self.samples.clear();
        for _ in 0..self.sample_size {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                elapsed += start.elapsed();
            }
            self.samples
                .push((elapsed.as_nanos() as f64 / iters as f64, iters));
        }
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples.is_empty() {
            println!("{group}/{id}: no measurement (Bencher::iter never called)");
            return;
        }
        let mean =
            self.samples.iter().map(|&(ns, _)| ns).sum::<f64>() / self.samples.len() as f64;
        let min = self.samples.iter().map(|&(ns, _)| ns).fold(f64::INFINITY, f64::min);
        let max = self
            .samples
            .iter()
            .map(|&(ns, _)| ns)
            .fold(f64::NEG_INFINITY, f64::max);
        let iters = self.samples[0].1;
        println!(
            "{group}/{id}: time [{} .. {} .. {}] ({} samples x {} iters)",
            fmt_ns(min),
            fmt_ns(mean),
            fmt_ns(max),
            self.samples.len(),
            iters
        );
    }
}

/// Human-readable nanoseconds.
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_formats_as_function_slash_parameter() {
        assert_eq!(BenchmarkId::new("kernel", 64).id, "kernel/64");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
    }

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group.sample_size(3);
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::new("count", 1), &5u64, |b, &x| {
            b.iter(|| {
                calls += 1;
                x * 2
            })
        });
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.finish();
        assert!(calls > 0);
    }

    #[test]
    fn fmt_ns_scales() {
        assert!(fmt_ns(10.0).ends_with("ns"));
        assert!(fmt_ns(10_000.0).ends_with("us"));
        assert!(fmt_ns(10_000_000.0).ends_with("ms"));
        assert!(fmt_ns(10_000_000_000.0).ends_with("s"));
    }
}
