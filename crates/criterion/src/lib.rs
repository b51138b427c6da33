//! A minimal, offline, API-compatible subset of the `criterion` crate.
//!
//! The build container has no crates.io access, so the real `criterion`
//! cannot be fetched. This shim keeps the workspace's `[[bench]]` targets
//! compiling and runnable: it implements `Criterion::benchmark_group`,
//! `sample_size`, `bench_function`, `Bencher::iter` and the
//! `criterion_group!`/`criterion_main!` macros with simple wall-clock
//! timing (median of the sampled batches). There is no statistical
//! analysis, HTML report, or baseline comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Entry point handed to benchmark functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _parent: self,
            sample_size: 10,
        }
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to collect per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Times `f` and prints a per-iteration estimate.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                elapsed: Duration::ZERO,
                iters: 0,
            };
            f(&mut b);
            if b.iters > 0 {
                samples.push(b.elapsed.as_nanos() as f64 / b.iters as f64);
            }
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN);
        println!(
            "  {id:<40} {median:>12.1} ns/iter ({} samples)",
            samples.len()
        );
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Runs and times the benchmarked closure.
#[derive(Debug)]
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Calls `f` repeatedly, timing the batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One warm-up call, then a small fixed batch: benchmarks here are
        // heavyweight simulations, so auto-tuning the batch is not worth
        // the added runtime.
        std::hint::black_box(f());
        let batch: u64 = 8;
        let start = Instant::now();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        self.elapsed += start.elapsed();
        self.iters += batch;
    }
}

/// Re-export matching `criterion::black_box`.
pub use std::hint::black_box;

/// Declares a benchmark group runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
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

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("g");
        g.sample_size(3);
        g.bench_function("add", |b| b.iter(|| black_box(1u64 + 1)));
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_runs() {
        benches();
    }
}
