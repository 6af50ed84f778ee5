//! Minimal timing harness for the `vcycle` bench target.
//!
//! The workspace builds offline, so the bench runs on this small
//! criterion-style driver instead of an external harness: warm-up, then
//! timed batches until a time budget is spent, reporting the median
//! per-iteration time plus optional throughput. No statistics beyond the
//! median/min/max spread — the bench exists to show the *relative*
//! ordering of kernel variants, which survives noise that would bother a
//! regression tracker.

use std::time::{Duration, Instant};

/// Warm-up window of every case.
const WARMUP: Duration = Duration::from_millis(300);
/// Measurement budget of every case.
const BUDGET: Duration = Duration::from_secs(2);
/// Samples taken however short the budget runs.
const MIN_SAMPLES: usize = 10;

/// A named group of benchmark cases sharing their throughput
/// denominations.
pub struct Group {
    name: String,
    /// Bytes per iteration, reported as GB/s.
    bytes: Option<u64>,
    /// Elements per iteration, reported as Melem/s (1000 Melem/s is one
    /// element per nanosecond).
    elements: Option<u64>,
}

impl Group {
    /// New group (300 ms warm-up, 2 s measure per case).
    pub fn new(name: impl Into<String>) -> Self {
        Group { name: name.into(), bytes: None, elements: None }
    }

    /// Report GB/s computed from this many bytes per iteration.
    pub fn throughput_bytes(mut self, bytes: u64) -> Self {
        self.bytes = Some(bytes);
        self
    }

    /// Report Melem/s computed from this many elements per iteration.
    pub fn throughput_elements(mut self, elems: u64) -> Self {
        self.elements = Some(elems);
        self
    }

    /// Runs one case: warm-up, then timed samples until the budget is
    /// spent (at least `MIN_SAMPLES`), printing one summary line.
    pub fn bench<F: FnMut()>(&self, label: impl AsRef<str>, mut f: F) {
        // Warm-up: run until the warm-up window has elapsed at least once.
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < WARMUP {
            f();
            warm_iters += 1;
        }
        // Pick a batch size targeting ~10 ms per sample so Instant
        // overhead stays negligible for nanosecond-scale bodies.
        let per_iter = WARMUP.as_secs_f64() / warm_iters.max(1) as f64;
        let batch = ((0.01 / per_iter.max(1e-9)) as u64).clamp(1, 1 << 24);

        let mut samples: Vec<f64> = Vec::new();
        let measure_start = Instant::now();
        while measure_start.elapsed() < BUDGET || samples.len() < MIN_SAMPLES {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            samples.push(t0.elapsed().as_secs_f64() / batch as f64);
            if samples.len() >= 10_000 {
                break;
            }
        }
        self.report(label.as_ref(), samples);
    }

    /// Runs one case whose every timed call follows an untimed `between`
    /// — a kernel priced where it runs, after other work has taken its
    /// data out of the caches, not back to back with itself. One call per
    /// sample, so for bodies of a millisecond or so.
    pub fn bench_between<B: FnMut(), F: FnMut()>(
        &self,
        label: impl AsRef<str>,
        mut between: B,
        mut f: F,
    ) {
        let start = Instant::now();
        while start.elapsed() < WARMUP {
            between();
            f();
        }
        let mut samples: Vec<f64> = Vec::new();
        let start = Instant::now();
        while start.elapsed() < BUDGET || samples.len() < MIN_SAMPLES {
            between();
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_secs_f64());
        }
        self.report(label.as_ref(), samples);
    }

    /// Prints the summary line of one case.
    fn report(&self, label: &str, mut samples: Vec<f64>) {
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let max = samples[samples.len() - 1];
        let gbs = self.bytes.map(|n| format!("  {:>8.2} GB/s", n as f64 / median / 1e9));
        let elems = self.elements.map(|n| format!("  {:>8.1} Melem/s", n as f64 / median / 1e6));
        let rate = gbs.unwrap_or_default() + &elems.unwrap_or_default();
        println!(
            "{:<28} {:<20} {:>12}/iter  [{} .. {}]{}",
            self.name,
            label,
            fmt_time(median),
            fmt_time(min),
            fmt_time(max),
            rate
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.1} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} us", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{:.3} s", secs)
    }
}
