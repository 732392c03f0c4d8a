//! Shared plumbing: the result record, order statistics, process memory
//! and the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every end-to-end metric, in output order, with its unit. Each workload
/// reports all of them, measured on its own operation (the table in
/// `perfbench/README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_latency_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in output order, with its unit. A layer that a
/// workload does not run reports 0 work (see the README's layer map).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sampler.iter_us", "us"),
    ("generator.fake_ns_per_pair", "ns"),
    ("generator.step_ms", "ms"),
    ("rng.gaussian_draws_per_pair", "count"),
    ("rng.gaussian_ns", "ns"),
    ("grad.pair_ns", "ns"),
    ("session.accumulate_ns_per_pair", "ns"),
    ("session.rows_per_batch", "count"),
    ("session.apply_ns_per_row", "ns"),
    ("accountant.record_us", "us"),
    ("partitioned.slot_loads", "count"),
    ("partitioned.evictions", "count"),
    ("partitioned.high_water", "count"),
    ("partitioned.spill_bytes", "bytes"),
    ("partitioned.overhead_frac", "frac"),
    ("store.release_ms", "ms"),
    ("store.load_ms", "ms"),
    ("index.attach_ms", "ms"),
    ("index.rows_scanned_frac", "frac"),
    ("service.approx_us", "us"),
    ("service.exact_us", "us"),
    ("service.score_us", "us"),
    ("protocol.codec_ns", "ns"),
    ("cache.hit_ratio", "frac"),
    ("dispatch.mean_batch", "count"),
    ("serve.wire_overhead_ms.approx", "ms"),
    ("serve.wire_overhead_ms.exact", "ms"),
    ("serve.wire_overhead_ms.score", "ms"),
    ("attack.release_ms", "ms"),
    ("audit.pool_busy_frac", "frac"),
    ("attack.self_ms", "ms"),
    ("trace.coverage", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Benchmark-level error: a message naming what went wrong.
pub type BenchResult<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error.
pub fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// Run parameters shared by every workload.
#[derive(Debug)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub workdir: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, by description; empty means correct.
    pub check_failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Nearest-rank percentile `q` in `[0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The highest latency the sample supports with at least ten samples
/// beyond it: p99 from 1000 samples on, a lower percentile down to 20
/// samples, and the maximum below that.
pub fn tail(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 20 {
        return percentile(xs, 1.0);
    }
    percentile(xs, (1.0 - 10.0 / n as f64).min(0.99))
}

/// Runs `f` `reps` times and returns the median wall time in seconds with
/// the last result.
pub fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> BenchResult<T>) -> BenchResult<(f64, T)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let out = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((median(&times), last.expect("at least one repetition")))
}

/// Set-up timings gathered over a whole run: a few before the measured
/// phase and more between its operations. The host's speed changes from
/// second to second, so set-ups taken only at the start would time one
/// moment of it. Their mean over the run is `setup_s`: the host runs at
/// two speeds about 1.5x apart, and a median jumps to whichever held for
/// more than half the set-ups, where the mean follows the share of each.
#[derive(Debug, Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Runs one set-up and records its wall time over `per` set-ups that
    /// it holds (for set-ups too short to time one by one).
    pub fn time<T>(&mut self, per: usize, f: impl FnOnce() -> BenchResult<T>) -> BenchResult<T> {
        let t = Instant::now();
        let out = f()?;
        self.0.push(t.elapsed().as_secs_f64() / per.max(1) as f64);
        Ok(out)
    }

    pub fn mean(&self) -> f64 {
        mean(&self.0)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds.max(0.0))
}

/// A fresh subdirectory of the run's scratch directory.
pub fn scratch(workdir: &Path, name: &str) -> BenchResult<PathBuf> {
    let dir = workdir.join(name);
    std::fs::create_dir_all(&dir).map_err(err("create scratch dir"))?;
    Ok(dir)
}

/// Nanoseconds in a duration, as `f64`.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}
