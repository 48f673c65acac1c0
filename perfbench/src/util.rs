//! Small shared pieces: the seeded input generator, order statistics,
//! process memory, and the result record every workload fills in.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, kept apart from the
/// program's RNG so the inputs do not depend on the code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn derive(seed: u64, tag: &str) -> Rng {
        let mut h = seed;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng::new(h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Pearson correlation of two equal-length series (0 when degenerate).
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len());
    if n < 2 {
        return 0.0;
    }
    let mx = x[..n].iter().sum::<f64>() / n as f64;
    let my = y[..n].iter().sum::<f64>() / n as f64;
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        let (dx, dy) = (x[i] - mx, y[i] - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's (steal, total) CPU time so far, in clock ticks, from the
/// first line of `/proc/stat`: time the hypervisor gave this machine's
/// CPUs to other guests, and all time.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` `reps` times and returns the median wall time in seconds
/// together with the last result: set-up is repeated so that its
/// reported time is a median, not one sample.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let out = f();
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    (
        median(&times),
        last.expect("at least one set-up repetition"),
    )
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed output checks (printed, never fatal).
    pub failures: Vec<String>,
    /// Metric name -> (value, unit), in print order.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    /// Run-level validity failures; any makes `correct` false.
    pub invalid: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Records one op: `ok == false` counts it as failed with `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why());
            }
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A list of `(passed, message)` checks for one op.
#[derive(Debug, Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.0.is_empty()
    }

    pub fn message(&self) -> String {
        self.0.join("; ")
    }
}

/// Relative distance `|a - b| / |b|`.
pub fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Current value of a `klest-obs` counter (0 when absent or the sink is off).
pub fn obs_counter(name: &str) -> u64 {
    klest_obs::snapshot()
        .counters
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}
