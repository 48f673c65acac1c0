//! `table1_mc`: closed loop of Table-1 rows over one shared KLE context.
//!
//! Set-up builds the paper-kernel KLE context (n = 752 mesh, the paper's
//! truncation criterion, r = 25) and generates and places the repo's
//! Table-1 stand-ins for c880, c1908, c3540, c5315 and c7552 at gate-count
//! scale 0.2 (`benchmark_scaled`, as `results/table1.txt` uses). One op
//! is one row on one circuit: Algorithm 1 (Cholesky sampler + MC),
//! Algorithm 2 (KLE gather + MC) and the one-pass canonical SSTA. A
//! round runs every circuit once, in a seeded order, with seeded MC seeds.

use crate::trace::Tracer;
use crate::util::{ms_since, rel, timed_setup, Checks, Outcome, Rng};
use crate::{closed_loop, Phase, RunCfg};
use klest_circuit::{benchmark_scaled, BenchmarkId};
use klest_kernels::GaussianKernel;
use klest_ssta::canonical::analyze_canonical;
use klest_ssta::experiments::{CircuitSetup, KleContext};
use klest_ssta::{run_monte_carlo, CholeskySampler, KleFieldSampler, McConfig};
use klest_sta::ParamVector;
use std::time::Instant;

/// Mesh of the shared context (n = 752).
pub const AREA_FRACTION: f64 = 0.002;
/// The Table-1 circuits of one round and their gate-count scale.
pub const CIRCUITS: [BenchmarkId; 5] = [
    BenchmarkId::C880,
    BenchmarkId::C1908,
    BenchmarkId::C3540,
    BenchmarkId::C5315,
    BenchmarkId::C7552,
];
pub const SCALE: f64 = 0.2;
/// Monte Carlo samples per arm.
pub const SAMPLES: usize = 200;
/// Truncation error bounds from this repo's Table 1 (`results/table1.txt`).
const E_MU: f64 = 0.0011;
const E_SIGMA: f64 = 0.034;
/// How far the canonical worst-delay mean may lie from Algorithm 1's.
const CANONICAL_E_MU: f64 = 0.01;
/// Standard errors allowed on top of the truncation error.
const Z: f64 = 5.0;

pub fn kernel() -> GaussianKernel {
    GaussianKernel::with_correlation_distance(1.0)
}

/// The round's circuits, generated and placed.
pub fn circuits() -> Vec<CircuitSetup> {
    CIRCUITS
        .iter()
        .map(|&id| CircuitSetup::prepare(&benchmark_scaled(id, SCALE).expect("Table-1 stand-in")))
        .collect()
}

/// One Table-1 row's outputs.
pub struct Row {
    pub alg1: klest_ssta::SummaryStats,
    pub alg2: klest_ssta::SummaryStats,
    pub alg1_samples: usize,
    pub alg2_samples: usize,
    pub canonical_mean: f64,
    pub canonical_sigma: f64,
}

/// One row, each layer call inside its own span.
pub fn row(
    setup: &CircuitSetup,
    ctx: &KleContext,
    samples: usize,
    mc_seed: u64,
    tr: &mut Tracer,
) -> Row {
    let config = McConfig::new(samples, mc_seed).with_threads(1);
    let kernel = kernel();
    let cholesky = tr.span("samplers.cholesky", || {
        CholeskySampler::new(&kernel, setup.locations()).expect("Cholesky sampler")
    });
    let reference = tr.span("mc.reference", || {
        run_monte_carlo(&setup.timer, &cholesky, &config).expect("Algorithm 1 MC")
    });
    let gathered = tr.span("samplers.kle_gather", || {
        KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).expect("KLE gather")
    });
    let kle = tr.span("mc.kle", || {
        run_monte_carlo(&setup.timer, &gathered, &config).expect("Algorithm 2 MC")
    });
    let canonical = tr.span("canonical.pass", || {
        analyze_canonical(&setup.timer, &gathered).expect("canonical pass")
    });
    let worst = canonical.worst();
    Row {
        alg1: reference.worst_delay_stats(),
        alg2: kle.worst_delay_stats(),
        alg1_samples: reference.worst_delays().len(),
        alg2_samples: kle.worst_delays().len(),
        canonical_mean: worst.mean,
        canonical_sigma: worst.sigma(),
    }
}

/// Algorithm 2 agrees with Algorithm 1 within sampling error (two
/// independent `samples`-sample estimates) plus the truncation error;
/// the canonical mean lies within 1% of Algorithm 1's plus that
/// estimate's sampling error; every planned sample ran.
pub fn check(name: &str, r: &Row, samples: usize) -> Checks {
    let mut c = Checks::default();
    let s = samples as f64;
    let sd = r.alg1.std_dev;
    let mu_tol = Z * sd * (2.0 / s).sqrt() + E_MU * r.alg1.mean;
    c.check((r.alg2.mean - r.alg1.mean).abs() <= mu_tol, || {
        format!(
            "{name}: Algorithm 2 mean {} vs Algorithm 1 {} (tolerance {mu_tol})",
            r.alg2.mean, r.alg1.mean
        )
    });
    let sigma_tol = Z * sd * (1.0 / (s - 1.0)).sqrt() + E_SIGMA * sd;
    c.check((r.alg2.std_dev - sd).abs() <= sigma_tol, || {
        format!(
            "{name}: Algorithm 2 sigma {} vs Algorithm 1 {sd} (tolerance {sigma_tol})",
            r.alg2.std_dev
        )
    });
    // The one-pass canonical mean is deterministic; it must lie within 1%
    // of Algorithm 1's, widened by the standard error of Algorithm 1's
    // own `samples`-sample estimate.
    let canonical_tol = CANONICAL_E_MU * r.alg1.mean + Z * sd / s.sqrt();
    c.check(
        r.canonical_sigma.is_finite()
            && r.canonical_sigma > 0.0
            && (r.canonical_mean - r.alg1.mean).abs() <= canonical_tol,
        || {
            format!(
                "{name}: canonical worst ({}, {}) vs Algorithm 1 mean {} (tolerance {canonical_tol})",
                r.canonical_mean, r.canonical_sigma, r.alg1.mean
            )
        },
    );
    c.check(
        r.alg1_samples == samples && r.alg2_samples == samples,
        || {
            format!(
                "{name}: samples {} / {} != planned {samples}",
                r.alg1_samples, r.alg2_samples
            )
        },
    );
    c
}

struct Rows<'a> {
    ctx: &'a KleContext,
    circuits: &'a [CircuitSetup],
    rng: Rng,
    /// Canonical mean and sigma error against Algorithm 1, per op, %.
    mean_err_pct: Vec<f64>,
    sigma_err_pct: Vec<f64>,
}

impl Phase for Rows<'_> {
    fn round(&mut self, tr: &mut Tracer, out: &mut Outcome, times: &mut Vec<f64>) {
        let mut order: Vec<usize> = (0..self.circuits.len()).collect();
        self.rng.shuffle(&mut order);
        for i in order {
            let setup = &self.circuits[i];
            let mc_seed = self.rng.next_u64();
            tr.next_op();
            let before = crate::util::obs_counter("mc.samples");
            let op = tr.enter("op");
            let started = Instant::now();
            let r = row(setup, self.ctx, SAMPLES, mc_seed, tr);
            times.push(ms_since(started));
            tr.exit(op);
            let mut c = check(setup.name(), &r, SAMPLES);
            if tr.is_on() {
                // With the obs sink on, the program's own sample counter
                // must account for exactly the planned samples.
                let counted = crate::util::obs_counter("mc.samples") - before;
                c.check(counted == 2 * SAMPLES as u64, || {
                    format!(
                        "{}: mc.samples counted {counted}, planned {}",
                        setup.name(),
                        2 * SAMPLES
                    )
                });
                tr.span("sta.analyze", || {
                    setup
                        .timer
                        .analyze(&vec![ParamVector::ZERO; setup.timer.node_count()])
                });
            }
            self.mean_err_pct
                .push(100.0 * rel(r.canonical_mean, r.alg1.mean));
            self.sigma_err_pct
                .push(100.0 * rel(r.canonical_sigma, r.alg1.std_dev));
            out.op(c.ok(), || c.message());
        }
    }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer, out: &mut Outcome) {
    let (setup_s, (ctx, circuits)) = timed_setup(3, || {
        let ctx = crate::kle_cold::paper_context(AREA_FRACTION, tr);
        let circuits = circuits();
        (ctx, circuits)
    });
    out.set("setup_s", setup_s, "s");
    let mut w = Rows {
        ctx: &ctx,
        circuits: &circuits,
        rng: Rng::derive(cfg.seed, "table1_mc/rotation"),
        mean_err_pct: Vec::new(),
        sigma_err_pct: Vec::new(),
    };
    closed_loop(&mut w, cfg, tr, out, 0.90);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    out.note(format!(
        "canonical error vs Algorithm 1 over {} rows: mean median {:.2}% max {:.2}%, sigma median {:.2}% max {:.2}%",
        w.sigma_err_pct.len(),
        crate::util::median(&w.mean_err_pct),
        max(&w.mean_err_pct),
        crate::util::median(&w.sigma_err_pct),
        max(&w.sigma_err_pct)
    ));
    if cfg.trace {
        let mc_kle_ms = crate::util::median(&tr.durations_ms("mc.kle"));
        out.set("mc.samples", 2.0 * SAMPLES as f64, "count");
        out.set(
            "mc.kle_samples_per_s",
            SAMPLES as f64 * 1e3 / mc_kle_ms,
            "samples/s",
        );
        out.set(
            "eigen.pairs_computed",
            ctx.kle.eigenvalues().len() as f64,
            "count",
        );
        out.set(
            "eigen.pairs_used_ratio",
            ctx.rank as f64 / ctx.kle.eigenvalues().len() as f64,
            "ratio",
        );
    }
}
