//! `kle_cold`: closed loop of cold KLE front ends (mesh, Galerkin
//! assembly, eigensolve, truncation) with no cache.
//!
//! One round holds a fixed multiset of op kinds in a seeded order:
//! eleven paper-kernel Gaussian ops on the n = 392 mesh, three
//! separable-exponential and four Matérn ops on the same mesh, one
//! Gaussian op on the n = 752 mesh and one matrix-free op on the paper's
//! n = 1532 mesh.

use crate::oracle;
use crate::trace::Tracer;
use crate::util::{ms_since, timed_setup, Checks, Outcome, Rng};
use crate::Phase;
use klest_core::pipeline::{run_frontend, ExecPolicy, FrontEndConfig};
use klest_core::{
    assemble_galerkin_parallel, EigenSolver, GalerkinKle, KleOptions, TruncationCriterion,
};
use klest_geometry::Rect;
use klest_kernels::{CovarianceKernel, GaussianKernel, MaternKernel, SeparableExponentialKernel};
use klest_mesh::{Mesh, MeshBuilder};
use klest_ssta::experiments::KleContext;
use std::sync::Arc;
use std::time::Instant;

/// Area fractions giving n = 392, 752 and 1532 (the paper's 0.1%).
const SMALL: f64 = 0.004;
const MEDIUM: f64 = 0.002;
const PAPER: f64 = 0.001;
/// Leading pairs the matrix-free op computes.
const MATRIX_FREE_K: usize = 25;
/// Separable-exponential decay rate of the closed-form op.
const SEP_C: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Gaussian(f64),
    Matern,
    Separable,
    MatrixFree,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Gaussian(f) if f == SMALL => "gaussian-392",
            Kind::Gaussian(_) => "gaussian-752",
            Kind::Matern => "matern-392",
            Kind::Separable => "separable-392",
            Kind::MatrixFree => "matrix-free-1532",
        }
    }

    fn area_fraction(self) -> f64 {
        match self {
            Kind::Gaussian(f) => f,
            Kind::Matern | Kind::Separable => SMALL,
            Kind::MatrixFree => PAPER,
        }
    }

    fn kernel(self) -> Box<dyn CovarianceKernel> {
        match self {
            Kind::Gaussian(_) | Kind::MatrixFree => {
                Box::new(GaussianKernel::with_correlation_distance(1.0))
            }
            Kind::Matern => Box::new(MaternKernel::new(2.0, 2.5).expect("valid Matérn parameters")),
            Kind::Separable => Box::new(SeparableExponentialKernel::new(SEP_C)),
        }
    }

    fn options(self) -> KleOptions {
        let mut options = KleOptions {
            assembly_threads: 1,
            ..KleOptions::default()
        };
        if self == Kind::MatrixFree {
            options.solver = EigenSolver::MatrixFree {
                k: MATRIX_FREE_K,
                max_iters: 5000,
            };
        }
        options
    }
}

/// The fixed make-up of one round, sorted from cheapest to dearest:
/// fourteen n = 392 ops with the cheap kernels (eleven Gaussian, three
/// separable) are 70% of a round, four Matérn ops the next 20%, then one
/// n = 752 Gaussian op and one matrix-free op. So the median falls inside
/// the first group and the 80th percentile inside the Matérn group.
pub const ROUND: [Kind; 20] = [
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Gaussian(SMALL),
    Kind::Separable,
    Kind::Separable,
    Kind::Separable,
    Kind::Matern,
    Kind::Matern,
    Kind::Matern,
    Kind::Matern,
    Kind::Gaussian(MEDIUM),
    Kind::MatrixFree,
];

/// What one front end produced.
pub struct Built {
    pub mesh: Arc<Mesh>,
    pub kle: Arc<GalerkinKle>,
    pub rank: usize,
    pub budget_met: bool,
}

/// The user entry point: one cold `run_frontend`, no cache.
pub fn frontend(kind: Kind) -> Built {
    let kernel = kind.kernel();
    let mut config =
        FrontEndConfig::new(kind.area_fraction(), 28.0, TruncationCriterion::default());
    config.options = kind.options();
    let out = run_frontend(kernel.as_ref(), &config, ExecPolicy::Plain, None)
        .expect("the benchmark's front-end configurations are valid");
    Built {
        mesh: out.mesh,
        kle: out.kle,
        rank: out.rank,
        budget_met: out.budget_met,
    }
}

/// The same front end, one layer at a time, each call inside a span.
pub fn frontend_layered(kind: Kind, tr: &mut Tracer) -> Built {
    layered(
        kind.kernel().as_ref(),
        kind.area_fraction(),
        kind.options(),
        &TruncationCriterion::default(),
        tr,
    )
}

/// Mesh, assembly (dense solvers only), eigensolve and truncation as
/// separate calls, each inside a span, all inside one `kle.frontend`.
pub fn layered(
    kernel: &dyn CovarianceKernel,
    area_fraction: f64,
    options: KleOptions,
    criterion: &TruncationCriterion,
    tr: &mut Tracer,
) -> Built {
    let frontend = tr.enter("kle.frontend");
    let mesh = tr.span("mesh.build", || {
        MeshBuilder::new(Rect::unit_die())
            .max_area_fraction(area_fraction)
            .min_angle_degrees(28.0)
            .build()
            .expect("the benchmark's meshes build")
    });
    let kle = if matches!(options.solver, EigenSolver::MatrixFree { .. }) {
        tr.span("eigen.solve", || {
            GalerkinKle::compute(&mesh, kernel, options)
        })
    } else {
        let k = tr.span("galerkin.assemble", || {
            assemble_galerkin_parallel(&mesh, kernel, options.quadrature, 1)
        });
        tr.span("eigen.solve", || {
            GalerkinKle::from_matrix(k, &mesh, options)
        })
    }
    .expect("the benchmark's eigensolves converge");
    let (rank, budget_met) = tr.span("truncate", || kle.select_rank_checked(criterion));
    tr.exit(frontend);
    Built {
        mesh: Arc::new(mesh),
        kle: Arc::new(kle),
        rank,
        budget_met,
    }
}

/// A shared KLE context on the paper kernel and criterion: through the
/// user entry point untraced, layer by layer when traced.
pub fn paper_context(area_fraction: f64, tr: &mut Tracer) -> KleContext {
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let criterion = TruncationCriterion::default();
    if !tr.is_on() {
        return KleContext::build(&kernel, area_fraction, 28.0, &criterion)
            .expect("the shared KLE context builds");
    }
    let started = Instant::now();
    let options = KleOptions {
        assembly_threads: 1,
        ..KleOptions::default()
    };
    let built = layered(&kernel, area_fraction, options, &criterion, tr);
    KleContext {
        mesh: built.mesh,
        kle: built.kle,
        rank: built.rank,
        budget_met: built.budget_met,
        degradation: klest_ssta::DegradationReport::new(),
        setup_time: started.elapsed(),
    }
}

/// Every property a front end's output must have (see the README).
pub fn check(kind: Kind, built: &Built, residuals: bool) -> Checks {
    let mut c = Checks::default();
    let kernel = kind.kernel();
    let lambda = built.kle.eigenvalues();
    let head = lambda.first().copied().unwrap_or(0.0);
    c.check(head > 0.0 && lambda.iter().all(|l| l.is_finite()), || {
        format!(
            "{}: leading eigenvalue {head} not positive and finite",
            kind.label()
        )
    });
    // Trailing values of a numerically rank-deficient Gram matrix sit at
    // roundoff; "positive" is checked to that level, strictly for the
    // retained ones.
    c.check(lambda.iter().all(|&l| l >= -1e-10 * head), || {
        format!(
            "{}: an eigenvalue is negative beyond roundoff",
            kind.label()
        )
    });
    c.check(lambda[..built.rank].iter().all(|&l| l > 0.0), || {
        format!("{}: a retained eigenvalue is not positive", kind.label())
    });
    c.check(lambda.windows(2).all(|w| w[1] <= w[0]), || {
        format!("{}: eigenvalues are not non-increasing", kind.label())
    });
    let trace = oracle::mercer_trace(&built.mesh, kernel.as_ref());
    let retained: f64 = lambda[..built.rank].iter().sum();
    c.check(retained <= trace * (1.0 + 1e-9), || {
        format!(
            "{}: retained sum {retained} exceeds Mercer trace {trace}",
            kind.label()
        )
    });
    let captured = built.kle.variance_captured(built.rank);
    c.check((captured - retained / trace).abs() <= 1e-9, || {
        format!(
            "{}: variance captured {captured} != recomputed {}",
            kind.label(),
            retained / trace
        )
    });
    if let Kind::Gaussian(_) = kind {
        c.check(built.rank == 25 && built.budget_met, || {
            format!(
                "{}: rank {} (budget met {}), the paper selects 25",
                kind.label(),
                built.rank,
                built.budget_met
            )
        });
    }
    if kind == Kind::Separable {
        let exact = klest_core::analytic::separable_2d_eigenvalues(SEP_C, 1.0, 4);
        for (i, (a, e)) in lambda.iter().zip(&exact).enumerate() {
            c.check(crate::util::rel(*a, *e) <= 0.10, || {
                format!("separable: eigenvalue {i} {a} vs closed form {e}")
            });
        }
    }
    if residuals {
        let worst = oracle::max_residual(&built.mesh, kernel.as_ref(), &built.kle, 5);
        c.check(worst <= 1e-8, || {
            format!("{}: leading-pair residual {worst:.3e} > 1e-8", kind.label())
        });
    }
    c
}

pub struct KleCold {
    rng: Rng,
    /// `(pairs computed, rank kept)` of each traced front end.
    pairs: Vec<(usize, usize)>,
}

impl KleCold {
    /// Set-up is a warm-up: five cold Gaussian front ends on the
    /// smallest mesh before any op is timed; `setup_s` is their median.
    pub fn setup(seed: u64) -> (KleCold, f64) {
        let (secs, _) = timed_setup(5, || frontend(Kind::Gaussian(SMALL)));
        (
            KleCold {
                rng: Rng::derive(seed, "kle_cold/rotation"),
                pairs: Vec::new(),
            },
            secs,
        )
    }
}

impl KleCold {
    /// Pairs computed per traced front end, and the share the truncation
    /// keeps.
    pub fn pair_metrics(&self, out: &mut Outcome) {
        let n = self.pairs.len().max(1) as f64;
        let computed = self.pairs.iter().map(|p| p.0 as f64).sum::<f64>() / n;
        let used = self.pairs.iter().map(|p| p.1 as f64).sum::<f64>() / n;
        out.set("eigen.pairs_computed", computed, "count");
        out.set("eigen.pairs_used_ratio", used / computed.max(1.0), "ratio");
    }
}

impl Phase for KleCold {
    fn round(&mut self, tr: &mut Tracer, out: &mut Outcome, times: &mut Vec<f64>) {
        let mut order = ROUND;
        self.rng.shuffle(&mut order);
        let mut checked: Vec<Kind> = Vec::new();
        for kind in order {
            tr.next_op();
            let op = tr.enter("op");
            let started = Instant::now();
            let built = if tr.is_on() {
                frontend_layered(kind, tr)
            } else {
                frontend(kind)
            };
            times.push(ms_since(started));
            tr.exit(op);
            if tr.is_on() {
                self.pairs.push((built.kle.eigenvalues().len(), built.rank));
            }
            // The residual oracle runs on the first op of each kind in a
            // round; every other check runs on every op.
            let residuals = !checked.contains(&kind);
            if residuals {
                checked.push(kind);
            }
            let c = check(kind, &built, residuals);
            out.op(c.ok(), || c.message());
        }
    }
}
