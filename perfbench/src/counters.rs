//! `perfbench counters`: checks each work counter before it is relied
//! on. Every counter-bearing layer runs over a size sweep (mesh size,
//! pairs requested, samples, edits, victim depth), twice at one
//! seed; each counter must repeat exactly between the two runs, and the
//! Pearson r between the counter and the wall time of the call that
//! produced it is reported.

use crate::util::{median, obs_counter, pearson, Rng};
use klest_circuit::{generate, GeneratorConfig, NodeId};
use klest_core::{
    assemble_galerkin_parallel, EigenSolver, GalerkinKle, KleOptions, QuadratureRule,
};
use klest_geometry::Rect;
use klest_kernels::GaussianKernel;
use klest_mesh::MeshBuilder;
use klest_ssta::experiments::CircuitSetup;
use klest_ssta::{run_monte_carlo, McConfig};
use klest_sta::{IncrementalTimer, ParamVector};
use std::time::Instant;

/// One sweep point: the counter's value and the call's wall time (ms).
type Point = (u64, f64);
/// A counter's name and the sweep that produces it at a seed.
type Sweep = (&'static str, fn(u64) -> Vec<Point>);

fn mesh(af: f64) -> klest_mesh::Mesh {
    MeshBuilder::new(Rect::unit_die())
        .max_area_fraction(af)
        .min_angle_degrees(28.0)
        .build()
        .expect("sweep meshes build")
}

/// Runs `f` with the obs sink reset and on; returns the counter's delta
/// and the wall time.
fn measure(counter: &str, f: impl FnOnce()) -> Point {
    klest_obs::reset();
    klest_obs::enable();
    let started = Instant::now();
    f();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let v = obs_counter(counter);
    klest_obs::disable();
    (v, ms)
}

fn kernel_evals() -> Vec<Point> {
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    [0.02, 0.01, 0.006, 0.004, 0.003]
        .iter()
        .map(|&af| {
            let m = mesh(af);
            measure("galerkin.kernel_evals", || {
                assemble_galerkin_parallel(&m, &kernel, QuadratureRule::Centroid, 1);
            })
        })
        .collect()
}

fn ql_iterations() -> Vec<Point> {
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    [0.02, 0.01, 0.006, 0.004, 0.003]
        .iter()
        .map(|&af| {
            let m = mesh(af);
            let k = assemble_galerkin_parallel(&m, &kernel, QuadratureRule::Centroid, 1);
            measure("eigen.ql_iterations", || {
                GalerkinKle::from_matrix(k, &m, KleOptions::default()).expect("dense solve");
            })
        })
        .collect()
}

fn matvecs() -> Vec<Point> {
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let m = mesh(0.004);
    [5, 10, 15, 20, 25]
        .iter()
        .map(|&k| {
            let options = KleOptions {
                solver: EigenSolver::MatrixFree { k, max_iters: 5000 },
                assembly_threads: 1,
                ..KleOptions::default()
            };
            measure("galerkin.operator_matvecs", || {
                GalerkinKle::compute(&m, &kernel, options).expect("matrix-free solve");
            })
        })
        .collect()
}

fn mc_samples(seed: u64) -> Vec<Point> {
    let setup = CircuitSetup::prepare(
        &generate("sweep", GeneratorConfig::combinational(176, seed)).expect("circuit"),
    );
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let sampler =
        klest_ssta::CholeskySampler::new(&kernel, setup.locations()).expect("Cholesky sampler");
    [100, 200, 400, 800, 1600]
        .iter()
        .map(|&s| {
            measure("mc.samples", || {
                run_monte_carlo(&setup.timer, &sampler, &McConfig::new(s, seed)).expect("MC");
            })
        })
        .collect()
}

/// Blocks re-extracted by `k` consecutive applies, and incremental nodes
/// per one-gate update, from the `edit_retime` fixture at one seed.
fn hier_points(seed: u64) -> (Vec<Point>, Vec<Point>) {
    let mut tr = crate::trace::Tracer::new(false);
    let st = crate::edit_retime::State::build(seed, &mut tr);
    let cache = klest_core::pipeline::ArtifactCache::new();
    let mut engine = st.engine(&cache, &mut tr);
    let mut rng = Rng::derive(seed, "counters/edits");
    let token = klest_runtime::CancelToken::unlimited();
    let mut blocks = Vec::new();
    for k in 1..=5 {
        let started = Instant::now();
        let mut extracted = 0u64;
        for _ in 0..k {
            let v = st.victims[rng.below(st.victims.len())];
            let s = 0.2 + 0.3 * rng.unit();
            engine
                .edit_gate(
                    v,
                    ParamVector::new([s, -0.5 * s, 0.25 * s, 0.1 * s]),
                    &token,
                )
                .expect("edit");
            extracted += engine.last_stats().extracted as u64;
        }
        blocks.push((extracted, started.elapsed().as_secs_f64() * 1e3));
    }
    let mut inc = IncrementalTimer::new(&st.setup.timer, st.nominal()).expect("timer");
    let n = st.setup.timer.node_count();
    let mut nodes = Vec::new();
    for i in 0..8 {
        // Victims spread from the inputs to the outputs, so cone sizes vary.
        let v = NodeId(((i * 2 + 1) * n / 17) as u32);
        let started = Instant::now();
        inc.update(&[(v, ParamVector::new([0.3, -0.15, 0.075, 0.03]))])
            .expect("incremental update");
        nodes.push((
            inc.last_recomputed() as u64,
            started.elapsed().as_secs_f64() * 1e3,
        ));
        inc.update(&[(v, ParamVector::ZERO)]).expect("revert");
    }
    (blocks, nodes)
}

pub fn run(seed: u64) -> i32 {
    let sweeps: Vec<Sweep> = vec![
        ("galerkin.kernel_evals", |_| kernel_evals()),
        ("eigen.ql_iterations", |_| ql_iterations()),
        ("eigen.matvecs", |_| matvecs()),
        ("mc.samples", mc_samples),
        ("hier.blocks_reextracted", |s| hier_points(s).0),
        ("sta.incremental_nodes", |s| hier_points(s).1),
    ];
    let mut all_repeat = true;
    println!("counter                    repeats  pearson_r  values (run 1)");
    for (name, sweep) in sweeps {
        let first = sweep(seed);
        let second = sweep(seed);
        let repeats = first.iter().map(|p| p.0).eq(second.iter().map(|p| p.0));
        all_repeat &= repeats;
        let counts: Vec<f64> = first.iter().map(|p| p.0 as f64).collect();
        let walls: Vec<f64> = first
            .iter()
            .zip(&second)
            .map(|(a, b)| median(&[a.1, b.1]))
            .collect();
        let r = pearson(&counts, &walls);
        println!(
            "{name:<26} {:<8} {r:>9.4}  {:?}",
            if repeats { "yes" } else { "NO" },
            first.iter().map(|p| p.0).collect::<Vec<_>>()
        );
    }
    i32::from(!all_repeat)
}
