//! Reference computations made apart from the code the benchmark times.

use klest_core::GalerkinKle;
use klest_kernels::CovarianceKernel;
use klest_mesh::Mesh;

/// Discrete Mercer trace of the centroid-rule Galerkin problem:
/// `Σ_i a_i K(c_i, c_i)`, from the mesh's areas and the kernel's diagonal.
pub fn mercer_trace<K: CovarianceKernel + ?Sized>(mesh: &Mesh, kernel: &K) -> f64 {
    mesh.areas()
        .iter()
        .zip(mesh.centroids())
        .map(|(&a, &c)| a * kernel.eval(c, c))
        .sum()
}

/// Largest relative residual `‖Kφ − λΦφ‖ / ‖λΦφ‖` over the leading
/// `pairs` eigenpairs, where `K_ij = a_i a_j k(c_i, c_j)` and
/// `Φ = diag(a)` are built here from centroids, areas and pointwise
/// kernel values (one row at a time, so nothing n×n is stored).
pub fn max_residual<K: CovarianceKernel + ?Sized>(
    mesh: &Mesh,
    kernel: &K,
    kle: &GalerkinKle,
    pairs: usize,
) -> f64 {
    let areas = mesh.areas();
    let centroids = mesh.centroids();
    let n = areas.len();
    let pairs = pairs.min(kle.retained());
    let phi: Vec<Vec<f64>> = (0..pairs).map(|j| kle.eigenfunction(j)).collect();
    let mut kphi = vec![vec![0.0; n]; pairs];
    let mut row = vec![0.0; n];
    for i in 0..n {
        for (k, r) in row.iter_mut().enumerate() {
            *r = areas[i] * areas[k] * kernel.eval(centroids[i], centroids[k]);
        }
        for j in 0..pairs {
            kphi[j][i] = row.iter().zip(&phi[j]).map(|(a, b)| a * b).sum();
        }
    }
    let mut worst: f64 = 0.0;
    for j in 0..pairs {
        let lambda = kle.eigenvalues()[j];
        let (mut num, mut den) = (0.0, 0.0);
        for i in 0..n {
            let rhs = lambda * areas[i] * phi[j][i];
            num += (kphi[j][i] - rhs).powi(2);
            den += rhs * rhs;
        }
        worst = worst.max((num / den.max(f64::MIN_POSITIVE)).sqrt());
    }
    worst
}
