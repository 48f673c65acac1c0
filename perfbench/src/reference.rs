//! `perfbench reference`: recomputes, from scratch, every reference
//! figure the README quotes. Nothing is compared against a stored copy.

use crate::kle_cold::{frontend_layered, Kind, ROUND};
use crate::trace::Tracer;
use crate::util::{median, rel};
use klest_runtime::CancelToken;
use klest_ssta::canonical::analyze_canonical;
use klest_ssta::{run_monte_carlo, CholeskySampler, KleFieldSampler, McConfig};
use klest_sta::ParamVector;
use std::time::Instant;

pub fn run(seed: u64) -> i32 {
    // 1. The eigensolve's share of each kle_cold op kind, and of a round.
    let mut tr = Tracer::new(true);
    let mut kinds: Vec<Kind> = Vec::new();
    for k in ROUND {
        if !kinds.contains(&k) {
            kinds.push(k);
        }
    }
    println!("kle_cold: eigensolve share of one op");
    let (mut round_eigen, mut round_total) = (0.0, 0.0);
    for kind in kinds {
        let before_eigen = tr.durations_ms("eigen.solve").len();
        let before_op = tr.durations_ms("kle.frontend").len();
        frontend_layered(kind, &mut tr);
        let eigen = tr.durations_ms("eigen.solve")[before_eigen];
        let total = tr.durations_ms("kle.frontend")[before_op];
        let weight = ROUND.iter().filter(|&&k| k == kind).count() as f64;
        round_eigen += weight * eigen;
        round_total += weight * total;
        println!(
            "  {kind:?}: op {total:.1} ms, eigensolve {eigen:.1} ms ({:.1}%)",
            100.0 * eigen / total
        );
    }
    println!(
        "  whole round: eigensolve {:.1}% of front-end time",
        100.0 * round_eigen / round_total
    );

    // 2. Hier edit time against the warm flat canonical pass.
    let mut tr = Tracer::new(false);
    let st = crate::edit_retime::State::build(seed, &mut tr);
    let cache = klest_core::pipeline::ArtifactCache::new();
    let mut engine = st.engine(&cache, &mut tr);
    let sampler = &st.sampler;
    let token = CancelToken::unlimited();
    let mut edit = Vec::new();
    let mut flat = Vec::new();
    for i in 0..7 {
        let v = st.victims[i % st.victims.len()];
        let s = 0.2 + 0.01 * i as f64;
        let started = Instant::now();
        engine
            .edit_gate(
                v,
                ParamVector::new([s, -0.5 * s, 0.25 * s, 0.1 * s]),
                &token,
            )
            .expect("edit");
        edit.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        analyze_canonical(&st.setup.timer, sampler).expect("flat pass");
        flat.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let (e, f) = (median(&edit), median(&flat));
    println!(
        "edit_retime: {} gates, {} blocks: apply edit {e:.1} ms vs warm flat canonical pass {f:.2} ms ({:.3}x of the flat pass's speed)",
        st.setup.gates(),
        st.partition.block_count(),
        f / e
    );

    // 3. Canonical sigma error against Algorithm 1 on table1_mc's circuits.
    let mut tr = Tracer::new(false);
    let ctx = crate::kle_cold::paper_context(crate::table1_mc::AREA_FRACTION, &mut tr);
    println!("table1_mc: canonical worst-delay error against 5000-sample Algorithm 1");
    let kernel = crate::table1_mc::kernel();
    for setup in crate::table1_mc::circuits() {
        let cholesky = CholeskySampler::new(&kernel, setup.locations()).expect("Cholesky");
        let mc = run_monte_carlo(&setup.timer, &cholesky, &McConfig::new(5000, seed))
            .expect("Algorithm 1")
            .worst_delay_stats();
        let gathered =
            KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations()).expect("gather");
        let canonical = analyze_canonical(&setup.timer, &gathered).expect("canonical");
        let w = canonical.worst();
        println!(
            "  {} ({} gates): mean error {:.3}%, sigma error {:.2}%",
            setup.name(),
            setup.gates(),
            100.0 * rel(w.mean, mc.mean),
            100.0 * rel(w.sigma(), mc.std_dev)
        );
    }
    0
}
