//! `edit_retime`: closed loop of one-gate edits through
//! `HierEngine::edit_gate`.
//!
//! Set-up builds the paper-kernel KLE context on the n = 392 mesh,
//! generates and places the repo's 7951-gate Table-1 stand-in for s13207
//! (`benchmark`), partitions it
//! into 16 blocks and builds the `HierEngine` with a cold extraction into
//! an in-memory artifact cache.
//!
//! A round is one editing session: it opens a fresh cache and engine
//! (a cold extraction, outside the op clock) and visits every block once,
//! in a seeded order; in each it picks a seeded victim gate (on the nominal
//! critical path for about half the blocks that hold part of it) and
//! runs three edits: two applies with fresh parameter values (each
//! re-extracts one block and writes it to the cache) and one revert to
//! nominal (which reads the nominal block model back). Extraction cost
//! differs from block to block, so a round covers all of them.
//!
//! The block cache never evicts, so a session ends holding one model per
//! block plus one per apply. Every session makes the same 32 applies
//! whatever the run length, so the peak RSS holds exactly one session's
//! growth; the traced run reports the block-layer entries and the bytes
//! of the models they hold at the end of a session.

use crate::trace::Tracer;
use crate::util::{median, ms_since, rel, Checks, Outcome, Rng};
use crate::{closed_loop, Phase, RunCfg};
use klest_circuit::{benchmark, BenchmarkId, NodeId, Partition};
use klest_core::pipeline::{ArtifactCache, ArtifactKey, BlockArc, BlockTerm, BlockTimingModel};
use klest_core::{EigenSolver, QuadratureRule};
use klest_geometry::Rect;
use klest_kernels::{CovarianceKernel, GaussianKernel};
use klest_runtime::CancelToken;
use klest_ssta::canonical::analyze_canonical_with;
use klest_ssta::experiments::{CircuitSetup, KleContext};
use klest_ssta::hier::{compose, extract_blocks, region_hash, HierEngine};
use klest_ssta::KleFieldSampler;
use klest_sta::{IncrementalTimer, ParamVector};
use std::time::Instant;

pub const CIRCUIT: BenchmarkId = BenchmarkId::S13207;
pub const BLOCKS: usize = 16;
const AREA_FRACTION: f64 = 0.004;
const SETUP_REPS: usize = 3;

/// Everything the engine borrows.
pub struct State {
    pub ctx: KleContext,
    pub setup: CircuitSetup,
    pub partition: Partition,
    pub sampler: KleFieldSampler,
    pub spectrum_key: ArtifactKey,
    /// Per block: its gates on the nominal critical path, and all its gates.
    pub candidates: Vec<(Vec<NodeId>, Vec<NodeId>)>,
    /// One seeded victim per block, for callers that need a fixed list.
    pub victims: Vec<NodeId>,
}

impl State {
    pub fn build(seed: u64, tr: &mut Tracer) -> State {
        let ctx = crate::kle_cold::paper_context(AREA_FRACTION, tr);
        let circuit = benchmark(CIRCUIT).expect("Table-1 stand-in");
        let setup = CircuitSetup::prepare(&circuit);
        let partition = tr.span("partition.build", || Partition::build(&circuit, BLOCKS));
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
            .expect("sampler over circuit locations");
        let kernel = GaussianKernel::with_correlation_distance(1.0);
        let mesh_key = ArtifactKey::mesh(Rect::unit_die(), AREA_FRACTION, 28.0);
        let galerkin_key = ArtifactKey::galerkin(
            &mesh_key,
            &kernel
                .cache_key()
                .expect("the Gaussian kernel is cacheable"),
            QuadratureRule::Centroid,
        );
        let spectrum_key = ArtifactKey::spectrum(&galerkin_key, EigenSolver::Full, 200);
        let candidates = candidates(&setup, &partition);
        let mut rng = Rng::derive(seed, "edit_retime/victims");
        let victims = (0..candidates.len())
            .map(|b| pick(&candidates[b], &mut rng))
            .collect();
        State {
            ctx,
            setup,
            partition,
            sampler,
            spectrum_key,
            candidates,
            victims,
        }
    }

    pub fn nominal(&self) -> Vec<ParamVector> {
        vec![ParamVector::ZERO; self.setup.timer.node_count()]
    }

    /// The block-layer key of block `b`'s model at `params`.
    pub fn block_key(&self, b: usize, params: &[ParamVector]) -> ArtifactKey {
        let hash = region_hash(&self.partition, b, params, self.sampler.rank());
        ArtifactKey::block(hash, &self.spectrum_key)
    }

    /// The cold hierarchical construction into `cache`.
    pub fn engine<'a>(&'a self, cache: &'a ArtifactCache, tr: &mut Tracer) -> HierEngine<'a> {
        tr.span("hier.extract", || {
            HierEngine::new(
                &self.setup.timer,
                &self.sampler,
                &self.partition,
                self.nominal(),
                Some((cache, self.spectrum_key.clone())),
                &CancelToken::unlimited(),
            )
            .expect("cold hierarchical construction")
        })
    }
}

/// Each block's gates, and those of them on the nominal critical path
/// (walked back from the critical output through the latest-arriving
/// fan-in).
fn candidates(setup: &CircuitSetup, partition: &Partition) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    let timer = &setup.timer;
    let report = timer.analyze(&vec![ParamVector::ZERO; timer.node_count()]);
    let mut path = Vec::new();
    let mut node = report.critical_output();
    while let Some(id) = node {
        path.push(id);
        node = timer
            .fanins_of(id)
            .iter()
            .copied()
            .max_by(|a, b| report.arrival(*a).total_cmp(&report.arrival(*b)));
    }
    let is_gate = |id: &NodeId| timer.delay_sensitivity(*id).is_some();
    (0..partition.block_count())
        .map(|b| {
            let gates: Vec<NodeId> = partition.nodes(b).iter().copied().filter(is_gate).collect();
            let critical = gates.iter().copied().filter(|g| path.contains(g)).collect();
            (critical, gates)
        })
        .collect()
}

/// A seeded victim from one block: a critical-path gate half the time
/// when the block holds one.
fn pick((critical, gates): &(Vec<NodeId>, Vec<NodeId>), rng: &mut Rng) -> NodeId {
    if !critical.is_empty() && rng.unit() < 0.5 {
        critical[rng.below(critical.len())]
    } else {
        gates[rng.below(gates.len())]
    }
}

struct Edits<'a> {
    st: &'a State,
    rng: Rng,
    nominal_worst: (u64, u64),
    nominal_scalar: u64,
    incremental_nodes: Vec<f64>,
    reextracted: Vec<f64>,
    /// Block-layer cache hits and lookups over every session.
    block_hits: u64,
    block_lookups: u64,
    /// Per session: block-layer entries at its end, and the MB of the
    /// block models they hold.
    block_entries: Vec<f64>,
    block_mb: Vec<f64>,
    /// The block-layer keys the current session stored.
    session_keys: Vec<ArtifactKey>,
}

/// One editing session's engine, and a second scalar engine that
/// mirrors its edits to read the incremental-node counter.
struct Session<'a> {
    engine: HierEngine<'a>,
    mirror: IncrementalTimer<'a>,
}

/// Bytes a block model holds, counted from its fields.
fn model_bytes(model: &BlockTimingModel) -> usize {
    use std::mem::size_of;
    let terms = |arc: &BlockArc| {
        arc.terms
            .iter()
            .map(|t| size_of::<BlockTerm>() + t.sens.len() * size_of::<f64>())
            .sum::<usize>()
    };
    size_of::<BlockTimingModel>()
        + model
            .outputs
            .iter()
            .map(|arc| size_of::<BlockArc>() + terms(arc))
            .sum::<usize>()
}

impl Edits<'_> {
    /// One edit, timed; the checks run after the clock stops.
    #[allow(clippy::too_many_arguments)]
    fn edit(
        &mut self,
        s: &mut Session<'_>,
        victim: NodeId,
        p: ParamVector,
        apply: bool,
        tr: &mut Tracer,
        out: &mut Outcome,
        times: &mut Vec<f64>,
    ) {
        tr.next_op();
        let op = tr.enter("op");
        let started = Instant::now();
        let edited = tr.span("hier.edit", || {
            s.engine
                .edit_gate(victim, p, &CancelToken::unlimited())
                .map(|_| ())
        });
        times.push(ms_since(started));
        tr.exit(op);
        let mut c = Checks::default();
        if let Err(e) = edited {
            c.check(false, || {
                format!("edit of gate {} failed: {e}", victim.index())
            });
            out.op(false, || c.message());
            return;
        }
        let st = self.st;
        let stats = s.engine.last_stats();
        self.reextracted.push(stats.extracted as f64);
        if apply {
            c.check(stats.extracted == 1 && stats.cache_hits == 0, || {
                format!(
                    "apply re-extracted {} blocks ({} hits), expected 1",
                    stats.extracted, stats.cache_hits
                )
            });
        } else {
            c.check(stats.extracted == 0 && stats.cache_hits == 1, || {
                format!(
                    "revert re-extracted {} blocks ({} hits), expected a cache read",
                    stats.extracted, stats.cache_hits
                )
            });
        }
        let params = s.engine.params().to_vec();
        if apply {
            self.session_keys
                .push(st.block_key(st.partition.block_of(victim), &params));
        }
        let flat = tr.span("canonical.pass", || {
            analyze_canonical_with(&st.setup.timer, &st.sampler, &params)
                .expect("flat canonical pass")
        });
        let (h, f) = (s.engine.worst(), flat.worst());
        c.check(
            rel(h.mean, f.mean) <= 0.02 && rel(h.sigma(), f.sigma()) <= 0.05,
            || {
                format!(
                    "composed worst ({}, {}) outside 2%/5% of flat ({}, {})",
                    h.mean,
                    h.sigma(),
                    f.mean,
                    f.sigma()
                )
            },
        );
        let scalar = s.engine.scalar_worst();
        let full = tr.span("sta.analyze", || st.setup.timer.analyze(&params));
        c.check(full.worst_delay().to_bits() == scalar.to_bits(), || {
            format!(
                "scalar worst {scalar} != full analyze {}",
                full.worst_delay()
            )
        });
        if !apply {
            c.check(
                (h.mean.to_bits(), h.sigma().to_bits()) == self.nominal_worst
                    && scalar.to_bits() == self.nominal_scalar,
                || "revert did not restore the pre-edit worst".to_string(),
            );
        }
        let mirrored = s.mirror.update(&[(victim, p)]).is_ok();
        if tr.is_on() && mirrored {
            self.incremental_nodes
                .push(s.mirror.last_recomputed() as f64);
        }
        out.op(c.ok(), || c.message());
    }

    fn fresh(&mut self) -> ParamVector {
        let s = 0.2 + 0.3 * self.rng.unit();
        ParamVector::new([s, -0.5 * s, 0.25 * s, 0.1 * s])
    }
}

impl Phase for Edits<'_> {
    fn round(&mut self, tr: &mut Tracer, out: &mut Outcome, times: &mut Vec<f64>) {
        let st = self.st;
        let cache = ArtifactCache::new();
        let mut session = Session {
            engine: st.engine(&cache, tr),
            mirror: IncrementalTimer::new(&st.setup.timer, st.nominal())
                .expect("incremental timer"),
        };
        self.session_keys = (0..st.partition.block_count())
            .map(|b| st.block_key(b, &st.nominal()))
            .collect();
        let mut blocks: Vec<usize> = (0..st.candidates.len()).collect();
        self.rng.shuffle(&mut blocks);
        for b in blocks {
            let victim = pick(&st.candidates[b], &mut self.rng);
            let first = self.fresh();
            let second = self.fresh();
            self.edit(&mut session, victim, first, true, tr, out, times);
            self.edit(&mut session, victim, second, true, tr, out, times);
            self.edit(
                &mut session,
                victim,
                ParamVector::ZERO,
                false,
                tr,
                out,
                times,
            );
        }
        let snap = cache.snapshot();
        self.block_hits += snap.block_hits;
        self.block_lookups += snap.block_hits + snap.block_misses;
        self.block_entries.push(cache.memory_sizes().3 as f64);
        let bytes: usize = self
            .session_keys
            .iter()
            .filter_map(|key| cache.lookup_block(key))
            .map(|model| model_bytes(&model))
            .sum();
        self.block_mb.push(bytes as f64 / (1024.0 * 1024.0));
    }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer, out: &mut Outcome) {
    let mut setup_times = Vec::new();
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let st = State::build(cfg.seed, tr);
        let cache = ArtifactCache::new();
        let engine = st.engine(&cache, tr);
        setup_times.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            continue;
        }
        out.set("setup_s", median(&setup_times), "s");
        if tr.is_on() {
            // A compose-only pass over cached models: what every edit
            // pays after its one extraction.
            let (models, _) = extract_blocks(
                &st.setup.timer,
                &st.sampler,
                &st.partition,
                &st.nominal(),
                Some((&cache, &st.spectrum_key)),
                &CancelToken::unlimited(),
            )
            .expect("warm extraction");
            for _ in 0..5 {
                tr.span("hier.compose", || compose(&models, &st.setup.timer))
                    .expect("composition");
            }
        }
        let w = engine.worst();
        let mut edits = Edits {
            st: &st,
            rng: Rng::derive(cfg.seed, "edit_retime/values"),
            nominal_worst: (w.mean.to_bits(), w.sigma().to_bits()),
            nominal_scalar: engine.scalar_worst().to_bits(),
            incremental_nodes: Vec::new(),
            reextracted: Vec::new(),
            block_hits: 0,
            block_lookups: 0,
            block_entries: Vec::new(),
            block_mb: Vec::new(),
            session_keys: Vec::new(),
        };
        drop(engine);
        drop(cache);
        let rss_before = crate::util::peak_rss_mb();
        closed_loop(&mut edits, cfg, tr, out, 0.90);
        out.note(format!(
            "{} gates, {} blocks; peak RSS {rss_before:.0} MB after set-up; a session ends holding {:.0} block models of {:.1} MB",
            st.setup.gates(),
            st.partition.block_count(),
            median(&edits.block_entries),
            median(&edits.block_mb),
        ));
        if cfg.trace {
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            out.set(
                "cache.block_hit_ratio",
                edits.block_hits as f64 / edits.block_lookups.max(1) as f64,
                "ratio",
            );
            out.set(
                "sta.incremental_nodes",
                mean(&edits.incremental_nodes),
                "count",
            );
            out.set("hier.blocks_reextracted", mean(&edits.reextracted), "count");
            out.set("cache.block_entries", median(&edits.block_entries), "count");
            out.set("cache.block_mb", median(&edits.block_mb), "MB");
            let n = st.ctx.kle.eigenvalues().len() as f64;
            out.set("eigen.pairs_computed", n, "count");
            out.set("eigen.pairs_used_ratio", st.ctx.rank as f64 / n, "ratio");
        }
    }
}
