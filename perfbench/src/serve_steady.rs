//! `serve_steady`: open-loop traffic into `Server::serve`, in process.
//!
//! The reader of one connection sends seeded arrivals at fixed offered
//! rates (a three-rung ladder over the first three quarters of the run)
//! into a daemon with one worker (so that the worker and the reader fit
//! the two cores), a memory-only cache, no deadlines and no
//! injected faults. Every query is timed from its scheduled send time to
//! its response line. The last quarter measures the daemon's capacity
//! with closed-loop batches of the same traffic mix.
//!
//! The traced run adds a concurrency probe: a daemon with two workers and
//! a scratch `state_dir` (disk cache and fsynced journal) receives pairs
//! of identical cold queries at once, and `cache.duplicate_builds` counts
//! the artifacts both members of a pair built.
//!
//! Traffic, per block of 20 slots in a seeded order: 15 warm MC queries
//! (five on each of three Table-1 circuits), 3 warm `mode:"hier"`
//! queries with an edit, one pair of concurrent cold MC queries sharing
//! one new configuration, and one repeat of the previous block's cold
//! query (now warm). In every fifth block a pair of concurrent
//! `mode:"hier"` queries on a circuit no query has used before takes the
//! place of one warm hier query.

use crate::trace::Tracer;
use crate::util::{median, quantile, rel, timed_setup, Checks, Outcome, Rng};
use crate::RunCfg;
use klest_circuit::{benchmark_scaled, generate, BenchmarkId, GeneratorConfig};
use klest_core::pipeline::FrontEndConfig;
use klest_core::TruncationCriterion;
use klest_kernels::GaussianKernel;
use klest_serve::{ServeConfig, Server};
use klest_ssta::canonical::{analyze_canonical, analyze_canonical_with};
use klest_ssta::experiments::{CircuitSetup, KleContext};
use klest_ssta::{run_monte_carlo, CholeskySampler, KleFieldSampler, McConfig};
use klest_sta::ParamVector;
use std::collections::HashMap;
use std::io::{BufRead, Read, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 1;
/// Mesh of every warm query (n = 392).
const AF_WARM: f64 = 0.004;
/// Base mesh of cold configurations (n ≈ 208); each cold configuration
/// nudges it so its cache keys are new.
const AF_COLD: f64 = 0.02;
/// The warm MC circuits and the warm hier circuit: the repo's Table-1
/// stand-ins at gate-count scale 0.2 (77, 176, 334 and 461 gates).
const MC_CIRCUITS: [BenchmarkId; 3] = [BenchmarkId::C880, BenchmarkId::C1908, BenchmarkId::C3540];
const HIER_CIRCUIT: BenchmarkId = BenchmarkId::C5315;
const SCALE: f64 = 0.2;
/// Gate count of the synthetic circuits the cold hier pairs use.
const COLD_HIER_GATES: usize = 200;
const HIER_BLOCKS: usize = 8;
const SAMPLES: usize = 64;
const SEEDS_PER_CIRCUIT: usize = 4;
const REFERENCE_SAMPLES: usize = 4000;
/// Offered rates of the ladder, queries/s, and the p99 limit a rung
/// must meet to count as sustained.
const LADDER: [f64; 3] = [30.0, 40.0, 50.0];
const P99_LIMIT_MS: f64 = 250.0;
/// Share of the run the open-loop ladder takes; the rest measures the
/// daemon's capacity in closed-loop batches.
const LADDER_SHARE: f64 = 0.75;
/// Blocks of the traffic mix (20 queries each) in one saturation batch.
const SATURATION_BLOCKS: usize = 5;
/// The tail percentile `op_tail_ms` reports, within a saturation batch:
/// the open loop's own p75 tracked the host's steal time too closely to
/// be bounded (see the README), so it is printed, not reported.
const TAIL_Q: f64 = 0.75;
/// Length of the windows of scheduled send time the open-loop latency
/// figures are taken over (each holds 60 to 100 queries).
const WINDOW_S: f64 = 2.0;
/// How long before each arrival is due the reader stops sleeping.
const SPIN: Duration = Duration::from_millis(2);
const Z: f64 = 5.0;
const E_MU: f64 = 0.0011;
const E_SIGMA: f64 = 0.034;

/// What a query asks, as the benchmark tracks it.
#[derive(Debug, Clone)]
enum Query {
    Mc {
        circuit: usize,
        seed: u64,
        af: f64,
    },
    Hier {
        circuit: usize,
        gate: usize,
        scale: f64,
    },
}

impl Query {
    fn line(&self, id: &str, fx: &Fixture) -> String {
        match self {
            Query::Mc { circuit, seed, af } => format!(
                "{{\"id\":\"{id}\",{},\"samples\":{SAMPLES},\"seed\":{seed},\"area_fraction\":{af:?}}}",
                Circuit::Named(MC_CIRCUITS[*circuit]).fields()
            ),
            Query::Hier { circuit, gate, scale } => format!(
                "{{\"id\":\"{id}\",\"mode\":\"hier\",{},\"blocks\":{HIER_BLOCKS},\"area_fraction\":{AF_WARM:?},\"edit_gate\":{gate},\"edit_scale\":{scale:?}}}",
                fx.hier[*circuit].circuit.fields()
            ),
        }
    }

    /// Key under which identical queries must answer bitwise equally.
    fn key(&self) -> String {
        format!("{self:?}")
    }
}

/// A circuit as a query names it.
#[derive(Debug, Clone, Copy)]
enum Circuit {
    Named(BenchmarkId),
    Synth { gates: usize, seed: u64 },
}

impl Circuit {
    fn fields(self) -> String {
        match self {
            Circuit::Named(id) => format!("\"circuit\":\"{}\",\"scale\":{SCALE:?}", id.name()),
            Circuit::Synth { gates, seed } => format!("\"gates\":{gates},\"circuit_seed\":{seed}"),
        }
    }

    /// The same circuit the daemon builds for these fields.
    fn build(self) -> CircuitSetup {
        let circuit = match self {
            Circuit::Named(id) => benchmark_scaled(id, SCALE),
            Circuit::Synth { gates, seed } => generate(
                format!("synth{gates}"),
                GeneratorConfig::combinational(gates, seed),
            ),
        }
        .expect("generator accepts the benchmark sizes");
        CircuitSetup::prepare(&circuit)
    }
}

struct HierCircuit {
    circuit: Circuit,
    nodes: usize,
    /// Flat canonical worst (mean, sigma) at nominal parameters.
    nominal: (f64, f64),
    /// Flat canonical worst per (gate, scale) edit used.
    edits: HashMap<(usize, u64), (f64, f64)>,
}

/// Inputs and oracle references made in set-up from `--seed`.
struct Fixture {
    /// Algorithm 1 worst-delay (mean, sigma) per MC circuit.
    mc_reference: Vec<(f64, f64)>,
    /// MC seed pool per circuit.
    seed_pool: Vec<Vec<u64>>,
    /// Index 0 is the warm hier circuit; the rest are the cold pairs'.
    hier: Vec<HierCircuit>,
    edit_gates: Vec<usize>,
}

/// One scheduled arrival.
struct Arrival {
    at: Duration,
    rung: usize,
    id: String,
    query: Query,
    line: String,
    /// Index of the arrival this one is a concurrent twin of.
    twin_of: Option<usize>,
}

fn hier_edit(scale: f64) -> ParamVector {
    ParamVector::new([scale, -0.5 * scale, 0.25 * scale, 0.1 * scale])
}

/// The daemon's front-end configuration for a query at `af`.
fn daemon_context(af: f64) -> KleContext {
    let mut config = FrontEndConfig::new(af, 28.0, TruncationCriterion::new(60, 0.01));
    config.options.assembly_threads = 1;
    KleContext::build_with(
        &GaussianKernel::with_correlation_distance(1.0),
        &config,
        klest_core::pipeline::ExecPolicy::Plain,
        None,
    )
    .expect("daemon-equivalent KLE context")
}

const EDIT_SCALES: [f64; 3] = [0.1, 0.2, 0.3];

fn build_fixture(seed: u64, cold_hier: usize) -> Fixture {
    let mut rng = Rng::derive(seed, "serve_steady/fixture");
    let kernel = GaussianKernel::with_correlation_distance(1.0);
    let mc_reference = MC_CIRCUITS
        .iter()
        .map(|&id| {
            let setup = Circuit::Named(id).build();
            let s = rng.next_u64();
            let sampler = CholeskySampler::new(&kernel, setup.locations()).expect("Cholesky");
            let run = run_monte_carlo(
                &setup.timer,
                &sampler,
                &McConfig::new(REFERENCE_SAMPLES, s ^ 0x5eed).with_threads(1),
            )
            .expect("Algorithm 1 reference");
            let st = run.worst_delay_stats();
            (st.mean, st.std_dev)
        })
        .collect();
    let seed_pool = (0..MC_CIRCUITS.len())
        .map(|_| {
            (0..SEEDS_PER_CIRCUIT)
                .map(|_| rng.next_u64() % 1_000_000)
                .collect()
        })
        .collect();
    let ctx = daemon_context(AF_WARM);
    let mut hier = Vec::new();
    let mut edit_gates = Vec::new();
    for i in 0..=cold_hier {
        let circuit = if i == 0 {
            Circuit::Named(HIER_CIRCUIT)
        } else {
            Circuit::Synth {
                gates: COLD_HIER_GATES,
                seed: rng.next_u64() % 1_000_000,
            }
        };
        let setup = circuit.build();
        let nodes = setup.timer.node_count();
        if i == 0 {
            edit_gates = (0..8).map(|_| rng.below(nodes)).collect();
        }
        let sampler = KleFieldSampler::new(&ctx.kle, &ctx.mesh, ctx.rank, setup.locations())
            .expect("sampler");
        let w = analyze_canonical(&setup.timer, &sampler).expect("flat canonical");
        let nominal = (w.worst().mean, w.worst().sigma());
        let mut edits = HashMap::new();
        let gates_here: Vec<usize> = if i == 0 {
            edit_gates.clone()
        } else {
            vec![edit_gates[0] % nodes]
        };
        for &g in &gates_here {
            for scale in EDIT_SCALES {
                let mut params = vec![ParamVector::ZERO; setup.timer.node_count()];
                params[g] = hier_edit(scale);
                let r = analyze_canonical_with(&setup.timer, &sampler, &params)
                    .expect("flat canonical");
                edits.insert((g, scale.to_bits()), (r.worst().mean, r.worst().sigma()));
            }
        }
        hier.push(HierCircuit {
            circuit,
            nodes,
            nominal,
            edits,
        });
    }
    Fixture {
        mc_reference,
        seed_pool,
        hier,
        edit_gates,
    }
}

/// The whole run's arrival schedule.
fn schedule(seed: u64, seconds: f64, fx: &Fixture, cold_hier: usize) -> Vec<Arrival> {
    let mut rng = Rng::derive(seed, "serve_steady/arrivals");
    let rung_len = seconds / LADDER.len() as f64;
    let mut out: Vec<Arrival> = Vec::new();
    let mut t = 0.0;
    let mut block = 0usize;
    let mut cold_mc = 0usize;
    let mut used_cold_hier = 0usize;
    let mut last_cold: Option<Query> = None;
    let mut slots: Vec<u8> = Vec::new();
    loop {
        if slots.is_empty() {
            // 1 = warm hier, 2 = cold MC pair, 3 = warm repeat of the
            // last cold query, 4 = cold hier pair, 10 + c = warm MC on
            // circuit c (five per circuit). Shares are exact per block.
            slots = (0..15)
                .map(|i| 10 + (i % MC_CIRCUITS.len()) as u8)
                .collect();
            slots.extend([1, 1, 1, 2, 3]);
            if block % 5 == 4 && used_cold_hier < cold_hier {
                slots[15] = 4;
            }
            rng.shuffle(&mut slots);
            block += 1;
        }
        let rung = ((t / rung_len) as usize).min(LADDER.len() - 1);
        t += (0.5 + rng.unit()) / LADDER[rung];
        if t >= seconds {
            break;
        }
        let rung = ((t / rung_len) as usize).min(LADDER.len() - 1);
        let at = Duration::from_secs_f64(t);
        let kind = slots.pop().expect("slots refilled above");
        let warm_mc = |circuit: usize, rng: &mut Rng| Query::Mc {
            circuit,
            seed: fx.seed_pool[circuit][rng.below(SEEDS_PER_CIRCUIT)],
            af: AF_WARM,
        };
        let mut push = |query: Query, twin_of: Option<usize>| {
            let id = format!("q{}", out.len());
            let line = query.line(&id, fx);
            out.push(Arrival {
                at,
                rung,
                id,
                query,
                line,
                twin_of,
            });
            out.len() - 1
        };
        match kind {
            1 => {
                let gate = fx.edit_gates[rng.below(fx.edit_gates.len())];
                let scale = EDIT_SCALES[rng.below(EDIT_SCALES.len())];
                push(
                    Query::Hier {
                        circuit: 0,
                        gate,
                        scale,
                    },
                    None,
                );
            }
            2 => {
                cold_mc += 1;
                let q = Query::Mc {
                    circuit: block % MC_CIRCUITS.len(),
                    seed: fx.seed_pool[0][0],
                    af: AF_COLD * (1.0 + cold_mc as f64 * 1e-4),
                };
                let first = push(q.clone(), None);
                push(q.clone(), Some(first));
                last_cold = Some(q);
            }
            3 => match last_cold.take() {
                Some(q) => {
                    push(q, None);
                }
                None => {
                    push(warm_mc(0, &mut rng), None);
                }
            },
            4 => {
                used_cold_hier += 1;
                let circuit = used_cold_hier;
                let gate = fx.edit_gates[0] % fx.hier[circuit].nodes;
                let q = Query::Hier {
                    circuit,
                    gate,
                    scale: EDIT_SCALES[0],
                };
                let first = push(q.clone(), None);
                push(q, Some(first));
            }
            code => {
                push(warm_mc(usize::from(code - 10), &mut rng), None);
            }
        }
    }
    out
}

/// The connection's input, which is also the load generator: when the
/// daemon's reader asks for the next line, it waits until that arrival
/// is due, stamps the send and hands the line over, so that no second
/// thread has to wake to pass it on. After the last arrival it sends the
/// final stats probe and a shutdown.
struct ScheduledReader<'a> {
    arrivals: &'a [Arrival],
    origin: Instant,
    /// When each arrival was handed to the daemon.
    sent: Vec<Instant>,
    finished: bool,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ScheduledReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ScheduledReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            if let Some(a) = self.arrivals.get(self.sent.len()) {
                let due = self.origin + a.at;
                let now = Instant::now();
                if due > now + SPIN {
                    std::thread::sleep(due - now - SPIN);
                }
                // The last stretch is spent yielding rather than asleep: a
                // timer wake-up on a busy shared host can come milliseconds
                // late, and that lateness would count against the daemon.
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                self.sent.push(Instant::now());
                self.buf.extend_from_slice(a.line.as_bytes());
                self.buf.push(b'\n');
            } else if !self.finished {
                self.finished = true;
                self.buf.extend_from_slice(
                    b"{\"op\":\"stats\",\"id\":\"final-stats\"}\n{\"op\":\"shutdown\"}\n",
                );
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// The connection's output: each complete response line is stamped
/// with the instant it was written.
#[derive(Clone)]
struct StampedWriter {
    partial: Vec<u8>,
    lines: Arc<Mutex<Vec<(Instant, String)>>>,
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.partial.extend_from_slice(buf);
        while let Some(end) = self.partial.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.partial.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            self.lines
                .lock()
                .expect("response log lock is never poisoned")
                .push((now, text));
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Numeric field `key` of a flat JSON response line (first occurrence
/// after `from`), read without the program's JSON module.
fn field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn status(line: &str) -> Option<&str> {
    let pat = "\"status\":\"";
    let start = line.find(pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn id_of(line: &str) -> Option<&str> {
    let pat = "\"id\":\"";
    let start = line.find(pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// A fresh daemon; with `state`, over a fresh state directory.
fn daemon(workers: usize, state: Option<&Path>) -> Server {
    if let Some(state) = state {
        let _ = std::fs::remove_dir_all(state);
        std::fs::create_dir_all(state).expect("create the daemon state directory");
    }
    Server::new(ServeConfig {
        workers,
        queue_depth: 512,
        drain: Duration::from_secs(120),
        state_dir: state.map(Path::to_path_buf),
        ..ServeConfig::default()
    })
}

/// Pairs of identical cold queries sent at once to a two-worker daemon
/// with a state directory: counts the spectra and block models both
/// members of a pair built.
fn duplicate_probe(fx: &Fixture, state: &Path, out: &mut Outcome) -> u64 {
    let server = daemon(2, Some(state));
    prime(&server, fx);
    let mut input = String::new();
    for k in 0..4u64 {
        let mc = Query::Mc {
            circuit: k as usize % MC_CIRCUITS.len(),
            seed: fx.seed_pool[0][0],
            af: AF_COLD * (1.0 - (k + 1) as f64 * 1e-4),
        };
        let hier = Circuit::Synth {
            gates: COLD_HIER_GATES,
            seed: 1_000_000 + k,
        };
        for twin in 0..2 {
            input.push_str(&mc.line(&format!("dup-mc{k}-{twin}"), fx));
            input.push('\n');
        }
        for twin in 0..2 {
            input.push_str(&format!(
                "{{\"id\":\"dup-hier{k}-{twin}\",\"mode\":\"hier\",{},\"blocks\":{HIER_BLOCKS},\"area_fraction\":{AF_WARM:?}}}\n",
                hier.fields()
            ));
        }
    }
    let lines = Arc::new(Mutex::new(Vec::new()));
    server.serve(
        std::io::Cursor::new(input),
        StampedWriter {
            partial: Vec::new(),
            lines: Arc::clone(&lines),
        },
    );
    let lines = lines.lock().expect("response log lock").clone();
    let find = |id: String| {
        lines
            .iter()
            .find(|(_, l)| id_of(l) == Some(id.as_str()))
            .map(|(_, l)| l.clone())
    };
    let mut duplicates = 0;
    for k in 0..4 {
        let pair =
            |kind: &str| [0, 1].map(|t| find(format!("dup-{kind}{k}-{t}")).unwrap_or_default());
        let [a, b] = pair("mc");
        if !(a.contains("\"status\":\"completed\"") && b.contains("\"status\":\"completed\"")) {
            out.note(format!("duplicate probe: MC pair {k} did not complete"));
        }
        duplicates += u64::from(a.contains("\"warm\":false") && b.contains("\"warm\":false"));
        let [a, b] = pair("hier");
        let extracted = |l: &str| {
            l.find("\"hier\":")
                .and_then(|i| field(&l[i..], "extracted"))
                .unwrap_or(0.0)
        };
        duplicates += extracted(&a).min(extracted(&b)) as u64;
    }
    drop(server);
    let _ = std::fs::remove_dir_all(state);
    duplicates
}

/// Warms the daemon: one query per warm MC circuit and one hier query,
/// so the spectrum, circuits and block models of the warm traffic are
/// cached before the clock starts.
fn prime(server: &Server, fx: &Fixture) {
    let mut input = String::new();
    for c in 0..MC_CIRCUITS.len() {
        let q = Query::Mc {
            circuit: c,
            seed: fx.seed_pool[c][0],
            af: AF_WARM,
        };
        input.push_str(&q.line(&format!("prime{c}"), fx));
        input.push('\n');
    }
    let q = Query::Hier {
        circuit: 0,
        gate: fx.edit_gates[0],
        scale: EDIT_SCALES[0],
    };
    input.push_str(&q.line("prime-hier", fx));
    input.push('\n');
    server.serve(std::io::Cursor::new(input), std::io::sink());
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer, out: &mut Outcome) {
    let ladder_s = cfg.seconds * LADDER_SHARE;
    let cold_hier = (ladder_s / 4.0).ceil() as usize + 2;
    let fx = tr.span("oracle.fixture", || build_fixture(cfg.seed, cold_hier));
    let arrivals = schedule(cfg.seed, ladder_s, &fx, cold_hier);
    let (setup_s, server) = timed_setup(5, || {
        let server = daemon(WORKERS, None);
        prime(&server, &fx);
        server
    });
    out.set("setup_s", setup_s, "s");
    let lines = Arc::new(Mutex::new(Vec::new()));
    let writer = StampedWriter {
        partial: Vec::new(),
        lines: Arc::clone(&lines),
    };
    let misses_before = server.cache().snapshot().spectrum_misses;
    if cfg.trace {
        klest_obs::reset();
        klest_obs::enable();
    }
    let mut reader = ScheduledReader {
        arrivals: &arrivals,
        origin: Instant::now() + Duration::from_millis(20),
        sent: Vec::with_capacity(arrivals.len()),
        finished: false,
        buf: Vec::new(),
        pos: 0,
    };
    let summary = server.serve(&mut reader, writer);
    let (origin, sent) = (reader.origin, reader.sent);
    let responses = lines.lock().expect("response log lock").clone();
    if cfg.trace {
        // Worker utilisation and the program's front-end counters over
        // the open loop alone, per cold front end the daemon built.
        let util = server.stats_report(0).utilization.unwrap_or(0.0);
        out.set("runtime.worker_busy_pct", util * 100.0, "%");
        let builds = (server.cache().snapshot().spectrum_misses - misses_before).max(1) as f64;
        let counter = |name| crate::util::obs_counter(name) as f64 / builds;
        out.set(
            "galerkin.kernel_evals",
            counter("galerkin.kernel_evals"),
            "count",
        );
        out.set(
            "eigen.ql_iterations",
            counter("eigen.ql_iterations"),
            "count",
        );
        klest_obs::disable();
    }
    evaluate(&fx, &arrivals, &sent, origin, &responses, &server, out);
    out.note(format!(
        "daemon summary: received {} admitted {} completed {} shed {} drained clean {}",
        summary.received,
        summary.admitted,
        summary.completed,
        summary.shed_overload + summary.shed_deadline + summary.shed_draining,
        summary.drained_clean
    ));
    if !summary.drained_clean {
        out.invalid.push("the daemon did not drain cleanly".into());
    }
    let (capacity, burst_tail) = saturation(&fx, &server, cfg.seed, cfg.seconds - ladder_s, out);
    out.set("ops_per_s", capacity, "ops/s");
    out.set("op_tail_ms", burst_tail, "ms");
    if cfg.trace {
        let state = cfg
            .out_dir
            .join(format!("serve-state-{}", std::process::id()));
        let duplicates = duplicate_probe(&fx, &state, out);
        out.set("cache.duplicate_builds", duplicates as f64, "count");
        layer_probes(&arrivals, &cfg.out_dir, tr, out);
        out.set(
            "obs.trace_overhead_pct",
            obs_overhead_pct(&server, &arrivals),
            "%",
        );
    }
}

fn evaluate(
    fx: &Fixture,
    arrivals: &[Arrival],
    sent: &[Instant],
    origin: Instant,
    responses: &[(Instant, String)],
    server: &Server,
    out: &mut Outcome,
) {
    let mut by_id: HashMap<&str, Vec<(Instant, &str)>> = HashMap::new();
    let mut stats_line: Option<&str> = None;
    for (at, line) in responses {
        match (id_of(line), status(line)) {
            (Some("final-stats"), _) => stats_line = Some(line),
            (Some(id), _) => by_id.entry(id).or_default().push((*at, line)),
            _ => {}
        }
    }
    let late: Vec<f64> = arrivals
        .iter()
        .zip(sent)
        .map(|(a, s)| s.saturating_duration_since(origin + a.at).as_secs_f64() * 1e3)
        .collect();
    let mut latency = vec![Vec::new(); LADDER.len()];
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let mut service_by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    let (mut queue_ms, mut service_ms) = (Vec::new(), Vec::new());
    let mut answers: HashMap<String, (u64, u64)> = HashMap::new();
    let (mut warm_hits, mut spectrum_lookups) = (0u64, 0u64);
    for (i, a) in arrivals.iter().enumerate() {
        let mut c = Checks::default();
        let got = by_id.get(a.id.as_str()).map(Vec::as_slice).unwrap_or(&[]);
        c.check(got.len() == 1, || {
            format!("{}: {} responses", a.id, got.len())
        });
        let Some(&(done, line)) = got.first() else {
            out.op(false, || c.message());
            continue;
        };
        c.check(status(line) == Some("completed"), || {
            format!("{}: status {:?}", a.id, status(line))
        });
        let due = origin + a.at;
        let ms = done.saturating_duration_since(due).as_secs_f64() * 1e3;
        latency[a.rung].push(ms);
        let w = (a.at.as_secs_f64() / WINDOW_S) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, Vec::new());
        }
        windows[w].push(ms);
        let class = match (
            &a.query,
            a.twin_of.is_some() || arrivals.get(i + 1).is_some_and(|b| b.twin_of == Some(i)),
        ) {
            (Query::Mc { af, .. }, true) if *af != AF_WARM => "cold mc pair",
            (Query::Mc { af, .. }, false) if *af != AF_WARM => "cold mc repeat",
            (Query::Mc { .. }, _) => "warm mc",
            (Query::Hier { .. }, true) => "cold hier pair",
            (Query::Hier { .. }, false) => "warm hier",
        };
        by_class.entry(class).or_default().push(ms);
        service_by_class
            .entry(class)
            .or_default()
            .push(field(line, "service_ms").unwrap_or(0.0));
        queue_ms.push(field(line, "queue_ms").unwrap_or(0.0));
        service_ms.push(field(line, "service_ms").unwrap_or(0.0));
        check_answer(fx, &a.id, &a.query, line, &mut answers, &mut c);
        if matches!(a.query, Query::Mc { .. }) {
            spectrum_lookups += 1;
            warm_hits += u64::from(line.contains("\"warm\":true"));
        }
        out.op(c.ok(), || c.message());
    }
    // Run validity: the final stats probe must show every query admitted
    // and none shed.
    match stats_line {
        Some(s) => {
            let admitted = field(s, "admitted").unwrap_or(-1.0);
            let shed = ["shed_overload", "shed_deadline", "shed_draining"]
                .iter()
                .map(|k| field(s, k).unwrap_or(-1.0))
                .sum::<f64>();
            // The priming connection admitted one query per warm MC
            // circuit and one hier query.
            let primed = MC_CIRCUITS.len() as f64 + 1.0;
            if admitted != arrivals.len() as f64 + primed || shed != 0.0 {
                out.invalid.push(format!(
                    "stats probe: admitted {admitted} (sent {} + {primed} primes), shed {shed}",
                    arrivals.len()
                ));
            }
        }
        None => out
            .invalid
            .push("no response to the final stats probe".into()),
    }
    // The ladder: a rung is sustained when its p99 meets the limit and
    // its backlog does not grow (the last quarter's median latency stays
    // within twice the first quarter's, plus 10 ms).
    let mut sustained: Option<usize> = None;
    for (r, lat) in latency.iter().enumerate() {
        let n = lat.len();
        if n < 8 {
            continue;
        }
        let p99 = quantile(lat, 0.99);
        let head = median(&lat[..n / 4]);
        let tail = median(&lat[n - n / 4..]);
        let growing = tail > 2.0 * head + 10.0;
        out.note(format!(
            "rung {r}: offered {:.0}/s, {n} queries, p50 {:.2} ms, p99 {p99:.2} ms, backlog growing {growing}",
            LADDER[r],
            median(lat)
        ));
        if growing && r == 0 {
            out.invalid
                .push("backlog grows at the lowest offered rate".into());
        }
        if p99 <= P99_LIMIT_MS && !growing {
            sustained = Some(r);
        }
    }
    for (class, v) in &by_class {
        out.note(format!(
            "{class}: {} queries, service p50 {:.0} ms, latency p50 {:.2} ms, p90 {:.2} ms, max {:.2} ms",
            v.len(),
            median(&service_by_class[class]),
            median(v),
            quantile(v, 0.9),
            quantile(v, 1.0)
        ));
    }
    let all: Vec<f64> = latency.concat();
    // Per window of scheduled send time, then the median over windows,
    // so that a stall of the shared machine moves one window, not the run.
    let per_window = |q: f64| -> Vec<f64> {
        windows
            .iter()
            .filter(|w| w.len() >= 20)
            .map(|w| quantile(w, q))
            .collect()
    };
    out.set("op_p50_ms", median(&per_window(0.5)), "ms");
    out.note(format!(
        "open-loop latency, median over 2 s windows: p50 {:.3} ms, p75 {:.3} ms",
        median(&per_window(0.5)),
        median(&per_window(0.75))
    ));
    match sustained {
        Some(r) => out.note(format!("highest sustained rung: {:.0} queries/s offered", LADDER[r])),
        None => out
            .invalid
            .push("no rung of the ladder was sustained".into()),
    }
    let backlog = arrivals
        .iter()
        .filter(|a| {
            by_id
                .get(a.id.as_str())
                .and_then(|v| v.first())
                .is_none_or(|(done, _)| *done > *sent.last().unwrap_or(&origin))
        })
        .count();
    out.note(format!(
        "queries {}: p75 {:.2} p90 {:.2} p95 {:.2} p99 {:.2} ms; generator late p99 {:.3} ms, backlog at last send {backlog}",
        all.len(),
        quantile(&all, 0.75),
        quantile(&all, 0.90),
        quantile(&all, 0.95),
        quantile(&all, 0.99),
        quantile(&late, 0.99)
    ));
    out.set("loadgen.late_ms_p99", quantile(&late, 0.99), "ms");
    out.set("serve.queue_ms_p50", median(&queue_ms), "ms");
    out.set("serve.queue_ms_p99", quantile(&queue_ms, 0.99), "ms");
    out.set("serve.service_ms_p50", median(&service_ms), "ms");
    out.set("serve.service_ms_p99", quantile(&service_ms, 0.99), "ms");
    out.set(
        "cache.spectrum_hit_ratio",
        warm_hits as f64 / spectrum_lookups.max(1) as f64,
        "ratio",
    );
    let snap = server.cache().snapshot();
    let lookups = (snap.block_hits + snap.block_misses).max(1) as f64;
    out.set(
        "cache.block_hit_ratio",
        snap.block_hits as f64 / lookups,
        "ratio",
    );
}

/// The daemon's capacity: whole batches of the open loop's traffic mix
/// (per block of 20: 15 warm MC queries, 3 warm hier queries with an
/// edit, one cold MC query on a new configuration and its warm repeat)
/// sent to the warm daemon at once, so that its worker never waits for
/// a query, until `seconds` have passed. Every answer is checked as in
/// the open loop. Returns the median batch's completions per second and
/// the median batch's p75 query latency from the batch's send.
fn saturation(
    fx: &Fixture,
    server: &Server,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> (f64, f64) {
    let mut rng = Rng::derive(seed, "serve_steady/saturation");
    let mut answers = HashMap::new();
    let mut rates = Vec::new();
    let mut tails = Vec::new();
    let mut cold = 0usize;
    let started = Instant::now();
    loop {
        let mut batch: Vec<Query> = Vec::new();
        for _ in 0..SATURATION_BLOCKS {
            let mut block: Vec<Query> = (0..15)
                .map(|i| {
                    let circuit = i % MC_CIRCUITS.len();
                    Query::Mc {
                        circuit,
                        seed: fx.seed_pool[circuit][rng.below(SEEDS_PER_CIRCUIT)],
                        af: AF_WARM,
                    }
                })
                .collect();
            for _ in 0..3 {
                block.push(Query::Hier {
                    circuit: 0,
                    gate: fx.edit_gates[rng.below(fx.edit_gates.len())],
                    scale: EDIT_SCALES[rng.below(EDIT_SCALES.len())],
                });
            }
            rng.shuffle(&mut block);
            // Configurations the open loop and the duplicate probe never
            // use (they nudge the base mesh the other way or less).
            cold += 1;
            let q = Query::Mc {
                circuit: cold % MC_CIRCUITS.len(),
                seed: fx.seed_pool[0][0],
                af: AF_COLD * (1.0 - (10 + cold) as f64 * 1e-4),
            };
            let at = rng.below(block.len() + 1);
            block.insert(at, q.clone());
            block.push(q);
            batch.extend(block);
        }
        let ids: Vec<String> = (0..batch.len())
            .map(|k| format!("sat{}-{k}", rates.len()))
            .collect();
        let input: String = batch
            .iter()
            .zip(&ids)
            .map(|(q, id)| format!("{}\n", q.line(id, fx)))
            .collect();
        let lines = Arc::new(Mutex::new(Vec::new()));
        let t0 = Instant::now();
        server.serve(
            std::io::Cursor::new(input),
            StampedWriter {
                partial: Vec::new(),
                lines: Arc::clone(&lines),
            },
        );
        rates.push(batch.len() as f64 / t0.elapsed().as_secs_f64());
        let lines = lines.lock().expect("response log lock");
        let mut by_id: HashMap<&str, Vec<&str>> = HashMap::new();
        let mut latency = Vec::with_capacity(batch.len());
        for (at, line) in lines.iter() {
            if let Some(id) = id_of(line) {
                by_id.entry(id).or_default().push(line);
                latency.push(at.saturating_duration_since(t0).as_secs_f64() * 1e3);
            }
        }
        tails.push(quantile(&latency, TAIL_Q));
        for (q, id) in batch.iter().zip(&ids) {
            let mut c = Checks::default();
            let got = by_id.get(id.as_str()).map(Vec::as_slice).unwrap_or(&[]);
            c.check(got.len() == 1, || format!("{id}: {} responses", got.len()));
            if let Some(line) = got.first() {
                c.check(status(line) == Some("completed"), || {
                    format!("{id}: status {:?}", status(line))
                });
                check_answer(fx, id, q, line, &mut answers, &mut c);
            }
            out.op(c.ok(), || c.message());
        }
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.note(format!(
        "saturation: {} batches of {} queries, completions/s median {:.1} (min {:.1}, max {:.1}), p75 latency in a batch median {:.1} ms",
        rates.len(),
        SATURATION_BLOCKS * 20,
        median(&rates),
        quantile(&rates, 0.0),
        quantile(&rates, 1.0),
        median(&tails)
    ));
    (median(&rates), median(&tails))
}

/// The checks every answer must pass: bitwise equal to any identical
/// query's answer, and within the oracle bounds of its kind.
fn check_answer(
    fx: &Fixture,
    id: &str,
    query: &Query,
    line: &str,
    answers: &mut HashMap<String, (u64, u64)>,
    c: &mut Checks,
) {
    let (mean, sigma) = (
        field(line, "mean").unwrap_or(f64::NAN),
        field(line, "sigma").unwrap_or(f64::NAN),
    );
    // Identical queries answer bitwise equally, warm or cold.
    let bits = (mean.to_bits(), sigma.to_bits());
    let first = *answers.entry(query.key()).or_insert(bits);
    c.check(first == bits, || {
        format!("{id}: answer differs from an identical query's")
    });
    match query {
        Query::Mc { circuit, .. } => {
            let (mu, sd) = fx.mc_reference[*circuit];
            let s = SAMPLES as f64;
            let mu_tol = Z * sd * (1.0 / s + 1.0 / REFERENCE_SAMPLES as f64).sqrt() + E_MU * mu;
            let sd_tol = Z * sd * (1.0 / (2.0 * (s - 1.0))).sqrt() + E_SIGMA * sd;
            c.check((mean - mu).abs() <= mu_tol && (sigma - sd).abs() <= sd_tol, || {
                format!(
                    "{id}: MC ({mean}, {sigma}) outside ({mu} ± {mu_tol}, {sd} ± {sd_tol}) of Algorithm 1"
                )
            });
        }
        Query::Hier {
            circuit,
            gate,
            scale,
        } => {
            let h = &fx.hier[*circuit];
            let within = |(m, s): (f64, f64), (fm, fs): (f64, f64)| {
                rel(m, fm) <= 0.02 && rel(s, fs) <= 0.05
            };
            c.check(within((mean, sigma), h.nominal), || {
                format!(
                    "{id}: hier ({mean}, {sigma}) outside 2%/5% of flat {:?}",
                    h.nominal
                )
            });
            let edit_at = line.find("\"edit\":").unwrap_or(line.len());
            let edit_part = &line[edit_at..];
            let em = field(edit_part, "mean").unwrap_or(f64::NAN);
            let es = field(edit_part, "sigma").unwrap_or(f64::NAN);
            match h.edits.get(&(*gate, scale.to_bits())) {
                Some(&flat) => c.check(within((em, es), flat), || {
                    format!("{id}: hier edit ({em}, {es}) outside 2%/5% of flat {flat:?}")
                }),
                None => c.check(false, || {
                    format!("{id}: no flat reference for its edit")
                }),
            }
        }
    }
}

/// Closed-loop batches of the run's warm MC queries on the warm daemon,
/// alternately with the obs sink off and on: the tracing overhead, %.
fn obs_overhead_pct(server: &Server, arrivals: &[Arrival]) -> f64 {
    let batch: String = arrivals
        .iter()
        .filter(|a| matches!(a.query, Query::Mc { af, .. } if af == AF_WARM))
        .take(200)
        .map(|a| format!("{}\n", a.line))
        .collect();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for (enabled, times) in [(false, &mut off), (true, &mut on)] {
            if enabled {
                klest_obs::enable();
            } else {
                klest_obs::disable();
            }
            let started = Instant::now();
            server.serve(std::io::Cursor::new(batch.clone()), std::io::sink());
            times.push(started.elapsed().as_secs_f64());
        }
    }
    klest_obs::disable();
    (median(&on) / median(&off) - 1.0) * 100.0
}

/// Times the protocol parser and the journal append on the run's own
/// request lines, one call at a time.
fn layer_probes(arrivals: &[Arrival], out_dir: &Path, tr: &mut Tracer, out: &mut Outcome) {
    for a in arrivals {
        tr.span("serve.parse", || {
            klest_serve::parse_request(&a.line).is_ok()
        });
    }
    let path = out_dir.join(format!("journal-probe-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let (journal, _) = klest_serve::RequestJournal::open(&path);
    for a in arrivals.iter().take(200) {
        tr.span("journal.append", || {
            if let Some(seq) = journal.record_admit(&a.line) {
                journal.record_done(seq);
            }
        });
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    out.set(
        "serve.parse_us",
        median(&tr.durations_ms("serve.parse")) * 1e3,
        "us",
    );
    out.set(
        "journal.append_us",
        median(&tr.durations_ms("journal.append")) * 1e3,
        "us",
    );
}
