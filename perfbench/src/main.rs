//! The klest benchmark: four seeded workloads driven through the
//! library's public API, with end-to-end metrics from untraced runs and
//! per-layer metrics from a traced run of the same workload and seed.
//!
//! ```text
//! perfbench --workload <kle_cold|table1_mc|edit_retime|serve_steady>
//!           --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! perfbench counters [--seed <n>]     # counter repeatability + Pearson r
//! perfbench reference [--seed <n>]    # recompute the README's reference figures
//! ```
//!
//! The last line of a workload run is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod counters;
mod edit_retime;
mod kle_cold;
mod oracle;
mod reference;
mod serve_steady;
mod table1_mc;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;
use util::{median, quantile, Outcome};

pub const WORKLOADS: [&str; 4] = ["kle_cold", "table1_mc", "edit_retime", "serve_steady"];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("mesh.build_ms", "ms"),
    ("galerkin.assemble_ms", "ms"),
    ("galerkin.kernel_evals", "count"),
    ("eigen.solve_ms", "ms"),
    ("eigen.ql_iterations", "count"),
    ("eigen.matvecs", "count"),
    ("eigen.pairs_computed", "count"),
    ("eigen.pairs_used_ratio", "ratio"),
    ("samplers.cholesky_ms", "ms"),
    ("samplers.kle_gather_ms", "ms"),
    ("mc.reference_ms", "ms"),
    ("mc.kle_ms", "ms"),
    ("mc.samples", "count"),
    ("mc.kle_samples_per_s", "samples/s"),
    ("sta.analyze_us", "us"),
    ("sta.incremental_nodes", "count"),
    ("canonical.pass_ms", "ms"),
    ("partition.build_ms", "ms"),
    ("hier.extract_ms", "ms"),
    ("hier.compose_ms", "ms"),
    ("hier.edit_ms", "ms"),
    ("hier.blocks_reextracted", "count"),
    ("cache.spectrum_hit_ratio", "ratio"),
    ("cache.block_hit_ratio", "ratio"),
    ("cache.duplicate_builds", "count"),
    ("cache.block_entries", "count"),
    ("cache.block_mb", "MB"),
    ("serve.parse_us", "us"),
    ("journal.append_us", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("runtime.worker_busy_pct", "%"),
    ("loadgen.late_ms_p99", "ms"),
    ("obs.trace_overhead_pct", "%"),
];

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "ops/s"),
];

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

/// A closed-loop workload: one call runs one whole round of ops,
/// pushing each op's wall time (ms) and recording each op's checks.
pub trait Phase {
    fn round(&mut self, tr: &mut Tracer, out: &mut Outcome, times: &mut Vec<f64>);
}

/// Runs whole rounds until `seconds` have passed; returns every op's
/// time (ms) and the number of rounds.
fn rounds(
    w: &mut dyn Phase,
    seconds: f64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<f64>, usize) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut rounds = 0;
    loop {
        w.round(tr, out, &mut times);
        rounds += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            return (times, rounds);
        }
    }
}

/// The closed-loop measurement. Untraced: every op counts toward the
/// end-to-end metrics. Traced: the first half of the time runs untraced
/// with the obs sink off, the second half traced with it on, and the gap
/// between the two halves' median op is the tracing overhead.
pub fn closed_loop(
    w: &mut dyn Phase,
    cfg: &RunCfg,
    tr: &mut Tracer,
    out: &mut Outcome,
    tail_q: f64,
) {
    if !cfg.trace {
        let (times, rounds) = rounds(w, cfg.seconds, tr, out);
        let total_ms: f64 = times.iter().sum();
        out.set("op_p50_ms", median(&times), "ms");
        out.set("op_tail_ms", quantile(&times, tail_q), "ms");
        out.set("ops_per_s", times.len() as f64 * 1e3 / total_ms, "ops/s");
        out.note(format!(
            "ops timed: {} in {rounds} rounds (tail = p{:.0})",
            times.len(),
            tail_q * 100.0
        ));
        return;
    }
    tr.set_on(false);
    klest_obs::disable();
    let (plain, _) = rounds(w, cfg.seconds / 2.0, tr, out);
    tr.set_on(true);
    klest_obs::enable();
    let (traced, _) = rounds(w, cfg.seconds / 2.0, tr, out);
    klest_obs::disable();
    out.set(
        "obs.trace_overhead_pct",
        (median(&traced) / median(&plain) - 1.0) * 100.0,
        "%",
    );
}

/// Fills the per-layer metrics that come straight from spans and obs
/// counters; workloads overwrite or add the rest.
pub fn layer_metrics(tr: &Tracer, out: &mut Outcome) {
    let ms = |span: &str| median(&tr.durations_ms(span));
    for (metric, span) in [
        ("mesh.build_ms", "mesh.build"),
        ("galerkin.assemble_ms", "galerkin.assemble"),
        ("eigen.solve_ms", "eigen.solve"),
        ("samplers.cholesky_ms", "samplers.cholesky"),
        ("samplers.kle_gather_ms", "samplers.kle_gather"),
        ("mc.reference_ms", "mc.reference"),
        ("mc.kle_ms", "mc.kle"),
        ("canonical.pass_ms", "canonical.pass"),
        ("partition.build_ms", "partition.build"),
        ("hier.extract_ms", "hier.extract"),
        ("hier.compose_ms", "hier.compose"),
        ("hier.edit_ms", "hier.edit"),
    ] {
        out.set(metric, ms(span), "ms");
    }
    out.set("sta.analyze_us", ms("sta.analyze") * 1e3, "us");
    // Front-end counters are reported per front end built while traced,
    // unless the workload already set them.
    let builds = tr.durations_ms("kle.frontend").len().max(1) as f64;
    let counters = klest_obs::snapshot().counters;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    for (name, unit) in PER_LAYER {
        if !out.metrics.contains_key(name) {
            out.set(name, 0.0, unit);
        }
    }
    for (metric, name) in [
        ("galerkin.kernel_evals", "galerkin.kernel_evals"),
        ("eigen.ql_iterations", "eigen.ql_iterations"),
        ("eigen.matvecs", "galerkin.operator_matvecs"),
    ] {
        if out.metrics.get(metric).is_none_or(|(v, _)| *v == 0.0) {
            out.set(metric, counter(name) / builds, "count");
        }
    }
}

fn write_trace(tr: &Tracer, cfg: &RunCfg, out: &mut Outcome) {
    let counters = klest_obs::snapshot().counters;
    let path = cfg
        .out_dir
        .join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| tr.write_json(&path, &cfg.workload, cfg.seed, &counters));
    match written {
        Ok(()) => out.note(format!("span tree written to {}", path.display())),
        Err(e) => out.note(format!("could not write span tree {}: {e}", path.display())),
    }
}

fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(cfg.trace);
    // Steal time explains run-to-run spread on a shared host.
    let (steal0, total0) = util::host_cpu_ticks();
    if cfg.trace {
        klest_obs::reset();
        klest_obs::enable();
    } else {
        klest_obs::disable();
    }
    match cfg.workload.as_str() {
        "kle_cold" => {
            // The warm-up runs through the untraced entry point, so keep
            // its work out of the per-front-end counters.
            klest_obs::disable();
            let (mut w, setup_s) = kle_cold::KleCold::setup(cfg.seed);
            out.set("setup_s", setup_s, "s");
            closed_loop(&mut w, cfg, &mut tr, &mut out, 0.80);
            if cfg.trace {
                w.pair_metrics(&mut out);
            }
        }
        "table1_mc" => table1_mc::run(cfg, &mut tr, &mut out),
        "edit_retime" => edit_retime::run(cfg, &mut tr, &mut out),
        "serve_steady" => serve_steady::run(cfg, &mut tr, &mut out),
        other => unreachable!("workload {other} was validated"),
    }
    out.set("peak_rss_mb", util::peak_rss_mb(), "MB");
    let (steal, total) = util::host_cpu_ticks();
    out.note(format!(
        "host CPU time stolen by other guests during the run: {:.1}%",
        100.0 * (steal - steal0) as f64 / (total - total0).max(1) as f64
    ));
    if cfg.trace {
        layer_metrics(&tr, &mut out);
        out.note(format!("{} spans recorded", tr.span_count()));
        write_trace(&tr, cfg, &mut out);
    }
    out
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]\n\
         \x20      perfbench counters [--seed <n>]\n\
         \x20      perfbench reference [--seed <n>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some("counters") | Some("reference") => (args[0].clone(), &args[1..]),
        _ => ("run".to_string(), &args[..]),
    };
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from(".perfbench"),
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => cfg.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => cfg.out_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    match sub.as_str() {
        "counters" => std::process::exit(counters::run(cfg.seed)),
        "reference" => std::process::exit(reference::run(cfg.seed)),
        _ => {}
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) || cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        usage();
    }
    let out = run(&cfg);
    print_outcome(&cfg, &out);
}

fn print_outcome(cfg: &RunCfg, out: &Outcome) {
    println!(
        "workload {} seed {} trace {}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    for f in &out.invalid {
        println!("  INVALID RUN: {f}");
    }
    println!("  ops attempted {} failed {}", out.attempted, out.failed);
    let wanted: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut json = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = out.metrics.get(*name).map_or(0.0, |(v, _)| *v);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("  {name:<26} {value:>16.6} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.invalid.is_empty(),
        out.attempted.max(1),
        out.failed
    );
}
