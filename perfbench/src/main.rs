//! One seeded benchmark of the fannr serving stack.
//!
//! ```text
//! perfbench --fannr PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--net-seed 7]
//! ```
//!
//! Each run deploys the real stack as child processes on a synthetic
//! road network (`NODES` nodes from `--net-seed`), drives the workload's traffic
//! (generated from `--seed`) from this one process, checks every answer
//! against an in-process mirror engine, and prints a human-readable
//! report followed by one JSON result line. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports per-layer metrics from spans
//! recorded around calls into each layer, and writes the spans out.
//! Run artifacts land under `.perfbench/` in the working directory.

mod deploy;
mod idle;
mod load;
mod pools;
mod stats;
mod trace;
mod verify;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fann_core::engine::Engine;
use fannr_serve::{Body, Json, Request, Response};

use deploy::{DeployConfig, Deployment, Kind};
use load::{PhaseResult, Status};
use roadnet::{NodeId, Weight};
use stats::Samples;

/// Size of the synthetic road network every workload runs on.
const NODES: usize = 10_000;
/// Load connections from the one load process (the box has 2 cores).
const CONNS: usize = 2;
/// Deployments brought up per untraced run (`setup_s` is their median):
/// at least `MIN_SETUPS`, more while their total stays under
/// `SETUP_BUDGET_S`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 0.5;
/// How long a phase waits for stragglers after its last request was due.
const DRAIN: Duration = Duration::from_secs(15);
/// Interior edges the update feed toggles.
const FEED_EDGES: usize = 4;
/// Samples a ladder step needs for ten beyond its p99, and the shortest
/// step.
const RUNG_SAMPLES: usize = 1100;
const MIN_RUNG_S: f64 = 0.5;
/// Each ladder step offers this many times the rate of the one before.
const LADDER_STEP: f64 = 1.25;
/// Most ladder steps a run tries (the last offers 1.25^9 ≈ 7.5 times the
/// first).
const MAX_RUNGS: usize = 10;
/// Requests each load connection keeps outstanding in the saturation
/// phase: 2 × 16 in all, below the server's queue depth (64), so nothing is
/// shed and every worker always has work.
const SATURATION_WINDOW: usize = 16;
/// Share of the offered rate a passing step must answer (the drain after
/// the last due time lengthens the window a little).
const KEEP_UP: f64 = 0.9;
/// Back-to-back updates closing every run (ack-latency samples).
const ACK_BURST: usize = 20;
/// The end-to-end metrics in the result line (`BENCHMARK.json` bounds
/// them). `query_p50_ms`, `query_p99_ms`, `update_ack_p50_ms`,
/// `capacity_qps` and `failed_frac` are printed and recorded too, but not
/// gated: on a shared 2-vCPU host the first three swing by more than any
/// allowed bound between sets of runs on at least one workload (host
/// stalls of several ms, CPU speed drift, wake-up costs), `capacity_qps`
/// moves in whole ladder steps of 25%, and `failed_frac` reads 0.
const GATED: [&str; 7] = [
    "setup_s",
    "saturation_qps",
    "ok_frac",
    "staleness_p50_s",
    "staleness_tail_s",
    "rss_mb",
    "index_mb",
];

/// A workload: deployment, traffic, offered rate, rate ladder and p99
/// limit. Rates and limits were fixed from measurements of the parent
/// commit on a 2-core box; phase lengths scale with `--seconds` (given
/// here for 10 s).
#[derive(Debug, Clone, Copy)]
struct Workload {
    name: &'static str,
    kind: Kind,
    skewed: bool,
    /// Query workers per server process.
    workers: usize,
    cache_capacity: usize,
    /// Offered rate of the latency phase, queries/s.
    rate: f64,
    fixed_s: f64,
    /// Requests of the closed-loop saturation phase.
    saturation: usize,
    /// First ladder rate; each further step offers `LADDER_STEP` times
    /// more, until one fails.
    ladder_from: f64,
    rung_s: f64,
    p99_limit_ms: f64,
    /// Double/restore pairs sent between traffic segments, each followed
    /// until the index is fresh again.
    probe_pairs: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "labels-uniform",
        kind: Kind::Labels,
        skewed: false,
        workers: 2,
        cache_capacity: 1024,
        rate: 500.0,
        fixed_s: 3.0,
        saturation: 6000,
        ladder_from: 1250.0,
        rung_s: 1.5,
        p99_limit_ms: 100.0,
        probe_pairs: PROBE_PAIRS,
    },
    Workload {
        name: "indexfree-uniform",
        kind: Kind::IndexFree,
        skewed: false,
        workers: 2,
        cache_capacity: 1024,
        rate: 100.0,
        fixed_s: 10.5,
        saturation: 500,
        ladder_from: 125.0,
        rung_s: 1.0,
        p99_limit_ms: 500.0,
        probe_pairs: 20,
    },
    Workload {
        name: "router-skewed",
        kind: Kind::Router,
        skewed: true,
        workers: 1,
        cache_capacity: 1024,
        rate: 300.0,
        fixed_s: 3.5,
        saturation: 15000,
        ladder_from: 1875.0,
        rung_s: 1.5,
        p99_limit_ms: 100.0,
        probe_pairs: PROBE_PAIRS,
    },
];

/// Double/restore pairs the label workloads follow to freshness, one
/// interior edge each (each update takes a scoped label repair of 1–3 s).
const PROBE_PAIRS: usize = 3;

/// Hot distinct queries of the skewed mix (fits every shard's cache).
const HOT_SET: usize = 64;
/// Share of skewed requests that are one-off queries.
const ONE_OFF: f64 = 0.1;

struct Args {
    fannr: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    net_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{a}'"))?;
        let val = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key.to_string(), val);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str, default: &str| -> Result<f64, String> {
        map.get(k)
            .map_or(default, String::as_str)
            .parse::<f64>()
            .map_err(|_| format!("bad --{k}"))
    };
    let name = get("workload")?;
    let workload = *WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds = num("seconds", "10")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        fannr: PathBuf::from(get("fannr")?),
        workload,
        seed: num("seed", "1")? as u64,
        seconds,
        trace: num("trace", "0")? != 0.0,
        net_seed: num("net-seed", "7")? as u64,
    })
}

/// The metrics of one run, in report order: name → (value, unit).
type Metrics = Vec<(String, f64, &'static str)>;

/// The result line the benchmark ends with.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let m = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { -1.0 };
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(v)),
                    ("unit".to_string(), Json::from(*unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::from(attempted as u64)),
        ("failed".to_string(), Json::from(failed as u64)),
        ("metrics".to_string(), Json::Obj(m)),
    ])
    .to_json()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!(
        "{}-seed{}-trace{}-{}",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        std::process::id()
    ));
    let outcome = run(&args, &work);
    // Index directories are large; keep only the logs of a failed run.
    if outcome.is_ok() {
        let _ = std::fs::remove_dir_all(&work);
    }
    match outcome {
        Ok(r) => {
            println!(
                "{}",
                result_line(r.correct, r.attempted, r.failed, &r.metrics)
            );
            if r.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: wrong answers; run artifacts in {}",
                    work.display()
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

/// Phase lengths for `--seconds`.
fn scaled(w: &Workload, seconds: f64) -> (f64, f64) {
    let f = seconds / 10.0;
    (w.fixed_s * f, w.rung_s * f)
}

/// The ladder's rates.
fn ladder(w: &Workload) -> Vec<f64> {
    (0..MAX_RUNGS)
        .map(|i| w.ladder_from * LADDER_STEP.powi(i as i32))
        .collect()
}

/// Requests each phase sends: the fixed phase, the saturation phase, then
/// each rung. A rung lasts `rung_s`, shortened to what `RUNG_SAMPLES` need
/// (at least `MIN_RUNG_S`, so a growing backlog has time to show).
fn phase_sizes(w: &Workload, seconds: f64, trace: bool) -> Vec<usize> {
    let (fixed_s, rung_s) = scaled(w, seconds);
    let mut v = vec![(w.rate * fixed_s).ceil() as usize];
    if !trace {
        v.push(((w.saturation as f64 * seconds / 10.0).ceil() as usize).max(1));
        v.extend(ladder(w).iter().map(|r| {
            let secs = rung_s.min(RUNG_SAMPLES as f64 / r).max(MIN_RUNG_S);
            (r * secs).ceil() as usize
        }));
    }
    v
}

fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    let w = &args.workload;
    let clock = Instant::now();
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let t = Instant::now();
    let graph = workload::synth::road_network(NODES, &mut workload::rng(args.net_seed));
    let gen_s = t.elapsed().as_secs_f64();

    // Inputs: all from the seeds, before anything is timed.
    let sizes = phase_sizes(w, args.seconds, args.trace);
    let total: usize = sizes.iter().sum();
    let traffic = if w.skewed {
        pools::skewed(&graph, args.seed, total, HOT_SET, ONE_OFF)
    } else {
        pools::uniform(&graph, args.seed, total)
    };
    let probe = pools::uniform(&graph, args.net_seed ^ 0x7072_6f62_6500, 1).specs[0].clone();
    let edges = pools::interior_edges(&graph, args.net_seed, FEED_EDGES);
    let feed = pools::toggle_feed(&edges);
    let lines: Vec<(u32, String)> = traffic
        .reqs
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let spec = &traffic.specs[r.key as usize];
            let req: Request = deploy::query_request(spec, &r.p, &r.q, &k.to_string());
            (k as u32, req.to_json())
        })
        .collect();

    let cfg = DeployConfig {
        fannr: args.fannr.clone(),
        kind: w.kind,
        nodes: NODES,
        net_seed: args.net_seed,
        workers: w.workers,
        cache_capacity: w.cache_capacity,
    };

    if args.trace {
        return trace::run(trace::TraceInput {
            args_seed: args.seed,
            seconds: args.seconds,
            workload_name: w.name,
            kind: w.kind,
            rate: w.rate,
            fixed_s: scaled(w, args.seconds).0,
            clock,
            work,
            cfg: &cfg,
            graph: &graph,
            gen_s,
            traffic: &traffic,
            lines: &lines,
            probe: &probe,
            feed: &feed,
            conns: CONNS,
        })
        .map(|t| RunResult {
            correct: t.correct,
            attempted: t.attempted,
            failed: t.failed,
            metrics: t.metrics,
        });
    }

    // Set-up, several times; the last deployment stays up and serves.
    // The `fannr` binary is read once first, so every set-up starts it
    // from memory rather than from however much of it the host's page
    // cache still holds.
    std::fs::read(&args.fannr).map_err(|e| format!("{}: {e}", args.fannr.display()))?;
    let mut setup = Samples::new();
    let mut firsts: Vec<Response> = Vec::new();
    let mut kept: Option<Deployment> = None;
    for rep in 0..MAX_SETUPS {
        let dir = work.join(format!("deploy{rep}"));
        let (dep, secs, first) = deploy::setup(&cfg, &dir, &probe)?;
        setup.push(secs);
        firsts.push(first);
        let more = rep + 1 < MIN_SETUPS || (setup.sum() < SETUP_BUDGET_S && rep + 1 < MAX_SETUPS);
        if more {
            dep.shutdown()?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept = Some(dep);
            break;
        }
    }
    let dep = kept.expect("at least one set-up");
    let index_dir = dep.index_dir.clone();
    let index_mb = match &index_dir {
        Some(d) => deploy::index_bytes(d) as f64 / 1e6,
        // The graph-only server holds just the network: count the bytes
        // of its flat form.
        None => {
            let p = work.join("graph.v2");
            graph.write_flat(&p).map_err(|e| e.to_string())?;
            std::fs::metadata(&p).map_or(0, |m| m.len()) as f64 / 1e6
        }
    };
    let index_bytes = index_dir.as_deref().map_or(0, deploy::index_bytes);

    // Traffic and probe updates, interleaved (see `SCHEDULE`); then a
    // burst of back-to-back toggles whose acks add ack-latency samples
    // (the deployment is shut down without waiting for the repair they
    // start). Peak memory is read before the burst, so it covers every
    // completed repair and no half-built one.
    let probe_feed: Vec<_> = feed
        .iter()
        .copied()
        .cycle()
        .take(2 * w.probe_pairs)
        .collect();
    let mut ctl = load::Ctl::connect(&dep.addr)?;
    let driven = drive(clock, &dep, &mut ctl, w, &sizes, &lines, &probe_feed)?;
    let mut updates = driven.updates;
    let rss_mb = dep.peak_rss_mb();
    let burst: Vec<_> = feed[..2].iter().copied().cycle().take(ACK_BURST).collect();
    updates.extend(load::update_feed(clock, &mut ctl, &burst, false)?);
    dep.shutdown()?;

    // Correctness gate: set-up answers, then every traffic answer.
    let mirror = verify::mirror(&graph);
    let mut wrong = 0usize;
    for f in &firsts {
        let got = match f.body {
            Body::Ok { dist, p_star, .. } => Some((dist, p_star)),
            _ => None,
        };
        if got != verify::expected(&mirror, &probe)? {
            wrong += 1;
        }
    }
    let all: Vec<load::Outcome> = driven
        .saturation
        .iter()
        .chain(&driven.steps)
        .flat_map(|p| p.outcomes.iter().copied())
        .collect();
    // The graph-only server runs other strategies than the mirror, and
    // a router merges shard optima; either may name another optimum.
    let verdict = verify::check(&mirror, &traffic, &all, w.kind != Kind::Labels)?;
    wrong += verdict.wrong.len();
    // Work counts of the strategy the servers run.
    let counts = match w.kind {
        Kind::IndexFree => trace::repeat_counts(&Engine::new(&graph), &traffic, index_bytes),
        _ => trace::repeat_counts(&mirror, &traffic, index_bytes),
    };

    // End-to-end metrics.
    let phases = &driven.steps;
    let fixed = &phases[0];
    let mut lat = fixed.latency();
    let (capacity, passed) = capacity(w, phases);
    let saturation = &driven.saturation;
    let sat_requests: usize = saturation.iter().map(|p| p.outcomes.len()).sum();
    let sat_count = |s: Status| saturation.iter().map(|p| p.count(s)).sum::<usize>();
    let sat_latency = || -> Samples {
        saturation
            .iter()
            .flat_map(|p| p.outcomes.iter().filter(|o| o.answered()))
            .map(load::Outcome::latency_ms)
            .collect()
    };
    // Server CPU per saturation request (clock ticks are 10 ms) and the
    // host's steal share meanwhile: how fast the host ran this run.
    let cpu_us_per_query = driven.saturation_cpu as f64 * 1e4 / sat_requests.max(1) as f64;
    let steal_frac = driven.saturation_host.0 as f64 / driven.saturation_host.1.max(1) as f64;
    let mut ack = Samples::new();
    let mut stale = Samples::new();
    for u in &updates {
        ack.push(u.ack_ms());
        if u.followed {
            stale.push(u.staleness_s());
        }
    }
    let (stale_tail, tail_label) = stale.supported_tail();
    // Failures count over the two phases meant to stay within capacity:
    // the latency phase and the saturation phase (lines `0..attempted`).
    // Ladder steps are meant to fail in the end.
    let attempted = fixed.outcomes.len() + sat_requests;
    let wrong_within = verdict
        .wrong
        .iter()
        .filter(|&&k| (k as usize) < attempted)
        .count();
    let failed =
        fixed.failed() + saturation.iter().map(PhaseResult::failed).sum::<usize>() + wrong_within;
    let ok_frac = 1.0 - failed as f64 / attempted.max(1) as f64;

    let metrics: Metrics = vec![
        ("setup_s".into(), setup.median(), "s"),
        ("query_p50_ms".into(), lat.median(), "ms"),
        ("query_p99_ms".into(), lat.quantile(0.99), "ms"),
        ("saturation_qps".into(), load::rate(saturation), "1/s"),
        ("capacity_qps".into(), capacity, "1/s"),
        ("ok_frac".into(), ok_frac, "fraction"),
        ("failed_frac".into(), 1.0 - ok_frac, "fraction"),
        ("update_ack_p50_ms".into(), ack.median(), "ms"),
        ("staleness_p50_s".into(), stale.median(), "s"),
        ("staleness_tail_s".into(), stale_tail, "s"),
        ("rss_mb".into(), rss_mb, "MB"),
        ("index_mb".into(), index_mb, "MB"),
    ];

    // Human-readable report (stdout, before the result line).
    println!(
        "workload {} | nodes {} net-seed {} seed {} | workers {} cache {} conns {} | nproc {} | rev {}",
        w.name,
        graph.num_nodes(),
        args.net_seed,
        args.seed,
        w.workers,
        w.cache_capacity,
        CONNS,
        nproc(),
        trace::source_rev()
    );
    println!(
        "setup: {} (graph generation {gen_s:.3}s)",
        setup.clone().describe("s")
    );
    println!(
        "latency phase: offered {:.0}/s for {:.1}s | {} | late {} | shed {} cancelled {} errors {} missing {} | repeat share {:.3}",
        fixed.rate,
        scaled(w, args.seconds).0,
        lat.describe("ms"),
        fixed.lateness().describe("ms"),
        fixed.count(Status::Shed),
        fixed.count(Status::Cancelled),
        fixed.count(Status::Error),
        fixed.count(Status::Missing),
        traffic.repeat_share(fixed.outcomes.len()),
    );
    println!(
        "saturation phase: closed loop, {CONNS} connections x {SATURATION_WINDOW} outstanding, in {} chunks | {sat_requests} requests, answered {:.1}/s (chunks {:?}) | server CPU {:.1} us/query | host steal {:.2}% | latency {} | shed {} cancelled {} errors {} missing {}",
        saturation.len(),
        load::rate(saturation),
        saturation
            .iter()
            .map(|p| p.achieved().round())
            .collect::<Vec<_>>(),
        cpu_us_per_query,
        100.0 * steal_frac,
        sat_latency().describe("ms"),
        sat_count(Status::Shed),
        sat_count(Status::Cancelled),
        sat_count(Status::Error),
        sat_count(Status::Missing),
    );
    for (i, p) in phases.iter().enumerate() {
        let mut l = p.latency();
        println!(
            "  step {i}: offered {:.0}/s achieved {:.1}/s | p99 {:.3}ms (n {}, {} beyond) | shed {} cancelled {} errors {} missing {} | backlog at end {} growing {} | {}",
            p.rate,
            p.achieved(),
            l.quantile(0.99),
            l.len(),
            l.beyond(0.99),
            p.count(Status::Shed),
            p.count(Status::Cancelled),
            p.count(Status::Error),
            p.count(Status::Missing),
            p.backlog_at_end(),
            p.backlog_growing(Duration::from_secs_f64(w.p99_limit_ms / 1e3)),
            if i < passed { "pass" } else { "fail" }
        );
    }
    println!(
        "updates ({} double/restore pairs, then {ACK_BURST} toggles): ack {} | staleness {} | tail {tail_label} of n={} | (roots re-run, staleness s) per update {:?}",
        w.probe_pairs,
        ack.describe("ms"),
        stale.describe("s"),
        stale.len(),
        updates
            .iter()
            .filter(|u| u.followed)
            .map(|u| (u.roots, (u.staleness_s() * 1e3).round() / 1e3))
            .collect::<Vec<_>>()
    );
    println!(
        "correctness: {} answers checked, {} wrong | failed_frac {:.6} ({failed}/{attempted})",
        verdict.checked + firsts.len(),
        wrong,
        1.0 - ok_frac
    );
    for d in &verdict.details {
        println!("  wrong answer: {d}");
    }
    if !verdict.ties.is_empty() {
        println!(
            "  {} answers name another optimum than the single engine (same dist, different p_star): requests {:?}",
            verdict.ties.len(),
            verdict.ties
        );
    }
    println!("exact-repeat counts: {}", counts.describe());
    for (name, v, unit) in &metrics {
        let note = if GATED.contains(&name.as_str()) {
            ""
        } else {
            "  (reported, not gated)"
        };
        println!("  {name:<20} {v:>14.4} {unit}{note}");
    }
    trace::write_record(
        work,
        w.name,
        args.seed,
        false,
        &[
            ("nodes", graph.num_nodes() as f64),
            ("net_seed", args.net_seed as f64),
            ("seed", args.seed as f64),
            ("workers", w.workers as f64),
            ("cache_capacity", w.cache_capacity as f64),
            ("offered_rate", w.rate),
            ("latency_samples", lat.len() as f64),
            ("saturation_requests", sat_requests as f64),
            ("saturation_chunks", saturation.len() as f64),
            ("saturation_in_flight", (CONNS * SATURATION_WINDOW) as f64),
            ("ladder_from", w.ladder_from),
            ("ladder_steps_run", (phases.len() - 1) as f64),
            ("saturation_server_cpu_us_per_query", cpu_us_per_query),
            ("saturation_host_steal_frac", steal_frac),
            ("update_samples", updates.len() as f64),
            ("setup_samples", setup.len() as f64),
            ("tie_break_differences", verdict.ties.len() as f64),
        ],
        &counts,
        &metrics,
    )?;

    Ok(RunResult {
        correct: wrong == 0,
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .filter(|m| GATED.contains(&m.0.as_str()))
            .collect(),
    })
}

/// One measured segment of an untraced run, after set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    /// The open-loop phase at the workload's offered rate.
    Latency,
    /// One chunk of the closed-loop saturation phase.
    Saturation,
    /// The rate ladder, until a step fails.
    Ladder,
    /// Double/restore pairs, each followed until the index is fresh.
    Updates,
}

/// The order of the segments. Over a few seconds the host's CPU speed
/// swings by up to ±25%, so the saturation chunks and the probe updates
/// are spread over the whole run: each gated figure then averages several
/// host states, not the one its stretch of the run happened to meet.
const SCHEDULE: [Segment; 9] = [
    Segment::Saturation,
    Segment::Latency,
    Segment::Saturation,
    Segment::Updates,
    Segment::Ladder,
    Segment::Saturation,
    Segment::Updates,
    Segment::Saturation,
    Segment::Updates,
];

/// What the traffic and probe updates returned.
struct Driven {
    /// The latency phase at the offered rate, then each ladder step run.
    steps: Vec<PhaseResult>,
    /// The saturation chunks, in run order.
    saturation: Vec<PhaseResult>,
    /// CPU ticks the serving processes used in the saturation chunks.
    saturation_cpu: u64,
    /// Machine-wide `(steal, total)` CPU ticks over the saturation chunks.
    saturation_host: (u64, u64),
    /// The probe updates, each followed to freshness.
    updates: Vec<load::UpdateRec>,
}

/// Run the segments of `SCHEDULE` over `CONNS` load connections kept for
/// the whole run, with updates on the control connection `ctl`: `lines`
/// holds the latency phase, the saturation phase (split evenly over its
/// chunks) and the ladder steps, in that order and sized by `sizes`;
/// `probe_feed` holds the probe pairs, split evenly over the update
/// segments.
fn drive(
    clock: Instant,
    dep: &Deployment,
    ctl: &mut load::Ctl,
    w: &Workload,
    sizes: &[usize],
    lines: &[(u32, String)],
    probe_feed: &[(NodeId, NodeId, Weight)],
) -> Result<Driven, String> {
    let mut conns = load::connect_all(&dep.addr, CONNS)?;
    let count = |seg: Segment| SCHEDULE.iter().filter(|&&s| s == seg).count();
    let (fixed_lines, rest) = lines.split_at(sizes[0]);
    let (sat_lines, mut rung_lines) = rest.split_at(sizes[1]);
    let mut sat_chunks =
        sat_lines.chunks(sat_lines.len().div_ceil(count(Segment::Saturation)).max(1));
    let pairs = probe_feed.len() / 2;
    let slots = count(Segment::Updates);
    let mut slot = 0;
    let mut fixed = None;
    let mut rungs = Vec::new();
    let mut d = Driven {
        steps: Vec::new(),
        saturation: Vec::new(),
        saturation_cpu: 0,
        saturation_host: (0, 0),
        updates: Vec::new(),
    };
    // Spinners keep the cores out of the idle state while traffic runs
    // (see `idle`). Repair is long, single-threaded work; a spinner beside
    // it only adds noise, so updates run on idle cores.
    let mut spinners: Option<idle::Spinners> = None;
    for seg in SCHEDULE {
        if seg == Segment::Updates {
            spinners = None;
        } else if spinners.is_none() {
            spinners = Some(idle::Spinners::start(nproc()));
        }
        match seg {
            Segment::Latency => {
                fixed = Some(load::run_phase(
                    clock,
                    &mut conns,
                    fixed_lines,
                    w.rate,
                    DRAIN,
                )?);
            }
            Segment::Saturation => {
                let chunk = sat_chunks.next().unwrap_or_default();
                let (cpu0, host0) = (dep.cpu_ticks(), deploy::host_ticks());
                d.saturation.push(load::run_closed(
                    clock,
                    &mut conns,
                    chunk,
                    SATURATION_WINDOW,
                    DRAIN,
                )?);
                let (cpu1, host1) = (dep.cpu_ticks(), deploy::host_ticks());
                d.saturation_cpu += cpu1.saturating_sub(cpu0);
                d.saturation_host.0 += host1.0.saturating_sub(host0.0);
                d.saturation_host.1 += host1.1.saturating_sub(host0.1);
            }
            Segment::Ladder => {
                for (&rate, &n) in ladder(w).iter().zip(&sizes[2..]) {
                    let (step, rest) = rung_lines.split_at(n);
                    rung_lines = rest;
                    let p = load::run_phase(clock, &mut conns, step, rate, DRAIN)?;
                    let ok = step_passes(w, &p);
                    rungs.push(p);
                    if !ok {
                        break;
                    }
                }
            }
            Segment::Updates => {
                let at = |i: usize| 2 * (i * pairs / slots);
                let part = &probe_feed[at(slot)..at(slot + 1)];
                slot += 1;
                d.updates.extend(load::update_feed(clock, ctl, part, true)?);
            }
        }
    }
    drop(spinners);
    d.steps.extend(fixed);
    d.steps.extend(rungs);
    Ok(d)
}

/// A ladder step passes when its p99 meets the limit, nothing failed, it
/// answered at least `KEEP_UP` of the offered rate, and the backlog did
/// not keep growing.
fn step_passes(w: &Workload, p: &PhaseResult) -> bool {
    p.latency().quantile(0.99) <= w.p99_limit_ms
        && p.failed() == 0
        && p.achieved() >= KEEP_UP * p.rate
        && !p.backlog_growing(Duration::from_secs_f64(w.p99_limit_ms / 1e3))
}

/// Achieved rate at the highest passing step (steps pass in order), and
/// how many steps passed.
fn capacity(w: &Workload, phases: &[PhaseResult]) -> (f64, usize) {
    let passed = phases.iter().take_while(|p| step_passes(w, p)).count();
    let at = phases[passed.saturating_sub(1)].achieved();
    (at, passed)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
