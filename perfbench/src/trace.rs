//! The traced run: per-layer metrics from outside the program.
//!
//! Spans are recorded by benchmark-side wrappers around calls into each
//! layer's public API — `build_p_rtree`, the `GPhi` and `DistanceOracle`
//! traits, `Engine::*`, `HubLabels::repair_scoped`,
//! `NetworkSnapshot::apply` — kept in memory and written out at the end.
//! Serving-layer numbers come from the wire (client RTT against the
//! server-reported `micros`, `health` and `metrics` deltas).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fann_core::algo::ier::build_p_rtree;
use fann_core::algo::{exact_max_traced, ier_knn_traced, r_list_traced, IerBound};
use fann_core::engine::{Engine, Strategy};
use fann_core::gphi::ier2::IerPhi;
use fann_core::gphi::ine::InePhi;
use fann_core::gphi::oracle::DistanceOracle;
use fann_core::gphi::{GPhi, GPhiResult};
use fann_core::metrics::{SearchStats, StatsSink};
use fann_core::{Aggregate, FannAnswer, FannQuery};
use fannr_serve::{Body, Json, MetricsInfo, Request, Response};
use gtree::{GTree, GTreeParams};
use hublabel::HubLabels;
use roadnet::{CancelToken, Dist, Graph, NodeId, ScratchPool, Weight, WeightUpdate};

use crate::deploy::{self, DeployConfig, Kind};
use crate::load::{self, Outcome, Status};
use crate::pools::{Spec, Traffic};
use crate::stats::Samples;
use crate::verify;
use crate::Metrics;

/// Distinct queries whose work counts are recorded on every run.
const COUNT_QUERIES: usize = 32;
/// Most distinct queries traced in-process.
const TRACE_QUERIES_LABELS: usize = 400;
const TRACE_QUERIES_INDEXFREE: usize = 120;
/// Unloaded samples for the router overhead.
const ROUTER_SAMPLES: usize = 40;

// ---------------------------------------------------------------------
// Spans

/// One timed call. Times are nanoseconds on the tracer's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// The request (distinct query) the span belongs to.
    pub req: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    clock: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<u32>>,
    req: Cell<u32>,
}

/// Closes its span when dropped.
pub struct Open<'t> {
    tracer: &'t Tracer,
    id: u32,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        self.tracer.spans.borrow_mut()[self.id as usize].end_ns = end;
        self.tracer.stack.borrow_mut().pop();
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            clock: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            req: Cell::new(0),
        }
    }

    fn now(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str) -> Open<'_> {
        let parent = self.stack.borrow().last().copied().unwrap_or(u32::MAX);
        let mut spans = self.spans.borrow_mut();
        let id = spans.len() as u32;
        spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            req: self.req.get(),
        });
        drop(spans);
        self.stack.borrow_mut().push(id);
        Open { tracer: self, id }
    }

    /// Time `f` as span `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = self.open(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != u32::MAX {
            child[s.parent as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// A `GPhi` whose evaluations are spans. Forwards `name()`.
struct TimedGPhi<'a, G: GPhi> {
    inner: G,
    tracer: &'a Tracer,
}

impl<G: GPhi> GPhi for TimedGPhi<'_, G> {
    fn eval(&self, p: NodeId, k: usize, agg: Aggregate) -> Option<GPhiResult> {
        let _s = self.tracer.open("gphi.eval");
        self.inner.eval(p, k, agg)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A `DistanceOracle` whose probes are spans. Forwards `name()`, which
/// `IerPhi` reads to pick its label behaviour.
struct TimedOracle<'a, O: DistanceOracle> {
    inner: O,
    tracer: &'a Tracer,
}

impl<O: DistanceOracle> DistanceOracle for TimedOracle<'_, O> {
    fn dist(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        let _s = self.tracer.open("hublabel.dist");
        self.inner.dist(s, t)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn canonical(ids: &[NodeId]) -> Vec<NodeId> {
    let mut v = ids.to_vec();
    v.sort_unstable();
    v.dedup();
    v
}

/// `Engine::query`'s dispatch rebuilt from the layers' public API, with a
/// span around every layer call. Returns the answer and the work counts.
fn traced_query(
    engine: &Engine,
    spec: &Spec,
    tracer: &Tracer,
) -> Result<(Option<FannAnswer>, SearchStats), String> {
    let snap = engine.snapshot();
    let graph = snap.graph();
    let _root = tracer.open("engine.query");
    let p = canonical(&spec.p);
    let q = canonical(&spec.q);
    let query = FannQuery::checked(&p, &q, spec.phi, spec.agg, graph).map_err(|e| e.to_string())?;
    let sink = StatsSink::new();
    let answer = match engine.strategy_for(spec.agg) {
        Strategy::IerKnnLabels => {
            let oracle = snap.oracle().ok_or("label strategy without labels")?;
            let rtree = tracer.time("rtree.build", || build_p_rtree(graph, &p));
            let oracle = TimedOracle {
                inner: oracle,
                tracer,
            };
            let gphi = tracer.time("gphi.setup", || {
                IerPhi::with_recorder(graph, oracle, &q, &sink)
            });
            let gphi = TimedGPhi {
                inner: gphi,
                tracer,
            };
            tracer.time("algo.ier", || {
                ier_knn_traced(graph, &query, &rtree, &gphi, IerBound::Flexible, &sink)
            })
        }
        Strategy::ExactMax => tracer.time("algo.exact_max", || {
            exact_max_traced(graph, &query, &mut ScratchPool::new(), &sink)
        }),
        Strategy::RListIne => {
            let gphi = tracer.time("gphi.setup", || InePhi::with_recorder(graph, &q, &sink));
            let gphi = TimedGPhi {
                inner: gphi,
                tracer,
            };
            tracer.time("algo.rlist", || {
                r_list_traced(graph, &query, &gphi, &mut ScratchPool::new(), &sink)
            })
        }
        Strategy::ApxSumIne => return Err("APX-sum is never served".to_string()),
    };
    Ok((answer, sink.snapshot()))
}

// ---------------------------------------------------------------------
// Exact-repeat counts and the run record

/// Work counts that must repeat exactly across runs of one seed.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    pub label_entries: u64,
    pub index_bytes: u64,
    pub gphi_evals_per_query: f64,
    pub settled_per_query: f64,
    pub queries_counted: usize,
}

impl Counts {
    pub fn describe(&self) -> String {
        format!(
            "label entries {} | index bytes {} | g_phi evals/query {:.4} and settled/query {:.4} over the first {} distinct queries",
            self.label_entries,
            self.index_bytes,
            self.gphi_evals_per_query,
            self.settled_per_query,
            self.queries_counted
        )
    }
}

/// Work counts of `engine` (which runs the served strategy) over the
/// first distinct queries; `index_bytes` is what the servers load.
pub fn repeat_counts(engine: &Engine, traffic: &Traffic, index_bytes: u64) -> Counts {
    let n = traffic.specs.len().min(COUNT_QUERIES);
    let mut total = SearchStats::default();
    for spec in &traffic.specs[..n] {
        if let Ok((_, s)) = engine.query_traced(&spec.p, &spec.q, spec.phi, spec.agg) {
            total.add(&s);
        }
    }
    Counts {
        label_entries: engine
            .snapshot()
            .hub_labels()
            .map_or(0, |l| l.total_label_entries() as u64),
        index_bytes,
        gphi_evals_per_query: total.gphi_evals as f64 / n.max(1) as f64,
        settled_per_query: total.nodes_settled as f64 / n.max(1) as f64,
        queries_counted: n,
    }
}

/// The revision measured: `git rev-parse HEAD`, or (outside a git
/// checkout) an FNV-1a hash of the sources the stack is built from.
pub fn source_rev() -> String {
    let git = |arg: &str| {
        std::process::Command::new("git")
            .args(["rev-parse", arg])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // Only a checkout rooted here names the sources being built.
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = git("--show-toplevel").and_then(|t| Path::new(&t).canonicalize().ok());
    if here.is_some() && here == top {
        if let Some(rev) = git("HEAD") {
            return rev;
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "src",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<std::path::PathBuf>) {
    if p.is_file() {
        out.push(p.to_path_buf());
    } else if let Ok(rd) = std::fs::read_dir(p) {
        for e in rd.flatten() {
            collect_files(&e.path(), out);
        }
    }
}

/// Write the run's record (config, sample counts, exact-repeat counts,
/// metrics) to `.perfbench/records/`.
pub fn write_record(
    work: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    config: &[(&str, f64)],
    counts: &Counts,
    metrics: &Metrics,
) -> Result<(), String> {
    let dir = work.parent().unwrap_or(Path::new(".")).join("records");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let num = |v: f64| Json::Num(if v.is_finite() { v } else { -1.0 });
    let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs);
    let record = obj(vec![
        ("workload".into(), Json::from(workload)),
        ("rev".into(), Json::from(source_rev().as_str())),
        ("nproc".into(), Json::from(crate::nproc() as u64)),
        ("trace".into(), Json::Bool(trace)),
        (
            "config".into(),
            obj(config
                .iter()
                .map(|(k, v)| (k.to_string(), num(*v)))
                .collect()),
        ),
        (
            "repeat_counts".into(),
            obj(vec![
                ("label_entries".into(), Json::from(counts.label_entries)),
                ("index_bytes".into(), Json::from(counts.index_bytes)),
                (
                    "gphi_evals_per_query".into(),
                    num(counts.gphi_evals_per_query),
                ),
                ("settled_per_query".into(), num(counts.settled_per_query)),
                (
                    "queries_counted".into(),
                    Json::from(counts.queries_counted as u64),
                ),
            ]),
        ),
        (
            "metrics".into(),
            obj(metrics
                .iter()
                .map(|(k, v, u)| {
                    (
                        k.clone(),
                        obj(vec![
                            ("value".into(), num(*v)),
                            ("unit".into(), Json::from(*u)),
                        ]),
                    )
                })
                .collect()),
        ),
    ]);
    let path = dir.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ));
    std::fs::write(&path, record.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// The traced run

pub struct TraceInput<'a> {
    pub args_seed: u64,
    pub seconds: f64,
    pub workload_name: &'static str,
    pub kind: Kind,
    pub rate: f64,
    pub fixed_s: f64,
    pub clock: Instant,
    pub work: &'a Path,
    pub cfg: &'a DeployConfig,
    pub graph: &'a Graph,
    pub gen_s: f64,
    pub traffic: &'a Traffic,
    pub lines: &'a [(u32, String)],
    pub probe: &'a Spec,
    pub feed: &'a [(NodeId, NodeId, Weight)],
    pub conns: usize,
}

pub struct TraceResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// Per-layer metric names, in report order. Every traced run reports all
/// of them; a layer a workload does not exercise reads 0.
const LAYER_METRICS: [(&str, &str); 52] = [
    ("serve.wire_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.queued", "count"),
    ("serve.shed_frac", "fraction"),
    ("serve.cancelled_frac", "fraction"),
    ("router.contacted_per_query", "count"),
    ("router.pruned_frac", "fraction"),
    ("router.overhead_us", "us"),
    ("router.backlog", "count"),
    ("locality.hit_frac", "fraction"),
    ("locality.hit_us", "us"),
    ("locality.miss_overhead_us", "us"),
    ("locality.invalidated_per_update", "count"),
    ("locality.retained_per_update", "count"),
    ("engine.query_max_p50_us", "us"),
    ("engine.query_max_p99_us", "us"),
    ("engine.query_sum_p50_us", "us"),
    ("engine.query_sum_p99_us", "us"),
    ("engine.traced_tax_us", "us"),
    ("engine.apply_us", "us"),
    ("engine.repair_s", "s"),
    ("engine.self_frac", "fraction"),
    ("algo.ier_self_us", "us"),
    ("algo.exact_max_us", "us"),
    ("algo.rlist_self_us", "us"),
    ("algo.gphi_evals_per_query", "count"),
    ("algo.pruned_frac", "fraction"),
    ("algo.self_frac", "fraction"),
    ("gphi.eval_us", "us"),
    ("gphi.oracle_probes_per_eval", "count"),
    ("gphi.self_frac", "fraction"),
    ("hublabel.dist_ns", "ns"),
    ("hublabel.dist_calls_per_query", "count"),
    ("hublabel.build_s", "s"),
    ("hublabel.entries_per_node", "count"),
    ("hublabel.bytes", "bytes"),
    ("hublabel.repair_s", "s"),
    ("hublabel.roots_frac", "fraction"),
    ("hublabel.self_frac", "fraction"),
    ("rtree.build_us", "us"),
    ("rtree.nodes_per_query", "count"),
    ("rtree.self_frac", "fraction"),
    ("roadnet.settled_per_query", "count"),
    ("roadnet.edges_per_query", "count"),
    ("roadnet.apply_us", "us"),
    ("roadnet.load_s", "s"),
    ("roadnet.gen_s", "s"),
    ("gtree.build_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.queries", "count"),
    ("load.late_p99_ms", "ms"),
];

/// Sum of two metrics snapshots' counters we difference.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    requests: u64,
    shed: u64,
    cancelled: u64,
    updates: u64,
    hits: u64,
    misses: u64,
    invalidated: u64,
    retained: u64,
    contacted: u64,
    pruned: u64,
}

impl Counters {
    fn of(ms: &[MetricsInfo]) -> Counters {
        let mut c = Counters::default();
        for m in ms {
            c.requests += m.requests;
            c.shed += m.shed;
            c.cancelled += m.cancelled;
            c.updates += m.updates;
            c.hits += m.cache_hits;
            c.misses += m.cache_misses;
            c.invalidated += m.cache_invalidated;
            c.retained += m.cache_retained;
            c.contacted += m.shards_contacted;
            c.pruned += m.shards_pruned;
        }
        c
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            requests: self.requests - o.requests,
            shed: self.shed - o.shed,
            cancelled: self.cancelled - o.cancelled,
            updates: self.updates - o.updates,
            hits: self.hits - o.hits,
            misses: self.misses - o.misses,
            invalidated: self.invalidated - o.invalidated,
            retained: self.retained - o.retained,
            contacted: self.contacted - o.contacted,
            pruned: self.pruned - o.pruned,
        }
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Build the index in-process, layer by layer, and write the artifacts
/// the servers load. Returns the labels built (with `with_labels`).
fn build_artifacts(
    graph: &Graph,
    dir: &Path,
    with_labels: bool,
    m: &mut Vec<(String, f64)>,
) -> Result<Option<HubLabels>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let graph_path = dir.join("graph.v2");
    graph.write_flat(&graph_path).map_err(|e| e.to_string())?;
    let mut load = Samples::new();
    for _ in 0..5 {
        let t = Instant::now();
        let g = Graph::read_flat(&graph_path).map_err(|e| e.to_string())?;
        load.push(t.elapsed().as_secs_f64());
        std::hint::black_box(g);
    }
    m.push(("roadnet.load_s".into(), load.median()));
    if !with_labels {
        return Ok(None);
    }
    let t = Instant::now();
    let labels = HubLabels::build_parallel(graph, 2);
    m.push(("hublabel.build_s".into(), t.elapsed().as_secs_f64()));
    m.push(("hublabel.entries_per_node".into(), labels.avg_label_size()));
    labels
        .write_flat(&dir.join("labels.v2"))
        .map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(dir.join("labels.v2")).map_or(0, |f| f.len());
    m.push(("hublabel.bytes".into(), bytes as f64));
    let t = Instant::now();
    let tree = GTree::build_with_params_parallel(
        graph,
        GTreeParams {
            fanout: 4,
            leaf_cap: 64,
        },
        2,
    );
    m.push(("gtree.build_s".into(), t.elapsed().as_secs_f64()));
    tree.write_flat(&dir.join("gtree.v2"))
        .map_err(|e| e.to_string())?;
    Ok(Some(labels))
}

fn all_metrics(addrs: &[String]) -> Result<Vec<MetricsInfo>, String> {
    addrs.iter().map(|a| load::metrics(a)).collect()
}

/// Round trip of one request line on `client`, µs.
fn rtt(client: &mut fannr_serve::Client, req: &Request) -> Result<(f64, Response), String> {
    let t = Instant::now();
    let r = client.call(req).map_err(|e| e.to_string())?;
    Ok((us(t.elapsed()), r))
}

/// Router overhead on the cache-hit path, unloaded: router RTT minus the
/// slower direct RTT to the shards the router contacted.
fn router_overhead(router: &str, shards: &[String], traffic: &Traffic) -> Result<Samples, String> {
    let connect = |a: &str| -> Result<fannr_serve::Client, String> {
        let c = fannr_serve::Client::connect(a).map_err(|e| e.to_string())?;
        c.set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        Ok(c)
    };
    let mut r = connect(router)?;
    let mut direct: Vec<_> = shards
        .iter()
        .map(|a| connect(a))
        .collect::<Result<_, _>>()?;
    let mut out = Samples::new();
    for (i, spec) in traffic.specs.iter().take(ROUTER_SAMPLES).enumerate() {
        let req = deploy::query_request(spec, &spec.p, &spec.q, &format!("o{i}"));
        // Warm every cache on the path, then see which shards the router
        // contacts for this query.
        rtt(&mut r, &req)?;
        for d in direct.iter_mut() {
            rtt(d, &req)?;
        }
        let before = all_metrics(shards)?;
        let (via_router, _) = rtt(&mut r, &req)?;
        let after = all_metrics(shards)?;
        let mut slowest: f64 = 0.0;
        for (s, d) in direct.iter_mut().enumerate() {
            if after[s].requests > before[s].requests {
                slowest = slowest.max(rtt(d, &req)?.0);
            }
        }
        out.push(via_router - slowest);
    }
    Ok(out)
}

/// In-process layer timings on `engine` for `keys`.
struct Inproc {
    spans: Vec<Span>,
    untraced_us: Vec<(u32, f64)>,
    tax_us: Samples,
    hit_us: Samples,
    miss_overhead_us: Samples,
    max_us: Samples,
    sum_us: Samples,
    stats: SearchStats,
    queries: usize,
}

fn inproc(
    engine: &Engine,
    cached: &Engine,
    traffic: &Traffic,
    keys: &[u32],
) -> Result<Inproc, String> {
    let tracer = Tracer::new();
    let token = CancelToken::new();
    let spec = |k: u32| &traffic.specs[k as usize];
    let answer = |a: Option<FannAnswer>| a.map(|a| (a.dist, a.p_star));
    // One pass per entry point over all queries, so every variant meets
    // each query with the caches in the same state; warm-up first.
    type Entry<'a> = dyn FnMut(u32, &Spec) -> Result<Option<FannAnswer>, String> + 'a;
    let pass = |f: &mut Entry<'_>| {
        keys.iter()
            .map(|&k| {
                let t = Instant::now();
                let a = f(k, spec(k))?;
                Ok((us(t.elapsed()), answer(a)))
            })
            .collect::<Result<Vec<_>, String>>()
    };
    let mut plain = |_: u32, s: &Spec| {
        engine
            .query(&s.p, &s.q, s.phi, s.agg)
            .map_err(|e| e.to_string())
    };
    pass(&mut plain)?;
    let base = pass(&mut plain)?;
    let tax = pass(&mut |_, s: &Spec| {
        engine
            .query_traced_cancellable(&s.p, &s.q, s.phi, s.agg, &token)
            .map(|(a, _)| a)
            .map_err(|e| e.to_string())
    })?;
    let mut cached_pass = |_: u32, s: &Spec| {
        cached
            .query_cached(&s.p, &s.q, s.phi, s.agg)
            .map(|(a, _, _)| a)
            .map_err(|e| e.to_string())
    };
    let miss = pass(&mut cached_pass)?;
    let hit = pass(&mut cached_pass)?;
    let mut stats = SearchStats::default();
    let traced = pass(&mut |k, s: &Spec| {
        tracer.req.set(k);
        let (a, st) = traced_query(engine, s, &tracer)?;
        stats.add(&st);
        Ok(a)
    })?;
    let mut res = Inproc {
        spans: tracer.spans(),
        untraced_us: Vec::new(),
        tax_us: Samples::new(),
        hit_us: Samples::new(),
        miss_overhead_us: Samples::new(),
        max_us: Samples::new(),
        sum_us: Samples::new(),
        stats,
        queries: keys.len(),
    };
    for (i, &k) in keys.iter().enumerate() {
        let (b, want) = base[i];
        if [tax[i].1, miss[i].1, hit[i].1, traced[i].1] != [want; 4] {
            return Err(format!(
                "layer calls disagree with Engine::query on query {k}"
            ));
        }
        res.untraced_us.push((k, b));
        match spec(k).agg {
            Aggregate::Max => res.max_us.push(b),
            Aggregate::Sum => res.sum_us.push(b),
        }
        res.tax_us.push(tax[i].0 - b);
        res.miss_overhead_us.push(miss[i].0 - b);
        res.hit_us.push(hit[i].0);
    }
    Ok(res)
}

pub fn run(t: TraceInput<'_>) -> Result<TraceResult, String> {
    let mut m: Vec<(String, f64)> = vec![("roadnet.gen_s".into(), t.gen_s)];
    let dir = t.work.join("deploy");
    let with_labels = t.kind != Kind::IndexFree;
    let labels = build_artifacts(t.graph, &dir, with_labels, &mut m)?;
    let dep_dir = if with_labels {
        dir.clone()
    } else {
        t.work.join("indexfree")
    };
    // Answers are checked against the mirror, whose labels never went
    // through the flat writer and loader; layer timings run on an engine
    // loaded the way the server loads it.
    let mirror = match labels {
        Some(l) => verify::mirror_with(t.graph, l),
        None => verify::mirror(t.graph),
    };
    let spinners = crate::idle::Spinners::start(crate::nproc());
    let dep = deploy::start(t.cfg, &dep_dir)?;
    let first = deploy::ask(&dep.addr, t.probe, "setup")?;
    let timing_engine = || -> Result<Engine, String> {
        if with_labels {
            Engine::from_index_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))
        } else {
            Ok(Engine::new(t.graph))
        }
    };
    let engine = timing_engine()?;
    let mut correct = match first.body {
        Body::Ok { dist, p_star, .. } => Some((dist, p_star)),
        _ => None,
    } == verify::expected(&mirror, t.probe)?;

    // Serving counters come from every server process (shards, not the
    // router, hold the caches); router counters from the router.
    let servers: Vec<String> = if t.kind == Kind::Router {
        dep.shard_addrs.clone()
    } else {
        vec![dep.addr.clone()]
    };
    let before = Counters::of(&all_metrics(&servers)?);
    let router_before = Counters::of(&all_metrics(std::slice::from_ref(&dep.addr))?);

    // The traffic phase at the offered rate, with health sampled.
    let n = (t.rate * t.fixed_s).ceil() as usize;
    let lines = &t.lines[..n.min(t.lines.len())];
    let stop = AtomicBool::new(false);
    let (phase, health) = std::thread::scope(|s| -> Result<_, String> {
        let sampler = s.spawn(|| load::health_sampler(&dep.addr, &stop, Duration::from_millis(20)));
        let phase = load::connect_all(&dep.addr, t.conns).and_then(|mut conns| {
            load::run_phase(t.clock, &mut conns, lines, t.rate, Duration::from_secs(15))
        });
        stop.store(true, Ordering::Relaxed);
        let health = sampler.join().expect("health sampler")?;
        Ok((phase?, health))
    })?;
    let delta = Counters::of(&all_metrics(&servers)?).minus(before);
    let router_delta =
        Counters::of(&all_metrics(std::slice::from_ref(&dep.addr))?).minus(router_before);
    let overhead = if t.kind == Kind::Router {
        router_overhead(&dep.addr, &dep.shard_addrs, t.traffic)?.median()
    } else {
        0.0
    };
    // Cache maintenance per update, over one double/restore pair.
    let before = Counters::of(&all_metrics(&servers)?);
    load::update_feed(
        t.clock,
        &mut load::Ctl::connect(&dep.addr)?,
        &t.feed[..2],
        true,
    )?;
    let upd_delta = Counters::of(&all_metrics(&servers)?).minus(before);
    dep.shutdown()?;
    drop(spinners);

    // Correctness of what the phase returned.
    let verdict = verify::check(&mirror, t.traffic, &phase.outcomes, t.kind != Kind::Labels)?;
    correct &= verdict.wrong.is_empty();

    // Wire-level layers.
    let mut wire = Samples::new();
    for o in phase.outcomes.iter().filter(|o| o.status == Status::Ok) {
        wire.push(o.recv_ns.saturating_sub(o.sent_ns) as f64 / 1e3 - o.micros as f64);
    }
    let mut codec = Samples::new();
    for (o, (_, line)) in phase.outcomes.iter().zip(lines).take(2000) {
        let t0 = Instant::now();
        let req = Request::parse(line).map_err(|e| e.to_string())?;
        let resp = Response {
            id: req.id,
            body: Body::Ok {
                p_star: o.p_star,
                dist: o.dist,
                subset: Vec::new(),
                strategy: "IER-PHL".to_string(),
                micros: o.micros,
            },
        };
        std::hint::black_box(resp.to_json());
        codec.push(us(t0.elapsed()));
    }
    let (queued, wrapped) = health;
    let queued = Samples::from_iter(queued.iter().map(|&q| q as f64));
    if wrapped > 0 {
        println!("note: {wrapped} health reads had a wrapped (negative) queued gauge; left out");
    }
    m.push(("serve.wire_us".into(), wire.median()));
    m.push(("serve.codec_us".into(), codec.median()));
    m.push(("serve.queued".into(), queued.mean()));
    let attempts = (delta.requests + delta.shed) as f64;
    m.push(("serve.shed_frac".into(), ratio(delta.shed as f64, attempts)));
    m.push((
        "serve.cancelled_frac".into(),
        ratio(delta.cancelled as f64, attempts),
    ));
    if t.kind == Kind::Router {
        m.push((
            "router.contacted_per_query".into(),
            ratio(router_delta.contacted as f64, router_delta.requests as f64),
        ));
        m.push((
            "router.pruned_frac".into(),
            ratio(
                router_delta.pruned as f64,
                (router_delta.pruned + router_delta.contacted) as f64,
            ),
        ));
        m.push(("router.overhead_us".into(), overhead));
        m.push(("router.backlog".into(), phase.backlog_at_end() as f64));
    }
    m.push((
        "locality.hit_frac".into(),
        ratio(delta.hits as f64, (delta.hits + delta.misses) as f64),
    ));
    m.push((
        "locality.invalidated_per_update".into(),
        ratio(upd_delta.invalidated as f64, upd_delta.updates as f64),
    ));
    m.push((
        "locality.retained_per_update".into(),
        ratio(upd_delta.retained as f64, upd_delta.updates as f64),
    ));
    m.push(("load.late_p99_ms".into(), phase.lateness().quantile(0.99)));

    // In-process layers on the distinct queries the phase answered.
    let mut keys: Vec<u32> = phase
        .outcomes
        .iter()
        .filter(|o| o.answered())
        .map(|o| t.traffic.reqs[o.k as usize].key)
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let cap = if with_labels {
        TRACE_QUERIES_LABELS
    } else {
        TRACE_QUERIES_INDEXFREE
    };
    keys.truncate(cap);
    let cached = timing_engine()?.with_answer_cache(4 * cap.max(1));
    let ip = inproc(&engine, &cached, t.traffic, &keys)?;
    layer_metrics(
        &ip,
        &phase.outcomes,
        t.traffic,
        t.kind == Kind::Router,
        &mut m,
    );

    // Update path: apply on the network snapshot and the engine; repair
    // (labels only) on the same update.
    let (u, v, w) = t.feed[0];
    let up = [WeightUpdate { u, v, w }];
    let mut apply = Samples::new();
    let net = engine.snapshot().network().clone();
    for _ in 0..20 {
        let t0 = Instant::now();
        let r = net.apply(&up).map_err(|e| e.to_string())?;
        apply.push(us(t0.elapsed()));
        std::hint::black_box(r);
    }
    m.push(("roadnet.apply_us".into(), apply.median()));
    let fresh = timing_engine()?;
    let t0 = Instant::now();
    fresh.apply_updates(&up).map_err(|e| e.to_string())?;
    m.push(("engine.apply_us".into(), us(t0.elapsed())));
    if with_labels {
        let t0 = Instant::now();
        fresh.repair_indexes();
        m.push(("engine.repair_s".into(), t0.elapsed().as_secs_f64()));
        if let Some(labels) = engine.snapshot().hub_labels() {
            let patched = fresh.snapshot().graph().clone();
            let t0 = Instant::now();
            let (_, stats) = labels.repair_scoped(&patched, &[(u, v)]);
            m.push(("hublabel.repair_s".into(), t0.elapsed().as_secs_f64()));
            m.push((
                "hublabel.roots_frac".into(),
                ratio(stats.roots_searched as f64, stats.roots_total as f64),
            ));
        }
    }

    let spans_path = write_spans(
        t.work,
        t.workload_name,
        t.args_seed,
        &ip.spans,
        &phase.outcomes,
    )?;

    // Every named metric, zero where the workload has no such layer.
    let metrics: Metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = m
                .iter()
                .rev()
                .find(|(k, _)| k == name)
                .map_or(0.0, |(_, v)| *v);
            (name.to_string(), v, unit)
        })
        .collect();
    println!(
        "traced run: workload {} seed {} | {} requests at {:.0}/s for {:.1}s of {:.0}s | {} distinct queries traced in-process | spans -> {}",
        t.workload_name,
        t.args_seed,
        phase.outcomes.len(),
        t.rate,
        t.fixed_s,
        t.seconds,
        ip.queries,
        spans_path.display()
    );
    println!(
        "correctness: {} answers checked, {} wrong",
        verdict.checked + 1,
        verdict.wrong.len() + usize::from(!correct && verdict.wrong.is_empty())
    );
    for (name, v, unit) in &metrics {
        println!("  {name:<34} {v:>16.4} {unit}");
    }
    let index_bytes = if with_labels {
        deploy::index_bytes(&dir)
    } else {
        0
    };
    let counts = repeat_counts(&engine, t.traffic, index_bytes);
    println!("exact-repeat counts: {}", counts.describe());
    write_record(
        t.work,
        t.workload_name,
        t.args_seed,
        true,
        &[
            ("nodes", t.graph.num_nodes() as f64),
            ("seed", t.args_seed as f64),
            ("workers", t.cfg.workers as f64),
            ("cache_capacity", t.cfg.cache_capacity as f64),
            ("offered_rate", t.rate),
            ("requests", phase.outcomes.len() as f64),
            ("traced_queries", ip.queries as f64),
        ],
        &counts,
        &metrics,
    )?;
    let failed = phase.failed();
    Ok(TraceResult {
        correct,
        attempted: phase.outcomes.len(),
        failed,
        metrics,
    })
}

/// Per-layer metrics from the in-process spans and counters.
fn layer_metrics(
    ip: &Inproc,
    outcomes: &[Outcome],
    traffic: &Traffic,
    routed: bool,
    m: &mut Vec<(String, f64)>,
) {
    let spans = &ip.spans;
    let selfs = self_times(spans);
    let q = ip.queries.max(1) as f64;
    let by_name = |name: &str, self_time: bool| -> Samples {
        let mut s = Samples::new();
        for (i, sp) in spans.iter().enumerate() {
            if sp.name == name {
                s.push(if self_time { selfs[i] } else { sp.dur_ns() } as f64 / 1e3);
            }
        }
        s
    };
    m.push((
        "algo.ier_self_us".into(),
        by_name("algo.ier", true).median(),
    ));
    m.push((
        "algo.exact_max_us".into(),
        by_name("algo.exact_max", false).median(),
    ));
    m.push((
        "algo.rlist_self_us".into(),
        by_name("algo.rlist", true).median(),
    ));
    m.push(("gphi.eval_us".into(), by_name("gphi.eval", false).median()));
    m.push((
        "rtree.build_us".into(),
        by_name("rtree.build", false).median(),
    ));
    m.push((
        "hublabel.dist_ns".into(),
        by_name("hublabel.dist", false).mean() * 1e3,
    ));
    let st = &ip.stats;
    m.push(("algo.gphi_evals_per_query".into(), st.gphi_evals as f64 / q));
    m.push((
        "algo.pruned_frac".into(),
        ratio(
            st.candidates_pruned as f64,
            (st.candidates_pruned + st.gphi_evals) as f64,
        ),
    ));
    m.push((
        "gphi.oracle_probes_per_eval".into(),
        ratio(st.oracle_calls as f64, st.gphi_evals as f64),
    ));
    m.push((
        "hublabel.dist_calls_per_query".into(),
        st.label_lookups as f64 / q,
    ));
    m.push(("rtree.nodes_per_query".into(), st.rtree_nodes as f64 / q));
    m.push((
        "roadnet.settled_per_query".into(),
        st.nodes_settled as f64 / q,
    ));
    m.push((
        "roadnet.edges_per_query".into(),
        st.edges_relaxed as f64 / q,
    ));
    let (mut mx, mut sm) = (ip.max_us.clone(), ip.sum_us.clone());
    m.push(("engine.query_max_p50_us".into(), mx.median()));
    m.push(("engine.query_max_p99_us".into(), mx.quantile(0.99)));
    m.push(("engine.query_sum_p50_us".into(), sm.median()));
    m.push(("engine.query_sum_p99_us".into(), sm.quantile(0.99)));
    m.push(("engine.traced_tax_us".into(), ip.tax_us.clone().median()));
    m.push(("locality.hit_us".into(), ip.hit_us.clone().median()));
    m.push((
        "locality.miss_overhead_us".into(),
        ip.miss_overhead_us.clone().median(),
    ));

    // Self time by layer, against the root (engine-level) spans.
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == u32::MAX)
        .map(Span::dur_ns)
        .sum();
    let mut layer_ns: std::collections::BTreeMap<&str, u64> = Default::default();
    for (i, sp) in spans.iter().enumerate() {
        *layer_ns.entry(sp.layer()).or_default() += selfs[i];
    }
    for (layer, ns) in &layer_ns {
        let name = match *layer {
            "engine" => "engine.self_frac",
            "algo" => "algo.self_frac",
            "gphi" => "gphi.self_frac",
            "hublabel" => "hublabel.self_frac",
            "rtree" => "rtree.self_frac",
            _ => continue,
        };
        m.push((name.into(), ratio(*ns as f64, root_ns as f64)));
    }
    // Untraced engine time over the same queries: the traced total above
    // it is the tracing overhead. The self times split each root span
    // exactly, so they sum to the traced total.
    let untraced_ns: f64 = ip.untraced_us.iter().map(|&(_, u)| u * 1e3).sum();
    m.push((
        "trace.overhead_frac".into(),
        ratio(root_ns as f64, untraced_ns) - 1.0,
    ));
    m.push(("trace.queries".into(), ip.queries as f64));

    // Queue wait: server-reported time minus in-process engine time. A
    // router reports its own time, which holds no queue of its own and,
    // on a shard cache hit, no engine time: no reading there.
    if routed {
        return;
    }
    let engine_us: std::collections::HashMap<u32, f64> = ip.untraced_us.iter().copied().collect();
    let mut admit = Samples::new();
    for o in outcomes.iter().filter(|o| o.status == Status::Ok) {
        if let Some(e) = engine_us.get(&traffic.reqs[o.k as usize].key) {
            admit.push(o.micros as f64 - e);
        }
    }
    m.push(("serve.admit_us".into(), admit.median()));
}

/// Write the spans (in-process layer spans, then one `client.query` span
/// per request of the traffic phase) as JSON lines.
fn write_spans(
    work: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    outcomes: &[Outcome],
) -> Result<std::path::PathBuf, String> {
    let dir = work.parent().unwrap_or(Path::new(".")).join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let mut out = String::new();
    for s in spans {
        let parent = if s.parent == u32::MAX {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            out,
            r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"req":{}}}"#,
            s.name, s.start_ns, s.end_ns, s.req
        );
    }
    for o in outcomes {
        let _ = writeln!(
            out,
            r#"{{"name":"client.query","start_ns":{},"end_ns":{},"parent":null,"req":{},"due_ns":{},"server_us":{}}}"#,
            o.sent_ns, o.recv_ns, o.k, o.due_ns, o.micros
        );
    }
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
