//! Seeded inputs: query traffic and the single-edge update feed.
//!
//! The benchmark generates every input itself from its seeds; the
//! servers only ever see the resulting requests.

use fann_core::Aggregate;
use rand::{Rng, RngCore};
use roadnet::{Graph, NodeId, Weight};
use workload::points::{clustered_query_points, QueryRegion};

/// φ values cycled through by every traffic mix.
const PHIS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
/// P density of every query (the paper's default d).
const P_DENSITY: f64 = 0.01;
/// Coverage ratio A of uniform Q.
const UNIFORM_COVERAGE: f64 = 0.5;
/// Coverage ratio A of the clustered hot queries.
const CLUSTER_COVERAGE: f64 = 0.2;
/// Most query regions drawn per pool; uniform Q samples one of them per
/// query (a pool no larger than this draws one region per query, as the
/// paper's generator does).
const MAX_REGIONS: usize = 512;

/// One distinct query, with P and Q in canonical (sorted) order.
#[derive(Debug, Clone)]
pub struct Spec {
    pub p: Vec<NodeId>,
    pub q: Vec<NodeId>,
    pub phi: f64,
    pub agg: Aggregate,
}

/// One request on the wire: which distinct query it asks, spelled how.
#[derive(Debug, Clone)]
pub struct Req {
    /// Index into [`Traffic::specs`].
    pub key: u32,
    pub p: Vec<NodeId>,
    pub q: Vec<NodeId>,
}

/// A request sequence over a set of distinct queries.
pub struct Traffic {
    pub specs: Vec<Spec>,
    pub reqs: Vec<Req>,
}

impl Traffic {
    /// Share of requests that repeat a query sent earlier in the sequence.
    pub fn repeat_share(&self, upto: usize) -> f64 {
        let upto = upto.min(self.reqs.len());
        if upto == 0 {
            return 0.0;
        }
        let mut seen = vec![false; self.specs.len()];
        let mut repeats = 0usize;
        for r in &self.reqs[..upto] {
            let s = &mut seen[r.key as usize];
            repeats += usize::from(*s);
            *s = true;
        }
        repeats as f64 / upto as f64
    }
}

/// `k` distinct values from `0..n`, sorted (Floyd's sampling: O(k)).
fn sample_distinct<R: RngCore>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let k = k.min(n);
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    for j in n - k..n {
        let t = (rng.next_u64() % (j as u64 + 1)) as usize;
        if chosen.contains(&t) {
            chosen.push(j);
        } else {
            chosen.push(t);
        }
    }
    chosen.sort_unstable();
    chosen
}

fn uniform_p<R: RngCore>(g: &Graph, rng: &mut R) -> Vec<NodeId> {
    let n = g.num_nodes();
    let count = ((P_DENSITY * n as f64).round() as usize).clamp(1, n);
    sample_distinct(n, count, rng)
        .into_iter()
        .map(|v| v as NodeId)
        .collect()
}

/// Uniform Q of size `m` from one of the precomputed regions (§VI-A:
/// a random seed node's `A x radius` neighbourhood, widened to `m`).
fn uniform_q<R: RngCore>(regions: &[QueryRegion], m: usize, rng: &mut R) -> Vec<NodeId> {
    let region = &regions[(rng.next_u64() % regions.len() as u64) as usize];
    let cand = region.candidates(m);
    let mut q: Vec<NodeId> = sample_distinct(cand.len(), m, rng)
        .into_iter()
        .map(|i| cand[i].0)
        .collect();
    q.sort_unstable();
    q
}

/// `count` regions (capped), each from its own derived seed so two
/// threads can draw them deterministically.
fn regions(g: &Graph, seed: u64, count: usize) -> Vec<QueryRegion> {
    let count = count.clamp(1, MAX_REGIONS);
    let draw = |i: usize| {
        let mut rng = workload::rng(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        QueryRegion::new(g, UNIFORM_COVERAGE, &mut rng)
    };
    std::thread::scope(|s| {
        let odd = s.spawn(|| (1..count).step_by(2).map(draw).collect::<Vec<_>>());
        let even: Vec<_> = (0..count).step_by(2).map(draw).collect();
        let odd = odd.join().expect("region thread");
        let mut all = Vec::with_capacity(count);
        let mut odd = odd.into_iter();
        for e in even {
            all.push(e);
            all.extend(odd.next());
        }
        all
    })
}

/// The i-th query's (φ, aggregate): max/sum alternate, φ cycles, so every
/// prefix of the sequence has the same mix.
fn mix(i: usize) -> (f64, Aggregate) {
    let agg = if i.is_multiple_of(2) {
        Aggregate::Max
    } else {
        Aggregate::Sum
    };
    (PHIS[(i / 2) % PHIS.len()], agg)
}

/// `count` distinct uniform-P, uniform-Q queries (|Q| in 4..=11), each
/// requested once, in order.
pub fn uniform(g: &Graph, seed: u64, count: usize) -> Traffic {
    let mut rng = workload::rng(seed ^ 0x756e_6966_6f72_6d00);
    let regions = regions(g, seed ^ 0x7265_6769_6f6e, count);
    let specs: Vec<Spec> = (0..count)
        .map(|i| {
            let p = uniform_p(g, &mut rng);
            let m = rng.gen_range(4usize..12);
            let q = uniform_q(&regions, m, &mut rng);
            let (phi, agg) = mix(i);
            Spec { p, q, phi, agg }
        })
        .collect();
    let reqs = specs
        .iter()
        .enumerate()
        .map(|(i, s)| Req {
            key: i as u32,
            p: s.p.clone(),
            q: s.q.clone(),
        })
        .collect();
    Traffic { specs, reqs }
}

/// Skewed traffic: `hot` clustered-Q queries picked Zipf(1) and spelled
/// differently on every request (rotated P and Q), plus a `one_off`
/// share of fresh uniform queries that never repeat.
pub fn skewed(g: &Graph, seed: u64, count: usize, hot: usize, one_off: f64) -> Traffic {
    let mut rng = workload::rng(seed ^ 0x736b_6577_6564_0000);
    let mut specs: Vec<Spec> = (0..hot)
        .map(|i| {
            let p = uniform_p(g, &mut rng);
            let m = 6 + 2 * (i % 4);
            let mut q = clustered_query_points(g, m, CLUSTER_COVERAGE, 2, &mut rng);
            q.sort_unstable();
            let (phi, agg) = mix(i);
            Spec { p, q, phi, agg }
        })
        .collect();
    let one_offs = (count as f64 * one_off).ceil() as usize;
    let regions = regions(g, seed ^ 0x7265_6769_6f6e, one_offs);
    let weights: Vec<f64> = (1..=hot).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(hot);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut reqs = Vec::with_capacity(count);
    for _ in 0..count {
        let key = if rng.gen_bool(one_off) {
            let p = uniform_p(g, &mut rng);
            let m = rng.gen_range(4usize..12);
            let q = uniform_q(&regions, m, &mut rng);
            let (phi, agg) = mix(specs.len());
            specs.push(Spec { p, q, phi, agg });
            specs.len() - 1
        } else {
            let u: f64 = rng.gen_range(0.0..1.0);
            cdf.partition_point(|&c| c < u).min(hot - 1)
        };
        let s = &specs[key];
        let mut p = s.p.clone();
        let mut q = s.q.clone();
        let (rp, rq) = (
            rng.next_u64() as usize % p.len(),
            rng.next_u64() as usize % q.len(),
        );
        p.rotate_left(rp);
        q.rotate_left(rq);
        reqs.push(Req {
            key: key as u32,
            p,
            q,
        });
    }
    Traffic { specs, reqs }
}

/// `count` distinct random interior edges `(u, v, w)`: both endpoints are
/// junctions (degree >= 3), so no edge is a pendant best case.
pub fn interior_edges(g: &Graph, seed: u64, count: usize) -> Vec<(NodeId, NodeId, Weight)> {
    let mut rng = workload::rng(seed ^ 0x6564_6765_7300_0000);
    let n = g.num_nodes();
    let mut edges: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(count);
    while edges.len() < count {
        let u = (rng.next_u64() % n as u64) as NodeId;
        if g.degree(u) < 3 {
            continue;
        }
        let pick = (rng.next_u64() % g.degree(u) as u64) as usize;
        let (v, w) = g.neighbors(u).nth(pick).expect("pick < degree");
        let dup = edges
            .iter()
            .any(|&(a, b, _)| (a, b) == (u, v) || (a, b) == (v, u));
        if g.degree(v) >= 3 && !dup {
            edges.push((u, v, w));
        }
    }
    edges
}

/// The update feed over `edges`: each weight doubled, then restored.
pub fn toggle_feed(edges: &[(NodeId, NodeId, Weight)]) -> Vec<(NodeId, NodeId, Weight)> {
    edges
        .iter()
        .flat_map(|&(u, v, w)| [(u, v, w.saturating_mul(2)), (u, v, w)])
        .collect()
}
