//! The correctness gate: every answer the servers return is compared
//! bit-for-bit, `(dist, p_star)` or empty, with an in-process mirror
//! engine built from the same seed.
//!
//! The mirror never reads what the servers load: its hub labels are built
//! here from the generated graph, so a wrong index from `build-index` or
//! a wrong flat writer or loader shows as a mismatch.

use std::collections::HashMap;

use fann_core::engine::Engine;
use hublabel::HubLabels;
use roadnet::Graph;

use crate::load::{Outcome, Status};
use crate::pools::{Spec, Traffic};

/// `(dist, p_star)`, or `None` for "no candidate reaches k of Q".
pub type Answer = Option<(u64, u32)>;

/// The mirror: an engine over `graph` with hub labels built in-process
/// (IER-kNN over labels for every query, whatever the servers run).
pub fn mirror(graph: &Graph) -> Engine {
    mirror_with(graph, HubLabels::build_parallel(graph, 2))
}

/// The mirror over labels the caller already built from `graph`.
pub fn mirror_with(graph: &Graph, labels: HubLabels) -> Engine {
    Engine::new(graph).with_prebuilt_labels(labels)
}

/// The mirror's answer to `spec`.
pub fn expected(engine: &Engine, spec: &Spec) -> Result<Answer, String> {
    engine
        .query(&spec.p, &spec.q, spec.phi, spec.agg)
        .map(|a| a.map(|a| (a.dist, a.p_star)))
        .map_err(|e| format!("mirror query failed: {e}"))
}

/// Answers to `keys` on two threads.
fn expect_all(engine: &Engine, traffic: &Traffic, keys: &[u32]) -> Result<Vec<Answer>, String> {
    let half = keys.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = keys
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&k| expected(engine, &traffic.specs[k as usize]))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for p in parts {
            out.extend(p.join().expect("mirror thread")?);
        }
        Ok(out)
    })
}

fn observed(o: &Outcome) -> Answer {
    match o.status {
        Status::Ok => Some((o.dist, o.p_star)),
        _ => None,
    }
}

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Answered requests compared.
    pub checked: usize,
    /// Request indices whose answer differs from the mirror's.
    pub wrong: Vec<u32>,
    /// The first few mismatches, described for the report.
    pub details: Vec<String>,
    /// Answers with the mirror's exact `dist` whose `p_star` is a
    /// different, equally optimal candidate (see [`check`]).
    pub ties: Vec<u32>,
}

/// Check every answered outcome against the mirror.
///
/// With `ties`, an answer that differs from the mirror only in `p_star`
/// still passes when `p_star` is a candidate of the query whose exact
/// `g_phi` equals the mirror's `dist` (another optimum); it is counted in
/// [`Verdict::ties`]. A router merges shard answers by the smallest
/// `(dist, p_star)`, and the index-free strategies visit candidates in
/// another order than IER-kNN, while each keeps the first optimum it
/// finds, so they can name different optima.
pub fn check(
    engine: &Engine,
    traffic: &Traffic,
    outcomes: &[Outcome],
    ties: bool,
) -> Result<Verdict, String> {
    let answered: Vec<&Outcome> = outcomes.iter().filter(|o| o.answered()).collect();
    let key = |o: &Outcome| traffic.reqs[o.k as usize].key;
    let mut keys: Vec<u32> = answered.iter().map(|o| key(o)).collect();
    keys.sort_unstable();
    keys.dedup();
    let want: HashMap<u32, Answer> = keys
        .iter()
        .copied()
        .zip(expect_all(engine, traffic, &keys)?)
        .collect();
    let mut verdict = Verdict {
        checked: answered.len(),
        ..Verdict::default()
    };
    for o in answered {
        let (k, got) = (key(o), observed(o));
        if want[&k] == got {
            continue;
        }
        if ties && other_optimum(engine, &traffic.specs[k as usize], want[&k], got)? {
            verdict.ties.push(o.k);
            continue;
        }
        verdict.wrong.push(o.k);
        if verdict.details.len() < 5 {
            verdict.details.push(format!(
                "request {} (query {k}): got {got:?}, mirror {:?}",
                o.k, want[&k]
            ));
        }
    }
    Ok(verdict)
}

/// Whether `got` is an optimum other than the mirror's `want`: the same
/// `dist`, and a `p_star` from the query's candidates whose exact `g_phi`
/// is that `dist`.
fn other_optimum(engine: &Engine, spec: &Spec, want: Answer, got: Answer) -> Result<bool, String> {
    let (Some((want_dist, _)), Some((dist, p_star))) = (want, got) else {
        return Ok(false);
    };
    if dist != want_dist || spec.p.binary_search(&p_star).is_err() {
        return Ok(false);
    }
    let g = engine
        .g_phi(p_star, &spec.q, spec.phi, spec.agg)
        .map_err(|e| format!("mirror g_phi failed: {e}"))?;
    Ok(g.is_some_and(|g| g.dist == dist))
}
