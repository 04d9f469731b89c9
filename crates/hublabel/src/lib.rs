//! Pruned 2-hop hub labeling — an exact, labeling-based distance oracle.
//!
//! The paper's fastest `g_phi` backend is **PHL** (pruned highway labeling,
//! Akiba et al. \[16\]): after heavy preprocessing, every vertex stores a
//! label (a set of `(hub, distance)` pairs) such that the shortest-path
//! distance of any pair is the minimum over common hubs. This crate
//! implements the same contract via *pruned landmark labeling* (the
//! vertex-hub sibling of PHL): identical query algorithm, identical role in
//! every FANN_R algorithm, and the same memory behaviour the paper reports
//! in Fig. 9 (largest index of all, growing super-linearly with the graph).
//! See DESIGN.md §5 for the substitution rationale.
//!
//! # Algorithm
//!
//! Vertices are ranked by an importance order: the contraction-hierarchy
//! order ([`ch_index::contraction_order`]), which keeps labels several
//! times smaller than a degree order on road networks (DESIGN.md §7).
//! For each vertex `v` in rank order, a *pruned Dijkstra* from `v` visits
//! node `u` at distance `d`; if the labels built so far already certify
//! `dist(v, u) <= d`, the search is pruned at `u`; otherwise `(v, d)` is
//! appended to `u`'s label. The result is a *2-hop cover*: for every pair
//! `(s, t)` some vertex on a shortest `s`-`t` path is in both labels.
//!
//! The labels carry their own order: the root of each search is never
//! pruned, and once hub `v` is processed every later search prunes at
//! `v`, so `v`'s last entry is always `(rank(v), 0)`. [`HubLabels::order`]
//! reads the order back from there, and scoped repair replays hubs in it
//! whatever order the index was built in.
//!
//! Queries are a sorted-list merge: `min over common hubs h of
//! L_s(h) + L_t(h)` — microseconds in practice.

pub mod persist;

use ch_index::contraction_order;
use roadnet::flat::FlatVec;
use roadnet::{Dist, Graph, NodeId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

/// Vertices by descending degree, ties by id: the classic cheap hub
/// order, kept as the ablation baseline for the default
/// contraction-hierarchy order (see
/// `crates/bench/src/bin/ablation_label_order.rs`).
pub fn degree_order(g: &Graph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    order.sort_by_key(|&v| (Reverse(g.degree(v)), v));
    order
}

/// A built hub-label index.
///
/// Labels live in three flat CSR-style arrays (`offsets[v]..offsets[v+1]`
/// indexes node `v`'s `(hub_rank, dist)` pairs, sorted by rank) behind
/// shared [`FlatVec`] handles, so the in-memory layout coincides with the
/// flat v2 on-disk sections and a loaded index serves queries directly from
/// the file buffer (see [`persist`]).
pub struct HubLabels {
    /// `n + 1` entry offsets into `ranks`/`dists`.
    offsets: FlatVec<u64>,
    /// Hub ranks, per-node runs sorted ascending.
    ranks: FlatVec<u32>,
    /// Hub distances, parallel to `ranks`.
    dists: FlatVec<u64>,
}

impl HubLabels {
    /// Build labels in the contraction-hierarchy order.
    pub fn build(g: &Graph) -> Self {
        Self::build_with_order(g, &contraction_order(g))
    }

    /// Build labels, giving up when the total label count exceeds
    /// `max_entries` — the moral equivalent of the paper's PHL running out
    /// of memory on the largest datasets (Fig. 9): label size is the
    /// dominant cost and grows super-linearly with the graph.
    pub fn build_with_limit(g: &Graph, max_entries: usize) -> Option<Self> {
        Self::build_with_order_inner(g, &contraction_order(g), Some(max_entries))
    }

    /// Build labels with a fully custom hub order (most important first).
    /// Must be a permutation of `0..g.num_nodes()`.
    pub fn build_with_order(g: &Graph, order: &[NodeId]) -> Self {
        assert_eq!(order.len(), g.num_nodes(), "order must cover every node");
        Self::build_with_order_inner(g, order, None).expect("no limit given")
    }

    fn build_with_order_inner(
        g: &Graph,
        order: &[NodeId],
        max_entries: Option<usize>,
    ) -> Option<Self> {
        let n = g.num_nodes();
        let mut total_entries = 0usize;

        let mut labels: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        // Scratch: distance from the current hub to each earlier hub rank,
        // letting the pruning query run in O(|label(u)|).
        let mut hub_dist_by_rank = vec![INF; n];
        let mut dist = vec![INF; n];
        let mut touched: Vec<NodeId> = Vec::new();
        let mut heap: BinaryHeap<(Reverse<Dist>, NodeId)> = BinaryHeap::new();

        for (rank, &hub) in order.iter().enumerate() {
            let rank = rank as u32;
            for &(r, d) in &labels[hub as usize] {
                hub_dist_by_rank[r as usize] = d;
            }

            dist[hub as usize] = 0;
            touched.push(hub);
            heap.push((Reverse(0), hub));
            while let Some((Reverse(d), u)) = heap.pop() {
                if d > dist[u as usize] {
                    continue;
                }
                // Pruning test: is (hub -> u) already certified by earlier
                // hubs? The root is never pruned, so every label ends in
                // its own hub (see [`HubLabels::order`]).
                let mut certified = INF;
                for &(r, du) in &labels[u as usize] {
                    let dh = hub_dist_by_rank[r as usize];
                    if dh != INF {
                        certified = certified.min(dh + du);
                    }
                }
                if certified <= d && u != hub {
                    continue;
                }
                labels[u as usize].push((rank, d));
                total_entries += 1;
                if max_entries.is_some_and(|cap| total_entries > cap) {
                    return None; // label budget blown (Fig. 9 "PHL fails")
                }
                for (t, w) in g.neighbors(u) {
                    let nd = d + w as Dist;
                    if nd < dist[t as usize] {
                        dist[t as usize] = nd;
                        touched.push(t);
                        heap.push((Reverse(nd), t));
                    }
                }
            }
            // Reset scratch state touched by this hub.
            for &(r, _) in &labels[hub as usize] {
                hub_dist_by_rank[r as usize] = INF;
            }
            for &v in &touched {
                dist[v as usize] = INF;
            }
            touched.clear();
            heap.clear();
        }
        Some(HubLabels::from_labels(labels))
    }

    /// Build labels in the contraction-hierarchy order across `workers`
    /// threads (`0` = one per core); bit-identical to [`HubLabels::build`].
    pub fn build_parallel(g: &Graph, workers: usize) -> Self {
        Self::build_with_order_parallel(g, &contraction_order(g), workers)
    }

    /// Parallel pruned-labeling build with an explicit hub order.
    ///
    /// Hubs are processed in fixed-size rank batches: within a batch every
    /// hub's pruned Dijkstra runs concurrently against the labels installed
    /// by *earlier batches* (weaker pruning, so each search yields a
    /// candidate superset with valid distances), then candidates are
    /// re-pruned sequentially in rank order with the exact insert test over
    /// the up-to-date labels. The batch size is a constant — never derived
    /// from `workers` — so the resulting index is deterministic: the same
    /// graph and order produce bit-identical labels on any machine and any
    /// worker count. Like the sequential build the result is an exact 2-hop
    /// cover (re-pruning only keeps an entry when no earlier hub certifies
    /// it, the invariant the PLL correctness proof rests on).
    pub fn build_with_order_parallel(g: &Graph, order: &[NodeId], workers: usize) -> Self {
        assert_eq!(order.len(), g.num_nodes(), "order must cover every node");
        let workers = if workers == 0 {
            roadnet::par::default_workers()
        } else {
            workers
        };
        // Fixed batch width: part of the format, not a tuning knob.
        const BATCH: usize = 64;
        let n = g.num_nodes();
        let mut labels: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        let mut hub_dist_by_rank = vec![INF; n];
        let mut base = 0usize;
        while base < n {
            let batch = &order[base..(base + BATCH).min(n)];
            let candidates = Self::batch_searches(g, batch, &labels, workers);
            for (i, (&hub, cands)) in batch.iter().zip(&candidates).enumerate() {
                let rank = (base + i) as u32;
                for &(r, dh) in &labels[hub as usize] {
                    hub_dist_by_rank[r as usize] = dh;
                }
                for &(u, d) in cands {
                    let mut certified = INF;
                    for &(r, du) in &labels[u as usize] {
                        let dh = hub_dist_by_rank[r as usize];
                        if dh != INF {
                            certified = certified.min(dh + du);
                        }
                    }
                    if certified <= d && u != hub {
                        continue;
                    }
                    labels[u as usize].push((rank, d));
                }
                for &(r, _) in &labels[hub as usize] {
                    hub_dist_by_rank[r as usize] = INF;
                }
            }
            base += batch.len();
        }
        Self::from_labels(labels)
    }

    /// Run one pruned Dijkstra per batch hub against the pre-batch labels,
    /// returning each hub's `(node, dist)` candidates in settle order.
    /// Workers own their scratch and pull hubs from a shared cursor; results
    /// are merged by batch index, so scheduling never affects the output.
    fn batch_searches(
        g: &Graph,
        batch: &[NodeId],
        labels: &[Vec<(u32, Dist)>],
        workers: usize,
    ) -> Vec<Vec<(NodeId, Dist)>> {
        type Shard = Vec<(usize, Vec<(NodeId, Dist)>)>;
        let n = g.num_nodes();
        let workers = workers.clamp(1, batch.len().max(1));
        let run = |scratch: &mut SearchScratch, hub: NodeId| -> Vec<(NodeId, Dist)> {
            scratch.pruned_dijkstra(g, hub, labels)
        };
        if workers <= 1 {
            let mut scratch = SearchScratch::new(n);
            return batch.iter().map(|&h| run(&mut scratch, h)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let cursor = &cursor;
        let shards: Vec<Shard> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let mut scratch = SearchScratch::new(n);
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                            if i >= batch.len() {
                                break;
                            }
                            local.push((i, run(&mut scratch, batch[i])));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("label build worker panicked"))
                .collect()
        });
        let mut out: Vec<Option<Vec<(NodeId, Dist)>>> = (0..batch.len()).map(|_| None).collect();
        for (i, c) in shards.into_iter().flatten() {
            out[i] = Some(c);
        }
        out.into_iter().map(|c| c.expect("batch covered")).collect()
    }

    /// Reassemble from per-node label lists (build and v1-decode paths).
    /// Callers must guarantee each label is sorted by hub rank.
    pub(crate) fn from_labels(labels: Vec<Vec<(u32, Dist)>>) -> Self {
        let total: usize = labels.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(labels.len() + 1);
        let mut ranks = Vec::with_capacity(total);
        let mut dists = Vec::with_capacity(total);
        offsets.push(0u64);
        for label in &labels {
            for &(r, d) in label {
                ranks.push(r);
                dists.push(d);
            }
            offsets.push(ranks.len() as u64);
        }
        HubLabels {
            offsets: offsets.into(),
            ranks: ranks.into(),
            dists: dists.into(),
        }
    }

    /// Reassemble directly from the flat CSR arrays (zero-copy load path).
    /// Callers must have validated the CSR invariants.
    pub(crate) fn from_flat_parts(
        offsets: FlatVec<u64>,
        ranks: FlatVec<u32>,
        dists: FlatVec<u64>,
    ) -> Self {
        HubLabels {
            offsets,
            ranks,
            dists,
        }
    }

    /// Internal CSR accessors for persistence.
    pub(crate) fn flat_parts(&self) -> (&FlatVec<u64>, &FlatVec<u32>, &FlatVec<u64>) {
        (&self.offsets, &self.ranks, &self.dists)
    }

    /// Node `v`'s label as parallel `(hub ranks, distances)` slices, sorted
    /// by rank.
    #[inline]
    pub fn label(&self, v: NodeId) -> (&[u32], &[Dist]) {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (&self.ranks[lo..hi], &self.dists[lo..hi])
    }

    /// Exact shortest-path distance; `None` when `s` and `t` are in
    /// different components (no common hub).
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        if s == t {
            return Some(0);
        }
        let (sr, sd) = self.label(s);
        let (tr, td) = self.label(t);
        let (mut i, mut j) = (0, 0);
        let mut best = INF;
        while i < sr.len() && j < tr.len() {
            match sr[i].cmp(&tr[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    best = best.min(sd[i] + td[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        (best != INF).then_some(best)
    }

    /// Number of labeled vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of `(hub, dist)` entries across all labels.
    pub fn total_label_entries(&self) -> usize {
        self.ranks.len()
    }

    /// Mean label size — the labeling-oracle quality metric.
    pub fn avg_label_size(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.total_label_entries() as f64 / self.num_nodes() as f64
        }
    }

    /// Approximate in-memory size (Fig. 9a analogue).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * 8 + self.ranks.len() * 4 + self.dists.len() * 8
    }

    /// The hub order the labels were built in (most important first),
    /// read back from the labels in O(n): every label ends in its own
    /// hub at distance 0 (see the module docs), so node `v`'s last entry
    /// names `v`'s rank.
    pub fn order(&self) -> Vec<NodeId> {
        self.recover_order()
            .expect("every label ends in its own hub (checked on load)")
    }

    /// [`HubLabels::order`], or `None` if the labels do not end in a
    /// permutation of self-hubs at distance 0 (a corrupt index).
    pub(crate) fn recover_order(&self) -> Option<Vec<NodeId>> {
        let n = self.num_nodes();
        let mut order = vec![NodeId::MAX; n];
        for v in 0..n as NodeId {
            let (ranks, dists) = self.label(v);
            let (&r, &d) = ranks.last().zip(dists.last())?;
            let slot = order.get_mut(r as usize)?;
            if d != 0 || *slot != NodeId::MAX {
                return None;
            }
            *slot = v;
        }
        Some(order)
    }

    /// Scoped repair after a batch of edge-weight changes. `g` is the
    /// *patched* graph; `touched` lists the edges whose weights differ
    /// from the graph the labels were built on (a superset is safe).
    /// Returns labels **bit-identical** to `build_with_order(g,
    /// &self.order())` — a rebuild in the index's own hub order, read
    /// back from the labels, whatever order that is — plus repair-cost
    /// counters.
    ///
    /// Why a per-hub certificate exists: the build's pruned Dijkstra
    /// relaxes the neighbors of a node only when the node is settled
    /// *unpruned*, i.e. exactly when it receives a label entry. So if hub
    /// `h`'s search traversed edge `(a, b)`, then `rank(h)` appears in the
    /// old label of `a` or `b` (every node also labels itself, covering
    /// `h ∈ {a, b}`). Replaying hubs in rank order, an unflagged hub's
    /// search reads only inputs — edge weights, its own label, and the
    /// labels (restricted to earlier ranks) of nodes it settles — that are
    /// unchanged, hence reproduces its old output verbatim and can be
    /// copied instead of searched. When a re-run hub's output differs at
    /// node `u`, every later hub whose old search could have read
    /// `label(u)` — `u`'s own rank, plus ranks in the old labels of `u`'s
    /// neighbors (the only way a search settles `u`) — is flagged too.
    /// This holds for weight increases and decreases alike.
    pub fn repair_scoped(
        &self,
        g: &Graph,
        touched: &[(NodeId, NodeId)],
    ) -> (HubLabels, LabelRepairStats) {
        let n = g.num_nodes();
        assert_eq!(self.num_nodes(), n, "labels must match the graph");
        let order = self.order();

        let mut rank_of = vec![0u32; n];
        for (rank, &hub) in order.iter().enumerate() {
            rank_of[hub as usize] = rank as u32;
        }
        // Old entries inverted by hub rank: by_rank[r] = (node, dist) in
        // ascending node order (built by scanning nodes in id order).
        let mut by_rank: Vec<Vec<(NodeId, Dist)>> = vec![Vec::new(); n];
        for v in 0..n as NodeId {
            let (ranks, dists) = self.label(v);
            for (&r, &d) in ranks.iter().zip(dists) {
                by_rank[r as usize].push((v, d));
            }
        }

        // Seed: hubs whose old search may have traversed a touched edge.
        let mut affected = vec![false; n];
        for &(a, b) in touched {
            for v in [a, b] {
                let (ranks, _) = self.label(v);
                for &r in ranks {
                    affected[r as usize] = true;
                }
            }
        }

        let mut labels: Vec<Vec<(u32, Dist)>> = vec![Vec::new(); n];
        let mut scratch = SearchScratch::new(n);
        let mut roots_searched = 0usize;
        for (rank, &hub) in order.iter().enumerate() {
            let old = &by_rank[rank];
            if !affected[rank] {
                for &(v, d) in old {
                    labels[v as usize].push((rank as u32, d));
                }
                continue;
            }
            roots_searched += 1;
            let mut out = scratch.pruned_dijkstra(g, hub, &labels);
            out.sort_unstable_by_key(|&(v, _)| v);
            for &(v, d) in &out {
                labels[v as usize].push((rank as u32, d));
            }
            // Diff against the old entries (both sorted by node id); any
            // node whose entry at this rank changed invalidates later
            // hubs that could have observed it.
            let (mut i, mut j) = (0, 0);
            let dirty = |u: NodeId, affected: &mut Vec<bool>| {
                let ru = rank_of[u as usize] as usize;
                if ru > rank {
                    affected[ru] = true;
                }
                for (x, _) in g.neighbors(u) {
                    let (ranks, _) = self.label(x);
                    for &r2 in ranks {
                        if (r2 as usize) > rank {
                            affected[r2 as usize] = true;
                        }
                    }
                }
            };
            while i < old.len() || j < out.len() {
                let changed = if i == old.len() {
                    Some(out[j].0)
                } else if j == out.len() {
                    Some(old[i].0)
                } else {
                    match old[i].0.cmp(&out[j].0) {
                        std::cmp::Ordering::Less => Some(old[i].0),
                        std::cmp::Ordering::Greater => Some(out[j].0),
                        std::cmp::Ordering::Equal => (old[i].1 != out[j].1).then_some(old[i].0),
                    }
                };
                if let Some(u) = changed {
                    dirty(u, &mut affected)
                }
                if i < old.len() && (j == out.len() || old[i].0 <= out[j].0) {
                    let adv_j = j < out.len() && old[i].0 == out[j].0;
                    i += 1;
                    if adv_j {
                        j += 1;
                    }
                } else {
                    j += 1;
                }
            }
        }
        (
            HubLabels::from_labels(labels),
            LabelRepairStats {
                roots_searched,
                roots_total: n,
            },
        )
    }
}

/// Repair-cost counters from [`HubLabels::repair_scoped`]: how many hub
/// searches actually re-ran versus the full-rebuild count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelRepairStats {
    /// Hubs whose pruned search was re-run.
    pub roots_searched: usize,
    /// Hubs a from-scratch rebuild would run (one per vertex).
    pub roots_total: usize,
}

impl PartialEq for HubLabels {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets && self.ranks == other.ranks && self.dists == other.dists
    }
}

/// Reusable per-worker state for one pruned Dijkstra.
struct SearchScratch {
    dist: Vec<Dist>,
    hub_dist_by_rank: Vec<Dist>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<(Reverse<Dist>, NodeId)>,
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![INF; n],
            hub_dist_by_rank: vec![INF; n],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Pruned Dijkstra from `hub` against a fixed label snapshot. Returns
    /// `(node, dist)` for every settled, unpruned node in settle order.
    fn pruned_dijkstra(
        &mut self,
        g: &Graph,
        hub: NodeId,
        labels: &[Vec<(u32, Dist)>],
    ) -> Vec<(NodeId, Dist)> {
        let mut out = Vec::new();
        for &(r, d) in &labels[hub as usize] {
            self.hub_dist_by_rank[r as usize] = d;
        }
        self.dist[hub as usize] = 0;
        self.touched.push(hub);
        self.heap.push((Reverse(0), hub));
        while let Some((Reverse(d), u)) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue;
            }
            let mut certified = INF;
            for &(r, du) in &labels[u as usize] {
                let dh = self.hub_dist_by_rank[r as usize];
                if dh != INF {
                    certified = certified.min(dh + du);
                }
            }
            if certified <= d && u != hub {
                continue;
            }
            out.push((u, d));
            for (t, w) in g.neighbors(u) {
                let nd = d + w as Dist;
                if nd < self.dist[t as usize] {
                    self.dist[t as usize] = nd;
                    self.touched.push(t);
                    self.heap.push((Reverse(nd), t));
                }
            }
        }
        for &(r, _) in &labels[hub as usize] {
            self.hub_dist_by_rank[r as usize] = INF;
        }
        for &v in &self.touched {
            self.dist[v as usize] = INF;
        }
        self.touched.clear();
        self.heap.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::dijkstra::dijkstra_all;
    use roadnet::GraphBuilder;

    fn grid(w: u32, h: u32) -> Graph {
        let mut b = GraphBuilder::new();
        for y in 0..h {
            for x in 0..w {
                b.add_node(x as f64, y as f64);
            }
        }
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w {
                    b.add_edge(v, v + 1, 1 + (x + y) % 3);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1 + (x * y) % 2);
                }
            }
        }
        b.build()
    }

    fn assert_exact(g: &Graph, hl: &HubLabels) {
        for s in 0..g.num_nodes() as NodeId {
            let truth = dijkstra_all(g, s);
            for t in 0..g.num_nodes() as NodeId {
                let expect = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(hl.distance(s, t), expect, "pair {s}->{t}");
            }
        }
    }

    #[test]
    fn exact_on_grid() {
        let g = grid(5, 4);
        let hl = HubLabels::build(&g);
        assert_exact(&g, &hl);
    }

    #[test]
    fn exact_with_input_and_degree_orders() {
        let g = grid(4, 4);
        let input: Vec<NodeId> = (0..16).collect();
        assert_exact(&g, &HubLabels::build_with_order(&g, &input));
        assert_exact(&g, &HubLabels::build_with_order(&g, &degree_order(&g)));
    }

    #[test]
    fn disconnected_pairs_are_none() {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 2);
        b.add_edge(2, 3, 5);
        let g = b.build();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(0, 1), Some(2));
        assert_eq!(hl.distance(2, 3), Some(5));
        assert_eq!(hl.distance(0, 2), None);
        assert_eq!(hl.distance(1, 3), None);
    }

    #[test]
    fn self_distance_zero() {
        let g = grid(3, 3);
        let hl = HubLabels::build(&g);
        for v in 0..9 {
            assert_eq!(hl.distance(v, v), Some(0));
        }
    }

    #[test]
    fn labels_sorted_by_rank() {
        let g = grid(5, 5);
        let hl = HubLabels::build(&g);
        for v in 0..hl.num_nodes() as NodeId {
            let (ranks, _) = hl.label(v);
            assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn parallel_build_is_exact_and_worker_count_invariant() {
        let g = grid(6, 5);
        let canonical = HubLabels::build_parallel(&g, 1);
        assert_exact(&g, &canonical);
        for workers in [2, 3, 4, 8] {
            let hl = HubLabels::build_parallel(&g, workers);
            assert!(
                hl == canonical,
                "labels differ with {workers} workers (batch result must not depend on scheduling)"
            );
        }
    }

    #[test]
    fn default_order_is_the_contraction_order() {
        let g = grid(7, 6);
        let ch = ch_index::contraction_order(&g);
        let seq = HubLabels::build(&g);
        assert!(seq == HubLabels::build_with_order(&g, &ch));
        assert_eq!(seq.order(), ch);
        for workers in [1, 2, 4] {
            let par = HubLabels::build_parallel(&g, workers);
            assert!(par == seq, "CH-order parallel build with {workers} workers");
        }
    }

    /// The three hub orders the repair tests cover: contraction (the
    /// default), degree, and reversed ids (a deliberately poor order).
    fn orders(g: &Graph) -> [Vec<NodeId>; 3] {
        [
            ch_index::contraction_order(g),
            degree_order(g),
            (0..g.num_nodes() as NodeId).rev().collect(),
        ]
    }

    #[test]
    fn order_reads_back_the_build_order() {
        let g = grid(6, 5);
        for order in orders(&g) {
            let seq = HubLabels::build_with_order(&g, &order);
            assert_eq!(seq.order(), order);
            let par = HubLabels::build_with_order_parallel(&g, &order, 3);
            assert_eq!(par.order(), order);
        }
    }

    #[test]
    fn parallel_build_matches_sequential_answers() {
        let g = grid(7, 4);
        let seq = HubLabels::build(&g);
        let par = HubLabels::build_parallel(&g, 4);
        for s in 0..g.num_nodes() as NodeId {
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(par.distance(s, t), seq.distance(s, t), "pair {s}->{t}");
            }
        }
    }

    #[test]
    fn parallel_build_with_custom_order_is_exact() {
        let g = grid(5, 5);
        let order: Vec<NodeId> = (0..25).rev().collect();
        let hl = HubLabels::build_with_order_parallel(&g, &order, 3);
        assert_exact(&g, &hl);
    }

    #[test]
    fn stats_are_consistent() {
        let g = grid(4, 3);
        let hl = HubLabels::build(&g);
        assert_eq!(hl.num_nodes(), 12);
        assert!(hl.total_label_entries() >= 12); // every node labels itself
        assert!(hl.avg_label_size() >= 1.0);
        assert!(hl.memory_bytes() > 0);
    }

    #[test]
    fn limit_aborts_large_builds_but_allows_small() {
        let g = grid(6, 6);
        assert!(HubLabels::build_with_limit(&g, 5).is_none());
        let hl = HubLabels::build_with_limit(&g, 1_000_000).unwrap();
        assert_exact(&g, &hl);
    }

    #[test]
    fn custom_order_stays_exact() {
        let g = grid(5, 5);
        // Reverse-id order: terrible, but must remain exact.
        let order: Vec<NodeId> = (0..25).rev().collect();
        let hl = HubLabels::build_with_order(&g, &order);
        assert_exact(&g, &hl);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn custom_order_must_cover() {
        let g = grid(3, 3);
        let _ = HubLabels::build_with_order(&g, &[0, 1]);
    }

    fn patched(g: &Graph, patches: &[(NodeId, NodeId, u32)]) -> Graph {
        g.with_patched_weights(patches).unwrap()
    }

    #[test]
    fn repair_scoped_is_bit_identical_to_rebuild() {
        let g = grid(6, 5);
        for order in orders(&g) {
            let hl = HubLabels::build_with_order(&g, &order);
            // Increase, decrease, and a mixed batch — each must reproduce
            // a from-scratch build in the index's own order exactly.
            for patch in [
                vec![(7u32, 8u32, 9u32)],
                vec![(12, 18, 1)],
                vec![(0, 1, 5), (14, 15, 1), (22, 28, 7)],
            ] {
                let g2 = patched(&g, &patch);
                let touched: Vec<(NodeId, NodeId)> =
                    patch.iter().map(|&(u, v, _)| (u, v)).collect();
                let (repaired, stats) = hl.repair_scoped(&g2, &touched);
                let rebuilt = HubLabels::build_with_order(&g2, &order);
                assert!(repaired == rebuilt, "repair diverged for patch {patch:?}");
                assert_eq!(repaired.order(), order);
                assert_exact(&g2, &repaired);
                assert_eq!(stats.roots_total, g.num_nodes());
                assert!(stats.roots_searched <= stats.roots_total);
            }
        }
    }

    #[test]
    fn repair_scoped_handles_repeated_batches() {
        // Chain repairs: each repair feeds the next, staying identical to
        // a rebuild in the original order at every step (including a
        // weight round-trip).
        let g0 = grid(5, 5);
        for order in orders(&g0) {
            let mut hl = HubLabels::build_with_order(&g0, &order);
            let mut g = g0.clone();
            for patch in [(6u32, 7u32, 9u32), (6, 7, 1), (17, 22, 4), (6, 7, 2)] {
                g = patched(&g, &[patch]);
                let (next, _) = hl.repair_scoped(&g, &[(patch.0, patch.1)]);
                assert!(
                    next == HubLabels::build_with_order(&g, &order),
                    "diverged at patch {patch:?}"
                );
                assert_exact(&g, &next);
                hl = next;
            }
        }
    }

    #[test]
    fn repair_scoped_empty_scope_is_a_clone() {
        let g = grid(4, 4);
        let hl = HubLabels::build(&g);
        let (same, stats) = hl.repair_scoped(&g, &[]);
        assert!(same == hl);
        assert_eq!(stats.roots_searched, 0);
    }

    #[test]
    fn repair_scoped_repairs_parallel_built_labels() {
        // The batched parallel build is bit-identical to the sequential
        // one, so its output is a valid repair starting point too.
        let g = grid(6, 4);
        let hl = HubLabels::build_parallel(&g, 4);
        let g2 = patched(&g, &[(5, 11, 8), (13, 14, 1)]);
        let (repaired, stats) = hl.repair_scoped(&g2, &[(5, 11), (13, 14)]);
        assert!(repaired == HubLabels::build_with_order(&g2, &hl.order()));
        assert_exact(&g2, &repaired);
        assert!(
            stats.roots_searched < stats.roots_total,
            "a two-edge patch should not invalidate every hub"
        );
    }

    #[test]
    fn zero_weight_edges_keep_the_self_hub_invariant() {
        // Weights are clamped to >= 1 at every entry point, but the root
        // of each search is never pruned, so even a zero-weight edge
        // leaves every label ending in its own hub.
        let g = patched(&grid(4, 3), &[(1, 2, 0), (5, 6, 0)]);
        for order in orders(&g) {
            let hl = HubLabels::build_with_order(&g, &order);
            assert_eq!(hl.order(), order);
            assert!(HubLabels::build_with_order_parallel(&g, &order, 2) == hl);
            assert_exact(&g, &hl);
        }
    }

    #[test]
    fn single_node_graph() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        let g = b.build();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(0, 0), Some(0));
    }
}
