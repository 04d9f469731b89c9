//! CH construction and bidirectional upward query.

use roadnet::{Dist, Graph, NodeId, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChParams {
    /// Max nodes a witness search may settle before giving up (giving up
    /// inserts the shortcut — always safe, possibly redundant).
    pub witness_settle_limit: usize,
}

impl Default for ChParams {
    fn default() -> Self {
        ChParams {
            witness_settle_limit: 500,
        }
    }
}

/// Max edges on a witness path; nodes this many hops from the source are
/// settled but not expanded. On the synthetic 10k-node road network a
/// limit of 2–3 leaves far more redundant shortcuts (a denser core, 2–4×
/// slower contraction, 10–40% larger labels); 5 and 8 measure alike.
const WITNESS_HOP_LIMIT: u32 = 8;

/// A built contraction hierarchy over an undirected graph.
pub struct Ch {
    /// Contraction rank per node (higher = more important).
    rank: Vec<u32>,
    /// Upward adjacency: for each node, `(neighbor, weight)` with
    /// `rank[neighbor] > rank[node]` — original edges and shortcuts.
    up: Vec<Vec<(NodeId, Dist)>>,
    num_shortcuts: usize,
}

/// The contraction order of `g` under the default [`ChParams`], most
/// important node (contracted last) first — the hub order the label
/// oracle builds on. Deterministic: the same graph always yields the same
/// order.
pub fn contraction_order(g: &Graph) -> Vec<NodeId> {
    let mut seq = Contraction::run(g, ChParams::default()).sequence;
    seq.reverse();
    seq
}

/// The outcome of contracting every node.
struct Contraction {
    /// Nodes in contraction order (least important first).
    sequence: Vec<NodeId>,
    /// Each node's live neighbours at the moment it was contracted: all
    /// contracted later, so this is the upward graph.
    up: Vec<Vec<(NodeId, Dist)>>,
    num_shortcuts: usize,
}

impl Contraction {
    /// Contract every node of `g`, cheapest first.
    ///
    /// Priorities are evaluated lazily: a popped node is re-simulated and
    /// contracted only if its fresh priority is still the smallest,
    /// otherwise it goes back with the fresh value. Contracting a node
    /// never re-simulates its neighbours eagerly; their stale entries are
    /// corrected when they reach the top.
    fn run(g: &Graph, params: ChParams) -> Self {
        let n = g.num_nodes();
        let mut c = Contractor::new(g, params);
        let mut shortcuts = Vec::new();
        let mut heap: BinaryHeap<Reverse<(i64, NodeId)>> = (0..n as NodeId)
            .map(|v| {
                c.simulate(v, &mut shortcuts);
                Reverse((c.priority(v, shortcuts.len()), v))
            })
            .collect();
        let mut sequence = Vec::with_capacity(n);
        let mut up = vec![Vec::new(); n];
        let mut num_shortcuts = 0usize;
        while let Some(Reverse((_, v))) = heap.pop() {
            c.simulate(v, &mut shortcuts);
            let entry = (c.priority(v, shortcuts.len()), v);
            if heap.peek().is_some_and(|&Reverse(top)| entry > top) {
                heap.push(Reverse(entry));
                continue;
            }
            num_shortcuts += shortcuts.len();
            up[v as usize] = c.contract(v, &shortcuts);
            sequence.push(v);
        }
        Contraction {
            sequence,
            up,
            num_shortcuts,
        }
    }
}

/// Contraction state: the remaining graph (original edges plus
/// shortcuts) and the per-node counters the priority reads.
struct Contractor {
    /// Live neighbours of each uncontracted node, one entry per neighbour
    /// carrying the minimum weight; contracted nodes are removed.
    adj: Vec<Vec<(NodeId, Dist)>>,
    /// Neighbours contracted so far (spreads contraction evenly).
    contracted_neighbors: Vec<u32>,
    /// Hierarchy depth: one more than the deepest contracted neighbour.
    level: Vec<u32>,
    witness: Witness,
    params: ChParams,
}

impl Contractor {
    fn new(g: &Graph, params: ChParams) -> Self {
        let n = g.num_nodes();
        let adj = (0..n as NodeId)
            .map(|v| g.neighbors(v).map(|(t, w)| (t, w as Dist)).collect())
            .collect();
        Contractor {
            adj,
            contracted_neighbors: vec![0; n],
            level: vec![0; n],
            witness: Witness::new(n),
            params,
        }
    }

    /// Shortcuts `(u, t, weight)` needed to contract `v` now: one per
    /// neighbour pair whose path through `v` has no witness of equal or
    /// smaller length avoiding `v`.
    fn simulate(&mut self, v: NodeId, out: &mut Vec<(NodeId, NodeId, Dist)>) {
        out.clear();
        let nbrs = &self.adj[v as usize];
        for (i, &(u, du)) in nbrs.iter().enumerate() {
            self.witness
                .search(&self.adj, u, du, v, &nbrs[i + 1..], self.params, out);
        }
    }

    /// Edge difference, contracted neighbours and level: small for nodes
    /// whose removal keeps the remaining graph sparse and the hierarchy
    /// shallow.
    fn priority(&self, v: NodeId, shortcuts: usize) -> i64 {
        let v = v as usize;
        let edge_difference = shortcuts as i64 - self.adj[v].len() as i64;
        4 * edge_difference + self.contracted_neighbors[v] as i64 + self.level[v] as i64
    }

    /// Remove `v` from the remaining graph, insert its shortcuts and
    /// return its neighbours (its upward edges).
    fn contract(&mut self, v: NodeId, shortcuts: &[(NodeId, NodeId, Dist)]) -> Vec<(NodeId, Dist)> {
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        let next_level = self.level[v as usize] + 1;
        for &(u, _) in &nbrs {
            let u = u as usize;
            let list = &mut self.adj[u];
            let at = list
                .iter()
                .position(|&(x, _)| x == v)
                .expect("adjacency is symmetric");
            list.swap_remove(at);
            self.contracted_neighbors[u] += 1;
            self.level[u] = self.level[u].max(next_level);
        }
        for &(a, b, w) in shortcuts {
            self.add_or_lower(a, b, w);
            self.add_or_lower(b, a, w);
        }
        nbrs
    }

    fn add_or_lower(&mut self, from: NodeId, to: NodeId, w: Dist) {
        let list = &mut self.adj[from as usize];
        match list.iter_mut().find(|(x, _)| *x == to) {
            Some(e) => e.1 = e.1.min(w),
            None => list.push((to, w)),
        }
    }
}

/// Reusable scratch for the bounded witness Dijkstra: arrays indexed by
/// node, reset through the touched list, so a search costs only what it
/// visits.
struct Witness {
    dist: Vec<Dist>,
    hops: Vec<u32>,
    /// Per undecided target, the length its witness must not exceed;
    /// `INF` for every other node.
    bound: Vec<Dist>,
    /// The current targets as `(bound, node)`, ascending.
    open: Vec<(Dist, NodeId)>,
    touched: Vec<NodeId>,
    heap: BinaryHeap<Reverse<(Dist, NodeId)>>,
}

impl Witness {
    fn new(n: usize) -> Self {
        Witness {
            dist: vec![INF; n],
            hops: vec![0; n],
            bound: vec![INF; n],
            open: Vec::new(),
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Witness search from `source` (joined to the node `avoid` by an
    /// edge of weight `du`) for each `(t, dt)` in `targets`: is there a
    /// path to `t` avoiding `avoid` no longer than `du + dt`? Pushes a
    /// shortcut `(source, t, du + dt)` for every target without one.
    ///
    /// A target is decided as soon as a tentative distance meets its
    /// bound (a witness exists) or the search radius passes its bound
    /// (none can exist); the search stops when every target is decided,
    /// or at the settle limit. Nodes at the hop limit are settled but
    /// not expanded. Limits only ever add shortcuts, which is safe.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        adj: &[Vec<(NodeId, Dist)>],
        source: NodeId,
        du: Dist,
        avoid: NodeId,
        targets: &[(NodeId, Dist)],
        params: ChParams,
        out: &mut Vec<(NodeId, NodeId, Dist)>,
    ) {
        if targets.is_empty() {
            return;
        }
        self.open.clear();
        self.open
            .extend(targets.iter().map(|&(t, dt)| (du + dt, t)));
        self.open.sort_unstable();
        for &(b, t) in &self.open {
            self.bound[t as usize] = b;
        }
        let cutoff = self.open[self.open.len() - 1].0;
        let mut undecided = self.open.len();
        let mut passed = 0;
        let mut settled = 0usize;
        self.dist[source as usize] = 0;
        self.hops[source as usize] = 0;
        self.touched.push(source);
        self.heap.push(Reverse((0, source)));
        while undecided > 0 && settled < params.witness_settle_limit {
            let Some(Reverse((d, x))) = self.heap.pop() else {
                break;
            };
            if d > self.dist[x as usize] {
                continue;
            }
            settled += 1;
            // Every later distance is >= d: targets bounded below d that
            // have no witness yet never will.
            while passed < self.open.len() && self.open[passed].0 < d {
                let t = self.open[passed].1 as usize;
                if self.bound[t] != INF {
                    self.bound[t] = INF;
                    undecided -= 1;
                }
                passed += 1;
            }
            let hops = self.hops[x as usize] + 1;
            if hops > WITNESS_HOP_LIMIT {
                continue;
            }
            for &(t, w) in &adj[x as usize] {
                let nd = d + w;
                if t == avoid || nd > cutoff || nd >= self.dist[t as usize] {
                    continue;
                }
                if self.dist[t as usize] == INF {
                    self.touched.push(t);
                }
                self.dist[t as usize] = nd;
                self.hops[t as usize] = hops;
                self.heap.push(Reverse((nd, t)));
                if self.bound[t as usize] != INF && nd <= self.bound[t as usize] {
                    self.bound[t as usize] = INF;
                    undecided -= 1;
                }
            }
        }
        for &(b, t) in &self.open {
            self.bound[t as usize] = INF;
            if self.dist[t as usize] > b {
                out.push((source, t, b));
            }
        }
        for &v in &self.touched {
            self.dist[v as usize] = INF;
        }
        self.touched.clear();
        self.heap.clear();
    }
}

impl Ch {
    /// Build with default parameters.
    pub fn build(g: &Graph) -> Self {
        Self::build_with_params(g, ChParams::default())
    }

    /// Build the hierarchy by lazy-priority contraction.
    pub fn build_with_params(g: &Graph, params: ChParams) -> Self {
        let c = Contraction::run(g, params);
        let mut rank = vec![0u32; g.num_nodes()];
        for (r, &v) in c.sequence.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        Ch {
            rank,
            up: c.up,
            num_shortcuts: c.num_shortcuts,
        }
    }

    /// Exact shortest-path distance via bidirectional upward search;
    /// `None` when disconnected.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<Dist> {
        if s == t {
            return Some(0);
        }
        let fwd = self.upward_dists(s);
        let bwd = self.upward_dists(t);
        let mut best = INF;
        let (small, large) = if fwd.len() <= bwd.len() {
            (&fwd, &bwd)
        } else {
            (&bwd, &fwd)
        };
        for (&v, &df) in small {
            if let Some(&db) = large.get(&v) {
                best = best.min(df.saturating_add(db));
            }
        }
        (best != INF).then_some(best)
    }

    /// Distances from `v` to every node reachable by strictly-upward
    /// paths. Search spaces are tiny (poly-log on road networks).
    fn upward_dists(&self, v: NodeId) -> std::collections::HashMap<NodeId, Dist> {
        let mut dist: std::collections::HashMap<NodeId, Dist> = std::collections::HashMap::new();
        let mut heap: BinaryHeap<(Reverse<Dist>, NodeId)> = BinaryHeap::new();
        dist.insert(v, 0);
        heap.push((Reverse(0), v));
        while let Some((Reverse(d), u)) = heap.pop() {
            if d > dist[&u] {
                continue;
            }
            for &(t, w) in &self.up[u as usize] {
                let nd = d.saturating_add(w);
                let cur = dist.entry(t).or_insert(INF);
                if nd < *cur {
                    *cur = nd;
                    heap.push((Reverse(nd), t));
                }
            }
        }
        dist
    }

    pub fn num_nodes(&self) -> usize {
        self.rank.len()
    }

    /// Shortcut edges inserted during contraction.
    pub fn num_shortcuts(&self) -> usize {
        self.num_shortcuts
    }

    /// Contraction rank of a node (higher = contracted later = more
    /// important).
    pub fn rank(&self, v: NodeId) -> u32 {
        self.rank[v as usize]
    }

    /// Approximate in-memory size of the upward graph.
    pub fn memory_bytes(&self) -> usize {
        self.rank.len() * 4
            + self
                .up
                .iter()
                .map(|e| e.len() * std::mem::size_of::<(NodeId, Dist)>() + 24)
                .sum::<usize>()
    }

    /// Average upward degree — the query-effort indicator.
    pub fn avg_upward_degree(&self) -> f64 {
        if self.up.is_empty() {
            return 0.0;
        }
        self.up.iter().map(Vec::len).sum::<usize>() as f64 / self.up.len() as f64
    }
}
