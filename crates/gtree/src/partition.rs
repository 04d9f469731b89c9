//! Multilevel graph partitioning for the G-tree hierarchy.
//!
//! G-tree \[11\], \[21\] recursively splits the road network into `f` balanced
//! subgraphs until a leaf holds at most `tau` vertices (§VI-A sets `f = 4`
//! and `tau` per dataset). The original uses METIS; road networks are
//! near-planar, so this implementation uses *geometric recursive bisection*
//! (median split along the wider coordinate axis), which produces balanced
//! parts with small cuts on road-like graphs and is fully deterministic —
//! the substitution is recorded in DESIGN.md. A local greedy refinement
//! pass shrinks the cut after each bisection.

use roadnet::{Graph, NodeId};

/// The partition hierarchy: internal nodes hold children, leaves hold the
/// vertex set. Every vertex of the input set appears in exactly one leaf.
pub struct PartitionNode {
    pub children: Vec<PartitionNode>,
    /// Vertices of this part; populated for leaves only.
    pub vertices: Vec<NodeId>,
}

impl PartitionNode {
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Total number of leaves under this node.
    pub fn num_leaves(&self) -> usize {
        if self.is_leaf() {
            1
        } else {
            self.children.iter().map(PartitionNode::num_leaves).sum()
        }
    }

    /// All vertices under this node (leaf order).
    pub fn collect_vertices(&self, out: &mut Vec<NodeId>) {
        if self.is_leaf() {
            out.extend_from_slice(&self.vertices);
        } else {
            for c in &self.children {
                c.collect_vertices(out);
            }
        }
    }
}

/// Recursively partition the whole graph.
///
/// `fanout` must be a power of two `>= 2` (each level performs
/// `log2(fanout)` median bisections); `leaf_cap >= 1`.
pub fn partition_graph(g: &Graph, fanout: usize, leaf_cap: usize) -> PartitionNode {
    assert!(
        fanout >= 2 && fanout.is_power_of_two(),
        "fanout must be a power of two >= 2, got {fanout}"
    );
    assert!(leaf_cap >= 1, "leaf_cap must be >= 1");
    let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    split_recursive(g, all, fanout, leaf_cap)
}

fn split_recursive(g: &Graph, verts: Vec<NodeId>, fanout: usize, leaf_cap: usize) -> PartitionNode {
    if verts.len() <= leaf_cap {
        return PartitionNode {
            children: Vec::new(),
            vertices: verts,
        };
    }
    let parts = split_ways(g, verts, fanout);
    let children = parts
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(|p| split_recursive(g, p, fanout, leaf_cap))
        .collect();
    PartitionNode {
        children,
        vertices: Vec::new(),
    }
}

/// The G-tree *top-level cut*: the whole vertex set split into exactly
/// `shards` non-empty, disjoint parts (sorted node lists), suitable as the
/// shard assignment for the partitioned serving tier. Each part is a
/// contiguous geometric region (same median-bisection + cut-refinement
/// machinery as [`partition_graph`]'s top level); when `shards` is not a
/// power of two, the extra parts from the next power-of-two bisection are
/// merged smallest-first until exactly `shards` remain.
///
/// Deterministic for a given graph. Panics if `shards == 0` or exceeds the
/// number of vertices.
pub fn top_level_cut(g: &Graph, shards: usize) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    assert!(shards >= 1, "need at least one shard");
    assert!(shards <= n, "more shards ({shards}) than vertices ({n})");
    let all: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    if shards == 1 {
        return vec![all];
    }
    let fanout = shards.next_power_of_two();
    let mut parts: Vec<Vec<NodeId>> = split_ways(g, all, fanout)
        .into_iter()
        .filter(|p| !p.is_empty())
        .collect();
    // Merge smallest pairs until exactly `shards` parts remain. Parts come
    // out of the bisection in geometric order, so merging a smallest part
    // into its smaller neighbor keeps regions roughly contiguous.
    while parts.len() > shards {
        let i = (0..parts.len())
            .min_by_key(|&i| parts[i].len())
            .expect("non-empty");
        let merged = parts.remove(i);
        let j = match (i.checked_sub(1), parts.get(i)) {
            (Some(l), Some(r)) if parts[l].len() <= r.len() => l,
            (Some(l), None) => l,
            (_, Some(_)) => i,
            (None, None) => unreachable!("shards >= 2"),
        };
        parts[j].extend_from_slice(&merged);
    }
    // A bisection of >= `shards` vertices cannot leave fewer non-empty
    // parts than `shards` only when refinement collapsed a side; split
    // round-robin as a last resort so the contract (exactly `shards`
    // non-empty parts) always holds.
    while parts.len() < shards {
        let i = (0..parts.len())
            .max_by_key(|&i| parts[i].len())
            .expect("non-empty");
        let big = &mut parts[i];
        let tail = big.split_off(big.len() / 2);
        parts.push(tail);
    }
    for p in &mut parts {
        p.sort_unstable();
    }
    parts
}

/// Split `verts` into up to `fanout` parts by repeated bisection.
fn split_ways(g: &Graph, verts: Vec<NodeId>, fanout: usize) -> Vec<Vec<NodeId>> {
    let mut parts = vec![verts];
    let levels = fanout.trailing_zeros();
    for _ in 0..levels {
        let mut next = Vec::with_capacity(parts.len() * 2);
        for p in parts {
            if p.len() <= 1 {
                next.push(p);
                continue;
            }
            let (a, b) = bisect(g, p);
            next.push(a);
            next.push(b);
        }
        parts = next;
    }
    parts
}

/// Median bisection along the wider coordinate axis, followed by a greedy
/// boundary-refinement pass that moves vertices whose neighbors
/// predominantly lie on the other side (cut reduction), subject to a
/// balance constraint.
fn bisect(g: &Graph, mut verts: Vec<NodeId>) -> (Vec<NodeId>, Vec<NodeId>) {
    // Choose split axis by bounding-box extent.
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &verts {
        let p = g.coord(v);
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let by_x = (max_x - min_x) >= (max_y - min_y);
    let key = |v: NodeId| {
        let p = g.coord(v);
        if by_x {
            p.x
        } else {
            p.y
        }
    };
    let mid = verts.len() / 2;
    verts.select_nth_unstable_by(mid, |&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
    let right: Vec<NodeId> = verts.split_off(mid);
    let left = verts;
    refine_cut(g, left, right)
}

/// One pass of greedy boundary refinement: a vertex moves to the other side
/// if that strictly reduces the number of cut edges, as long as the balance
/// stays within 10% of even and neither side empties (an empty side would
/// hand [`split_recursive`] the same part again, forever).
fn refine_cut(g: &Graph, left: Vec<NodeId>, right: Vec<NodeId>) -> (Vec<NodeId>, Vec<NodeId>) {
    let total = left.len() + right.len();
    let slack = total / 10 + 1;
    let lo = (total / 2).saturating_sub(slack).max(1);
    let hi = total / 2 + slack;

    // side: 0 = left, 1 = right, sparse map over this part only.
    let mut side = std::collections::HashMap::with_capacity(total);
    for &v in &left {
        side.insert(v, 0u8);
    }
    for &v in &right {
        side.insert(v, 1u8);
    }
    let mut sizes = [left.len(), right.len()];

    let candidates: Vec<NodeId> = left.iter().chain(right.iter()).copied().collect();
    for &v in &candidates {
        let s = side[&v];
        let o = 1 - s;
        // Gain = cut edges removed - cut edges added when moving v.
        let mut same = 0i64;
        let mut other = 0i64;
        for (nb, _) in g.neighbors(v) {
            match side.get(&nb) {
                Some(&ns) if ns == s => same += 1,
                Some(_) => other += 1,
                None => {} // neighbor outside this part: unaffected
            }
        }
        let bigger_after = sizes[o as usize] + 1;
        if other > same && bigger_after <= hi && sizes[s as usize] > lo {
            side.insert(v, o);
            sizes[s as usize] -= 1;
            sizes[o as usize] += 1;
        }
    }

    let mut l = Vec::with_capacity(sizes[0]);
    let mut r = Vec::with_capacity(sizes[1]);
    for v in candidates {
        if side[&v] == 0 {
            l.push(v);
        } else {
            r.push(v);
        }
    }
    (l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    b.add_edge(v, v + 1, 1);
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, 1);
                }
            }
        }
        b.build()
    }

    #[test]
    fn covers_all_vertices_exactly_once() {
        let g = grid(10, 10);
        let p = partition_graph(&g, 4, 8);
        let mut verts = Vec::new();
        p.collect_vertices(&mut verts);
        verts.sort_unstable();
        assert_eq!(verts, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn leaves_respect_cap() {
        let g = grid(12, 12);
        let p = partition_graph(&g, 4, 10);
        fn check(n: &PartitionNode, cap: usize) {
            if n.is_leaf() {
                assert!(
                    n.vertices.len() <= cap,
                    "leaf too big: {}",
                    n.vertices.len()
                );
            } else {
                for c in &n.children {
                    check(c, cap);
                }
            }
        }
        check(&p, 10);
    }

    #[test]
    fn leaf_cap_one_terminates_with_singleton_leaves() {
        // Two-vertex parts used to refine to 0/2 and recurse forever.
        for (w, h) in [(2, 1), (3, 1), (2, 2), (5, 4)] {
            let mut b = GraphBuilder::new();
            for y in 0..h {
                for x in 0..w {
                    b.add_node(x as f64, y as f64);
                }
            }
            for v in 0..(w * h - 1) {
                b.add_edge(v, v + 1, 1);
            }
            let g = b.build();
            for fanout in [2, 4] {
                let root = partition_graph(&g, fanout, 1);
                assert_eq!(root.num_leaves(), g.num_nodes());
                let mut all = Vec::new();
                root.collect_vertices(&mut all);
                all.sort_unstable();
                assert_eq!(all, (0..g.num_nodes() as NodeId).collect::<Vec<_>>());
            }
        }
        let g = grid(6, 5);
        assert_eq!(partition_graph(&g, 2, 1).num_leaves(), 30);
    }

    #[test]
    fn fanout_bounds_children() {
        let g = grid(16, 16);
        let p = partition_graph(&g, 4, 16);
        fn check(n: &PartitionNode) {
            assert!(n.children.len() <= 4);
            for c in &n.children {
                check(c);
            }
        }
        check(&p);
    }

    #[test]
    fn small_graph_is_single_leaf() {
        let g = grid(2, 2);
        let p = partition_graph(&g, 4, 16);
        assert!(p.is_leaf());
        assert_eq!(p.vertices.len(), 4);
    }

    #[test]
    fn partitions_are_roughly_balanced() {
        let g = grid(20, 20);
        let p = partition_graph(&g, 2, 50);
        // Top-level split of 400 vertices into 2 parts: each within 40%..60%.
        assert_eq!(p.children.len(), 2);
        let mut sizes = Vec::new();
        for c in &p.children {
            let mut v = Vec::new();
            c.collect_vertices(&mut v);
            sizes.push(v.len());
        }
        for s in sizes {
            assert!((160..=240).contains(&s), "unbalanced: {s}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_fanout() {
        let g = grid(4, 4);
        let _ = partition_graph(&g, 3, 4);
    }

    #[test]
    fn top_level_cut_is_a_partition() {
        let g = grid(10, 10);
        for shards in [1usize, 2, 3, 4, 5, 7] {
            let parts = top_level_cut(&g, shards);
            assert_eq!(parts.len(), shards, "{shards} shards requested");
            let mut all = Vec::new();
            for p in &parts {
                assert!(!p.is_empty(), "empty shard in {shards}-way cut");
                assert!(p.windows(2).all(|w| w[0] < w[1]), "part not sorted");
                all.extend_from_slice(p);
            }
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn top_level_cut_is_roughly_balanced_for_powers_of_two() {
        let g = grid(20, 20);
        let parts = top_level_cut(&g, 2);
        for p in &parts {
            assert!((160..=240).contains(&p.len()), "unbalanced: {}", p.len());
        }
    }
}
