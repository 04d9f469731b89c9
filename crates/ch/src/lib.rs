//! Contraction hierarchies (CH) for undirected road networks.
//!
//! CH (Geisberger et al. \[18\] in the paper's related work, §II-B) is the
//! classic preprocessing/speedup trade-off between plain Dijkstra and the
//! heavyweight labeling oracles: nodes are *contracted* in importance
//! order, inserting shortcut edges that preserve shortest-path distances
//! among the remaining nodes; queries run a bidirectional Dijkstra that
//! only ever climbs *upward* (towards more important nodes).
//!
//! The paper notes CH "has a low memory overhead, but has to traverse a
//! large number of nodes when objects are dispersed" — this crate exists
//! to make that trade-off measurable in our harness (DESIGN.md §7
//! extension): it plugs into `fann_core` as one more exact
//! [`distance`](Ch::distance) oracle.
//!
//! # Construction
//!
//! Standard contraction practice, near-linear on road networks:
//!
//! - the remaining graph is an adjacency list per node holding one entry
//!   per live neighbour (minimum weight); contracting a node removes it
//!   from its neighbours' lists and inserts or lowers its shortcuts;
//! - shortcut necessity is decided by a *witness search*, a Dijkstra that
//!   avoids the node being contracted, run on reusable node-indexed
//!   arrays, bounded by a settle limit and a hop limit, and stopped as
//!   soon as every target is decided (a tentative distance meets its
//!   bound, or the search radius passes it);
//! - the priority is `4 · edge difference + contracted neighbours +
//!   level`, evaluated lazily: a popped node is re-simulated and
//!   contracted only if its fresh priority is still the smallest,
//!   otherwise it is re-queued — neighbours are never re-simulated
//!   eagerly.
//!
//! Construction is deterministic. [`contraction_order`] exposes the
//! resulting importance order (contracted last = most important first);
//! the hub-label oracle builds its labels in this order, which keeps them
//! several times smaller than a degree order (DESIGN.md §7).

pub mod builder;

pub use builder::{contraction_order, Ch, ChParams};

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::dijkstra::dijkstra_all;
    use roadnet::{Graph, GraphBuilder, NodeId, INF};

    pub(crate) fn grid(w: u32, h: u32, wf: impl Fn(u32, u32) -> u32) -> Graph {
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
                    b.add_edge(v, v + 1, wf(x, y));
                }
                if y + 1 < h {
                    b.add_edge(v, v + w, wf(y, x + 1));
                }
            }
        }
        b.build()
    }

    fn assert_exact(g: &Graph, ch: &Ch) {
        for s in 0..g.num_nodes() as NodeId {
            let truth = dijkstra_all(g, s);
            for t in 0..g.num_nodes() as NodeId {
                let want = (truth[t as usize] != INF).then_some(truth[t as usize]);
                assert_eq!(ch.distance(s, t), want, "pair {s}->{t}");
            }
        }
    }

    #[test]
    fn exact_on_uniform_grid() {
        let g = grid(6, 5, |_, _| 3);
        let ch = Ch::build(&g);
        assert_exact(&g, &ch);
    }

    #[test]
    fn exact_on_skewed_weights() {
        let g = grid(7, 6, |x, y| 1 + (x * 13 + y * 7) % 9);
        let ch = Ch::build(&g);
        assert_exact(&g, &ch);
    }

    #[test]
    fn exact_on_path_and_star() {
        // Path.
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_node(i as f64, 0.0);
        }
        for i in 0..7 {
            b.add_edge(i, i + 1, 1 + i % 3);
        }
        let g = b.build();
        assert_exact(&g, &Ch::build(&g));
        // Star.
        let mut b = GraphBuilder::new();
        for i in 0..7 {
            b.add_node(i as f64, 1.0);
        }
        for i in 1..7 {
            b.add_edge(0, i, i);
        }
        let g = b.build();
        assert_exact(&g, &Ch::build(&g));
    }

    #[test]
    fn disconnected_components() {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 3);
        b.add_edge(3, 4, 1);
        b.add_edge(4, 5, 1);
        let g = b.build();
        let ch = Ch::build(&g);
        assert_exact(&g, &ch);
        assert_eq!(ch.distance(0, 5), None);
    }

    #[test]
    fn single_node_and_self_distance() {
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        let g = b.build();
        let ch = Ch::build(&g);
        assert_eq!(ch.distance(0, 0), Some(0));
    }

    #[test]
    fn stats_reported() {
        let g = grid(8, 8, |x, y| 1 + (x + y) % 4);
        let ch = Ch::build(&g);
        assert_eq!(ch.num_nodes(), 64);
        assert!(ch.num_shortcuts() > 0, "a grid needs shortcuts");
        assert!(ch.memory_bytes() > 0);
    }

    #[test]
    fn witness_budget_zero_still_exact() {
        // With no witness budget every potential shortcut is inserted:
        // slower and bigger, but still correct.
        let g = grid(5, 5, |x, y| 1 + (x * 3 + y) % 5);
        let ch = Ch::build_with_params(
            &g,
            ChParams {
                witness_settle_limit: 0,
            },
        );
        assert_exact(&g, &ch);
    }

    #[test]
    fn contraction_order_is_the_descending_rank_permutation() {
        let g = grid(9, 7, |x, y| 1 + (x * 5 + y * 11) % 7);
        let order = contraction_order(&g);
        assert_eq!(order, contraction_order(&g), "order is deterministic");
        let ch = Ch::build(&g);
        let by_rank: Vec<u32> = order.iter().map(|&v| ch.rank(v)).collect();
        let want: Vec<u32> = (0..g.num_nodes() as u32).rev().collect();
        assert_eq!(by_rank, want, "most important (highest rank) first");
    }
}
