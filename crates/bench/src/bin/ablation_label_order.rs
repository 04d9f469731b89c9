//! Ablation (DESIGN.md §7): hub-ordering quality for the label oracle.
//!
//! The "PHL" role's cost is dominated by label size, which depends
//! entirely on the vertex order. Compares three orders on the same
//! network: input (worst case), degree (the classic cheap heuristic), and
//! contraction-hierarchy rank (the default every label build uses). The
//! CH order's build time is printed and charged to its label build.
//!
//! Gate: exits nonzero unless the default order's labels are at least 3×
//! smaller than degree order's.

use fann_bench::*;
use hublabel::{degree_order, HubLabels};
use roadnet::NodeId;

/// Minimum label-size advantage of the default order over degree order.
const MIN_GAIN_OVER_DEGREE: f64 = 3.0;

fn main() {
    let args = Args::parse();
    let nodes: usize = args.get("nodes", 4000);
    let g = workload::synth::road_network(nodes, &mut workload::rng(0x0DE2));
    eprintln!("[env] graph: {} nodes", g.num_nodes());

    let header: Vec<String> = ["order", "entries", "avg/node", "size", "build"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();

    let input: Vec<NodeId> = (0..g.num_nodes() as NodeId).collect();
    let (hl, secs) = time(|| HubLabels::build_with_order(&g, &input));
    rows.push(row("input", &hl, secs));
    let input_entries = hl.total_label_entries();

    let (hl, secs) = time(|| HubLabels::build_with_order(&g, &degree_order(&g)));
    rows.push(row("degree", &hl, secs));
    let degree_entries = hl.total_label_entries();

    let (order, order_secs) = time(|| ch_index::contraction_order(&g));
    let (hl, secs) = time(|| HubLabels::build_with_order(&g, &order));
    rows.push(row(
        "CH-rank (default)",
        &hl,
        secs + order_secs, // include the cost of computing the order
    ));
    let ch_entries = hl.total_label_entries();

    print_table("Ablation: label size by hub order", &header, &rows);
    println!("[env] CH order build: {}", fmt_secs(Some(order_secs)));
    let gain = degree_entries as f64 / ch_entries as f64;
    let ok = gain >= MIN_GAIN_OVER_DEGREE;
    println!(
        "[shape] CH-rank labels are {:.1}x smaller than input order, {gain:.1}x vs degree ({})",
        input_entries as f64 / ch_entries as f64,
        if ok {
            "OK: importance order wins".to_string()
        } else {
            format!("FAIL: below the {MIN_GAIN_OVER_DEGREE}x gate")
        }
    );
    if !ok {
        std::process::exit(1);
    }
}

fn row(name: &str, hl: &HubLabels, secs: f64) -> Vec<String> {
    vec![
        name.to_string(),
        hl.total_label_entries().to_string(),
        format!("{:.1}", hl.avg_label_size()),
        fmt_bytes(hl.memory_bytes()),
        fmt_secs(Some(secs)),
    ]
}
