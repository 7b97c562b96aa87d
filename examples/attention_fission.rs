//! Fission anatomy of a self-attention block (the paper's Fig. 4/5):
//! build the block, inspect its Dimension-Graph components, construct
//! the F-Tree, and apply one fission overlay by hand to see the
//! memory/latency trade it makes.
//!
//! ```sh
//! cargo run --release --example attention_fission
//! ```

use magis::core::dgraph::DimGraph;
use magis::core::state::build_overlay_graph;
use magis::core::{FTree, FTreeMutation};
use magis::prelude::*;
use magis_graph::algo::topo_order;

fn main() {
    // Self-attention block on [batch·seq, hidden] with 8 heads
    // (Fig. 4's graph, plus a loss so it trains).
    let (bsz, seq, hidden, heads) = (8, 128, 256, 8);
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([bsz * seq, hidden], "x");
    let d = magis::models::transformer::LayerDims {
        batch: bsz,
        seq,
        hidden,
        heads,
        ffn_mult: 4,
    };
    let h = magis::models::transformer::encoder_layer(&mut b, x, &d, "blk");
    let h3 = b.reshape(h, [bsz, seq, hidden]);
    let cls = b.slice(h3, 1, 0, 1);
    let pooled = b.reshape(cls, [bsz, hidden]);
    let w = b.weight([hidden, 4], "head");
    let logits = b.matmul(pooled, w);
    let y = b.label([bsz], "y");
    let loss = b.cross_entropy(logits, y);
    let tg = append_backward(b.finish(), loss, &TrainOptions::default()).expect("backward");
    let g = tg.graph;

    // 1. Dimension graph: the "graph-level dimensions" fission can use.
    let dg = DimGraph::build(&g);
    let comps = dg.components();
    println!("D-Graph: {} vertices, {} multi-vertex components", dg.len(), comps.len());
    let mut sizes: Vec<usize> = comps.iter().map(|c| c.len()).collect();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    println!("largest components (batch/heads/sequence dims): {:?}", &sizes[..sizes.len().min(5)]);

    // 2. F-Tree from hot-spot analysis (Algorithm 1).
    let ctx = EvalContext::default();
    let mut state = MState::initial(g.clone(), &ctx);
    state.analyze(4);
    println!("\nF-Tree: {} candidates", state.ftree.len());
    for (i, n) in state.ftree.nodes().iter().enumerate() {
        println!(
            "  candidate {i}: |S| = {:3} nodes, score level {} {}",
            n.spec.set.len(),
            n.level,
            if n.parent.is_none() { "(root)" } else { "" }
        );
    }

    // 3. Enable the deepest candidate and walk lift/mutate upward,
    // printing the trade-off at each step (the §5.1 search path).
    let cm = CostModel::default();
    let base = evaluate_checked(&g, &topo_order(&g), &cm).unwrap();
    println!(
        "\nbaseline: peak {:5.1} MiB latency {:5.2} ms",
        base.peak_bytes as f64 / (1 << 20) as f64,
        base.latency * 1e3
    );
    let mut tree = state.ftree.clone();
    let step = |tree: &FTree, label: &str| {
        let overlaid = build_overlay_graph(&g, tree).expect("valid overlay");
        let ev = evaluate_checked(&overlaid, &topo_order(&overlaid), &cm).unwrap();
        println!(
            "{label:12} peak {:5.1} MiB ({:4.1}%)  latency {:5.2} ms ({:+5.1}%)",
            ev.peak_bytes as f64 / (1 << 20) as f64,
            100.0 * ev.peak_bytes as f64 / base.peak_bytes as f64,
            ev.latency * 1e3,
            100.0 * (ev.latency / base.latency - 1.0)
        );
    };
    if let Some(en) = tree
        .legal_mutations(&g)
        .into_iter()
        .find(|m| matches!(m, FTreeMutation::Enable(_)))
    {
        tree = tree.apply(&g, en).expect("legal enable").0;
        step(&tree, "enable");
        while let Some(l) = tree
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Lift(_)))
        {
            tree = tree.apply(&g, l).expect("legal lift").0;
            step(&tree, "lift");
        }
        for _ in 0..2 {
            if let Some(m) = tree
                .legal_mutations(&g)
                .into_iter()
                .find(|m| matches!(m, FTreeMutation::Mutate(_)))
            {
                tree = tree.apply(&g, m).expect("legal mutate").0;
                step(&tree, "mutate (n+)");
            }
        }
    } else {
        println!("(no enable available at this scale)");
    }
}
