//! The unoptimized PyTorch-like anchor (§7.1 baseline (1)): graphs are
//! executed in deterministic program order with "basic memory saving"
//! — future-unused tensors freed immediately — which is exactly what
//! the memory profiler models.

use crate::BaselineResult;
use magis_graph::algo::topo_order;
use magis_graph::graph::{Graph, NodeId};
use magis_sim::{evaluate_checked, NodeCost};

/// The program order: deterministic Kahn order (builder creation order
/// wherever dependencies allow — what an eager framework executes).
pub fn program_order(g: &Graph) -> Vec<NodeId> {
    topo_order(g)
}

/// Runs the anchor: no transformations, no re-ordering.
pub fn run<C: NodeCost + ?Sized>(g: &Graph, cm: &C) -> BaselineResult {
    let order = program_order(g);
    let ev = evaluate_checked(g, &order, cm).expect("program order evaluates");
    BaselineResult { peak_bytes: ev.peak_bytes, latency: ev.latency, feasible: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_models::mlp::{mlp, MlpConfig};
    use magis_sim::CostModel;

    #[test]
    fn anchor_is_deterministic() {
        let tg = mlp(&MlpConfig::default());
        let cm = CostModel::default();
        let a = run(&tg.graph, &cm);
        let b = run(&tg.graph, &cm);
        assert_eq!(a, b);
        assert!(a.peak_bytes > 0 && a.latency > 0.0);
    }
}
