//! Full-graph scheduling and order stabilization.

use magis_graph::GraphView;
use crate::dp::{dp_schedule, SchedConfig};
use crate::partition::partition;
use crate::task::SchedTask;
use magis_graph::graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// Repairs a desired node sequence into a valid topological order of
/// `g`, staying as close to the desired order as dependencies allow
/// (stable Kahn: always emit the ready node that appears earliest in
/// the desired sequence).
///
/// Nodes of `g` missing from `desired` are appended by dependency
/// order; stale ids in `desired` are ignored.
pub fn stabilize_order(g: &Graph, desired: &[NodeId]) -> Vec<NodeId> {
    let mut want = vec![usize::MAX; g.capacity()];
    for (i, &v) in desired.iter().enumerate() {
        if g.contains(v) && want[v.index()] == usize::MAX {
            want[v.index()] = i;
        }
    }
    // Unlisted nodes sort after everything, by id.
    let rank = |v: NodeId| -> (usize, usize) { (want[v.index()], v.index()) };

    let mut indeg = vec![0usize; g.capacity()];
    for v in g.node_ids() {
        let n = g.node(v);
        indeg[v.index()] = n.inputs().len() + n.keepalive().len();
    }
    let mut heap: BinaryHeap<Reverse<((usize, usize), NodeId)>> = g
        .node_ids()
        .filter(|v| indeg[v.index()] == 0)
        .map(|v| Reverse((rank(v), v)))
        .collect();
    let mut out = Vec::with_capacity(g.len());
    while let Some(Reverse((_, v))) = heap.pop() {
        out.push(v);
        // Raw successor list: one entry per edge, so each occurrence
        // decrements the in-degree exactly once.
        for &s in g.node(v).succs() {
            indeg[s.index()] -= 1;
            if indeg[s.index()] == 0 {
                heap.push(Reverse((rank(s), s)));
            }
        }
    }
    debug_assert_eq!(out.len(), g.len(), "stabilize requires an acyclic graph");
    out
}

/// Full-graph memory-aware scheduling: narrow-waist partition, then
/// per-piece memory DP, then stabilization. The result is guaranteed
/// to be no worse (in peak memory) than the deterministic program
/// order — partition-boundary approximations occasionally regress, in
/// which case the program order is returned instead.
///
/// This is the `InitState` scheduler of Algorithm 3 and the "full
/// scheduling (FS)" baseline of §7.3.
pub fn full_schedule(g: &Graph, cfg: &SchedConfig) -> Vec<NodeId> {
    let start = std::time::Instant::now();
    let mut span = magis_obs::span!("magis_sched", "full_schedule", nodes = g.len());
    let all: BTreeSet<NodeId> = g.node_ids().collect();
    let mut desired = Vec::with_capacity(g.len());
    for piece in partition(g, &all) {
        let set: BTreeSet<NodeId> = piece.iter().copied().collect();
        let task = SchedTask::subset(g, &set);
        let res = dp_schedule(&task, cfg);
        desired.extend(task.to_node_ids(&res.order));
    }
    let dp_order = stabilize_order(g, &desired);
    let fallback = magis_graph::algo::topo_order(g);
    let dp_peak = magis_sim::memory_profile(g, &dp_order).peak_bytes;
    let naive_peak = magis_sim::memory_profile(g, &fallback).peak_bytes;
    span.record("peak_bytes", dp_peak.min(naive_peak));
    {
        use std::sync::OnceLock;
        static RUNS: OnceLock<magis_obs::metrics::Counter> = OnceLock::new();
        static SECONDS: OnceLock<magis_obs::metrics::Histogram> = OnceLock::new();
        RUNS.get_or_init(|| magis_obs::metrics::counter("magis_sched_full_runs")).inc();
        SECONDS
            .get_or_init(|| magis_obs::metrics::histogram("magis_sched_full_seconds"))
            .observe_duration(start.elapsed());
    }
    if dp_peak <= naive_peak {
        dp_order
    } else {
        fallback
    }
}

/// Repositions swap operators per the paper's strategy (§6.2): every
/// `Store` directly after its producer, every `Load` as late as its
/// transfer time can still be hidden behind the intervening compute.
///
/// Generic over any [`magis_sim::NodeCost`] latency source — the raw
/// cost model for a registry backend, or the optimizer's shared
/// [`magis_sim::PerfCache`], whose memoized latencies make the
/// hide-the-transfer walk-back cheap across thousands of candidates
/// (bit-identical to the fronted model).
pub fn place_swaps<C: magis_sim::NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
) -> Vec<NodeId> {
    use magis_graph::op::OpKind;
    let swaps: Vec<NodeId> = order
        .iter()
        .copied()
        .filter(|&v| g.node(v).op.is_swap())
        .collect();
    if swaps.is_empty() {
        return order.to_vec();
    }
    let stripped: Vec<NodeId> =
        order.iter().copied().filter(|&v| !g.node(v).op.is_swap()).collect();
    let mut pos: HashMap<NodeId, usize> = HashMap::new();
    for (i, &v) in stripped.iter().enumerate() {
        pos.insert(v, i);
    }
    // Insertion index in `stripped` -> nodes to place before that step.
    let mut inserts: Vec<(usize, NodeId)> = Vec::new();
    for &s in &swaps {
        match g.node(s).op {
            OpKind::Store => {
                let producer = g.pre(s)[0];
                let at = pos.get(&producer).map(|&p| p + 1).unwrap_or(0);
                inserts.push((at, s));
            }
            OpKind::Load => {
                // Earliest non-swap consumer.
                let consumer = g
                    .suc(s)
                    .into_iter()
                    .filter_map(|c| pos.get(&c).copied())
                    .min()
                    .unwrap_or(stripped.len());
                let need = cm.node_latency(g, s);
                let mut acc = 0.0;
                let mut at = consumer;
                while at > 0 && acc < need {
                    at -= 1;
                    acc += cm.node_latency(g, stripped[at]);
                }
                inserts.push((at, s));
            }
            _ => unreachable!("swaps filtered above"),
        }
    }
    inserts.sort_by_key(|&(at, v)| (at, v));
    let mut desired = Vec::with_capacity(order.len());
    let mut it = inserts.into_iter().peekable();
    for (i, &v) in stripped.iter().enumerate() {
        while matches!(it.peek(), Some(&(at, _)) if at <= i) {
            desired.push(it.next().expect("peeked").1);
        }
        desired.push(v);
    }
    desired.extend(it.map(|(_, v)| v));
    // Dependencies (Store after producer, Load after Store) are
    // restored by stabilization if the cost walk-back overshot.
    stabilize_order(g, &desired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::{is_topo_order, topo_order};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory::memory_profile;

    #[test]
    fn stabilize_fixes_violations() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(a);
        let g = b.finish();
        // Desired order is reversed: stabilization must repair it.
        let out = stabilize_order(&g, &[c, a, x]);
        assert!(is_topo_order(&g, &out));
        assert_eq!(out, vec![x, a, c]);
    }

    #[test]
    fn stabilize_preserves_valid_order() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let j = b.add_op(a, c);
        let g = b.finish();
        let order = vec![x, c, a, j];
        assert!(is_topo_order(&g, &order));
        assert_eq!(stabilize_order(&g, &order), order);
    }

    #[test]
    fn stabilize_appends_missing_nodes() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(a);
        let g = b.finish();
        let out = stabilize_order(&g, &[x]);
        assert!(is_topo_order(&g, &out));
        assert_eq!(out.len(), 3);
        let _ = c;
    }

    #[test]
    fn full_schedule_no_worse_than_naive() {
        // Wide fan-out graph where naive order is suboptimal.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([1024], "x");
        let mut prods = Vec::new();
        for _ in 0..6 {
            prods.push(b.relu(x));
        }
        let mut acc = prods[0];
        for &p in &prods[1..] {
            acc = b.add_op(acc, p);
        }
        let g = b.finish();
        let naive_peak = memory_profile(&g, &topo_order(&g)).peak_bytes;
        let sched = full_schedule(&g, &SchedConfig::default());
        assert!(is_topo_order(&g, &sched));
        let peak = memory_profile(&g, &sched).peak_bytes;
        assert!(peak <= naive_peak);
    }
}
