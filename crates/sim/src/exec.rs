//! Two-stream execution simulation: compute kernels on one stream,
//! `Store`/`Load` transfers on another, with dependency-accurate
//! overlap. This is how asynchronous swapping "hides" data-transfer
//! latency (Fig. 2 of the paper) — a swap only costs wall-clock time
//! when a consumer has to wait for it.

use magis_graph::GraphView;
use crate::cost::{CostError, NodeCost};
use magis_graph::graph::{Graph, NodeId};

/// Result of [`simulate`].
#[derive(Debug, Clone)]
pub struct ExecTimeline {
    /// End-to-end latency in seconds.
    pub total: f64,
    /// Finish time of each schedule step.
    pub finish: Vec<f64>,
    /// Busy time of the compute stream.
    pub compute_busy: f64,
    /// Busy time of the transfer stream.
    pub xfer_busy: f64,
}

impl ExecTimeline {
    /// Fraction of the makespan during which transfers overlapped
    /// compute (1.0 = fully hidden).
    pub fn xfer_hidden_fraction(&self) -> f64 {
        if self.xfer_busy == 0.0 {
            return 1.0;
        }
        let exposed = (self.total - self.compute_busy).max(0.0);
        1.0 - (exposed / self.xfer_busy).min(1.0)
    }
}

/// Simulates `g` executed in `order` on two streams.
///
/// Swap ops ([`magis_graph::op::OpKind::Store`]/`Load`) are issued on
/// the transfer stream as soon as their dependencies finish; compute
/// ops run in schedule order on the compute stream. A node starts at
/// `max(stream free, deps finish)`.
///
/// Generic over any [`NodeCost`] source: the raw
/// [`CostModel`](crate::CostModel) or the memoizing
/// [`crate::PerfCache`] the optimizer shares across candidate
/// evaluations (bit-identical, since `PerfCache` stores exact model
/// outputs).
///
/// # Errors
///
/// Each per-node latency is validated as the simulation consumes it:
/// NaN / infinite / negative values are rejected with the offending
/// node attributed.
///
/// # Panics
///
/// Panics if `order` doesn't cover the graph.
pub fn simulate<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
) -> Result<ExecTimeline, CostError> {
    assert_eq!(order.len(), g.len(), "schedule must cover the graph");
    // Dense finish-time table indexed by slot; unexecuted deps read 0.
    let mut finish_at = vec![0.0f64; g.capacity()];
    let mut finish = Vec::with_capacity(order.len());
    let mut t_compute = 0.0f64;
    let mut t_xfer = 0.0f64;
    let mut compute_busy = 0.0f64;
    let mut xfer_busy = 0.0f64;
    for &v in order {
        let n = g.node(v);
        let deps_ready = n
            .inputs()
            .iter()
            .chain(n.keepalive())
            .map(|d| finish_at[d.index()])
            .fold(0.0f64, f64::max);
        let dur = cm.node_latency_checked(g, v)?;
        let end = if n.op.is_swap() {
            let start = t_xfer.max(deps_ready);
            t_xfer = start + dur;
            xfer_busy += dur;
            t_xfer
        } else {
            let start = t_compute.max(deps_ready);
            t_compute = start + dur;
            compute_busy += dur;
            t_compute
        };
        finish_at[v.index()] = end;
        finish.push(end);
    }
    Ok(ExecTimeline { total: t_compute.max(t_xfer), finish, compute_busy, xfer_busy })
}

/// Execution-time/memory-usage curve for case studies (Fig. 16): one
/// `(finish_time_seconds, active_bytes)` point per schedule step.
///
/// # Panics
///
/// Panics if `order` does not cover the graph or a latency is
/// defective.
pub fn memory_timeline<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
) -> Vec<(f64, u64)> {
    let exec = simulate(g, order, cm).expect("latencies are valid");
    let mem = crate::memory::memory_profile(g, order);
    // Transfer-stream steps can finish after later compute steps start;
    // report each step at the wall-clock time its state is in effect.
    let mut t = 0.0f64;
    exec.finish
        .iter()
        .zip(mem.step_bytes.iter())
        .map(|(&f, &m)| {
            t = t.max(f);
            (t, m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use magis_graph::graph::Graph;
    use magis_graph::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use magis_graph::tensor::{DType, TensorMeta};

    fn big_meta() -> TensorMeta {
        TensorMeta::new([1024, 1024], DType::F32) // 4 MiB
    }

    /// x -> a; store(a); long compute chain; load; add.
    fn swap_graph(chain: usize) -> (Graph, Vec<NodeId>) {
        let mut g = magis_graph::GraphTxn::begin(&Graph::new());
        let x = g.add_input(InputKind::Activation, big_meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let st = g.add(OpKind::Store, &[a]).unwrap();
        let mut order = vec![x, a, st];
        let mut cur = x;
        for _ in 0..chain {
            cur = g.add(OpKind::Unary(UnaryKind::Gelu), &[cur]).unwrap();
            order.push(cur);
        }
        let ld = g.add(OpKind::Load, &[st]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[cur, ld]).unwrap();
        order.push(ld);
        order.push(c);
        (g.commit().0, order)
    }

    #[test]
    fn long_chain_hides_transfer() {
        let cm = CostModel::default();
        let (g, order) = swap_graph(60);
        let t = simulate(&g, &order, &cm).unwrap();
        // With enough independent compute, the swap is almost free:
        // total ≈ compute_busy.
        assert!(t.total < t.compute_busy * 1.05, "total {} busy {}", t.total, t.compute_busy);
        assert!(t.xfer_hidden_fraction() > 0.9);
    }

    #[test]
    fn short_chain_exposes_transfer() {
        let cm = CostModel::default();
        let (g, order) = swap_graph(1);
        let t = simulate(&g, &order, &cm).unwrap();
        // Transfers dominate: total must exceed pure compute time.
        assert!(t.total > t.compute_busy * 1.5);
    }

    #[test]
    fn no_swap_means_serial_sum() {
        let cm = CostModel::default();
        let mut txn = magis_graph::GraphTxn::begin(&Graph::new());
        let x = txn.add_input(InputKind::Activation, big_meta(), "x");
        let a = txn.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = txn.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let g = txn.commit().0;
        let order = vec![x, a, b];
        let t = simulate(&g, &order, &cm).unwrap();
        assert!((t.total - cm.graph_latency(&g)).abs() < 1e-12);
        assert_eq!(t.xfer_busy, 0.0);
    }

    #[test]
    fn timeline_is_monotone() {
        let cm = CostModel::default();
        let (g, order) = swap_graph(10);
        let tl = memory_timeline(&g, &order, &cm);
        assert_eq!(tl.len(), order.len());
        for w in tl.windows(2) {
            assert!(w[1].0 >= w[0].0 - 1e-12);
        }
    }
}
