//! POFO-like baseline (§7.1 baseline (2)): Beaumont et al.'s optimal
//! combination of rematerialization and offloading for networks "with
//! simple structures and linearly connected cells" (NeurIPS'21).
//!
//! POFO plans on a *linearized chain*: each long-lived activation of
//! the forward pass gets one of {keep, offload, recompute}, chosen to
//! minimize latency overhead under the memory budget. Two structural
//! properties of the original are reproduced:
//!
//! * it only manages **chain-shaped lifetimes** — tensors produced in
//!   the forward sweep whose only late use is the matching backward
//!   step. Tensors with *mid-graph* extra consumers (U-Net's long skip
//!   connections feeding decoder concats) do not fit the chain model
//!   and stay resident — which is why the paper finds "POFO almost
//!   cannot optimize UNet & UNet++" (§7.2.2);
//! * its selection is cost-optimal per tensor (offload when the
//!   transfer hides, recompute when cheaper), yielding the near-linear
//!   trade-off curve of Fig. 11.
//!
//! Selection here is a density-greedy knapsack over per-tensor
//! overheads (the DP's continuous relaxation); chosen evictions are
//! applied as real `Store`/`Load` pairs or recompute clones and
//! measured by the shared simulator.

use magis_graph::{GraphTxn, GraphView};
use crate::BaselineResult;
use magis_graph::graph::{Graph, NodeId};
use magis_sched::{place_swaps, stabilize_order};
use magis_sim::{evaluate_checked, NodeCost};

/// Minimum tensor size POFO bothers to manage.
const MIN_BYTES: u64 = 1 << 16;

#[derive(Debug, Clone)]
struct Plan {
    tensor: NodeId,
    /// The late consumer cluster (e.g. the dX and dW reads of one
    /// backward stage), earliest first.
    late_users: Vec<NodeId>,
    /// Estimated latency overhead of evicting this tensor.
    overhead: f64,
    /// True: offload (Store/Load); false: recompute.
    offload: bool,
}

/// Identifies chain-manageable long-lived activations and their
/// cheapest eviction plan.
fn plans<C: NodeCost + ?Sized>(g: &Graph, order: &[NodeId], cm: &C) -> Vec<Plan> {
    let n = order.len();
    let mut pos = vec![usize::MAX; g.capacity()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut out = Vec::new();
    for v in g.node_ids() {
        let node = g.node(v);
        if node.op.is_input() || node.op.is_swap() || node.op.is_alias() {
            continue;
        }
        if node.size_bytes() < MIN_BYTES {
            continue;
        }
        let users = g.suc(v);
        let Some(&last) = users.iter().max_by_key(|u| pos[u.index()]) else { continue };
        let p = pos[v.index()];
        let lu = pos[last.index()];
        // Long-lived: the late use is far away.
        if lu.saturating_sub(p) < n / 6 {
            continue;
        }
        // Chain-manageable: every use is either near the producer
        // (forward neighbours) or inside the late backward cluster.
        let near_window = p + n / 10;
        let late_window = lu.saturating_sub(n / 10);
        let chain_ok = users
            .iter()
            .all(|&u| pos[u.index()] <= near_window || pos[u.index()] >= late_window);
        if !chain_ok {
            continue;
        }
        let mut late_users: Vec<NodeId> = users
            .iter()
            .copied()
            .filter(|&u| pos[u.index()] >= late_window && pos[u.index()] > near_window)
            .collect();
        late_users.sort_by_key(|u| pos[u.index()]);
        if late_users.is_empty() {
            continue;
        }
        // Offload: transfer hides behind the compute between producer
        // and consumer; exposed part is the overhead.
        let xfer = cm.device().xfer_time(node.size_bytes());
        let window: f64 = order[p + 1..lu].iter().map(|&w| cm.node_latency(g, w)).sum();
        let offload_over = 2.0 * cm.device().launch_overhead + (2.0 * xfer - window).max(0.0);
        // Recompute: pay the producer once more — but only when its
        // operands are graph inputs (recomputing from an intermediate
        // would pin that intermediate across the whole gap, undoing the
        // eviction; POFO's chain DP avoids exactly these conflicts).
        let remat_safe = g.pre(v).iter().all(|&u| g.node(u).op.is_input());
        let remat_over = cm.node_latency(g, v);
        let (overhead, offload) = if !remat_safe || offload_over <= remat_over {
            (offload_over, true)
        } else {
            (remat_over, false)
        };
        out.push(Plan { tensor: v, late_users, overhead, offload });
    }
    out
}

/// Runs the POFO-like planner under `budget`.
pub fn run<C: NodeCost + ?Sized>(g: &Graph, budget: Option<u64>, cm: &C) -> BaselineResult {
    let order0 = crate::pytorch::program_order(g);
    let base = evaluate_checked(g, &order0, cm).expect("program order evaluates");
    let Some(b) = budget else {
        return BaselineResult { peak_bytes: base.peak_bytes, latency: base.latency, feasible: true };
    };
    if base.peak_bytes <= b {
        return BaselineResult { peak_bytes: base.peak_bytes, latency: base.latency, feasible: true };
    }
    let mut plans = plans(g, &order0, cm);
    // Density-greedy: cheapest overhead per byte first.
    plans.sort_by(|x, y| {
        let dx = x.overhead / g.node(x.tensor).size_bytes() as f64;
        let dy = y.overhead / g.node(y.tensor).size_bytes() as f64;
        dx.total_cmp(&dy)
    });

    let mut g2 = g.clone();
    let mut desired = order0.clone();
    let mut applied = 0usize;
    for plan in plans {
        let first_late = plan.late_users[0];
        // Apply the eviction: the whole late cluster reads the
        // reloaded/recomputed copy.
        if plan.offload {
            let mut txn = GraphTxn::begin(&g2);
            let Ok(st) = txn.add(magis_graph::OpKind::Store, &[plan.tensor]) else { continue };
            let Ok(ld) = txn.add(magis_graph::OpKind::Load, &[st]) else { continue };
            for &u in &plan.late_users {
                txn.replace_input(u, plan.tensor, ld);
            }
            g2 = txn.commit().0;
            let at = desired.iter().position(|&v| v == first_late).expect("user scheduled");
            desired.insert(at, ld);
            let pat = desired.iter().position(|&v| v == plan.tensor).expect("producer scheduled");
            desired.insert(pat + 1, st);
        } else {
            let node = g2.node(plan.tensor).clone();
            let mut txn = GraphTxn::begin(&g2);
            let Ok(clone) = txn.add_with_meta(node.op.clone(), node.inputs(), node.meta.clone())
            else {
                continue;
            };
            for &u in &plan.late_users {
                txn.replace_input(u, plan.tensor, clone);
            }
            g2 = txn.commit().0;
            let at = desired.iter().position(|&v| v == first_late).expect("user scheduled");
            desired.insert(at, clone);
        }
        applied += 1;
        // Re-measure every few applications (profiles are cheap).
        if applied.is_multiple_of(4) || applied < 4 {
            let order = place_swaps(&g2, &stabilize_order(&g2, &desired), cm);
            let ev = evaluate_checked(&g2, &order, cm).expect("stabilized order evaluates");
            if ev.peak_bytes <= b {
                return BaselineResult {
                    peak_bytes: ev.peak_bytes,
                    latency: ev.latency,
                    feasible: true,
                };
            }
        }
    }
    let order = place_swaps(&g2, &stabilize_order(&g2, &desired), cm);
    let ev = evaluate_checked(&g2, &order, cm).expect("stabilized order evaluates");
    BaselineResult { peak_bytes: ev.peak_bytes, latency: ev.latency, feasible: ev.peak_bytes <= b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_models::mlp::{mlp, MlpConfig};
    use magis_models::unet::{unet, UNetConfig};
    use magis_sim::CostModel;

    #[test]
    fn chain_network_optimizes_well() {
        // Activation-dominated regime, as in the paper's workloads.
        let tg = mlp(&MlpConfig { batch: 2048, ..MlpConfig::default() });
        let cm = CostModel::default();
        let base = crate::pytorch::run(&tg.graph, &cm);
        let r = run(&tg.graph, Some((base.peak_bytes as f64 * 0.78) as u64), &cm);
        assert!(r.feasible, "78% budget on an MLP chain: peak {}", r.peak_bytes);
        // Swap overlap keeps the overhead moderate on this
        // bandwidth-heavy toy; the paper-scale workloads (conv/attention
        // compute) hide transfers far better.
        assert!(r.latency < base.latency * 2.0, "{} vs {}", r.latency, base.latency);
    }

    #[test]
    fn unet_skips_defeat_the_chain_model() {
        // The paper: "POFO almost cannot optimize UNet & UNet++".
        let tg = unet(&UNetConfig {
            batch: 4,
            image: 96,
            width: 16,
            depth: 3,
            classes: 4,
            dtype: magis_graph::DType::F32,
        });
        let cm = CostModel::default();
        let base = crate::pytorch::run(&tg.graph, &cm);
        let r = run(&tg.graph, Some((base.peak_bytes as f64 * 0.5) as u64), &cm);
        // Many U-Net tensors are unmanageable; deep budgets fail.
        assert!(
            !r.feasible || r.peak_bytes > base.peak_bytes / 3,
            "U-Net resists chain planning"
        );
    }
}
