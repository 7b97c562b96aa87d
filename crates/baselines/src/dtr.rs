//! DTR-like baseline (§7.1 baseline (3)): Dynamic Tensor
//! Rematerialization (Kirisame et al., ICLR'21) — a *runtime* system
//! that executes in program order under a hard memory budget, evicting
//! the resident tensor minimizing `cost / (size · staleness)` on
//! allocation failure and transparently recomputing evicted tensors on
//! access.
//!
//! Because DTR is a runtime policy, it is reproduced as its own
//! execution simulation rather than a graph rewrite: the paper's
//! near-linear memory/latency trade-off (§7.2.3) and its thrashing
//! behaviour under very tight budgets ("DTR's processes … take too
//! long with a 40% memory limit") both emerge from this loop.

use magis_graph::GraphView;
use crate::BaselineResult;
use magis_graph::graph::{Graph, NodeId};
use magis_sim::memory::device_bytes;
use magis_sim::NodeCost;

/// Thrash guard: if recomputations exceed this multiple of the graph
/// size, the run is declared infeasible (the paper's "takes too long"
/// FAILURE case).
const THRASH_FACTOR: usize = 40;

struct Runtime<'g> {
    g: &'g Graph,
    cost: Vec<f64>,
    size: Vec<u64>,
    resident: Vec<bool>,
    pinned: Vec<bool>,
    last_use: Vec<u64>,
    clock: u64,
    mem: u64,
    peak: u64,
    latency: f64,
    executions: usize,
}

impl<'g> Runtime<'g> {
    fn new<C: NodeCost + ?Sized>(g: &'g Graph, cm: &C) -> Self {
        let cap = g.capacity();
        let mut cost = vec![0.0; cap];
        let mut size = vec![0u64; cap];
        let mut pinned = vec![false; cap];
        let mut mem = 0u64;
        for v in g.node_ids() {
            cost[v.index()] = cm.node_latency(g, v).max(1e-9);
            size[v.index()] = device_bytes(g, v);
            if g.node(v).op.is_input() {
                pinned[v.index()] = true; // inputs cannot be recomputed
                mem += size[v.index()];
            }
        }
        let mut resident = vec![false; cap];
        for v in g.node_ids() {
            if g.node(v).op.is_input() {
                resident[v.index()] = true;
            }
        }
        Runtime {
            g,
            cost,
            size,
            resident,
            pinned,
            last_use: vec![0; cap],
            clock: 0,
            mem,
            peak: mem,
            latency: 0.0,
            executions: 0,
        }
    }

    /// Evicts until `need` extra bytes fit under `budget`. Returns
    /// false when nothing evictable remains.
    fn make_room(&mut self, need: u64, budget: u64, protect: &[NodeId]) -> bool {
        while self.mem + need > budget {
            let victim = self
                .g
                .node_ids()
                .filter(|&v| {
                    let i = v.index();
                    self.resident[i]
                        && !self.pinned[i]
                        && self.size[i] > 0
                        && !protect.contains(&v)
                })
                .min_by(|&a, &b| {
                    let h = |v: NodeId| {
                        let i = v.index();
                        let staleness = (self.clock - self.last_use[i]).max(1) as f64;
                        self.cost[i] / (self.size[i] as f64 * staleness)
                    };
                    h(a).total_cmp(&h(b))
                });
            match victim {
                Some(v) => {
                    self.resident[v.index()] = false;
                    self.mem -= self.size[v.index()];
                }
                None => return false,
            }
        }
        true
    }

    /// Ensures `v`'s output is resident, recursively rematerializing.
    fn ensure(&mut self, v: NodeId, budget: u64, thrash_limit: usize) -> Result<(), bool> {
        if self.resident[v.index()] {
            self.last_use[v.index()] = self.clock;
            return Ok(());
        }
        if self.executions > thrash_limit {
            return Err(true); // thrashing
        }
        let inputs = self.g.pre_all(v);
        for &u in &inputs {
            self.ensure(u, budget, thrash_limit)?;
        }
        // Protect the operands while allocating the output.
        if !self.make_room(self.size[v.index()], budget, &inputs) {
            return Err(false); // genuinely infeasible
        }
        self.resident[v.index()] = true;
        self.mem += self.size[v.index()];
        self.peak = self.peak.max(self.mem);
        self.latency += self.cost[v.index()];
        self.executions += 1;
        self.clock += 1;
        self.last_use[v.index()] = self.clock;
        Ok(())
    }
}

/// Runs the DTR runtime simulation.
pub fn run<C: NodeCost + ?Sized>(g: &Graph, budget: Option<u64>, cm: &C) -> BaselineResult {
    let order = crate::pytorch::program_order(g);
    let Some(b) = budget else {
        let ev = magis_sim::evaluate_checked(g, &order, cm).expect("program order evaluates");
        return BaselineResult { peak_bytes: ev.peak_bytes, latency: ev.latency, feasible: true };
    };
    let mut rt = Runtime::new(g, cm);
    let thrash_limit = THRASH_FACTOR * g.len();
    if rt.mem > b {
        return BaselineResult { peak_bytes: rt.mem, latency: 0.0, feasible: false };
    }
    // Reference counting over the program order: DTR frees tensors whose
    // Python-side references are gone. A tensor with no remaining future
    // use in the program is freed (it may be recomputed later if a
    // rematerialization chain needs it again).
    let mut future_uses = vec![0usize; g.capacity()];
    for &v in &order {
        for u in g.pre_all(v) {
            future_uses[u.index()] += 1;
        }
    }
    for &v in &order {
        match rt.ensure(v, b, thrash_limit) {
            Ok(()) => {}
            Err(_) => {
                return BaselineResult {
                    peak_bytes: rt.peak,
                    latency: rt.latency,
                    feasible: false,
                };
            }
        }
        for u in g.pre_all(v) {
            let i = u.index();
            future_uses[i] -= 1;
            if future_uses[i] == 0 && rt.resident[i] && !rt.pinned[i] {
                rt.resident[i] = false;
                rt.mem -= rt.size[i];
            }
        }
    }
    BaselineResult { peak_bytes: rt.peak, latency: rt.latency, feasible: true }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_models::mlp::{mlp, MlpConfig};
    use magis_sim::CostModel;

    fn anchor(g: &Graph, cm: &CostModel) -> BaselineResult {
        crate::pytorch::run(g, cm)
    }

    #[test]
    fn near_linear_tradeoff() {
        // Activation-dominated regime, as in the paper's workloads.
        let tg = mlp(&MlpConfig { batch: 2048, ..MlpConfig::default() });
        let cm = CostModel::default();
        let base = anchor(&tg.graph, &cm);
        let r80 = run(&tg.graph, Some((base.peak_bytes as f64 * 0.8) as u64), &cm);
        let r60 = run(&tg.graph, Some((base.peak_bytes as f64 * 0.6) as u64), &cm);
        assert!(r80.feasible && r60.feasible);
        assert!(r80.peak_bytes <= (base.peak_bytes as f64 * 0.8) as u64);
        assert!(r60.latency >= r80.latency, "tighter budget costs more");
        assert!(r80.latency >= base.latency * 0.999);
    }

    #[test]
    fn budget_below_pinned_weights_fails() {
        let tg = mlp(&MlpConfig::default());
        let cm = CostModel::default();
        let r = run(&tg.graph, Some(1 << 10), &cm);
        assert!(!r.feasible);
    }

    #[test]
    fn unconstrained_matches_anchor() {
        let tg = mlp(&MlpConfig::default());
        let cm = CostModel::default();
        let base = anchor(&tg.graph, &cm);
        let r = run(&tg.graph, None, &cm);
        assert_eq!(r.peak_bytes, base.peak_bytes);
    }
}
