//! Incremental scheduling (Algorithm 2 of the paper).
//!
//! After a graph transformation mutates a small region, only a window
//! of the previous schedule around that region needs rescheduling. The
//! window is grown outwards until it hits nodes with low narrow-waist
//! values — natural cut points where the old prefix/suffix remain
//! near-optimal — then the window is partitioned and re-ordered with
//! the memory-DP, and the pieces are merged back into the old schedule.

use magis_graph::GraphView;
use crate::dp::{dp_schedule, SchedConfig};
use crate::partition::partition;
use crate::schedule::stabilize_order;
use crate::task::SchedTask;
use magis_graph::algo::reach::Reachability;
use magis_graph::graph::{Graph, NodeId};
use magis_sim::{CostError, MemObjective, MemoryTables, ParentTables};
use std::collections::BTreeSet;

/// The empirical constants of `ExtendBound` (Algorithm 2 line 4); the
/// paper reports 20/10/4 "perform well in practice".
#[derive(Debug, Clone)]
pub struct IntervalParams {
    /// Maximum steps to extend in each direction (`l < 20`).
    pub max_steps: usize,
    /// Keep extending while the best NW seen exceeds this (`ŵ > 10`).
    pub high_nw: usize,
    /// Keep extending while the current NW is below this (`nw(v) < 4`).
    pub low_nw: usize,
}

impl Default for IntervalParams {
    fn default() -> Self {
        IntervalParams { max_steps: 20, high_nw: 10, low_nw: 4 }
    }
}

/// `GetRescheduleInterval`: the half-open index range `[beg, end)` of
/// `psi_old` that must be rescheduled, given the mutated nodes `s_old`.
///
/// Returns `None` when no mutated node appears in the old schedule
/// (e.g. the transformation only added nodes).
///
/// `reach` is an optional precomputed reachability of `g_old`. A parent
/// state's reachability is identical for every candidate derived from
/// it, so the search computes it once and hands it to each evaluation
/// instead of paying `Reachability::compute` per candidate.
pub fn reschedule_interval_cached(
    g_old: &Graph,
    s_old: &BTreeSet<NodeId>,
    psi_old: &[NodeId],
    params: &IntervalParams,
    reach: Option<&Reachability>,
) -> Option<(usize, usize)> {
    let idxs: Vec<usize> = psi_old
        .iter()
        .enumerate()
        .filter(|(_, v)| s_old.contains(v))
        .map(|(i, _)| i)
        .collect();
    let (&lo, &hi) = (idxs.first()?, idxs.last()?);
    let computed;
    let reach = match reach {
        Some(r) => r,
        None => {
            computed = Reachability::compute(g_old);
            &computed
        }
    };
    let nw = |i: usize| reach.narrow_waist(psi_old[i]);
    let extend = |mut i: usize, dir: i64| -> usize {
        let mut best = usize::MAX;
        let mut l = 0;
        loop {
            if l >= params.max_steps {
                break;
            }
            let w = nw(i);
            if !((best == usize::MAX || best > params.high_nw || w < params.low_nw) && w < best) {
                break;
            }
            best = w;
            let ni = i as i64 + dir;
            if ni < 0 || ni as usize >= psi_old.len() {
                break;
            }
            i = ni as usize;
            l += 1;
        }
        i
    };
    let beg = extend(lo, -1);
    let end = extend(hi, 1);
    Some((beg, end + 1))
}

/// Result of [`incremental_schedule`]: the chosen order plus the
/// memory tables that were computed while choosing it — the evaluation
/// pipeline reuses them instead of re-profiling from scratch, and
/// carries them forward as the parent tables of the *next* incremental
/// step.
#[derive(Debug, Clone)]
pub struct IncrementalSchedule {
    /// A valid topological order of the new graph.
    pub order: Vec<NodeId>,
    /// Memory tables of `order`, bit-identical to the from-scratch
    /// tables of it.
    pub tables: MemoryTables,
    /// Width of the rescheduled window (old-schedule steps).
    pub window: usize,
    /// Whether the carried-over old order beat the rescheduled window.
    pub carried_won: bool,
}

/// Incremental scheduling (Algorithm 2): derives a schedule for
/// `g_new` from the parent's schedule and the set of old nodes the
/// transformation touched (`parent.order` of `parent.graph`, and
/// `parent.touched`).
///
/// The window around the touched nodes is re-ordered with the DP and
/// spliced back; a guard keeps the carried-over parent order instead
/// when its [`MemoryTables::key`] under `objective` is smaller. Both
/// sides of the guard are delta-derived from the parent's tables, so
/// the returned order comes with its tables.
///
/// The returned order is always a valid topological order of `g_new`.
///
/// # Errors
///
/// Returns a typed [`CostError`] on coverage or memory-conservation
/// defects.
pub fn incremental_schedule(
    g_new: &Graph,
    parent: ParentTables<'_>,
    objective: MemObjective,
    cfg: &SchedConfig,
    params: &IntervalParams,
    reach_old: Option<&Reachability>,
) -> Result<IncrementalSchedule, CostError> {
    let mut span = magis_obs::span!("magis_sched", "incremental_schedule", nodes = g_new.len());
    let psi_old = parent.order;
    let (beg, end) =
        match reschedule_interval_cached(parent.graph, parent.touched, psi_old, params, reach_old) {
            Some(r) => r,
            // Pure additions: reschedule only the new nodes, appended
            // where their dependencies allow.
            None => (psi_old.len(), psi_old.len()),
        };
    let window = end.saturating_sub(beg);
    span.record("window", window);
    let prefix: Vec<NodeId> =
        psi_old[..beg].iter().copied().filter(|&v| g_new.contains(v)).collect();
    let suffix: Vec<NodeId> =
        psi_old[end..].iter().copied().filter(|&v| g_new.contains(v)).collect();
    let kept: BTreeSet<NodeId> = prefix.iter().chain(suffix.iter()).copied().collect();
    let s_new: BTreeSet<NodeId> =
        g_new.node_ids().filter(|v| !kept.contains(v)).collect();

    let mut middle = Vec::with_capacity(s_new.len());
    for piece in partition(g_new, &s_new) {
        let set: BTreeSet<NodeId> = piece.iter().copied().collect();
        let task = SchedTask::subset(g_new, &set);
        let res = dp_schedule(&task, cfg);
        middle.extend(task.to_node_ids(&res.order));
    }

    let desired: Vec<NodeId> =
        prefix.into_iter().chain(middle).chain(suffix).collect();
    let rescheduled = stabilize_order(g_new, &desired);
    // Guard: rescheduling a window can occasionally lose to simply
    // carrying the old order over (boundary effects). Keep the better
    // of the two — delta tables are far cheaper than the DP.
    let carried = stabilize_order(g_new, psi_old);
    let tables_of = |order: &[NodeId]| MemoryTables::new(g_new, order, objective, Some(parent));
    let new_tables = tables_of(&rescheduled)?;
    // Identical orders would produce identical tables, and the strict
    // `>` below would be false: skip the redundant half outright.
    let (order, tables, carried_won) = if carried == rescheduled {
        (rescheduled, new_tables, false)
    } else {
        let old_tables = tables_of(&carried)?;
        if new_tables.key() > old_tables.key() {
            (carried, old_tables, true)
        } else {
            (rescheduled, new_tables, false)
        }
    };
    span.record("carried_won", carried_won);
    Ok(IncrementalSchedule { order, tables, window, carried_won })
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::{is_topo_order, topo_order};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::op::{OpKind, UnaryKind};
    use magis_graph::tensor::DType;

    /// Algorithm 2 under the liveness objective, from the parent's
    /// from-scratch tables.
    fn reschedule(
        g_old: &Graph,
        g_new: &Graph,
        s_old: &BTreeSet<NodeId>,
        psi_old: &[NodeId],
    ) -> Vec<NodeId> {
        let tables = MemoryTables::new(g_old, psi_old, MemObjective::Liveness, None).unwrap();
        incremental_schedule(
            g_new,
            tables.as_parent(g_old, psi_old, s_old),
            MemObjective::Liveness,
            &SchedConfig::default(),
            &IntervalParams::default(),
            None,
        )
        .unwrap()
        .order
    }

    fn chain_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([64], "x");
        for _ in 0..n {
            cur = b.relu(cur);
        }
        b.finish()
    }

    #[test]
    fn interval_covers_mutated_nodes() {
        let g = chain_graph(30);
        let psi = topo_order(&g);
        let s: BTreeSet<NodeId> = [psi[10], psi[12]].into_iter().collect();
        let (beg, end) = reschedule_interval_cached(&g, &s, &psi, &IntervalParams::default(), None).unwrap();
        assert!(beg <= 10 && end >= 13);
        // On a chain every nw is 0: the first extension step already
        // finds the minimum, so the window stays tight.
        assert!(end - beg <= 8, "window stayed small on a chain: {beg}..{end}");
    }

    #[test]
    fn incremental_after_node_insertion() {
        let g_old = chain_graph(20);
        let psi_old = topo_order(&g_old);
        // Mutate: re-materialize node 10's op (add a parallel recompute).
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        let target = psi_old[10];
        let input = txn.pre(target)[0];
        let clone = txn.add(OpKind::Unary(UnaryKind::Relu), &[input]).unwrap();
        let user = txn.suc(target)[0];
        txn.replace_input(user, target, clone);
        let g_new = txn.commit().0;
        g_new.validate().unwrap();

        let s_old: BTreeSet<NodeId> = [target, user].into_iter().collect();
        let psi_new = reschedule(&g_old, &g_new, &s_old, &psi_old);
        assert!(is_topo_order(&g_new, &psi_new));
        assert_eq!(psi_new.len(), g_new.len());
    }

    #[test]
    fn incremental_after_node_removal() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let dup = b.relu(x); // redundant twin to be removed
        let u1 = b.gelu(a);
        let u2 = b.gelu(dup);
        let _j = b.add_op(u1, u2);
        let g_old = b.finish();
        let psi_old = topo_order(&g_old);

        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        txn.redirect_uses(dup, a);
        txn.remove(dup).unwrap();
        let g_new = txn.commit().0;
        let s_old: BTreeSet<NodeId> = [dup, u2].into_iter().collect();
        let psi_new = reschedule(&g_old, &g_new, &s_old, &psi_old);
        assert!(is_topo_order(&g_new, &psi_new));
    }

    #[test]
    fn no_mutation_is_stable() {
        let g = chain_graph(5);
        let psi = topo_order(&g);
        let out = reschedule(&g, &g, &BTreeSet::new(), &psi);
        assert_eq!(out, psi);
    }
}
