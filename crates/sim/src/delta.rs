//! Delta memory profiling: re-profile a schedule that was derived from
//! an already-profiled parent by a single graph rewrite, recomputing
//! lifetimes only for the storage roots the rewrite (or the re-ordered
//! schedule window) could have affected.
//!
//! This is the `magis_sim` half of the incremental evaluation pipeline
//! (see ARCHITECTURE.md): `magis_sched::incremental` splices the
//! parent schedule around the rewrite, and this module updates the
//! parent's [`Lifetimes`] table instead of recomputing it from the
//! whole graph. The result is **bit-identical** to a from-scratch
//! [`MemoryTables::new`](crate::MemoryTables::new) — enforced
//! by a `debug_assert!` here, by the optimizer's `--paranoia all`
//! cross-check, and by the `incremental_eval` integration suite.
//!
//! ## Dirty-root computation
//!
//! A storage root's lifetime formula involves its member nodes (the
//! root plus its alias closure), their successors, and its optional
//! `alloc_with` anchor. The lifetime *endpoints* are recorded by node
//! provenance ([`memory::Endpoint`](crate::memory)), and schedule
//! positions are distinct, so a root's entry can be re-based onto the
//! new schedule by position lookup — **provided the relative order of
//! every involved node is unchanged**. Two sources of change exist:
//!
//! 1. **Schedule movement** — the spliced schedule differs from the
//!    parent's only inside a contiguous window; outside the longest
//!    common prefix/suffix of the two orders, relative order is
//!    preserved verbatim. Every node inside either window (old or new
//!    coordinates — removals only show up in the old one) is dirty.
//! 2. **Graph rewiring** — an edge swap can change a root's successor
//!    set without moving any node. The caller passes the rewrite's
//!    `touched` node set to cover exactly this.
//!
//! A root is recomputed from the graph iff one of its involved nodes
//! is dirty; all others re-base their parent entry.

use magis_graph::GraphView;
use crate::cost::CostError;
use crate::memory::{
    check_coverage, position_table, profile_lifetimes, sweep, Endpoint, Lifetimes, MemoryProfile,
};
use crate::memory::storage_root;
use magis_graph::graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::sync::OnceLock;

struct DeltaObs {
    profiles: magis_obs::metrics::Counter,
    dirty_roots: magis_obs::metrics::Counter,
    reused_roots: magis_obs::metrics::Counter,
}

fn obs() -> &'static DeltaObs {
    static OBS: OnceLock<DeltaObs> = OnceLock::new();
    OBS.get_or_init(|| DeltaObs {
        profiles: magis_obs::metrics::counter("magis_sim_delta_profiles"),
        dirty_roots: magis_obs::metrics::counter("magis_sim_delta_dirty_roots"),
        reused_roots: magis_obs::metrics::counter("magis_sim_delta_reused_roots"),
    })
}

/// Memory profile of `g` under `order`, computed as a delta against
/// the parent evaluation `(g_old, order_old, parent)`.
///
/// `touched` is the rewrite's touched node set, in either graph's ids
/// (stale ids are fine); it must cover every node whose *edges*
/// changed between `g_old` and `g` — schedule movement is detected
/// from the orders themselves. Both orders must exactly cover their
/// graphs (checked; `order_old`/`parent` are trusted to correspond).
///
/// The result is bit-identical to the from-scratch profile and
/// [`Lifetimes`] table of `(g, order)` (the table is canonical), at
/// the cost of recomputing only the affected storage roots.
///
/// # Errors
///
/// Returns [`CostError::BadSchedule`] on coverage defects and the
/// usual conservation errors from the sweep.
pub fn memory_profile_delta(
    g: &Graph,
    order: &[NodeId],
    g_old: &Graph,
    order_old: &[NodeId],
    parent: &Lifetimes,
    touched: &BTreeSet<NodeId>,
) -> Result<(MemoryProfile, Lifetimes), CostError> {
    if order.is_empty() || order_old.is_empty() {
        // Nothing to reuse: degenerate to a full computation.
        return profile_lifetimes(g, order);
    }
    check_coverage(g, order)?;
    let pos = position_table(g, order);

    // Longest common prefix/suffix of the two schedules. Outside these
    // the sequences are identical, so relative order is preserved.
    let (n, m) = (order.len(), order_old.len());
    let mut cp = 0;
    while cp < n && cp < m && order[cp] == order_old[cp] {
        cp += 1;
    }
    let mut cs = 0;
    while cs < n.min(m) - cp && order[n - 1 - cs] == order_old[m - 1 - cs] {
        cs += 1;
    }

    // Dirty nodes: both windows plus the rewrite's touched set.
    let mut dirty_nodes: BTreeSet<NodeId> = touched.clone();
    dirty_nodes.extend(order[cp..n - cs].iter().copied());
    dirty_nodes.extend(order_old[cp..m - cs].iter().copied());

    // Dirty roots: roots whose member, member-successor, or anchor set
    // intersects the dirty nodes — marked from the node side (root of
    // the node, roots of its predecessors) in both graphs so removals
    // and rewires dirty the surviving neighbours.
    let cap = g.capacity();
    let mut dirty_root = vec![false; cap];
    for &d in &dirty_nodes {
        // Raw predecessor slices: setting a dirty flag is idempotent,
        // so per-edge duplicates are harmless.
        if g.contains(d) {
            dirty_root[storage_root(g, d).index()] = true;
            let n = g.node(d);
            for &p in n.inputs().iter().chain(n.keepalive()) {
                dirty_root[storage_root(g, p).index()] = true;
            }
        }
        if g_old.contains(d) {
            let n = g_old.node(d);
            for &p in n.inputs().iter().chain(n.keepalive()) {
                if g.contains(p) {
                    dirty_root[storage_root(g, p).index()] = true;
                }
            }
        }
    }
    // Anchored roots allocate at their anchor's step: a moved anchor
    // dirties the root even without a data edge between them.
    for v in g.node_ids() {
        if let Some(a) = g.node(v).alloc_with {
            if dirty_nodes.contains(&a) {
                dirty_root[storage_root(g, v).index()] = true;
            }
        }
    }

    // Assemble the new table: re-base clean parent entries, recompute
    // dirty roots from the graph. Everything else (aliases, swapped-out
    // tensors, zero-byte nodes) keeps no entry, exactly as in a full
    // computation.
    let mut lt = Lifetimes::with_capacity(order.len(), cap);
    let mut dirty_count = 0u64;
    let mut reused = 0u64;
    let old_cap = parent.bytes.len();
    // The endpoint nodes of a clean root are clean themselves, hence
    // live and scheduled in `g`. Recompute defensively if that
    // invariant is ever violated (and flag it loudly in debug builds).
    let rebasable = |e: Endpoint| match e {
        Endpoint::Boundary => true,
        Endpoint::At(nd) => nd.index() < pos.len() && pos[nd.index()] != usize::MAX,
    };
    for (r, dirty) in dirty_root.iter_mut().enumerate().take(cap) {
        let id = NodeId::from_index(r);
        if !g.contains(id) {
            continue;
        }
        if !*dirty && r < old_cap && parent.bytes[r] > 0 {
            if rebasable(parent.alloc[r]) && rebasable(parent.free[r]) {
                lt.bytes[r] = parent.bytes[r];
                lt.alloc[r] = parent.alloc[r];
                lt.free[r] = parent.free[r];
                reused += 1;
                continue;
            }
            debug_assert!(false, "clean root {r} had a stale endpoint");
            *dirty = true;
        }
        if *dirty {
            lt.recompute_root(g, &pos, id);
            if lt.bytes[r] > 0 {
                dirty_count += 1;
            }
        }
    }
    let profile = sweep(&lt, &pos)?;
    obs().profiles.inc();
    obs().dirty_roots.add(dirty_count);
    obs().reused_roots.add(reused);

    // The whole point: the delta result is indistinguishable from a
    // full recomputation. Lifetime tables are canonical per (g, order)
    // — endpoints are unique because schedule positions are distinct —
    // so full equality is the strongest possible check.
    #[cfg(debug_assertions)]
    {
        let full_lt = crate::memory::compute_lifetimes(g, order, &pos);
        debug_assert_eq!(
            lt, full_lt,
            "delta lifetime table diverged from full recomputation"
        );
        let full = sweep(&full_lt, &pos)?;
        debug_assert_eq!(profile.peak_bytes, full.peak_bytes);
        debug_assert_eq!(profile.step_bytes, full.step_bytes);
        debug_assert_eq!(profile.hotspots, full.hotspots);
    }
    Ok((profile, lt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::op::{OpKind, UnaryKind};
    use magis_graph::tensor::DType;

    fn assert_matches_full(
        g: &Graph,
        order: &[NodeId],
        g_old: &Graph,
        order_old: &[NodeId],
        parent: &Lifetimes,
        touched: &BTreeSet<NodeId>,
    ) {
        let (dp, dlt) = memory_profile_delta(g, order, g_old, order_old, parent, touched).unwrap();
        let (fp, flt) = profile_lifetimes(g, order).unwrap();
        assert_eq!(dlt, flt, "lifetime tables must be canonical-equal");
        assert_eq!(dp.peak_bytes, fp.peak_bytes);
        assert_eq!(dp.step_bytes, fp.step_bytes);
        assert_eq!(dp.hotspots, fp.hotspots);
    }

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256], "x");
        for _ in 0..n {
            cur = b.relu(cur);
        }
        b.finish()
    }

    #[test]
    fn unchanged_schedule_reuses_everything() {
        let g = chain(12);
        let order = topo_order(&g);
        let (_, lt) = profile_lifetimes(&g, &order).unwrap();
        assert_matches_full(&g, &order, &g, &order, &lt, &BTreeSet::new());
    }

    #[test]
    fn node_insertion_matches_full() {
        let g_old = chain(16);
        let order_old = topo_order(&g_old);
        let (_, lt) = profile_lifetimes(&g_old, &order_old).unwrap();
        // Insert a recompute twin of node 8 feeding node 9's slot.
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        let target = order_old[8];
        let input = txn.pre(target)[0];
        let clone = txn.add(OpKind::Unary(UnaryKind::Relu), &[input]).unwrap();
        let user = txn.suc(target)[0];
        txn.replace_input(user, target, clone);
        let g = txn.commit().0;
        let order = topo_order(&g);
        let touched: BTreeSet<NodeId> = [target, user].into_iter().collect();
        assert_matches_full(&g, &order, &g_old, &order_old, &lt, &touched);
    }

    #[test]
    fn node_removal_matches_full() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let dup = b.relu(x);
        let u1 = b.gelu(a);
        let u2 = b.gelu(dup);
        let _j = b.add_op(u1, u2);
        let g_old = b.finish();
        let order_old = topo_order(&g_old);
        let (_, lt) = profile_lifetimes(&g_old, &order_old).unwrap();
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        txn.redirect_uses(dup, a);
        txn.remove(dup).unwrap();
        let g = txn.commit().0;
        let order = topo_order(&g);
        let touched: BTreeSet<NodeId> = [dup, u2].into_iter().collect();
        assert_matches_full(&g, &order, &g_old, &order_old, &lt, &touched);
    }

    #[test]
    fn pure_edge_rewire_needs_touched_set() {
        // Same node set and an unchanged schedule: only the touched
        // set can reveal the changed successor sets.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.relu(a);
        let d = b.gelu(c);
        let e = b.add_op(c, d);
        let g_old = b.finish();
        let order_old = vec![x, a, c, d, e];
        let (_, lt) = profile_lifetimes(&g_old, &order_old).unwrap();
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        // e now reads `a` instead of `c`: c's storage is freed earlier.
        txn.replace_input(e, c, a);
        let g = txn.commit().0;
        let order = order_old.clone();
        let touched: BTreeSet<NodeId> = [e].into_iter().collect();
        assert_matches_full(&g, &order, &g_old, &order_old, &lt, &touched);
        let (full, _) = profile_lifetimes(&g, &order).unwrap();
        let (old, _) = profile_lifetimes(&g_old, &order_old).unwrap();
        // Sanity: the rewire genuinely changed the profile somewhere.
        assert_ne!(full.step_bytes, old.step_bytes);
    }

    #[test]
    fn swap_pair_insertion_matches_full() {
        use magis_graph::op::{BinaryKind, InputKind};
        use magis_graph::tensor::TensorMeta;
        let mut bld = magis_graph::GraphTxn::begin(&Graph::new());
        let meta = TensorMeta::new([256], DType::F32);
        let x = bld.add_input(InputKind::Activation, meta, "x");
        let a = bld.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let mut cur = x;
        for _ in 0..6 {
            cur = bld.add(OpKind::Unary(UnaryKind::Gelu), &[cur]).unwrap();
        }
        let j = bld.add(OpKind::Binary(BinaryKind::Add), &[a, cur]).unwrap();
        let g_old = bld.commit().0;
        let order_old = topo_order(&g_old);
        let (_, lt) = profile_lifetimes(&g_old, &order_old).unwrap();
        // Swap `a` out and back in before its distant consumer.
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        let st = txn.add(OpKind::Store, &[a]).unwrap();
        let ld = txn.add(OpKind::Load, &[st]).unwrap();
        txn.replace_input(j, a, ld);
        let g = txn.commit().0;
        let order = topo_order(&g);
        let touched: BTreeSet<NodeId> = [a, j].into_iter().collect();
        assert_matches_full(&g, &order, &g_old, &order_old, &lt, &touched);
    }

    #[test]
    fn alias_chain_growth_matches_full() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a = b.relu(x);
        let _y = b.relu(a);
        let g_old = b.finish();
        let order_old = topo_order(&g_old);
        let (_, lt) = profile_lifetimes(&g_old, &order_old).unwrap();
        // Reshape view of `a` consumed late: extends a's lifetime via
        // the alias chain.
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        let r = txn.add(OpKind::Reshape { shape: vec![16, 16].into() }, &[a]).unwrap();
        let _z = txn.add(OpKind::Unary(UnaryKind::Gelu), &[r]).unwrap();
        let g = txn.commit().0;
        let order = topo_order(&g);
        let touched: BTreeSet<NodeId> = [a].into_iter().collect();
        assert_matches_full(&g, &order, &g_old, &order_old, &lt, &touched);
    }

    #[test]
    fn coverage_defect_is_typed() {
        let g = chain(4);
        let order = topo_order(&g);
        let (_, lt) = profile_lifetimes(&g, &order).unwrap();
        let err =
            memory_profile_delta(&g, &order[..2], &g, &order, &lt, &BTreeSet::new()).unwrap_err();
        assert!(matches!(err, CostError::BadSchedule { .. }));
    }
}
