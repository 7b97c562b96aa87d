//! Differential test of the M-Analyzer (Algorithm 1): `FTree::build`
//! and `FTree::refreshed` on dense node-indexed tables must return the
//! same tree — node sets, dims, parts, levels, parent and children
//! lists in the same order — as a plain reference built on tree sets
//! and maps: a `BTreeMap` D-Graph with a set-draining component scan,
//! immediate dominators from dominator-set data flow, dominated regions
//! collected by walking dominator-tree children, and heat /
//! region-input sums folded as f64 in ascending id order.
//!
//! Inputs: the seven bench models at two scales, six `random_dnn`
//! seeds, states along seeded rewrite lineages (re-materialization,
//! swapping, TASO rules and enabled fission regions), hot-spot sets
//! from `memory_profile` and drawn at random, and `L` ∈ {1, 4, 8}.

use magis_core::dgraph::{component_dims, DimGraph, DimVertex};
use magis_core::fission::FissionSpec;
use magis_core::ftree::{FTree, FTreeNode};
use magis_core::rules::{self, RuleConfig, Transform};
use magis_core::state::{EvalContext, MState};
use magis_graph::algo::DomTree;
use magis_graph::builder::GraphBuilder;
use magis_graph::tensor::DType;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::DimLink;
use magis_graph::GraphView;
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_models::Workload;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::{BTreeMap, BTreeSet};

const LEVELS: [usize; 3] = [1, 4, 8];

/// Reference D-Graph: per-vertex adjacency sets.
fn reference_dgraph(g: &Graph) -> BTreeMap<DimVertex, BTreeSet<DimVertex>> {
    let mut adj: BTreeMap<DimVertex, BTreeSet<DimVertex>> = BTreeMap::new();
    for v in g.node_ids() {
        let n = g.node(v);
        if !n.op.in_dim_graph() {
            continue;
        }
        for i in 1..=n.meta.shape.rank() as i32 {
            adj.entry((v, i)).or_default();
        }
        for r in 1..=n.op.num_reduce_axes() as i32 {
            adj.entry((v, -r)).or_default();
        }
    }
    for v in g.node_ids() {
        let n = g.node(v);
        if !n.op.in_dim_graph() || n.op.is_input() {
            continue;
        }
        let input_metas: Vec<_> = n.inputs().iter().map(|&u| g.node(u).meta.clone()).collect();
        let links = n.op.input_dim_links(&input_metas, &n.meta);
        for (slot, &u) in n.inputs().iter().enumerate() {
            if !g.node(u).op.in_dim_graph() {
                continue;
            }
            for (i, link) in links[slot].iter().enumerate() {
                let uv = (u, i as i32 + 1);
                let vv = match link {
                    DimLink::Spatial(j) => (v, *j as i32 + 1),
                    DimLink::Windowed { dim, .. } => (v, *dim as i32 + 1),
                    DimLink::Reduce(r) => (v, -(*r as i32 + 1)),
                    DimLink::Unlinked => continue,
                };
                if adj.contains_key(&uv) && adj.contains_key(&vv) {
                    adj.get_mut(&uv).unwrap().insert(vv);
                    adj.get_mut(&vv).unwrap().insert(uv);
                }
            }
        }
    }
    adj
}

/// Reference components: drain the sorted vertex set seed by seed.
fn reference_components(adj: &BTreeMap<DimVertex, BTreeSet<DimVertex>>) -> Vec<BTreeSet<DimVertex>> {
    let mut remaining: BTreeSet<DimVertex> = adj.keys().copied().collect();
    let mut out = Vec::new();
    while let Some(&seed) = remaining.iter().next() {
        remaining.remove(&seed);
        let mut comp = BTreeSet::new();
        let mut stack = vec![seed];
        while let Some(v) = stack.pop() {
            comp.insert(v);
            for n in &adj[&v] {
                if remaining.remove(n) {
                    stack.push(*n);
                }
            }
        }
        if comp.len() > 1 {
            out.push(comp);
        }
    }
    out
}

/// Reference immediate dominators by the dominator-set data flow
/// `Dom(v) = {v} ∪ ⋂ Dom(p)` over a topological order of `set`: the
/// idom is the strict dominator latest in that order (`None` below
/// the virtual root).
fn reference_idoms(g: &Graph, set: &BTreeSet<NodeId>) -> BTreeMap<NodeId, Option<NodeId>> {
    let order = magis_graph::algo::topo_order_of(g, set);
    let pos: BTreeMap<NodeId, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut dom: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for &v in &order {
        let n = g.node(v);
        let mut d: Option<BTreeSet<NodeId>> = None;
        for p in n.inputs().iter().chain(n.keepalive()).filter(|p| set.contains(p)) {
            d = Some(match d {
                None => dom[p].clone(),
                Some(d) => d.intersection(&dom[p]).copied().collect(),
            });
        }
        let d = d.unwrap_or_default();
        out.insert(v, d.iter().copied().max_by_key(|u| pos[u]));
        let mut with_v = d;
        with_v.insert(v);
        dom.insert(v, with_v);
    }
    out
}

/// Reference `T.des(v)`: a walk over the dominator tree's children.
fn reference_descendants(t: &DomTree, v: NodeId) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<NodeId> = t.children(v).to_vec();
    while let Some(u) = stack.pop() {
        if out.insert(u) {
            stack.extend_from_slice(t.children(u));
        }
    }
    out
}

fn reference_dominant_entry_region(g: &Graph, comp: &BTreeSet<NodeId>) -> Option<BTreeSet<NodeId>> {
    let entries: Vec<NodeId> = comp
        .iter()
        .copied()
        .filter(|&v| {
            let n = g.node(v);
            n.inputs().iter().chain(n.keepalive()).all(|p| !comp.contains(p))
        })
        .collect();
    entries
        .into_iter()
        .map(|e| {
            let mut out: BTreeSet<NodeId> = BTreeSet::new();
            let mut stack = vec![e];
            while let Some(v) = stack.pop() {
                if out.insert(v) {
                    stack.extend(g.node(v).succs().iter().filter(|s| comp.contains(s)));
                }
            }
            out
        })
        .max_by_key(BTreeSet::len)
}

type Candidate = (BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize);

/// Reference Algorithm 1.
fn reference_build(g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> Vec<FTreeNode> {
    let adj = reference_dgraph(g);
    let mut candidates: Vec<Candidate> = Vec::new();
    for comp in reference_components(&adj) {
        let comp_nodes: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
        if comp_nodes.len() < 2 {
            continue;
        }
        let comp_nodes = reference_dominant_entry_region(g, &comp_nodes).unwrap_or(comp_nodes);
        if comp_nodes.len() < 2 {
            continue;
        }
        let t = DomTree::compute(g, &comp_nodes);
        let size = |v: &NodeId| g.node(*v).size_bytes() as f64;
        let mut scores: BTreeMap<NodeId, f64> = BTreeMap::new();
        let mut desc: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
        for &v in &comp_nodes {
            let region = reference_descendants(&t, v);
            if !region.is_empty() {
                let heat: f64 = region.iter().filter(|w| hotspots.contains(w)).map(size).sum();
                let inputs: f64 = g.set_inputs(&region).iter().filter(|u| !hotspots.contains(u)).map(size).sum();
                scores.insert(v, 0.5 * heat - inputs);
            }
            desc.insert(v, region);
        }
        let smax = scores.values().copied().fold(f64::MIN, f64::max);
        if smax <= 0.0 {
            continue;
        }
        for i in 1..=l {
            let lo = i as f64 / l as f64;
            let hi = (i + 1) as f64 / l as f64;
            let v_i: BTreeSet<NodeId> = scores
                .iter()
                .filter(|(_, &s)| {
                    let ns = s / smax;
                    ns >= lo && (ns < hi || (i == l && ns <= 1.0))
                })
                .map(|(&v, _)| v)
                .collect();
            for vdom in &v_i {
                let region = &desc[vdom];
                if region.iter().any(|d| v_i.contains(d)) || region.is_empty() {
                    continue;
                }
                let Some(dims) = component_dims(&comp, region) else { continue };
                let probe = FissionSpec { set: region.clone(), dims, parts: 2 };
                if probe.validate(g).is_ok() {
                    candidates.push((probe.set, probe.dims, i));
                }
            }
        }
    }
    reference_assemble(candidates)
}

fn reference_assemble(mut candidates: Vec<Candidate>) -> Vec<FTreeNode> {
    candidates.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
    candidates.dedup_by(|a, b| a.0 == b.0);
    let mut nodes: Vec<FTreeNode> = Vec::new();
    for (set, dims, level) in candidates {
        let mut parent: Option<usize> = None;
        for (i, n) in nodes.iter().enumerate() {
            if n.spec.set.len() > set.len() && set.is_subset(&n.spec.set) {
                match parent {
                    Some(p) if nodes[p].spec.set.len() <= n.spec.set.len() => {}
                    _ => parent = Some(i),
                }
            }
        }
        let idx = nodes.len();
        nodes.push(FTreeNode { spec: FissionSpec { set, dims, parts: 1 }, parent, children: Vec::new(), level });
        if let Some(p) = parent {
            nodes[p].children.push(idx);
        }
    }
    nodes
}

/// Reference refresh: rebuild, then carry enabled regions over.
fn reference_refreshed(old: &FTree, g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> Vec<FTreeNode> {
    let mut t = reference_build(g, hotspots, l);
    for old in old.nodes().iter().filter(|n| n.enabled()) {
        if let Some(pos) = t.iter().position(|n| n.spec.set == old.spec.set) {
            t[pos].spec.parts = old.spec.parts;
        } else if old.spec.validate(g).is_ok() {
            let idx = t.len();
            let mut parent: Option<usize> = None;
            for (i, n) in t.iter().enumerate() {
                if n.spec.set.len() > old.spec.set.len()
                    && old.spec.set.is_subset(&n.spec.set)
                    && parent.is_none_or(|p| t[p].spec.set.len() > n.spec.set.len())
                {
                    parent = Some(i);
                }
            }
            t.push(FTreeNode { spec: old.spec.clone(), parent, children: Vec::new(), level: old.level });
            if let Some(p) = parent {
                t[p].children.push(idx);
            }
        }
    }
    t
}

fn assert_same_tree(got: &FTree, want: &[FTreeNode], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: tree size");
    for (i, (a, b)) in got.nodes().iter().zip(want).enumerate() {
        assert_eq!(a.spec, b.spec, "{what}: node {i} spec");
        assert_eq!(a.parent, b.parent, "{what}: node {i} parent");
        assert_eq!(a.children, b.children, "{what}: node {i} children");
        assert_eq!(a.level, b.level, "{what}: node {i} level");
    }
}

/// A seeded random hot-spot set: about a quarter of the live nodes.
fn random_hotspots(g: &Graph, seed: u64) -> BTreeSet<NodeId> {
    let mut rng = SmallRng::seed_from_u64(seed);
    g.node_ids().filter(|_| rng.gen_range(0..4) == 0).collect()
}

/// Compares the D-Graph, every component's dominated regions, and
/// `build`/`refreshed` at every `L` against the references, for the
/// state's own hot-spots and a random set.
fn check_state(s: &MState, label: &str, seed: u64) -> usize {
    let g = &s.base;
    let adj = reference_dgraph(g);
    let dg = DimGraph::build(g);
    assert!(dg.vertices().eq(adj.keys().copied()), "{label}: D-Graph vertices");
    for (v, nbrs) in &adj {
        assert!(dg.neighbours(*v).eq(nbrs.iter().copied()), "{label}: neighbours of {v:?}");
    }
    let comps = dg.components();
    assert_eq!(comps, reference_components(&adj), "{label}: D-Graph components");
    for comp in &comps {
        let nodes: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
        let t = DomTree::compute(g, &nodes);
        for (v, idom) in reference_idoms(g, &nodes) {
            assert_eq!(t.idom(v), idom, "{label}: idom({v})");
        }
        for &v in &nodes {
            assert_eq!(t.descendants(v), reference_descendants(&t, v), "{label}: T.des({v})");
        }
    }
    let mut candidates = 0;
    for (h, hot) in [("profile", s.eval.hotspots_base.clone()), ("random", random_hotspots(g, seed))] {
        for l in LEVELS {
            let what = format!("{label} hotspots={h} L={l}");
            let built = FTree::build(g, &hot, l);
            assert_same_tree(&built, &reference_build(g, &hot, l), &format!("{what} build"));
            let refreshed = s.ftree.refreshed(g, &hot, l);
            assert_same_tree(&refreshed, &reference_refreshed(&s.ftree, g, &hot, l), &format!("{what} refreshed"));
            candidates += built.len();
        }
    }
    candidates
}

/// A seeded rewrite lineage: at each step, enable one fission region
/// when the tree offers one, then apply one randomly chosen
/// re-materialization, swap or TASO rule, re-analyzing stale trees.
fn lineage(g: Graph, steps: usize, seed: u64, label: &str) {
    let ctx = EvalContext::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut s = MState::initial(g, &ctx);
    s.analyze(4);
    let (mut with_enabled, mut rewritten) = (0, 0);
    for step in 0..steps {
        let batch = rules::generate(&s, &RuleConfig::default());
        let (fission, graph): (Vec<_>, Vec<_>) =
            batch.into_iter().partition(|t| matches!(t, Transform::FTree(_)));
        for pool in [fission, graph] {
            if pool.is_empty() {
                continue;
            }
            let t = &pool[rng.gen_range(0..pool.len())];
            let Ok(applied) = rules::apply(&s, t) else { continue };
            // Children are evaluated from scratch: the lineage feeds
            // the analyzer, it does not exercise the delta evaluator.
            let mut child = MState {
                base: applied.base,
                ftree: applied.ftree,
                eval: s.eval.clone(),
                tree_stale: applied.tree_stale || s.tree_stale,
            }
            .rescheduled(&ctx);
            if child.tree_stale {
                child.analyze(4);
            }
            rewritten += usize::from(!matches!(t, Transform::FTree(_)));
            s = child;
        }
        with_enabled += usize::from(!s.ftree.enabled_order().is_empty());
        check_state(&s, &format!("{label} step {step}"), seed ^ step as u64);
    }
    assert!(with_enabled > 0 && rewritten > 0, "{label}: {with_enabled} states with enabled regions, {rewritten} rewrites");
}

#[test]
fn bench_models_match_the_reference_at_two_scales() {
    let mut candidates = 0;
    for w in Workload::all() {
        for scale in [0.05, 0.1] {
            let s = MState::initial(w.build(scale).graph, &EvalContext::default());
            candidates += check_state(&s, &format!("{} @{scale}", w.label()), 7);
        }
    }
    assert!(candidates > 0, "the bench models must yield candidates");
}

#[test]
fn random_dnns_match_the_reference() {
    let cfg = RandomDnnConfig { batch: 4, channels: 8, hw: 8, cells: 3, blocks: 4 };
    for seed in 1..=6 {
        let s = MState::initial(random_dnn(&cfg, seed), &EvalContext::default());
        check_state(&s, &format!("random_dnn seed {seed}"), seed);
    }
}

#[test]
fn rewrite_lineages_match_the_reference() {
    lineage(Workload::BertBase.build(0.05).graph, 5, 11, "bert lineage");
    lineage(Workload::UNet.build(0.05).graph, 5, 12, "unet lineage");
    let cfg = RandomDnnConfig { batch: 4, channels: 8, hw: 8, cells: 3, blocks: 4 };
    lineage(random_dnn(&cfg, 3), 5, 13, "random_dnn lineage");
}

#[test]
fn petabyte_graphs_take_the_replayed_fold_and_match_the_reference() {
    // Activations of about 2^50 bytes whose sizes are not powers of
    // two: region sums pass 2^53 bytes, where f64 folds round and the
    // ascending-id fold is replayed instead of the exact integer sum.
    let mut b = GraphBuilder::new(DType::F32);
    let mut cur = b.input([(1 << 26) + 3, 1 << 22], "x");
    for i in 0..16 {
        let w = b.weight([1 << 22, 1 << 22], &format!("w{i}"));
        let h = b.matmul(cur, w);
        cur = if i % 3 == 0 { b.gelu(h) } else { b.relu(h) };
    }
    let g = b.finish();
    let all: BTreeSet<NodeId> = g.node_ids().collect();
    let mut candidates = 0;
    for (h, hot) in [("all", all), ("random", random_hotspots(&g, 5))] {
        for l in LEVELS {
            let built = FTree::build(&g, &hot, l);
            assert_same_tree(&built, &reference_build(&g, &hot, l), &format!("petabyte hotspots={h} L={l}"));
            candidates += built.len();
        }
    }
    assert!(candidates > 0, "the petabyte chain must yield candidates");
}
