//! The Fission Hierarchy Tree (F-Tree, §4.3) and its mutation rules
//! (§5.1, Fig. 7).
//!
//! Each tree node records a fission candidate `f = (S, D, n)`. `n = 1`
//! means *disabled* (a candidate); `n > 1` means the region is split
//! into `n` sequentially executed parts. Candidates are constructed by
//! Algorithm 1: dominator-tree regions ranked by "memory heat" —
//! the total size of memory hot-spots they dominate — minus the size of
//! the inputs that must stay resident, stratified into `L` score
//! intervals so the tree offers both coarse and fine fission choices.
//!
//! Construction runs on every stale M-State, so it works on dense,
//! node-indexed tables: each dominated region is a preorder interval
//! of the dominator tree, heat is a prefix-sum difference over that
//! preorder, region inputs come from epoch-stamped marks, and tree
//! sets are built only for the regions that become candidates. The
//! result is bit-identical to the set-based construction it replaced
//! (`tests/ftree_differential.rs` keeps that construction as its
//! reference): same node sets, dims, levels and parent/children order,
//! and heat/input sums equal to the ascending-id f64 folds (see
//! `fold_sizes`).

use magis_graph::GraphView;
use crate::dgraph::{component_dims, DimGraph};
use crate::fission::FissionSpec;
use magis_graph::algo::dominator::DomTree;
use magis_graph::graph::{Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// One node of the F-Tree.
#[derive(Debug, Clone)]
pub struct FTreeNode {
    /// The fission candidate; `spec.parts == 1` means disabled.
    pub spec: FissionSpec,
    /// Parent index in the tree (None: root candidate).
    pub parent: Option<usize>,
    /// Child indices (regions strictly nested inside this one).
    pub children: Vec<usize>,
    /// Score interval the candidate came from (1 ..= L), for diagnostics.
    pub level: usize,
}

impl FTreeNode {
    /// Whether this node's fission is currently applied.
    pub fn enabled(&self) -> bool {
        self.spec.parts > 1
    }
}

/// The F-Tree: a forest of nested fission candidates.
#[derive(Debug, Clone, Default)]
pub struct FTree {
    nodes: Vec<FTreeNode>,
}

/// Restricts a component to the nodes reachable from its "dominant"
/// entry — the entry node with the largest reachable set within the
/// component. `comp` is ascending and so is the result. Returns `None`
/// when the component has no entry (cannot happen for DAG-induced
/// sets, defensively handled).
fn dominant_entry_region(g: &Graph, comp: &[NodeId], marks: &mut Marks) -> Option<Vec<NodeId>> {
    // Dense membership; `marks` is re-stamped per reach walk. Raw
    // neighbour slices: duplicates are harmless for both the entry
    // test and the reach DFS.
    let mut member = vec![false; g.capacity()];
    for &v in comp {
        member[v.index()] = true;
    }
    let mut stack = Vec::new();
    let mut reach = |e: NodeId, marks: &mut Marks| -> (u32, usize) {
        let seen = marks.next();
        marks.set(e, seen);
        stack.push(e);
        let mut count = 0;
        while let Some(v) = stack.pop() {
            count += 1;
            for &s in g.node(v).succs() {
                if member[s.index()] && !marks.is(s, seen) {
                    marks.set(s, seen);
                    stack.push(s);
                }
            }
        }
        (seen, count)
    };
    let mut best: Option<(NodeId, usize)> = None;
    for &e in comp {
        let n = g.node(e);
        if n.inputs().iter().chain(n.keepalive()).any(|p| member[p.index()]) {
            continue; // not an entry
        }
        let (_, count) = reach(e, marks);
        // `max_by_key` keeps the *last* maximum among ties; entries are
        // visited in ascending order, so `>=` replicates it.
        if best.is_none_or(|(_, b)| count >= b) {
            best = Some((e, count));
        }
    }
    let (e, _) = best?;
    let (seen, _) = reach(e, marks);
    Some(comp.iter().copied().filter(|&v| marks.is(v, seen)).collect())
}

/// Epoch-stamped node marks: `next()` opens a fresh stamp, so one
/// capacity-sized table serves every membership test of a build
/// without clearing.
struct Marks {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Marks {
    fn new(capacity: usize) -> Self {
        Marks { stamp: vec![0; capacity], epoch: 0 }
    }

    fn next(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    fn set(&mut self, v: NodeId, epoch: u32) {
        self.stamp[v.index()] = epoch;
    }

    fn is(&self, v: NodeId, epoch: u32) -> bool {
        self.stamp[v.index()] == epoch
    }
}

/// Byte sizes of `ids` summed exactly as an f64 fold in ascending id
/// order would sum them. `total` is their exact integer sum (a `u128`
/// cannot overflow: it adds at most 2^32 terms below 2^64). Sizes are
/// integers, so when `total <= 2^53` every term and every partial sum
/// of that fold is an exactly representable f64 and the fold equals
/// `total as f64` whatever the order; above 2^53 bytes (8 PiB) f64
/// rounding makes the fold order-dependent, so it is replayed. The
/// one difference is the sign of a zero sum (an empty fold gives
/// `-0.0`), which no score comparison can see: a score `<= 0` is below
/// every level's positive lower bound.
fn fold_sizes(g: &Graph, total: u128, ids: impl FnOnce() -> Vec<NodeId>) -> f64 {
    if total <= 1 << f64::MANTISSA_DIGITS {
        return total as f64;
    }
    let mut ids = ids();
    ids.sort_unstable();
    ids.iter().map(|&v| g.node(v).size_bytes() as f64).sum()
}

/// A mutation of one F-Tree node (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FTreeMutation {
    /// Enable a disabled leaf, or a parent of an enabled node that has
    /// no enabled ancestors (Fig. 7 (a)). Sets `n = 2`.
    Enable(usize),
    /// Disable an enabled node without enabled ancestors and enable its
    /// parent (Fig. 7 (b)).
    Lift(usize),
    /// Disable an enabled node with no enabled descendants (Fig. 7 (c)).
    Disable(usize),
    /// Increase an enabled node's `n` to the next divisor of the split
    /// dimension length (Fig. 7 (d)).
    Mutate(usize),
}

impl FTreeMutation {
    /// The tree node the mutation acts on.
    fn node(self) -> usize {
        match self {
            FTreeMutation::Enable(i)
            | FTreeMutation::Lift(i)
            | FTreeMutation::Disable(i)
            | FTreeMutation::Mutate(i) => i,
        }
    }
}

impl FTree {
    /// Builds the F-Tree for `g` with hot-spots `h` and max-level `l`
    /// (Algorithm 1).
    ///
    /// Works on dense tables: the D-Graph's sorted components give a
    /// per-component node → dim table, the dominator tree gives every
    /// region as a preorder interval, heat comes from prefix sums over
    /// that preorder and region inputs from epoch marks. Tree sets and
    /// maps are built only for the regions that become candidates.
    pub fn build(g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> Self {
        // The per-component node → dim table: a dim, or `AMBIGUOUS`
        // when the node has several vertices in the component.
        const AMBIGUOUS: i32 = 0;
        let dg = DimGraph::build(g);
        let size = |v: NodeId| g.node(v).size_bytes() as u128;
        let mut candidates: Vec<(BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize)> = Vec::new();
        let mut hot = vec![false; g.capacity()];
        for &h in hotspots {
            hot[h.index()] = true;
        }
        let mut dim_of = vec![AMBIGUOUS; g.capacity()];
        let mut marks = Marks::new(g.capacity());
        let mut preds: Vec<NodeId> = Vec::new();
        for comp in dg.sorted_components() {
            // G' := sub-graph of G induced from the component's nodes.
            // The component is sorted, so a node's vertices are
            // adjacent; every entry of `dim_of` read below belongs to
            // this component's nodes and is written here first.
            let mut comp_nodes: Vec<NodeId> = Vec::new();
            for &(v, d) in &comp {
                if comp_nodes.last() == Some(&v) {
                    dim_of[v.index()] = AMBIGUOUS;
                } else {
                    comp_nodes.push(v);
                    dim_of[v.index()] = d;
                }
            }
            if comp_nodes.len() < 2 {
                continue;
            }
            // §2.1: "the dominator tree we use here usually takes the
            // input tensor as the entry" — pick the entry whose
            // reachable set inside the component is largest (the batch
            // input, in training graphs) and ignore secondary entries
            // (labels, mid-graph joins), which would otherwise pull
            // every post-loss node up to the virtual root.
            let comp_nodes = dominant_entry_region(g, &comp_nodes, &mut marks).unwrap_or(comp_nodes);
            if comp_nodes.len() < 2 {
                continue;
            }
            let t = DomTree::compute(g, &comp_nodes);
            let order = t.preorder();
            // Scores per Eq. (3)/(4) with n = 2 over each node's strict
            // descendants, `order[k + 1..end]` for the node at preorder
            // index `k`. Heat is a prefix-sum difference; region inputs
            // are the unique preds outside the interval, found with
            // epoch marks. `None` marks a leaf (empty region, no score).
            let mut hot_prefix = vec![0u128; order.len() + 1];
            for (k, &w) in order.iter().enumerate() {
                hot_prefix[k + 1] = hot_prefix[k] + if hot[w.index()] { size(w) } else { 0 };
            }
            let mut scores: Vec<Option<f64>> = vec![None; order.len()];
            for (k, &v) in order.iter().enumerate() {
                let region = t.interval(v);
                let inner = k + 1..region.end;
                if inner.is_empty() {
                    continue;
                }
                let heat = fold_sizes(g, hot_prefix[region.end] - hot_prefix[k + 1], || {
                    order[inner.clone()].iter().copied().filter(|w| hot[w.index()]).collect()
                });
                let outside = |p: NodeId| t.preorder_index(p).is_none_or(|i| !inner.contains(&i));
                let seen = marks.next();
                preds.clear();
                let mut inputs = 0u128;
                for &w in &order[inner.clone()] {
                    let nd = g.node(w);
                    for &p in nd.inputs().iter().chain(nd.keepalive()) {
                        if !marks.is(p, seen) && outside(p) {
                            marks.set(p, seen);
                            if !hot[p.index()] {
                                preds.push(p);
                                inputs += size(p);
                            }
                        }
                    }
                }
                let inputs = fold_sizes(g, inputs, || std::mem::take(&mut preds));
                scores[k] = Some(0.5 * heat - inputs);
            }
            let smax = scores.iter().flatten().copied().fold(f64::MIN, f64::max);
            if smax <= 0.0 {
                continue;
            }
            // Stratify into L intervals; in each interval keep the
            // dominator-tree-deepest nodes (no descendant in the same
            // interval), visited in ascending id order. A prefix count
            // of the interval's members over the preorder answers "any
            // descendant in the interval" per node.
            let mut members = vec![0u32; order.len() + 1];
            for i in 1..=l {
                let lo = i as f64 / l as f64;
                let hi = (i + 1) as f64 / l as f64;
                let in_level = |k: usize| {
                    scores[k].is_some_and(|s| {
                        let ns = s / smax;
                        ns >= lo && (ns < hi || (i == l && ns <= 1.0))
                    })
                };
                for k in 0..order.len() {
                    members[k + 1] = members[k] + u32::from(in_level(k));
                }
                for &vdom in &comp_nodes {
                    let region = t.interval(vdom);
                    let k = region.start;
                    if !in_level(k) || members[region.end] > members[k + 1] {
                        continue;
                    }
                    let inner = &order[k + 1..region.end];
                    if inner.iter().any(|w| dim_of[w.index()] == AMBIGUOUS) {
                        continue;
                    }
                    let s: BTreeSet<NodeId> = inner.iter().copied().collect();
                    let dims: BTreeMap<NodeId, i32> = s.iter().map(|&w| (w, dim_of[w.index()])).collect();
                    // "if f is valid": structural validation with the
                    // minimum useful part count.
                    let probe = FissionSpec { set: s, dims, parts: 2 };
                    if probe.validate_with(g, Some(&dg)).is_ok() {
                        candidates.push((probe.set, probe.dims, i));
                    }
                }
            }
        }
        Self::assemble(candidates)
    }

    /// Reassembles an F-Tree from externally stored nodes (checkpoint
    /// resume). The caller is responsible for index validity
    /// (`parent`/`children` in range); specs are re-validated against
    /// the base graph the next time the tree is applied or refreshed.
    pub fn from_nodes(nodes: Vec<FTreeNode>) -> Self {
        FTree { nodes }
    }

    /// Builds a *naïve* F-Tree (ablation §7.2.5 "naïve-fission"):
    /// random valid sub-graphs and dimensions, ignoring dominator and
    /// hot-spot analysis.
    pub fn build_naive(g: &Graph, count: usize, seed: u64) -> Self {
        use magis_util::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let dg = DimGraph::build(g);
        let comps = dg.components();
        if comps.is_empty() {
            return FTree::default();
        }
        let order = magis_graph::algo::topo_order(g);
        let mut candidates = Vec::new();
        let mut tries = 0;
        while candidates.len() < count && tries < count * 40 {
            tries += 1;
            let comp = &comps[rng.gen_range(0..comps.len())];
            let comp_nodes: Vec<NodeId> = {
                let s: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
                order.iter().copied().filter(|v| s.contains(v)).collect()
            };
            if comp_nodes.len() < 2 {
                continue;
            }
            // Random contiguous run of the component's topo order.
            let len = rng.gen_range(1..=comp_nodes.len().min(12));
            let start = rng.gen_range(0..=comp_nodes.len() - len);
            let set: BTreeSet<NodeId> =
                comp_nodes[start..start + len].iter().copied().collect();
            let Some(dims) = component_dims(comp, &set) else { continue };
            let mut probe = FissionSpec { set: set.clone(), dims: dims.clone(), parts: 2 };
            if probe.validate(g).is_ok() {
                probe.parts = 1;
                candidates.push((set, dims, 1));
            }
        }
        Self::assemble(candidates)
    }

    /// Assembles a forest from candidate regions by containment. Dom
    /// regions from one tree are either nested or disjoint; cross-
    /// component duplicates are deduplicated by node set.
    fn assemble(mut candidates: Vec<(BTreeSet<NodeId>, BTreeMap<NodeId, i32>, usize)>) -> Self {
        // Dedup by set, keep first (lowest interval).
        candidates.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then_with(|| a.0.cmp(&b.0)));
        candidates.dedup_by(|a, b| a.0 == b.0);
        let mut tree = FTree { nodes: Vec::new() };
        for (set, dims, level) in candidates {
            // Parent: the smallest existing node strictly containing set.
            let mut parent: Option<usize> = None;
            for (i, n) in tree.nodes.iter().enumerate() {
                if n.spec.set.len() > set.len() && set.is_subset(&n.spec.set) {
                    match parent {
                        Some(p) if tree.nodes[p].spec.set.len() <= n.spec.set.len() => {}
                        _ => parent = Some(i),
                    }
                }
            }
            let idx = tree.nodes.len();
            tree.nodes.push(FTreeNode {
                spec: FissionSpec { set, dims, parts: 1 },
                parent,
                children: Vec::new(),
                level,
            });
            if let Some(p) = parent {
                tree.nodes[p].children.push(idx);
            }
        }
        tree
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no candidates.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, i: usize) -> &FTreeNode {
        &self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[FTreeNode] {
        &self.nodes
    }

    /// Enabled node indices, parents before children (application
    /// order for overlays).
    pub fn enabled_order(&self) -> Vec<usize> {
        let mut out: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.nodes[i].enabled()).collect();
        out.sort_by_key(|&i| std::cmp::Reverse(self.nodes[i].spec.set.len()));
        out
    }

    fn has_enabled_ancestor(&self, i: usize) -> bool {
        let mut cur = self.nodes[i].parent;
        while let Some(p) = cur {
            if self.nodes[p].enabled() {
                return true;
            }
            cur = self.nodes[p].parent;
        }
        false
    }

    fn has_enabled_descendant(&self, i: usize) -> bool {
        self.nodes[i]
            .children
            .iter()
            .any(|&c| self.nodes[c].enabled() || self.has_enabled_descendant(c))
    }

    /// Whether every graph node of `set` avoids *partially* overlapping
    /// any fission region (transformations must not span region
    /// boundaries, §3).
    pub fn allows_transform(&self, set: &BTreeSet<NodeId>) -> bool {
        for n in &self.nodes {
            if !n.enabled() {
                continue;
            }
            let inter = n.spec.set.intersection(set).count();
            if inter != 0 && inter != set.len() {
                return false;
            }
        }
        true
    }

    /// Legal mutations of the current tree (the rule generator of §5.1),
    /// per node in index order: `Lift`, `Disable`, `Mutate` for an
    /// enabled node, `Enable` for a disabled one.
    pub fn legal_mutations(&self, g: &Graph) -> Vec<FTreeMutation> {
        use FTreeMutation::{Disable, Enable, Lift, Mutate};
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            let kinds: &[fn(usize) -> FTreeMutation] =
                if n.enabled() { &[Lift, Disable, Mutate] } else { &[Enable] };
            out.extend(kinds.iter().map(|kind| kind(i)).filter(|&m| self.is_legal(g, m)));
        }
        out
    }

    /// Whether `m` is currently legal: one node's test of
    /// [`legal_mutations`](Self::legal_mutations).
    fn is_legal(&self, g: &Graph, m: FTreeMutation) -> bool {
        let i = m.node();
        let Some(n) = self.nodes.get(i) else { return false };
        match m {
            FTreeMutation::Lift(_) => {
                n.enabled()
                    && !self.has_enabled_ancestor(i)
                    && n.parent.is_some_and(|p| !self.nodes[p].enabled())
            }
            FTreeMutation::Disable(_) => n.enabled() && !self.has_enabled_descendant(i),
            FTreeMutation::Mutate(_) => n.enabled() && self.next_parts(g, i).is_some(),
            FTreeMutation::Enable(_) => {
                let leaf = n.children.is_empty();
                let parent_of_enabled_chain = n.children.iter().any(|&c| self.nodes[c].enabled());
                !n.enabled()
                    && (leaf || parent_of_enabled_chain)
                    && !self.has_enabled_ancestor(i)
                    && self.mutated(g, i, 2).validate(g).is_ok()
            }
        }
    }

    /// The smallest valid part count greater than the node's current
    /// one: the next divisor of the minimum split-dimension extent.
    fn next_parts(&self, g: &Graph, i: usize) -> Option<u64> {
        let n = &self.nodes[i];
        let extent = n
            .spec
            .dims
            .iter()
            .filter(|&(_, &d)| d > 0)
            .map(|(&v, &d)| {
                // Extents are taken from the *base* graph (specs refer
                // to un-overlaid shapes).
                g.node(v).meta.shape.dim((d - 1) as usize)
            })
            .min()?;
        ((n.spec.parts + 1)..=extent).find(|k| extent % k == 0)
    }

    fn mutated(&self, _g: &Graph, i: usize, parts: u64) -> FissionSpec {
        let mut spec = self.nodes[i].spec.clone();
        spec.parts = parts;
        spec
    }

    /// Rebuilds the candidate tree for an updated graph while
    /// preserving currently enabled regions (M-Analyzer refresh,
    /// Algorithm 3 line 13): enabled regions whose node set survives
    /// keep their part counts; enabled regions that no longer appear as
    /// candidates are carried over verbatim so an in-flight fission is
    /// never silently dropped.
    pub fn refreshed(&self, g: &Graph, hotspots: &BTreeSet<NodeId>, l: usize) -> FTree {
        let mut t = FTree::build(g, hotspots, l);
        for old in self.nodes.iter().filter(|n| n.enabled()) {
            if let Some(pos) = t.nodes.iter().position(|n| n.spec.set == old.spec.set) {
                t.nodes[pos].spec.parts = old.spec.parts;
            } else if old.spec.validate(g).is_ok() {
                // Re-insert as a candidate, then hook containment.
                let idx = t.nodes.len();
                let mut parent: Option<usize> = None;
                for (i, n) in t.nodes.iter().enumerate() {
                    if n.spec.set.len() > old.spec.set.len()
                        && old.spec.set.is_subset(&n.spec.set)
                        && parent.is_none_or(|p| t.nodes[p].spec.set.len() > n.spec.set.len())
                    {
                        parent = Some(i);
                    }
                }
                t.nodes.push(FTreeNode {
                    spec: old.spec.clone(),
                    parent,
                    children: Vec::new(),
                    level: old.level,
                });
                if let Some(p) = parent {
                    t.nodes[p].children.push(idx);
                }
            }
        }
        t
    }

    /// Applies a mutation, returning the changed tree and the graph
    /// region affected (for incremental scheduling).
    ///
    /// # Errors
    ///
    /// Returns `Err` if the mutation is not currently legal.
    pub fn apply(&self, g: &Graph, m: FTreeMutation) -> Result<(FTree, BTreeSet<NodeId>), String> {
        if !self.is_legal(g, m) {
            return Err(format!("illegal F-Tree mutation {m:?}"));
        }
        let mut t = self.clone();
        let region = match m {
            FTreeMutation::Enable(i) => {
                t.nodes[i].spec.parts = 2;
                t.nodes[i].spec.set.clone()
            }
            FTreeMutation::Lift(i) => {
                // Unwrap audit: `is_legal` (checked above) holds Lift
                // only for nodes with a parent, and Mutate only for
                // nodes whose split dimension has a next divisor.
                let p = t.nodes[i].parent.expect("lift requires a parent");
                t.nodes[i].spec.parts = 1;
                t.nodes[p].spec.parts = 2;
                t.nodes[p].spec.set.clone()
            }
            FTreeMutation::Disable(i) => {
                t.nodes[i].spec.parts = 1;
                t.nodes[i].spec.set.clone()
            }
            FTreeMutation::Mutate(i) => {
                let next = t.next_parts(g, i).expect("legal mutate has next parts");
                t.nodes[i].spec.parts = next;
                t.nodes[i].spec.set.clone()
            }
        };
        Ok((t, region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory_profile;

    /// Deep MLP whose activations dominate memory.
    fn mlp(depth: usize) -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256, 64], "x");
        for i in 0..depth {
            let w = b.weight([64, 64], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        b.finish()
    }

    fn hotspots(g: &Graph) -> BTreeSet<NodeId> {
        memory_profile(g, &topo_order(g)).hotspots
    }

    #[test]
    fn build_finds_candidates_on_mlp() {
        let g = mlp(6);
        let h = hotspots(&g);
        let t = FTree::build(&g, &h, 4);
        assert!(!t.is_empty(), "MLP must yield fission candidates");
        for n in t.nodes() {
            assert_eq!(n.spec.parts, 1, "initial tree is disabled");
            let mut probe = n.spec.clone();
            probe.parts = 2;
            probe.validate(&g).unwrap();
        }
    }

    #[test]
    fn tree_nesting_by_containment() {
        let g = mlp(8);
        let t = FTree::build(&g, &hotspots(&g), 4);
        for (i, n) in t.nodes().iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(n.spec.set.is_subset(&t.node(p).spec.set));
                assert!(t.node(p).children.contains(&i));
            }
        }
    }

    #[test]
    fn enable_disable_cycle() {
        let g = mlp(6);
        let t = FTree::build(&g, &hotspots(&g), 4);
        let muts = t.legal_mutations(&g);
        let enable = muts
            .iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .copied()
            .expect("some enable available");
        let (t2, region) = t.apply(&g, enable).unwrap();
        assert!(!region.is_empty());
        assert_eq!(t2.enabled_order().len(), 1);
        // The enabled node can now be disabled or mutated.
        let muts2 = t2.legal_mutations(&g);
        assert!(muts2.iter().any(|m| matches!(m, FTreeMutation::Disable(_))));
        let disable = muts2
            .iter()
            .find(|m| matches!(m, FTreeMutation::Disable(_)))
            .copied()
            .unwrap();
        let (t3, _) = t2.apply(&g, disable).unwrap();
        assert!(t3.enabled_order().is_empty());
    }

    #[test]
    fn mutate_increases_to_next_divisor() {
        let g = mlp(6);
        let t = FTree::build(&g, &hotspots(&g), 4);
        let enable = t
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .unwrap();
        let (t2, _) = t.apply(&g, enable).unwrap();
        let i = t2.enabled_order()[0];
        assert_eq!(t2.node(i).spec.parts, 2);
        if let Some(FTreeMutation::Mutate(j)) = t2
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Mutate(_)))
        {
            let (t3, _) = t2.apply(&g, FTreeMutation::Mutate(j)).unwrap();
            // Batch extent 256: next divisor after 2 is 4.
            assert_eq!(t3.node(j).spec.parts, 4);
        }
    }

    #[test]
    fn illegal_mutations_rejected() {
        let g = mlp(4);
        let t = FTree::build(&g, &hotspots(&g), 4);
        // Disabling a disabled node is illegal.
        assert!(t.apply(&g, FTreeMutation::Disable(0)).is_err());
    }

    #[test]
    fn allows_transform_respects_boundaries() {
        let g = mlp(6);
        let t = FTree::build(&g, &hotspots(&g), 4);
        let enable = t
            .legal_mutations(&g)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .unwrap();
        let (t2, region) = t.apply(&g, enable).unwrap();
        // A set fully inside is fine; one straddling the boundary is not.
        let inside: BTreeSet<NodeId> = region.iter().take(1).copied().collect();
        assert!(t2.allows_transform(&inside));
        let outside_node = g.node_ids().find(|v| !region.contains(v)).unwrap();
        let straddle: BTreeSet<NodeId> =
            [*region.iter().next().unwrap(), outside_node].into_iter().collect();
        assert!(!t2.allows_transform(&straddle));
    }

    /// `apply` accepts exactly the mutations `legal_mutations` lists,
    /// for every index (one past the end included) and every kind, on
    /// trees with none, one and two regions enabled.
    #[test]
    fn apply_accepts_exactly_the_legal_mutations() {
        use crate::state::{EvalContext, MState};
        use magis_models::Workload;
        for w in [Workload::BertBase, Workload::UNet] {
            let mut s = MState::initial(w.build(0.05).graph, &EvalContext::default());
            s.analyze(4);
            let (g, mut t) = (s.base, s.ftree);
            let mut enabled = 0;
            for round in 0..3 {
                let legal = t.legal_mutations(&g);
                for i in 0..=t.len() {
                    for m in [
                        FTreeMutation::Enable(i),
                        FTreeMutation::Lift(i),
                        FTreeMutation::Disable(i),
                        FTreeMutation::Mutate(i),
                    ] {
                        assert_eq!(
                            t.apply(&g, m).is_ok(),
                            legal.contains(&m),
                            "{} round {round}: {m:?}",
                            w.label()
                        );
                    }
                }
                // Enable the last legal candidate (a leaf far from the
                // previous one) for the next round.
                let Some(&m) = legal.iter().rev().find(|m| matches!(m, FTreeMutation::Enable(_))) else {
                    break;
                };
                t = t.apply(&g, m).unwrap().0;
                enabled += 1;
            }
            assert!(enabled >= 2, "{}: the test must see enabled regions", w.label());
        }
    }

    /// Below 2^53 bytes the exact integer total is the fold; above it
    /// the ascending-id fold is replayed, rounding included: 2^53 + 1
    /// rounds back to 2^53 twice, where the integer total is 2^53 + 2.
    #[test]
    fn fold_sizes_equals_the_ascending_f64_fold() {
        let mut b = GraphBuilder::new(DType::Bool);
        let big = b.input([1 << 53], "big"); // 2^53 bytes
        let mut ids = vec![big];
        for i in 0..2 {
            ids.push(b.input([1], &format!("s{i}"))); // 1 byte each
        }
        let g = b.finish();
        let fold = |ids: &[NodeId]| ids.iter().map(|&v| g.node(v).size_bytes() as f64).sum::<f64>();
        let total = |ids: &[NodeId]| ids.iter().map(|&v| g.node(v).size_bytes() as u128).sum::<u128>();
        // Small terms only: exact.
        let smalls = &ids[1..];
        assert_eq!(fold_sizes(&g, total(smalls), || smalls.to_vec()).to_bits(), fold(smalls).to_bits());
        // Past 2^53 the fold rounds; the replay reproduces it bit for bit.
        let replayed = fold_sizes(&g, total(&ids), || ids.iter().rev().copied().collect());
        assert_eq!(replayed.to_bits(), fold(&ids).to_bits());
        assert_ne!(replayed, total(&ids) as f64, "this sum must round in f64");
    }

    #[test]
    fn naive_tree_builds_valid_candidates() {
        let g = mlp(6);
        let t = FTree::build_naive(&g, 8, 42);
        for n in t.nodes() {
            let mut probe = n.spec.clone();
            probe.parts = 2;
            probe.validate(&g).unwrap();
        }
    }
}
