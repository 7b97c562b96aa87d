//! Fission transformations (F-Trans, §4.2 of the paper).
//!
//! An F-Trans `f = (S, D, n)` splits the convex, weakly connected
//! sub-graph `G[S]` into `n` sequentially executed parts along the
//! graph-level dimension described by the per-node dim choice `D`.
//! Inputs with a participating dimension are sliced per part; others
//! (typically weights) are shared. Outputs whose chosen dimension is
//! spatial are concatenated from the parts; outputs chosen on a reduce
//! axis are summed (the weight-gradient case of Fig. 5).
//!
//! Two application modes exist:
//!
//! * [`apply_overlay`] — the F-Tree representation (§4.3): keep only
//!   one *representative part* in the graph, scale shapes by `1/n`,
//!   multiply the region's `cost_repeat`, and insert
//!   `PartSlice`/`Merge` boundary nodes plus keepalive edges so the
//!   memory/latency simulation sees exactly the split execution. Graph
//!   size stays O(|S|) instead of O(n·|S|).
//! * [`apply_full`] — materialize all `n` parts explicitly (what the
//!   paper avoids; used here to cross-validate the overlay and in
//!   examples).

use magis_graph::algo::topo::topo_order_of;
use magis_graph::algo::{is_convex, is_weakly_connected};
use magis_graph::graph::{Graph, NodeId};
use magis_graph::{GraphTxn, GraphView};
use magis_graph::op::{DimLink, MergeKind, OpKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A fission transformation `f = (S, D, n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FissionSpec {
    /// The sub-graph `S ⊆ V(G)`.
    pub set: BTreeSet<NodeId>,
    /// Per-node dimension choice: `> 0` is the 1-based output dim,
    /// `< 0` the (negated) reduce axis (see [`crate::dgraph`]).
    pub dims: BTreeMap<NodeId, i32>,
    /// The fission number `n` (number of parts).
    pub parts: u64,
}

/// Why a [`FissionSpec`] is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FissionError {
    /// `S` empty or `dims` does not cover exactly `S`.
    BadCoverage,
    /// A node of `S` is not live in the graph.
    DeadNode(NodeId),
    /// `G[S]` is not weakly connected (constraint 1).
    NotConnected,
    /// `G[S]` is not convex (constraint 2).
    NotConvex,
    /// An internal edge is not covered by the dimension choice
    /// (constraint 3: the split would duplicate computation).
    UncoveredEdge(NodeId, NodeId),
    /// A node's chosen output dimension cannot be split (normalization
    /// axis, sliding window, …).
    UnsplittableDim(NodeId, i32),
    /// A node chosen on its reduce axis has consumers inside `S`
    /// (partial values must only be merged, never consumed).
    InteriorReduce(NodeId),
    /// The chosen dimension's extent is smaller than the part count.
    ExtentTooSmall(NodeId, u64),
    /// `S` contains swap or fission bookkeeping operators.
    ForbiddenOp(NodeId),
    /// An input would need slicing along two different axes.
    AmbiguousInputSlice(NodeId),
    /// `parts` must be at least 2 to transform the graph.
    TrivialParts,
}

impl fmt::Display for FissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FissionError::BadCoverage => write!(f, "dims must cover exactly the node set"),
            FissionError::DeadNode(v) => write!(f, "node {v} is not live"),
            FissionError::NotConnected => write!(f, "sub-graph is not weakly connected"),
            FissionError::NotConvex => write!(f, "sub-graph is not convex"),
            FissionError::UncoveredEdge(u, v) => {
                write!(f, "edge {u} -> {v} not covered by the dimension choice")
            }
            FissionError::UnsplittableDim(v, d) => {
                write!(f, "dimension {d} of {v} cannot be split")
            }
            FissionError::InteriorReduce(v) => {
                write!(f, "reduce-dim node {v} has consumers inside the region")
            }
            FissionError::ExtentTooSmall(v, e) => {
                write!(f, "extent {e} of {v} is smaller than the part count")
            }
            FissionError::ForbiddenOp(v) => write!(f, "node {v} is a swap/fission operator"),
            FissionError::AmbiguousInputSlice(u) => {
                write!(f, "input {u} would be sliced along two axes")
            }
            FissionError::TrivialParts => write!(f, "fission needs at least 2 parts"),
        }
    }
}

impl std::error::Error for FissionError {}

/// Result of applying an overlay: the nodes involved, for incremental
/// scheduling and undo-free F-Tree re-evaluation.
#[derive(Debug, Clone)]
pub struct OverlayInfo {
    /// `PartSlice` nodes inserted on sliced inputs.
    pub slices: Vec<NodeId>,
    /// `Merge` nodes inserted on region outputs.
    pub merges: Vec<NodeId>,
}

impl FissionSpec {
    /// Validates the spec against `g` (`parts` may be 1 for a
    /// candidate that has not been enabled yet — structural checks
    /// still apply).
    ///
    /// # Errors
    ///
    /// Returns the first violated F-Trans constraint.
    pub fn validate<G: GraphView>(&self, g: &G) -> Result<(), FissionError> {
        if self.set.is_empty()
            || self.dims.len() != self.set.len()
            || !self.dims.keys().all(|v| self.set.contains(v))
        {
            return Err(FissionError::BadCoverage);
        }
        for &v in &self.set {
            if !g.contains(v) {
                return Err(FissionError::DeadNode(v));
            }
            if matches!(
                g.node(v).op,
                OpKind::Store | OpKind::Load | OpKind::PartSlice { .. } | OpKind::Merge { .. }
            ) {
                return Err(FissionError::ForbiddenOp(v));
            }
        }
        if !is_weakly_connected(g, &self.set) {
            return Err(FissionError::NotConnected);
        }
        if !is_convex(g, &self.set) {
            return Err(FissionError::NotConvex);
        }
        for (&v, &d) in &self.dims {
            let n = g.node(v);
            if d > 0 {
                let axis = (d - 1) as usize;
                if axis >= n.meta.shape.rank()
                    || !n.op.splittable_output_dims(&n.meta)[axis]
                {
                    return Err(FissionError::UnsplittableDim(v, d));
                }
                let extent = n.meta.shape.dim(axis);
                if extent < self.parts.max(2) {
                    return Err(FissionError::ExtentTooSmall(v, extent));
                }
            } else {
                let r = (-d - 1) as usize;
                if r >= n.op.num_reduce_axes() {
                    return Err(FissionError::UnsplittableDim(v, d));
                }
                if g.suc(v).iter().any(|s| self.set.contains(s)) {
                    return Err(FissionError::InteriorReduce(v));
                }
            }
        }
        // Constraint 3: every internal edge must be covered by a D-edge
        // between the chosen dims.
        for &v in &self.set {
            let node = g.node(v);
            if node.op.is_input() {
                continue;
            }
            let metas: Vec<_> =
                node.inputs().iter().map(|&u| g.node(u).meta.clone()).collect();
            let links = node.op.input_dim_links(&metas, &node.meta);
            for (slot, &u) in node.inputs().iter().enumerate() {
                if !self.set.contains(&u) {
                    continue;
                }
                let du = self.dims[&u];
                if du < 0 {
                    return Err(FissionError::InteriorReduce(u));
                }
                let covered = match links[slot].get((du - 1) as usize) {
                    Some(l) => match self.dims[&v] {
                        d if d > 0 => l.spatial_dim() == Some((d - 1) as usize),
                        d => *l == DimLink::Reduce((-d - 1) as usize),
                    },
                    None => false,
                };
                if !covered {
                    return Err(FissionError::UncoveredEdge(u, v));
                }
            }
        }
        // Input slice axes must be unambiguous.
        self.input_slice_axes(g)?;
        Ok(())
    }

    /// For each region input: the axis it must be sliced along, or
    /// `None` if shared.
    ///
    /// # Errors
    ///
    /// Returns [`FissionError::AmbiguousInputSlice`] when consumers
    /// disagree.
    pub fn input_slice_axes<G: GraphView>(
        &self,
        g: &G,
    ) -> Result<BTreeMap<NodeId, Option<usize>>, FissionError> {
        let mut out: BTreeMap<NodeId, Option<usize>> = BTreeMap::new();
        for &v in &self.set {
            let node = g.node(v);
            if node.op.is_input() {
                continue;
            }
            let metas: Vec<_> =
                node.inputs().iter().map(|&u| g.node(u).meta.clone()).collect();
            let links = node.op.input_dim_links(&metas, &node.meta);
            let matches_selected = |l: &DimLink| match self.dims[&v] {
                d if d > 0 => l.spatial_dim() == Some((d - 1) as usize),
                d => *l == DimLink::Reduce((-d - 1) as usize),
            };
            for (slot, &u) in node.inputs().iter().enumerate() {
                if self.set.contains(&u) {
                    continue;
                }
                // Weights/labels are never sliced (no D-Graph vertices).
                let axis = if g.node(u).op.in_dim_graph() {
                    links[slot].iter().position(matches_selected)
                } else {
                    None
                };
                match out.get(&u) {
                    None => {
                        out.insert(u, axis);
                    }
                    Some(&prev) if prev == axis => {}
                    // One consumer slices, another shares, or axes
                    // differ: slicing is ambiguous.
                    Some(_) => return Err(FissionError::AmbiguousInputSlice(u)),
                }
            }
        }
        Ok(out)
    }

    /// Region outputs: nodes of `S` read from outside or terminal.
    pub fn outputs<G: GraphView>(&self, g: &G) -> Vec<NodeId> {
        g.set_outputs(&self.set).into_iter().collect()
    }

    /// Total sliding-window halo accumulated along the split axis
    /// (extension E1): the sum over region operators of the overlap
    /// their windows need at part boundaries. Zero for batch/head
    /// splits; `Σ (k−1)` for chains of stride-1 convolutions.
    pub fn region_halo<G: GraphView>(&self, g: &G) -> u64 {
        let mut total = 0u64;
        for (&v, &d) in &self.dims {
            if d <= 0 {
                continue;
            }
            let node = g.node(v);
            if node.op.is_input() {
                continue;
            }
            let metas: Vec<_> =
                node.inputs().iter().map(|&u| g.node(u).meta.clone()).collect();
            let links = node.op.input_dim_links(&metas, &node.meta);
            let halo = links
                .iter()
                .flatten()
                .filter_map(|l| match *l {
                    DimLink::Windowed { dim, halo } if dim == (d - 1) as usize => Some(halo),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            total += halo;
        }
        total
    }
}

/// Applies the representative-part overlay of `spec` to the graph
/// under transaction `g`.
///
/// Must be called on a validated spec with `parts ≥ 2`. Composes with
/// itself: a nested (child) region can be overlaid in the same
/// transaction afterwards, further scaling the shared nodes.
///
/// # Errors
///
/// Returns a [`FissionError`] if the spec does not validate against
/// the transaction's current graph.
pub fn apply_overlay(g: &mut GraphTxn, spec: &FissionSpec) -> Result<OverlayInfo, FissionError> {
    if spec.parts < 2 {
        return Err(FissionError::TrivialParts);
    }
    spec.validate(g)?;
    // Unwrap audit: `validate` has proven every region node and every
    // region input live and well-formed, so the `expect`s on graph
    // edits below (add / add_with_meta / add_keepalive / remove)
    // cannot fire for a validated spec.
    let n = spec.parts;
    let slice_axes = spec.input_slice_axes(g)?;
    let halo = spec.region_halo(g);
    let outputs = spec.outputs(g);
    let entry = topo_order_of(g, &spec.set)[0];

    // Original metas, needed for merge outputs.
    let orig_meta: BTreeMap<NodeId, _> =
        spec.set.iter().map(|&v| (v, g.node(v).meta.clone())).collect();
    let base_repeat: BTreeMap<NodeId, u64> =
        spec.set.iter().map(|&v| (v, g.node(v).cost_repeat)).collect();

    // 1. Slice participating inputs.
    let mut slices = Vec::new();
    for (&u, &axis) in &slice_axes {
        let Some(axis) = axis else { continue };
        let ps = g
            .add(OpKind::PartSlice { axis, parts: n, halo }, &[u])
            .expect("slice of live input");
        g.set_cost_repeat(ps, base_repeat.values().copied().min().unwrap_or(1));
        for &v in &spec.set {
            if g.pre(v).contains(&u) {
                g.replace_input(v, u, ps);
            }
        }
        slices.push(ps);
    }

    // 2. Scale shapes and multiply repeats.
    for (&v, &d) in &spec.dims {
        let rep = g.node(v).cost_repeat;
        g.set_cost_repeat(v, rep * n);
        if d > 0 {
            let axis = (d - 1) as usize;
            let meta = g.node(v).meta.clone();
            let scaled = magis_graph::TensorMeta::new(meta.shape.split_dim(axis, n), meta.dtype);
            g.set_meta(v, scaled);
        }
    }

    // 3. Merge outputs.
    let mut merges = Vec::new();
    for v in outputs {
        let d = spec.dims[&v];
        let (op, meta, repeat) = if d > 0 {
            (
                OpKind::Merge { kind: MergeKind::Concat, axis: (d - 1) as usize, parts: n },
                orig_meta[&v].clone(),
                base_repeat[&v],
            )
        } else {
            (
                OpKind::Merge { kind: MergeKind::Sum, axis: 0, parts: n },
                orig_meta[&v].clone(),
                base_repeat[&v] * n,
            )
        };
        let consumers: Vec<NodeId> =
            g.suc(v).into_iter().filter(|s| !spec.set.contains(s)).collect();
        let m = g.add_with_meta(op, &[v], meta).expect("merge of live output");
        g.set_cost_repeat(m, repeat);
        g.set_alloc_with(m, entry);
        for c in consumers {
            if c != m {
                g.replace_input(c, v, m);
            }
        }
        merges.push(m);
    }

    // 4. Pin region inputs (sliced and shared) for the whole region.
    for &u in slice_axes.keys() {
        for &m in &merges {
            g.add_keepalive(u, m).expect("live endpoints");
        }
    }
    Ok(OverlayInfo { slices, merges })
}

/// Materializes all `n` parts of `spec` explicitly (Fig. 5 (c) style),
/// returning a new graph. Parts are forced to execute sequentially via
/// keepalive edges, matching the overlay's semantics.
///
/// # Errors
///
/// Returns a [`FissionError`] if the spec does not validate.
pub fn apply_full(g: &Graph, spec: &FissionSpec) -> Result<Graph, FissionError> {
    if spec.parts < 2 {
        return Err(FissionError::TrivialParts);
    }
    spec.validate(g)?;
    // Unwrap audit: as in `apply_overlay`, the validated spec makes
    // the graph-edit `expect`s below unreachable.
    let n = spec.parts;
    let slice_axes = spec.input_slice_axes(g)?;
    let outputs = spec.outputs(g);
    let mut out = GraphTxn::begin(g);
    let region_order = topo_order_of(g, &spec.set);

    // Per-part clones of the region.
    let mut part_map: Vec<BTreeMap<NodeId, NodeId>> = Vec::with_capacity(n as usize);
    let mut prev_part_tail: Option<NodeId> = None;
    for p in 0..n {
        let mut map: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut slice_cache: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut part_head: Option<NodeId> = None;
        for &v in &region_order {
            let node = g.node(v).clone();
            let d = spec.dims[&v];
            // Build this part's inputs: region-internal edges remap to
            // the part clone; external sliced inputs get a Slice; shared
            // inputs pass through.
            let mut new_inputs = Vec::new();
            for &u in node.inputs() {
                if let Some(&mu) = map.get(&u) {
                    new_inputs.push(mu);
                } else if let Some(&Some(axis)) = slice_axes.get(&u) {
                    let s = *slice_cache.entry(u).or_insert_with(|| {
                        let extent = g.node(u).meta.shape.dim(axis);
                        let chunk = extent.div_ceil(n);
                        let start = (p * chunk).min(extent - 1);
                        let len = chunk.min(extent - start);
                        out.add(OpKind::Slice { axis, start, len }, &[u])
                            .expect("slice of live input")
                    });
                    new_inputs.push(s);
                    if part_head.is_none() {
                        part_head = Some(s);
                    }
                } else {
                    new_inputs.push(u);
                }
            }
            let meta = if d > 0 {
                let axis = (d - 1) as usize;
                magis_graph::TensorMeta::new(
                    node.meta.shape.split_dim(axis, n),
                    node.meta.dtype,
                )
            } else {
                node.meta.clone()
            };
            let nv = out.add_with_meta(node.op.clone(), &new_inputs, meta).expect("clone");
            if part_head.is_none() {
                part_head = Some(nv);
            }
            map.insert(v, nv);
        }
        // Sequential-part constraint.
        if let (Some(tail), Some(head)) = (prev_part_tail, part_head) {
            out.add_keepalive(tail, head).expect("live endpoints");
        }
        prev_part_tail = map.get(region_order.last().expect("nonempty region")).copied();
        part_map.push(map);
    }

    // Merge outputs and rewire external consumers, then drop the
    // original region.
    for v in &outputs {
        let d = spec.dims[v];
        let parts: Vec<NodeId> = part_map.iter().map(|m| m[v]).collect();
        let merged = if d > 0 {
            out.add(OpKind::Concat { axis: (d - 1) as usize }, &parts).expect("concat parts")
        } else {
            let mut acc = parts[0];
            for &p in &parts[1..] {
                acc = out
                    .add(OpKind::Binary(magis_graph::op::BinaryKind::Add), &[acc, p])
                    .expect("sum parts");
            }
            acc
        };
        out.redirect_uses(*v, merged);
    }
    // Remove originals in reverse topological order.
    for &v in region_order.iter().rev() {
        // Keepalive edges may still point at region nodes only through
        // merges; originals now have no users.
        out.remove(v).expect("region node no longer used");
    }
    Ok(out.commit().0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgraph::{component_dims, DimGraph};
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::{evaluate_checked, CostModel};

    /// Two-layer MLP segment on the batch dimension (Fig. 5 shape).
    fn mlp_segment() -> (Graph, FissionSpec) {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 128], "x");
        let w1 = b.weight([128, 256], "w1");
        let w2 = b.weight([256, 32], "w2");
        let h = b.matmul(x, w1);
        let r = b.relu(h);
        let y = b.matmul(r, w2);
        let g = b.finish();
        let set: BTreeSet<NodeId> = [h, r, y].into_iter().collect();
        let d = DimGraph::build(&g);
        let comp = d
            .components()
            .into_iter()
            .find(|c| c.contains(&(h, 1)))
            .expect("batch component");
        let dims = component_dims(&comp, &set).expect("unique dims");
        (g, FissionSpec { set, dims, parts: 4 })
    }

    #[test]
    fn mlp_spec_validates() {
        let (g, spec) = mlp_segment();
        spec.validate(&g).unwrap();
        // x is sliced along batch; weights shared.
        let axes = spec.input_slice_axes(&g).unwrap();
        let x = g.graph_inputs()[0];
        assert_eq!(axes[&x], Some(0));
        assert!(axes.values().filter(|a| a.is_none()).count() >= 2, "weights shared");
    }

    #[test]
    fn overlay_scales_shapes_and_repeats() {
        let (g0, spec) = mlp_segment();
        let mut txn = GraphTxn::begin(&g0);
        let info = apply_overlay(&mut txn, &spec).unwrap();
        let g = txn.commit().0;
        g.validate().unwrap();
        assert_eq!(info.slices.len(), 1);
        assert_eq!(info.merges.len(), 1, "only y is an output");
        for &v in &spec.set {
            assert_eq!(g.node(v).cost_repeat, 4);
            assert_eq!(g.node(v).meta.shape.dim(0), 16, "batch 64 / 4");
        }
        // Merge restores the original output shape.
        let m = info.merges[0];
        assert_eq!(g.node(m).meta.shape.dims(), &[64, 32]);
    }

    #[test]
    fn overlay_reduces_peak_memory() {
        let (g0, spec) = mlp_segment();
        let cm = CostModel::default();
        let base = evaluate_checked(&g0, &topo_order(&g0), &cm).unwrap();
        let mut txn = GraphTxn::begin(&g0);
        apply_overlay(&mut txn, &spec).unwrap();
        let g = txn.commit().0;
        let ev = evaluate_checked(&g, &topo_order(&g), &cm).unwrap();
        assert!(
            ev.peak_bytes < base.peak_bytes,
            "fission peak {} < base {}",
            ev.peak_bytes,
            base.peak_bytes
        );
        assert!(ev.latency > base.latency, "fission trades latency");
    }

    #[test]
    fn full_materialization_matches_overlay_costs() {
        let (g0, spec) = mlp_segment();
        let cm = CostModel::default();
        let mut txn = GraphTxn::begin(&g0);
        apply_overlay(&mut txn, &spec).unwrap();
        let overlay = txn.commit().0;
        let full = apply_full(&g0, &spec).unwrap();
        full.validate().unwrap();
        let ev_o = evaluate_checked(&overlay, &topo_order(&overlay), &cm).unwrap();
        let ev_f = evaluate_checked(&full, &topo_order(&full), &cm).unwrap();
        // Node counts: overlay stays O(|S|); full grows with n.
        assert!(full.len() > overlay.len());
        // Latency of the representative-part overlay approximates the
        // materialized graph within 30%.
        let ratio = ev_o.latency / ev_f.latency;
        assert!((0.7..1.3).contains(&ratio), "latency ratio {ratio}");
    }

    #[test]
    fn weight_grad_region_sums_parts() {
        // x[b,k], dy[b,m] -> dw = xᵀ dy: splitting along batch makes dw
        // a Sum merge (Fig. 5's v8).
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([32, 64], "x");
        let dy = b.input([32, 16], "dy");
        let dw = b.matmul_t(x, dy, true, false);
        let g0 = b.finish();
        let set: BTreeSet<NodeId> = [dw].into_iter().collect();
        let dims: BTreeMap<NodeId, i32> = [(dw, -1)].into_iter().collect();
        let spec = FissionSpec { set, dims, parts: 2 };
        spec.validate(&g0).unwrap();
        let mut txn = GraphTxn::begin(&g0);
        let info = apply_overlay(&mut txn, &spec).unwrap();
        let g = txn.commit().0;
        let m = info.merges[0];
        assert!(matches!(g.node(m).op, OpKind::Merge { kind: MergeKind::Sum, .. }));
        // dw keeps its full shape (partial sums are full-sized).
        assert_eq!(g.node(dw).meta.shape.dims(), &[64, 16]);
        assert_eq!(g.node(dw).cost_repeat, 2);
        // Both x and dy sliced along batch.
        assert_eq!(info.slices.len(), 2);
    }

    #[test]
    fn invalid_specs_rejected() {
        let (g, spec) = mlp_segment();
        // Dropping the middle relu splits the induced sub-graph.
        let mut s2 = spec.clone();
        let relu = *spec
            .set
            .iter()
            .find(|&&v| matches!(g.node(v).op, OpKind::Unary(_)))
            .unwrap();
        s2.set.remove(&relu);
        s2.dims.remove(&relu);
        assert!(matches!(s2.validate(&g), Err(FissionError::NotConnected)));
        // Coverage mismatch.
        let mut s3 = spec.clone();
        s3.dims.remove(&relu);
        assert_eq!(s3.validate(&g), Err(FissionError::BadCoverage));
        // Part count larger than extent.
        let mut s4 = spec.clone();
        s4.parts = 1000;
        assert!(matches!(s4.validate(&g), Err(FissionError::ExtentTooSmall(_, _))));
    }

    #[test]
    fn non_convex_rejected() {
        // Diamond: x -> a, x -> b, j = a + b. {x, a, j} is connected
        // but the path x -> b -> j re-enters: not convex.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([8, 8], "x");
        let a = bld.relu(x);
        let b = bld.gelu(x);
        let j = bld.add_op(a, b);
        let g = bld.finish();
        let set: BTreeSet<NodeId> = [x, a, j].into_iter().collect();
        let dims: BTreeMap<NodeId, i32> =
            [(x, 1), (a, 1), (j, 1)].into_iter().collect();
        let spec = FissionSpec { set, dims, parts: 2 };
        assert!(matches!(spec.validate(&g), Err(FissionError::NotConvex)));
    }

    #[test]
    fn uncovered_edge_rejected() {
        // Chain h -> softmax(axis 1): choosing dim 2 for h and dim 1
        // for the softmax is inconsistent.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([8, 16], "x");
        let h = b.relu(x);
        let s = b.softmax(h, 1);
        let g = b.finish();
        let set: BTreeSet<NodeId> = [h, s].into_iter().collect();
        let dims: BTreeMap<NodeId, i32> = [(h, 2), (s, 1)].into_iter().collect();
        let spec = FissionSpec { set, dims, parts: 2 };
        assert!(matches!(spec.validate(&g), Err(FissionError::UncoveredEdge(_, _))));
    }

    #[test]
    fn softmax_axis_split_rejected() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([8, 16], "x");
        let s = b.softmax(x, 1);
        let g = b.finish();
        let set: BTreeSet<NodeId> = [s].into_iter().collect();
        let dims: BTreeMap<NodeId, i32> = [(s, 2)].into_iter().collect();
        let spec = FissionSpec { set, dims, parts: 2 };
        assert!(matches!(spec.validate(&g), Err(FissionError::UnsplittableDim(_, 2))));
    }

    #[test]
    fn nested_overlay_composes() {
        let (g0, spec) = mlp_segment();
        let mut txn = GraphTxn::begin(&g0);
        apply_overlay(&mut txn, &spec).unwrap();
        // Child region: just the relu, split 2 further ways.
        let relu = *spec
            .set
            .iter()
            .find(|&&v| matches!(txn.node(v).op, OpKind::Unary(_)))
            .unwrap();
        let child = FissionSpec {
            set: [relu].into_iter().collect(),
            dims: [(relu, 1)].into_iter().collect(),
            parts: 2,
        };
        apply_overlay(&mut txn, &child).unwrap();
        let g = txn.commit().0;
        assert_eq!(g.node(relu).cost_repeat, 8, "4 x 2 nested parts");
        assert_eq!(g.node(relu).meta.shape.dim(0), 8, "64 / 4 / 2");
        g.validate().unwrap();
    }
}
