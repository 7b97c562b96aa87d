//! The Dimension Graph (D-Graph, §4.1 of the paper).
//!
//! A vertex `⟨v, i⟩` exists for every output dimension (`i > 0`,
//! 1-based) and every reduce axis (`i < 0`) of every operator that
//! participates (weights and labels are excluded — fission shares them
//! rather than slicing, §4.2). An edge connects dimensions of
//! producer and consumer tensors that index the same spatial axis, or a
//! producer dimension to the consumer's reduce axis it feeds.
//!
//! Weakly connected components of the D-Graph are the "graph-level
//! dimensions" (batch, heads, sequence, …) that a fission
//! transformation can split along.
//!
//! # Dense layout
//!
//! Vertices are numbered per node slot in `(NodeId, dim)` order — a
//! node's reduce axes `−r..−1`, then its output dims `1..rank` — so the
//! vertex numbering *is* the sorted order of [`DimVertex`] keys, and a
//! `⟨node, dim⟩` pair maps to its number by arithmetic on the node's
//! first vertex. Adjacency is one flat, sorted, deduplicated
//! neighbour array (CSR). The component sweep labels vertices in an
//! array and buckets them by label, so every component comes out
//! sorted and components come out ordered by their smallest vertex.

use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::DimLink;
use std::collections::{BTreeMap, BTreeSet};

/// A D-Graph vertex `⟨node, dim⟩`: `dim > 0` is the 1-based output
/// dimension, `dim < 0` is the (negated, 1-based) reduce axis.
pub type DimVertex = (NodeId, i32);

/// The Dimension Graph `D(G)`.
#[derive(Debug, Clone, Default)]
pub struct DimGraph {
    /// `first[s]..first[s + 1]` are the vertex numbers of node slot `s`
    /// (an empty range for slots outside the D-Graph).
    first: Vec<u32>,
    /// Vertex number → `⟨node, dim⟩`, ascending.
    verts: Vec<DimVertex>,
    /// Neighbours of vertex `x` are `adj[adj_start[x]..adj_start[x + 1]]`,
    /// ascending and deduplicated (both directions stored).
    adj_start: Vec<u32>,
    adj: Vec<u32>,
    /// Per node slot, the links of its inputs as `input_dim_links`
    /// returns them (empty for graph inputs and nodes outside the
    /// D-Graph); kept for validating fission candidates.
    links: Vec<Vec<Vec<DimLink>>>,
}

impl DimGraph {
    /// Builds `D(G)`.
    pub fn build(g: &Graph) -> Self {
        // Vertices, slot by slot: reduce axes first, then output dims.
        let mut first = Vec::with_capacity(g.capacity() + 1);
        let mut verts: Vec<DimVertex> = Vec::new();
        for s in 0..g.capacity() {
            first.push(verts.len() as u32);
            let Some(n) = g.slot(s).filter(|n| n.op.in_dim_graph()) else { continue };
            let v = NodeId::from_index(s);
            let reduce = n.op.num_reduce_axes() as i32;
            verts.extend((1..=reduce).rev().map(|r| (v, -r)));
            verts.extend((1..=n.meta.shape.rank() as i32).map(|i| (v, i)));
        }
        first.push(verts.len() as u32);
        let mut dg = DimGraph {
            first,
            verts,
            adj_start: Vec::new(),
            adj: Vec::new(),
            links: vec![Vec::new(); g.capacity()],
        };
        // Edges, as vertex-number pairs.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut metas = Vec::new();
        for v in g.node_ids() {
            let n = g.node(v);
            if !n.op.in_dim_graph() || n.op.is_input() {
                continue;
            }
            metas.clear();
            metas.extend(n.inputs().iter().map(|&u| &g.node(u).meta));
            let links = n.op.input_dim_links(&metas, &n.meta);
            for (slot, &u) in n.inputs().iter().enumerate() {
                for (i, link) in links[slot].iter().enumerate() {
                    let vd = match link {
                        DimLink::Spatial(j) => *j as i32 + 1,
                        // Windowed links join the same spatial axis;
                        // halo costs are applied at fission time.
                        DimLink::Windowed { dim, .. } => *dim as i32 + 1,
                        DimLink::Reduce(r) => -(*r as i32 + 1),
                        DimLink::Unlinked => continue,
                    };
                    // A producer outside the D-Graph has no vertices,
                    // so its links are dropped here.
                    if let (Some(a), Some(b)) = (dg.index((u, i as i32 + 1)), dg.index((v, vd))) {
                        edges.push((a, b));
                    }
                }
            }
            dg.links[v.index()] = links;
        }
        // CSR by counting, both directions; then each (short) list is
        // sorted and deduplicated in place, compacting the array.
        let nv = dg.verts.len();
        let mut start = vec![0u32; nv + 1];
        for &(a, b) in &edges {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for x in 0..nv {
            start[x + 1] += start[x];
        }
        let mut fill = start.clone();
        let mut adj = vec![0u32; start[nv] as usize];
        for &(a, b) in &edges {
            adj[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            adj[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        let mut kept = 0;
        for x in 0..nv {
            let (lo, hi) = (start[x] as usize, start[x + 1] as usize);
            adj[lo..hi].sort_unstable();
            start[x] = kept as u32;
            for k in lo..hi {
                if k == lo || adj[k] != adj[k - 1] {
                    adj[kept] = adj[k];
                    kept += 1;
                }
            }
        }
        start[nv] = kept as u32;
        adj.truncate(kept);
        dg.adj = adj;
        dg.adj_start = start;
        dg
    }

    /// Vertex number of `⟨node, dim⟩`, if that vertex exists.
    fn index(&self, (v, d): DimVertex) -> Option<u32> {
        let (lo, hi) = (*self.first.get(v.index())?, *self.first.get(v.index() + 1)?);
        if lo == hi {
            return None;
        }
        let reduce = self.verts[lo as usize].1.min(0).unsigned_abs();
        let offset = match d {
            0 => return None,
            d if d < 0 => reduce.checked_sub(d.unsigned_abs())?,
            d => reduce + d as u32 - 1,
        };
        (offset < hi - lo).then_some(lo + offset)
    }

    /// The links of `v`'s inputs (one list per input slot, one link per
    /// input dim); empty for graph inputs and nodes outside the D-Graph.
    pub(crate) fn input_links(&self, v: NodeId) -> &[Vec<DimLink>] {
        self.links.get(v.index()).map_or(&[], Vec::as_slice)
    }

    fn neighbour_numbers(&self, x: u32) -> &[u32] {
        let x = x as usize;
        &self.adj[self.adj_start[x] as usize..self.adj_start[x + 1] as usize]
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the D-Graph is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Neighbours of a vertex, in ascending order.
    pub fn neighbours(&self, v: DimVertex) -> impl Iterator<Item = DimVertex> + '_ {
        let nbrs = self.index(v).map_or(&[][..], |x| self.neighbour_numbers(x));
        nbrs.iter().map(|&y| self.verts[y as usize])
    }

    /// All vertices, in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = DimVertex> + '_ {
        self.verts.iter().copied()
    }

    /// Weakly connected components with more than one vertex (a lone
    /// dimension connects nothing and cannot drive a fission), ordered
    /// by their smallest vertex.
    pub fn components(&self) -> Vec<BTreeSet<DimVertex>> {
        self.sorted_components().into_iter().map(|c| c.into_iter().collect()).collect()
    }

    /// [`components`](Self::components) as ascending vertex lists.
    pub(crate) fn sorted_components(&self) -> Vec<Vec<DimVertex>> {
        // Label sweep: components are numbered in order of their
        // smallest vertex, like a scan of the sorted vertex set.
        const UNSEEN: u32 = u32::MAX;
        let mut label = vec![UNSEEN; self.verts.len()];
        let mut sizes: Vec<usize> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for seed in 0..self.verts.len() as u32 {
            if label[seed as usize] != UNSEEN {
                continue;
            }
            let c = sizes.len() as u32;
            sizes.push(0);
            label[seed as usize] = c;
            stack.push(seed);
            while let Some(x) = stack.pop() {
                sizes[c as usize] += 1;
                for &y in self.neighbour_numbers(x) {
                    if label[y as usize] == UNSEEN {
                        label[y as usize] = c;
                        stack.push(y);
                    }
                }
            }
        }
        // Bucket vertices by label in vertex order: each list comes
        // out ascending.
        let mut comps: Vec<Vec<DimVertex>> = sizes.iter().map(|&n| Vec::with_capacity(n)).collect();
        for (x, &c) in label.iter().enumerate() {
            comps[c as usize].push(self.verts[x]);
        }
        comps.retain(|c| c.len() > 1);
        comps
    }
}

/// Restricts a component to a node subset and extracts the per-node dim
/// choice. Returns `None` if some node of `set` has no vertex or more
/// than one vertex in the component (constraint (3) of §4.2 requires
/// exactly one).
pub fn component_dims(
    component: &BTreeSet<DimVertex>,
    set: &BTreeSet<NodeId>,
) -> Option<BTreeMap<NodeId, i32>> {
    let mut dims: BTreeMap<NodeId, i32> = BTreeMap::new();
    for &(v, d) in component {
        if set.contains(&v) && dims.insert(v, d).is_some() {
            return None; // two dims of one node in the same component
        }
    }
    if dims.len() == set.len() {
        Some(dims)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    #[test]
    fn matmul_chain_batch_dimension_flows() {
        // x[b,k] @ w[k,m] -> h; h @ w2[m,c] -> y: the batch dim of x,
        // h, y forms one component; k/m inner dims form others.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([32, 64], "x");
        let w = bld.weight([64, 16], "w");
        let h = bld.matmul(x, w);
        let w2 = bld.weight([16, 8], "w2");
        let y = bld.matmul(h, w2);
        let g = bld.finish();
        let d = DimGraph::build(&g);
        // Weights excluded entirely.
        assert!(d.vertices().all(|(v, _)| v != w && v != w2));
        let comps = d.components();
        // Find the component containing ⟨x,1⟩ (batch).
        let batch = comps.iter().find(|c| c.contains(&(x, 1))).unwrap();
        assert!(batch.contains(&(h, 1)));
        assert!(batch.contains(&(y, 1)));
        // The batch component has no reduce vertices.
        assert!(batch.iter().all(|&(_, dim)| dim > 0));
    }

    #[test]
    fn reduce_axis_vertices_created() {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([32, 64], "x");
        let w = bld.weight([64, 16], "w");
        let h = bld.matmul(x, w);
        let g = bld.finish();
        let d = DimGraph::build(&g);
        // ⟨h,-1⟩ exists and connects to ⟨x,2⟩ (the contracted dim).
        let nbrs: Vec<_> = d.neighbours((h, -1)).collect();
        assert!(nbrs.contains(&(x, 2)));
    }

    #[test]
    fn weight_gradient_pattern_like_paper_fig5() {
        // dW = xᵀ @ dy contracts over the batch dim: the batch
        // component must reach dW only through its reduce axis, exactly
        // the v8 case of Fig. 5.
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([32, 64], "x");
        let dy = bld.input([32, 16], "dy");
        let dw = bld.matmul_t(x, dy, true, false); // [64, 16]
        let g = bld.finish();
        let d = DimGraph::build(&g);
        let comps = d.components();
        let batch = comps.iter().find(|c| c.contains(&(x, 1))).unwrap();
        assert!(batch.contains(&(dy, 1)));
        assert!(batch.contains(&(dw, -1)), "batch reaches dW as a reduce axis");
        assert!(!batch.contains(&(dw, 1)) && !batch.contains(&(dw, 2)));
    }

    #[test]
    fn attention_sequence_component_spans_softmax() {
        // Fig. 4: the sequence dim runs through scores and softmax.
        let (bsz, t, c) = (2, 8, 16);
        let mut bld = GraphBuilder::new(DType::F32);
        let q = bld.input([bsz, t, c], "q");
        let k = bld.input([bsz, t, c], "k");
        let v = bld.input([bsz, t, c], "v");
        let scores = bld.batch_matmul_t(q, k, false, true); // [b,t,t]
        let p = bld.softmax(scores, 2);
        let o = bld.batch_matmul(p, v); // [b,t,c]
        let g = bld.finish();
        let d = DimGraph::build(&g);
        let comps = d.components();
        // Component of ⟨q,2⟩ (query positions): scores dim 2, p dim 2, o dim 2.
        let seq = comps.iter().find(|cm| cm.contains(&(q, 2))).unwrap();
        assert!(seq.contains(&(scores, 2)));
        assert!(seq.contains(&(p, 2)));
        assert!(seq.contains(&(o, 2)));
        // Key positions flow to scores dim 3, softmax dim 3 and o's
        // reduce axis — possibly the same weak component via k.
        let key_side = comps.iter().find(|cm| cm.contains(&(k, 2))).unwrap();
        assert!(key_side.contains(&(scores, 3)));
        assert!(key_side.contains(&(o, -1)));
    }

    #[test]
    fn component_dims_uniqueness() {
        let mut bld = GraphBuilder::new(DType::F32);
        let x = bld.input([4, 4], "x");
        // y = x @ xᵀ: both dims of x join one component through y.
        let y = bld.matmul_t(x, x, false, true);
        let g = bld.finish();
        let d = DimGraph::build(&g);
        let comps = d.components();
        let set: BTreeSet<NodeId> = [x, y].into_iter().collect();
        // The spatial component joins both of y's dims through x's
        // rows: not a unique per-node choice -> rejected. The
        // contraction component (⟨x,2⟩, ⟨y,-1⟩) is unique: splitting
        // the inner product into partial sums is legitimate.
        let selections: Vec<_> =
            comps.iter().filter_map(|c| component_dims(c, &set)).collect();
        assert_eq!(selections.len(), 1);
        assert_eq!(selections[0][&x], 2);
        assert_eq!(selections[0][&y], -1);
    }
}
