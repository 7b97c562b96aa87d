//! Dominator trees over (sub-)graphs (§2.1 of the paper).
//!
//! A virtual root is added above all entry nodes of the requested node
//! set, so multi-input DNN graphs (input tensor, labels, many weights)
//! are handled uniformly. Implemented with the Cooper–Harvey–Kennedy
//! algorithm over a reverse-postorder (any topological order of a
//! DAG), where a single pass reaches the fixpoint.
//!
//! The tree is stored in dense arrays over RPO positions: immediate
//! dominators, children lists (CSR, in RPO order) and a preorder
//! numbering with subtree ends. A node's dominated region is then one
//! contiguous preorder interval ([`DomTree::interval`],
//! [`DomTree::subtree`]), so region membership is two comparisons and
//! region sums are prefix-sum differences.

use super::topo::topo_order_of;
use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::BTreeSet;
use std::ops::Range;

/// "Outside the tree" in the slot → position table, and "the virtual
/// root" in the idom table.
const NONE: u32 = u32::MAX;

/// The dominator tree `T(G')` of an induced sub-graph.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// RPO position of each node slot (`NONE` outside the tree).
    pos: Vec<u32>,
    /// Immediate dominator of each RPO position (`NONE`: the virtual root).
    idom: Vec<u32>,
    /// Children of RPO position `i` are
    /// `children[child_start[i]..child_start[i + 1]]`, in RPO order.
    child_start: Vec<u32>,
    children: Vec<NodeId>,
    /// Nodes directly below the virtual root, in RPO order.
    roots: Vec<NodeId>,
    /// The tree in preorder (children visited in RPO order).
    preorder: Vec<NodeId>,
    /// Preorder index of each RPO position.
    pre: Vec<u32>,
    /// One past the preorder index of the last node in each RPO
    /// position's subtree.
    end: Vec<u32>,
}

impl DomTree {
    /// Computes the dominator tree of the sub-graph of `g` induced by
    /// `set` (only edges with both endpoints in `set` are considered).
    ///
    /// Entry nodes (no predecessor inside `set`) hang off the virtual
    /// root. `set` is any duplicate-free collection of live nodes (a
    /// `&BTreeSet<NodeId>` or a `&[NodeId]`).
    pub fn compute<'a, G: GraphView>(g: &G, set: impl IntoIterator<Item = &'a NodeId> + Copy) -> Self {
        let order = topo_order_of(g, set); // RPO of a DAG
        let mut pos = vec![NONE; g.capacity()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i as u32;
        }
        let n = order.len();
        let mut idom = vec![NONE; n];

        // CHK intersection: move the later finger (in RPO) up to its
        // idom until both meet; reaching the virtual root ends it.
        let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
            while a != b {
                if a > b {
                    a = idom[a as usize];
                } else {
                    b = idom[b as usize];
                }
                if a == NONE || b == NONE {
                    return NONE;
                }
            }
            a
        };

        // Every pred precedes its node in a topological order, so its
        // idom is final when the node is reached: the first CHK pass is
        // already the fixpoint (a second pass would change nothing).
        // Entries, with no pred in `set`, hang off the virtual root.
        // Raw predecessor slices: duplicate entries (a pred reached
        // through both a data edge and a keepalive edge) are harmless —
        // the intersection is idempotent and order-independent.
        for (i, &v) in order.iter().enumerate() {
            let node = g.node(v);
            let mut ps =
                node.inputs().iter().chain(node.keepalive()).map(|p| pos[p.index()]).filter(|&p| p != NONE);
            if let Some(first) = ps.next() {
                idom[i] = ps.fold(first, |a, p| intersect(&idom, a, p));
            }
        }

        // Children lists (CSR) and subtree sizes. A node's idom precedes
        // it in RPO, so one backward pass accumulates sizes bottom-up.
        let mut child_start = vec![0u32; n + 1];
        let mut size = vec![1u32; n];
        for i in (0..n).rev() {
            if idom[i] != NONE {
                let p = idom[i] as usize;
                child_start[p + 1] += 1;
                size[p] += size[i];
            }
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut fill: Vec<u32> = child_start[..n].to_vec();
        let mut children = vec![NodeId::from_index(0); child_start[n] as usize];
        let mut roots = Vec::new();
        // Preorder: walking RPO forward, each node takes the next free
        // index under its parent (parents are numbered first), so
        // siblings are laid out in RPO order, each followed by its
        // whole subtree.
        let mut pre = vec![0u32; n];
        let mut next_child_pre = vec![0u32; n];
        let mut next_root_pre = 0u32;
        for (i, &v) in order.iter().enumerate() {
            let slot = if idom[i] == NONE {
                roots.push(v);
                &mut next_root_pre
            } else {
                let p = idom[i] as usize;
                children[fill[p] as usize] = v;
                fill[p] += 1;
                &mut next_child_pre[p]
            };
            pre[i] = *slot;
            *slot += size[i];
            next_child_pre[i] = pre[i] + 1;
        }
        let mut preorder = vec![NodeId::from_index(0); n];
        for (i, &v) in order.iter().enumerate() {
            preorder[pre[i] as usize] = v;
        }
        let end = (0..n).map(|i| pre[i] + size[i]).collect();
        DomTree { pos, idom, child_start, children, roots, preorder, pre, end }
    }

    /// RPO position of `v`, if it is in the tree.
    fn position(&self, v: NodeId) -> Option<usize> {
        self.pos.get(v.index()).filter(|&&i| i != NONE).map(|&i| i as usize)
    }

    /// Immediate dominator of `v`; `None` if `v` hangs off the virtual
    /// root (or is not in the tree).
    pub fn idom(&self, v: NodeId) -> Option<NodeId> {
        let p = self.idom[self.position(v)?];
        (p != NONE).then(|| self.preorder[self.pre[p as usize] as usize])
    }

    /// Children of `v` in the tree (`T.suc(v)`), in RPO order.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        match self.position(v) {
            Some(i) => &self.children[self.child_start[i] as usize..self.child_start[i + 1] as usize],
            None => &[],
        }
    }

    /// Nodes whose immediate dominator is the virtual root.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// All nodes in the tree, in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.pos.len()).filter(|&s| self.pos[s] != NONE).map(NodeId::from_index)
    }

    /// The tree's nodes in preorder: every dominated region is a
    /// contiguous run of this slice.
    pub fn preorder(&self) -> &[NodeId] {
        &self.preorder
    }

    /// Preorder index of `v` (its position in [`preorder`](Self::preorder)).
    pub fn preorder_index(&self, v: NodeId) -> Option<usize> {
        self.position(v).map(|i| self.pre[i] as usize)
    }

    /// Preorder interval of `v`'s dominated region (`v` first, then its
    /// strict descendants); empty if `v` is not in the tree.
    pub fn interval(&self, v: NodeId) -> Range<usize> {
        match self.position(v) {
            Some(i) => self.pre[i] as usize..self.end[i] as usize,
            None => 0..0,
        }
    }

    /// The dominated region of `v` in preorder, `v` first.
    pub fn subtree(&self, v: NodeId) -> &[NodeId] {
        &self.preorder[self.interval(v)]
    }

    /// Strict descendants of `v` in the dominator tree (`T.des(v)`):
    /// every node dominated by `v`, excluding `v` itself.
    pub fn descendants(&self, v: NodeId) -> BTreeSet<NodeId> {
        self.subtree(v).iter().skip(1).copied().collect()
    }

    /// Descendants of `v` including `v` (the full dominated region).
    pub fn dominated_region(&self, v: NodeId) -> BTreeSet<NodeId> {
        let mut s = self.descendants(v);
        s.insert(v);
        s
    }

    /// Whether `u` dominates `v` (reflexive).
    pub fn dominates(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        let (Some(iu), Some(pv)) = (self.position(u), self.preorder_index(v)) else { return false };
        (self.pre[iu] as usize..self.end[iu] as usize).contains(&pv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2, 2], DType::F32)
    }

    fn all(g: &Graph) -> BTreeSet<NodeId> {
        g.node_ids().collect()
    }

    #[test]
    fn chain_dominators() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let t = DomTree::compute(&g, &all(&g));
        assert_eq!(t.idom(x), None);
        assert_eq!(t.idom(a), Some(x));
        assert_eq!(t.idom(b), Some(a));
        assert!(t.dominates(x, b));
        assert_eq!(t.descendants(x), [a, b].into_iter().collect());
    }

    #[test]
    fn diamond_joins_at_fork() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        let t = DomTree::compute(&g, &all(&g));
        // c's immediate dominator is x, not a or b.
        assert_eq!(t.idom(c), Some(x));
        assert!(t.dominates(x, c));
        assert!(!t.dominates(a, c));
    }

    #[test]
    fn multiple_entries_use_virtual_root() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let w = g.add_input(InputKind::Weight, meta(), "w");
        let y = g.add(OpKind::Binary(BinaryKind::Mul), &[x, w]).unwrap();
        let t = DomTree::compute(&g, &all(&g));
        assert_eq!(t.idom(x), None);
        assert_eq!(t.idom(w), None);
        // y joins two entries: dominated only by the virtual root.
        assert_eq!(t.idom(y), None);
        assert_eq!(t.roots().len(), 3);
    }

    #[test]
    fn subgraph_restriction() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let c = g.add(OpKind::Unary(UnaryKind::Relu), &[b]).unwrap();
        // Restrict to {b, c}: b becomes an entry.
        let set: BTreeSet<NodeId> = [b, c].into_iter().collect();
        let t = DomTree::compute(&g, &set);
        assert_eq!(t.idom(b), None);
        assert_eq!(t.idom(c), Some(b));
        assert!(t.nodes().all(|v| v != a));
    }

    #[test]
    fn paper_fig6_style_nesting() {
        // A small version of Fig. 6: a chain of residual blocks. Each
        // block head dominates its block body; the entry dominates all.
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let mut cur = x;
        let mut heads = Vec::new();
        for _ in 0..3 {
            let h = g.add(OpKind::Unary(UnaryKind::Relu), &[cur]).unwrap();
            let l = g.add(OpKind::Unary(UnaryKind::Gelu), &[h]).unwrap();
            let r = g.add(OpKind::Unary(UnaryKind::Tanh), &[h]).unwrap();
            let j = g.add(OpKind::Binary(BinaryKind::Add), &[l, r]).unwrap();
            heads.push(h);
            cur = j;
        }
        let t = DomTree::compute(&g, &all(&g));
        for (i, &h) in heads.iter().enumerate() {
            assert!(t.dominates(x, h));
            for &h2 in &heads[i + 1..] {
                assert!(t.dominates(h, h2), "earlier head dominates later blocks");
            }
        }
    }
}
