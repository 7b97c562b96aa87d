//! Convexity of node sets (constraint (2) of F-Trans validity, §4.2).
//!
//! A set `S` is convex in `G` when no directed path leaves `S` and
//! re-enters it: equivalently, `G.inps(S) ∩ ⋃_{v∈G.outs(S)} G.des(v) = ∅`.

use super::bitset::BitSet;
use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::BTreeSet;

/// Tests whether the sub-graph induced by `set` is convex.
///
/// Runs a forward search from every edge that exits `set`; if the search
/// re-enters `set`, some outside node sits on a path between two members
/// and the set is not convex.
pub fn is_convex<G: GraphView>(g: &G, set: &BTreeSet<NodeId>) -> bool {
    // Dense membership; raw successor slices (a repeated successor is
    // skipped by `seen`).
    let mut member = BitSet::new(g.capacity());
    for &v in set {
        member.insert(v.index());
    }
    let mut seen = BitSet::new(g.capacity());
    let mut stack: Vec<NodeId> = Vec::new();
    for &v in set {
        for &s in g.node(v).succs() {
            if !member.contains(s.index()) && !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    while let Some(v) = stack.pop() {
        for &s in g.node(v).succs() {
            if member.contains(s.index()) {
                return false;
            }
            if !seen.contains(s.index()) {
                seen.insert(s.index());
                stack.push(s);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{BinaryKind, InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], DType::F32)
    }

    #[test]
    fn chain_prefixes_convex() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let c = g.add(OpKind::Unary(UnaryKind::Relu), &[b]).unwrap();
        assert!(is_convex(&g, &[a, b].into_iter().collect()));
        assert!(is_convex(&g, &[x, a, b, c].into_iter().collect()));
        // Gap in a chain: path a -> b -> c with b outside.
        assert!(!is_convex(&g, &[a, c].into_iter().collect()));
    }

    #[test]
    fn diamond_half_with_join_not_convex() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Gelu), &[x]).unwrap();
        let c = g.add(OpKind::Binary(BinaryKind::Add), &[a, b]).unwrap();
        // {x, a, c} skips b but x -> b -> c re-enters: not convex.
        assert!(!is_convex(&g, &[x, a, c].into_iter().collect()));
        // The full diamond is convex; each branch alone is convex.
        assert!(is_convex(&g, &[x, a, b, c].into_iter().collect()));
        assert!(is_convex(&g, &[a].into_iter().collect()));
        assert!(is_convex(&g, &[a, b].into_iter().collect()));
    }

    #[test]
    fn empty_set_is_convex() {
        let g = Graph::new();
        assert!(is_convex(&g, &BTreeSet::new()));
    }
}
