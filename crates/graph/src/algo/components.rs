//! Weakly connected components of node subsets.

use crate::graph::NodeId;
use crate::view::GraphView;
use std::collections::BTreeSet;

/// Splits `set` into weakly connected components of the induced
/// sub-graph (edges with both endpoints inside `set`, direction
/// ignored). Components are returned in ascending order of their
/// smallest node id; each component is sorted.
pub fn weakly_connected_components<G: GraphView>(
    g: &G,
    set: &BTreeSet<NodeId>,
) -> Vec<BTreeSet<NodeId>> {
    // Dense membership flags keyed by slot: the flood fill then walks
    // raw neighbour slices with no per-node set lookups or sorting.
    let mut remaining = vec![false; g.capacity()];
    for &v in set {
        remaining[v.index()] = true;
    }
    let mut components = Vec::new();
    let mut stack = Vec::new();
    for &seed in set {
        if !remaining[seed.index()] {
            continue;
        }
        remaining[seed.index()] = false;
        let mut comp = BTreeSet::new();
        stack.push(seed);
        while let Some(v) = stack.pop() {
            comp.insert(v);
            let n = g.node(v);
            for &u in n.inputs().iter().chain(n.keepalive()).chain(n.succs()) {
                if remaining[u.index()] {
                    remaining[u.index()] = false;
                    stack.push(u);
                }
            }
        }
        components.push(comp);
    }
    components
}

/// Whether the sub-graph induced by `set` is weakly connected
/// (constraint (1) of F-Trans validity, §4.2).
pub fn is_weakly_connected<G: GraphView>(g: &G, set: &BTreeSet<NodeId>) -> bool {
    // One flood fill from the smallest node must reach all of `set`.
    let Some(&seed) = set.iter().next() else { return false };
    let mut unreached = vec![false; g.capacity()];
    for &v in set {
        unreached[v.index()] = true;
    }
    unreached[seed.index()] = false;
    let mut stack = vec![seed];
    let mut reached = 0;
    while let Some(v) = stack.pop() {
        reached += 1;
        let n = g.node(v);
        for &u in n.inputs().iter().chain(n.keepalive()).chain(n.succs()) {
            if unreached[u.index()] {
                unreached[u.index()] = false;
                stack.push(u);
            }
        }
    }
    reached == set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::op::{InputKind, OpKind, UnaryKind};
    use crate::tensor::{DType, TensorMeta};

    fn meta() -> TensorMeta {
        TensorMeta::new([2], DType::F32)
    }

    #[test]
    fn two_chains_two_components() {
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let y = g.add_input(InputKind::Activation, meta(), "y");
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[y]).unwrap();
        let all: BTreeSet<NodeId> = g.node_ids().collect();
        let comps = weakly_connected_components(&g, &all);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], [x, a].into_iter().collect());
        assert_eq!(comps[1], [y, b].into_iter().collect());
        assert!(!is_weakly_connected(&g, &all));
        assert!(is_weakly_connected(&g, &comps[0]));
    }

    #[test]
    fn induced_edges_only() {
        // x -> a -> b: the subset {x, b} is disconnected because `a` is
        // outside it.
        let mut g = Graph::new();
        let x = g.add_input(InputKind::Activation, meta(), "x");
        let a = g.add(OpKind::Unary(UnaryKind::Relu), &[x]).unwrap();
        let b = g.add(OpKind::Unary(UnaryKind::Relu), &[a]).unwrap();
        let set: BTreeSet<NodeId> = [x, b].into_iter().collect();
        assert_eq!(weakly_connected_components(&g, &set).len(), 2);
    }

    #[test]
    fn empty_set_not_connected() {
        let g = Graph::new();
        assert!(!is_weakly_connected(&g, &BTreeSet::new()));
    }
}
