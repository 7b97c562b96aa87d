//! Property and differential tests for the allocator-aware memory
//! planner ([`magis::sim::memory_plan`]).
//!
//! The planner assigns every sized storage root a concrete device
//! offset via a best-fit free list with block coalescing, and its
//! contracts are checked here from the outside:
//!
//! * **soundness** — no two placements ever overlap in
//!   (time × address) space;
//! * **dominance** — the planned high-water mark is never below the
//!   liveness-sum peak, and the plan's recorded liveness peak equals
//!   the profiler's;
//! * **reuse** — a fully-freed region is coalesced and reclaimed by a
//!   later allocation instead of growing the heap;
//! * **delta exactness** — [`magis::sim::memory_plan_delta`] against
//!   any parent plan is bit-identical to a from-scratch
//!   [`magis::sim::memory_plan`], across the bench workloads and a
//!   randomized rewrite sequence on NASNet-like random DNNs.

use magis::graph::op::{OpKind, UnaryKind};
use magis::models::{random_dnn, RandomDnnConfig, Workload};
use magis::prelude::*;
use magis::sched::{full_schedule, SchedConfig};
use magis::sim::{
    memory_plan, memory_plan_delta, memory_profile, MemObjective, MemoryPlan, MemoryTables,
};
use magis_util::rng::{Rng, SeedableRng, SmallRng};

/// Schedules `g` and plans it, asserting the planner's internal
/// consistency along the way. Returns `(order, plan)`.
fn plan_of(g: &Graph) -> (Vec<NodeId>, MemoryPlan) {
    let order = full_schedule(g, &SchedConfig::default());
    let plan = memory_plan(g, &order).expect("plan");
    (order, plan)
}

/// The small graphs the property tests sweep: a few random NASNet-like
/// DNNs plus two bench workloads at small scale.
fn property_graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 3, blocks: 3 };
    for seed in 0..5u64 {
        out.push((format!("random_dnn(seed={seed})"), random_dnn(&cfg, seed)));
    }
    out.push(("unet@0.1".into(), Workload::UNet.build(0.1).graph));
    out.push(("bert@0.1".into(), Workload::BertBase.build(0.1).graph));
    out
}

#[test]
fn planned_allocations_never_overlap_in_time_and_address() {
    for (name, g) in property_graphs() {
        let (_, plan) = plan_of(&g);
        let allocs = plan.allocations();
        assert!(!allocs.is_empty(), "{name}: plan places something");
        for (i, a) in allocs.iter().enumerate() {
            assert!(a.bytes > 0, "{name}: only sized roots are placed");
            assert!(a.alloc_step <= a.free_step, "{name}: live interval is well-formed");
            assert!(
                a.offset + a.bytes <= plan.planned_peak_bytes,
                "{name}: every placement fits under the high-water mark"
            );
            for b in &allocs[i + 1..] {
                let time_overlap = a.alloc_step <= b.free_step && b.alloc_step <= a.free_step;
                if !time_overlap {
                    continue;
                }
                let addr_disjoint =
                    a.offset + a.bytes <= b.offset || b.offset + b.bytes <= a.offset;
                assert!(
                    addr_disjoint,
                    "{name}: roots {:?} and {:?} are live together but overlap in \
                     address space ([{}, {}) vs [{}, {}))",
                    a.root,
                    b.root,
                    a.offset,
                    a.offset + a.bytes,
                    b.offset,
                    b.offset + b.bytes
                );
            }
        }
    }
}

#[test]
fn planned_peak_dominates_liveness_peak() {
    for (name, g) in property_graphs() {
        let (order, plan) = plan_of(&g);
        let prof = memory_profile(&g, &order);
        assert_eq!(
            plan.liveness_peak_bytes, prof.peak_bytes,
            "{name}: the plan's liveness peak is the profiler's peak"
        );
        assert!(
            plan.planned_peak_bytes >= plan.liveness_peak_bytes,
            "{name}: fragmentation can only add memory ({} < {})",
            plan.planned_peak_bytes,
            plan.liveness_peak_bytes
        );
        assert!(plan.fragmentation_ratio() >= 1.0, "{name}: ratio >= 1");
        let max_end = plan.allocations().iter().map(|a| a.offset + a.bytes).max().unwrap_or(0);
        assert_eq!(plan.planned_peak_bytes, max_end, "{name}: peak is the max placement end");
    }
}

#[test]
fn coalescing_reclaims_a_fully_freed_region() {
    // A chain of equal-sized activations: once the first few tensors
    // die, their (coalesced) region must serve later allocations, so
    // offsets repeat and the heap stays bounded instead of growing by
    // one tensor per step.
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([1024], "x");
    let mut t = b.relu(x);
    for _ in 0..8 {
        t = b.relu(t);
    }
    let g = b.finish();
    let (_, plan) = plan_of(&g);
    let allocs = plan.allocations();
    let total: u64 = allocs.iter().map(|a| a.bytes).sum();
    assert!(
        plan.planned_peak_bytes < total,
        "offsets were reused: peak {} < total allocated {total}",
        plan.planned_peak_bytes
    );
    let reused = allocs.iter().enumerate().any(|(i, a)| {
        allocs[i + 1..].iter().any(|b| b.offset == a.offset && b.alloc_step > a.free_step)
    });
    assert!(reused, "some later allocation reoccupies a freed offset");
    // A pure same-size chain fragments nothing: best-fit lands each new
    // tensor exactly in the hole the dead one left.
    assert_eq!(
        plan.planned_peak_bytes, plan.liveness_peak_bytes,
        "equal-size chain plans without fragmentation"
    );
}

/// Inserts a relu between a random interior node and one of its users
/// — the smallest schedule-perturbing rewrite.
fn insert_relu_twin(g: &Graph, rng: &mut SmallRng) -> Option<Graph> {
    let interior: Vec<NodeId> =
        g.node_ids().filter(|&v| !g.pre(v).is_empty() && !g.suc(v).is_empty()).collect();
    if interior.is_empty() {
        return None;
    }
    let v = interior[rng.gen_range(0..interior.len())];
    let users = g.suc(v);
    let user = users[rng.gen_range(0..users.len())];
    let mut txn = GraphTxn::begin(g);
    let inserted = txn.add(OpKind::Unary(UnaryKind::Relu), &[v]).ok()?;
    txn.replace_input(user, v, inserted);
    txn.validate().ok()?;
    Some(txn.commit().0)
}

/// Splits a random interior node's computation into two sliced halves
/// stitched back with a concat — an F-Trans-shaped rewrite that
/// reshuffles lifetimes around the split point.
fn split_node(g: &Graph, rng: &mut SmallRng) -> Option<Graph> {
    let candidates: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| {
            !g.pre(v).is_empty()
                && !g.suc(v).is_empty()
                && g.pre(v).len() == 1
                && g.node(v).meta.shape.dims().first().is_some_and(|&n| n >= 2)
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let v = candidates[rng.gen_range(0..candidates.len())];
    let src = g.pre(v)[0];
    let user = g.suc(v)[0];
    let n = g.node(v).meta.shape.dims()[0];
    let half = n / 2;
    let mut txn = GraphTxn::begin(g);
    let s0 = txn.add(OpKind::Slice { axis: 0, start: 0, len: half }, &[src]).ok()?;
    let s1 = txn.add(OpKind::Slice { axis: 0, start: half, len: n - half }, &[src]).ok()?;
    let r0 = txn.add(g.node(v).op.clone(), &[s0]).ok()?;
    let r1 = txn.add(g.node(v).op.clone(), &[s1]).ok()?;
    let cat = txn.add(OpKind::Concat { axis: 0 }, &[r0, r1]).ok()?;
    txn.replace_input(user, v, cat);
    txn.validate().ok()?;
    Some(txn.commit().0)
}

/// Asserts that planning `g_new` as a delta against `parent` is
/// bit-identical to planning it from scratch, and returns the plan.
fn assert_delta_exact(name: &str, g_new: &Graph, parent: &MemoryPlan) -> MemoryPlan {
    let order = full_schedule(g_new, &SchedConfig::default());
    let lt = MemoryTables::new(g_new, &order, MemObjective::Liveness, None)
        .expect("profile")
        .lifetimes;
    let full = memory_plan(g_new, &order).expect("full plan");
    let delta = memory_plan_delta(g_new, &order, &lt, parent).expect("delta plan");
    assert_eq!(delta, full, "{name}: delta re-plan bit-identical to full re-plan");
    full
}

#[test]
fn delta_replanning_matches_full_on_bench_models() {
    for (w, scale) in [
        (Workload::UNet, 0.1),
        (Workload::BertBase, 0.1),
        (Workload::ResNet50, 0.08),
        (Workload::VitBase, 0.08),
        (Workload::UNetPP, 0.08),
        (Workload::GptNeo13B, 0.05),
        (Workload::Btlm3B, 0.05),
    ] {
        let g = w.build(scale).graph;
        let (_, parent) = plan_of(&g);
        let mut rng = SmallRng::seed_from_u64(0xBEEF);
        let g_new = insert_relu_twin(&g, &mut rng).expect("bench graphs have interior nodes");
        assert_delta_exact(w.label(), &g_new, &parent);
    }
}

#[test]
fn delta_replanning_matches_full_across_a_randomized_rewrite_sequence() {
    for seed in 0..3u64 {
        let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 3, blocks: 3 };
        let mut g = random_dnn(&cfg, seed);
        let (_, mut plan) = plan_of(&g);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF);
        let mut applied = 0;
        for _ in 0..12 {
            let mutated = if rng.gen_bool(0.5) {
                insert_relu_twin(&g, &mut rng)
            } else {
                split_node(&g, &mut rng)
            };
            let Some(g_new) = mutated else { continue };
            // Each step deltas against the previous step's plan, so the
            // divergence point wanders through the event list.
            plan = assert_delta_exact(&format!("random_dnn(seed={seed})"), &g_new, &plan);
            g = g_new;
            applied += 1;
        }
        assert!(applied >= 6, "seed {seed}: the rewrite sequence did real work ({applied})");
    }
}

/// Moves one random node later in `order`, to a random slot before its
/// first consumer: a pure reorder of the same graph that stays
/// topological and keeps the schedule prefix before the node clean.
fn sink_one_node(g: &Graph, order: &[NodeId], rng: &mut SmallRng) -> Option<Vec<NodeId>> {
    let mut pos = vec![usize::MAX; g.capacity()];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    for _ in 0..32 {
        let i = rng.gen_range(0..order.len());
        let limit =
            g.node(order[i]).succs().iter().map(|s| pos[s.index()]).min().unwrap_or(order.len());
        if limit > i + 1 {
            let mut moved = order.to_vec();
            let v = moved.remove(i);
            moved.insert(rng.gen_range(i + 1..limit), v);
            return Some(moved);
        }
    }
    None
}

#[test]
fn delta_plans_chain_exactly_through_a_mixed_rewrite_and_reorder_lineage() {
    let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 3, blocks: 3 };
    let mut lineages: Vec<(String, Graph)> =
        (0..3u64).map(|s| (format!("random_dnn(seed={s})"), random_dnn(&cfg, s))).collect();
    lineages.push(("bert@0.1".into(), Workload::BertBase.build(0.1).graph));
    for (seed, (name, mut g)) in lineages.into_iter().enumerate() {
        let (mut order, mut plan) = plan_of(&g);
        let mut rng = SmallRng::seed_from_u64(seed as u64 ^ 0x11FE);
        let (mut steps, mut reorders) = (0, 0);
        for _ in 0..64 {
            if steps >= 16 {
                break;
            }
            // Each step's parent is the previous step's delta plan, so
            // any drift would compound down the lineage.
            let (g_new, order_new) = match rng.gen_range(0..3u32) {
                0 => match insert_relu_twin(&g, &mut rng) {
                    Some(g_new) => {
                        let o = full_schedule(&g_new, &SchedConfig::default());
                        (g_new, o)
                    }
                    None => continue,
                },
                1 => match split_node(&g, &mut rng) {
                    Some(g_new) => {
                        let o = full_schedule(&g_new, &SchedConfig::default());
                        (g_new, o)
                    }
                    None => continue,
                },
                _ => match sink_one_node(&g, &order, &mut rng) {
                    Some(o) => {
                        reorders += 1;
                        (g.clone(), o)
                    }
                    None => continue,
                },
            };
            assert!(magis::graph::algo::is_topo_order(&g_new, &order_new), "{name}: topological");
            let lt = MemoryTables::new(&g_new, &order_new, MemObjective::Liveness, None)
                .expect("profile")
                .lifetimes;
            let delta = memory_plan_delta(&g_new, &order_new, &lt, &plan).expect("delta plan");
            let full = memory_plan(&g_new, &order_new).expect("full plan");
            assert_eq!(delta, full, "{name} step {steps}: delta plan equals the from-scratch plan");
            (g, order, plan) = (g_new, order_new, delta);
            steps += 1;
        }
        assert!(steps >= 16, "{name}: the lineage ran {steps} chained steps");
        assert!(reorders >= 2, "{name}: the lineage mixed in pure reorders ({reorders})");
    }
}

#[test]
fn allocations_are_in_canonical_alloc_order() {
    // The delta planner copies the parent's k-th placement for the k-th
    // clean alloc event, which holds only if `allocations()` is sorted
    // by (allocation step, root id) — for full and delta plans alike.
    for (name, g) in property_graphs() {
        let (order, plan) = plan_of(&g);
        let mut rng = SmallRng::seed_from_u64(7);
        let reordered = sink_one_node(&g, &order, &mut rng).expect("some node can sink");
        let lt = MemoryTables::new(&g, &reordered, MemObjective::Liveness, None)
            .expect("profile")
            .lifetimes;
        let delta = memory_plan_delta(&g, &reordered, &lt, &plan).expect("delta plan");
        for (kind, p) in [("full", &plan), ("delta", &delta)] {
            let keys: Vec<(usize, NodeId)> =
                p.allocations().iter().map(|a| (a.alloc_step, a.root)).collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "{name}: {kind} plan's allocations are strictly sorted by (alloc_step, root)"
            );
        }
    }
}
