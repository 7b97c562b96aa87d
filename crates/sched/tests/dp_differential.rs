//! Differential test of the DP scheduler: `dp_schedule` must return
//! the same order, peak and expanded-state count as a plain reference
//! DP (word-vector keys in a `BTreeMap` level map, readiness by an
//! O(n) scan of every node) on seeded random windows of every key
//! size class, at several beam widths.

use magis_graph::builder::GraphBuilder;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::tensor::DType;
use magis_graph::GraphView;
use magis_sched::{dp_schedule, SchedConfig, SchedTask};
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::{BTreeMap, BTreeSet};

/// Reference DP: the same transition rule, truncation and tie-breaks
/// as `dp_schedule`, written for clarity rather than speed.
fn reference_dp(task: &SchedTask<'_>, width: usize) -> (Vec<usize>, u64, usize) {
    let n = task.len();
    let bit = |words: &[u64], i: usize| (words[i / 64] >> (i % 64)) & 1 == 1;
    struct Cand {
        peak: u64,
        mem: u64,
        parent: u32,
        last: u32,
    }
    // (executed, mem, peak, arena link)
    let mut level: Vec<(Vec<u64>, u64, u64, u32)> =
        vec![(vec![0; n.div_ceil(64)], task.base, task.base, u32::MAX)];
    let mut arena: Vec<(u32, u32)> = Vec::new();
    let mut expanded = 0usize;
    for _ in 0..n {
        let mut next: BTreeMap<Vec<u64>, Cand> = BTreeMap::new();
        for (executed, st_mem, st_peak, link) in &level {
            for v in 0..n {
                if bit(executed, v) || !task.preds[v].iter().all(|&p| bit(executed, p)) {
                    continue;
                }
                expanded += 1;
                let mut key = executed.clone();
                key[v / 64] |= 1 << (v % 64);
                let mut mem = *st_mem;
                for &ri in &task.allocs[v] {
                    mem += task.roots[ri].bytes;
                }
                let peak = (*st_peak).max(mem);
                for &ri in &task.uses[v] {
                    let r = &task.roots[ri];
                    if r.freeable && r.users.iter().all(|&u| bit(&key, u)) {
                        mem -= r.bytes;
                    }
                }
                let cand = Cand { peak, mem, parent: *link, last: v as u32 };
                match next.get_mut(&key) {
                    Some(prev) if (peak, mem) < (prev.peak, prev.mem) => *prev = cand,
                    Some(_) => {}
                    None => {
                        next.insert(key, cand);
                    }
                }
            }
        }
        let mut states: Vec<(Vec<u64>, Cand)> = next.into_iter().collect();
        if states.len() > width {
            states.sort_by_key(|(_, c)| (c.peak, c.mem));
            states.truncate(width);
        }
        level = states
            .into_iter()
            .map(|(executed, c)| {
                arena.push((c.parent, c.last));
                (executed, c.mem, c.peak, arena.len() as u32 - 1)
            })
            .collect();
    }
    let best = level.iter().min_by_key(|s| (s.2, s.1)).expect("a complete schedule");
    let mut order = Vec::new();
    let mut cur = best.3;
    while cur != u32::MAX {
        let (parent, last) = arena[cur as usize];
        order.push(last as usize);
        cur = parent;
    }
    order.reverse();
    (order, best.2, expanded)
}

/// A seeded random DAG of `n` nodes: a few inputs of mixed sizes, then
/// unary and binary ops, concats, slices and reshapes (aliases) whose
/// operands come from anywhere earlier, biased towards recent nodes so
/// chains, long skip edges and wide fan-outs all occur.
fn random_graph(rng: &mut SmallRng, n: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let sizes = [64u64, 128, 256, 512];
    let mut by_size: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    let mut all: Vec<(NodeId, u64)> = Vec::new();
    let inputs = rng.gen_range(1..4usize);
    for k in 0..inputs {
        let s = sizes[rng.gen_range(0..sizes.len())];
        let x = b.input([s], &format!("x{k}"));
        by_size.entry(s).or_default().push(x);
        all.push((x, s));
    }
    while all.len() < n {
        let pick = if rng.gen_bool(0.7) {
            all.len() - 1 - rng.gen_range(0..all.len().min(6))
        } else {
            rng.gen_range(0..all.len())
        };
        let (a, s) = all[pick];
        let same = &by_size[&s];
        let (v, vs) = match rng.gen_range(0..10u32) {
            0..=3 => (if rng.gen_bool(0.5) { b.relu(a) } else { b.gelu(a) }, s),
            4..=6 => {
                let other = same[rng.gen_range(0..same.len())];
                (if rng.gen_bool(0.5) { b.add_op(a, other) } else { b.mul(a, other) }, s)
            }
            7 if s * 2 <= 512 => {
                let other = same[rng.gen_range(0..same.len())];
                (b.concat(&[a, other], 0), s * 2)
            }
            8 if s >= 128 => (b.slice(a, 0, 0, s / 2), s / 2),
            9 => (b.reshape(a, [s]), s),
            _ => (b.sigmoid(a), s),
        };
        by_size.entry(vs).or_default().push(v);
        all.push((v, vs));
    }
    b.finish()
}

fn assert_same(task: &SchedTask<'_>, what: &str) {
    for beam_width in [1, 2, 8, 64] {
        let cfg = SchedConfig { beam_width, ..SchedConfig::default() };
        let got = dp_schedule(task, &cfg);
        let (order, peak, expanded) = reference_dp(task, cfg.effective_width(task.len()));
        assert_eq!(got.order, order, "{what}, beam {beam_width}: order");
        assert_eq!(got.peak, peak, "{what}, beam {beam_width}: peak");
        assert_eq!(got.states_expanded, expanded, "{what}, beam {beam_width}: states expanded");
    }
}

#[test]
fn dp_matches_reference_in_every_key_class() {
    // One size per key class: 1..=8 words on the stack, then the heap
    // word-slice key beyond 512 nodes.
    let classes = [40usize, 100, 170, 230, 300, 450, 600];
    let mut rng = SmallRng::seed_from_u64(0x00d9_d1ff);
    for &n in &classes {
        // Whole-graph window: every root is freeable once its users ran.
        let g = random_graph(&mut rng, n);
        let task = SchedTask::whole_graph(&g);
        assert_eq!(task.len(), n);
        assert_same(&task, &format!("whole graph of {n} nodes"));

        // Interior window of a larger graph: boundary inputs count in
        // `base`, and roots read after the window are never freed.
        let g = random_graph(&mut rng, n + 60);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let from = rng.gen_range(0..=ids.len() - n);
        let set: BTreeSet<NodeId> = ids[from..from + n].iter().copied().collect();
        let task = SchedTask::subset(&g, &set);
        assert_eq!(task.len(), n);
        assert_same(&task, &format!("window of {n} nodes at {from}"));
    }
}
