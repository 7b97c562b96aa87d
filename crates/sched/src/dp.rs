//! Memory-optimal topological ordering via dynamic programming over
//! executed-set states (the `DpSchedule` of Algorithm 2, following the
//! Serenity-style DP of Ahn et al., MLSys'20), with a beam cap so large
//! windows degrade gracefully to memory-aware list scheduling.
//!
//! States are keyed by the *set* of executed nodes: any two partial
//! schedules covering the same set leave identical residual problems
//! and identical live memory, so only the one with the lower peak needs
//! to survive — that is the DP. When the number of states at a level
//! exceeds the beam width, the worst states are dropped (quality knob
//! D6 in DESIGN.md).
//!
//! There is one DP, generic over the executed-set key (`NodeSet`).
//! Windows of up to 512 nodes use a stack array of `⌈n/64⌉` words;
//! that covers every incremental reschedule and fissioned CNN window
//! seen at bench scale (up to ~310 nodes on UNet/UNet++). Larger
//! windows use a heap word slice. Both keys order lexicographically by
//! word, so a window's order, peak and state count do not depend on
//! which key it gets.

use crate::task::SchedTask;

/// Tuning for the DP/beam scheduler.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Maximum states kept per level. Width 1 is greedy list
    /// scheduling; large widths approach exact DP.
    pub beam_width: usize,
    /// Above this window size the effective width shrinks
    /// proportionally to bound work (`width · budget / n`).
    pub node_budget: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig { beam_width: 64, node_budget: 128 }
    }
}

impl SchedConfig {
    /// Effective beam width for a window of `n` nodes.
    pub fn effective_width(&self, n: usize) -> usize {
        if n <= self.node_budget {
            self.beam_width
        } else {
            (self.beam_width * self.node_budget / n).max(1)
        }
    }
}

/// Result of [`dp_schedule`].
#[derive(Debug, Clone)]
pub struct DpResult {
    /// Window schedule in local indices.
    pub order: Vec<usize>,
    /// Peak bytes within the window (including the window base).
    pub peak: u64,
    /// Number of DP states expanded (search effort metric).
    pub states_expanded: usize,
}

/// Schedules a window to minimize peak memory.
///
/// Returns a topological order of the window's local indices together
/// with the achieved peak (window-local, including boundary `base`).
pub fn dp_schedule(task: &SchedTask<'_>, cfg: &SchedConfig) -> DpResult {
    let n = task.len();
    if n == 0 {
        return DpResult { order: Vec::new(), peak: task.base, states_expanded: 0 };
    }
    let start = std::time::Instant::now();
    let mut span = magis_obs::span!("magis_sched", "dp_schedule", window = n);
    let width = cfg.effective_width(n);
    let (order, peak, expanded) = match n.div_ceil(64) {
        1 => dp::<[u64; 1]>(task, width, 1),
        2 => dp::<[u64; 2]>(task, width, 2),
        3 => dp::<[u64; 3]>(task, width, 3),
        4 => dp::<[u64; 4]>(task, width, 4),
        5 => dp::<[u64; 5]>(task, width, 5),
        6 => dp::<[u64; 6]>(task, width, 6),
        7 => dp::<[u64; 7]>(task, width, 7),
        8 => dp::<[u64; 8]>(task, width, 8),
        words => dp::<Box<[u64]>>(task, width, words),
    };
    span.record("states_expanded", expanded);
    span.record("peak_bytes", peak);
    record_obs(expanded, start);
    DpResult { order, peak, states_expanded: expanded }
}

fn record_obs(expanded: usize, start: std::time::Instant) {
    use std::sync::OnceLock;
    struct DpObs {
        runs: magis_obs::metrics::Counter,
        states: magis_obs::metrics::Counter,
        seconds: magis_obs::metrics::Histogram,
    }
    static OBS: OnceLock<DpObs> = OnceLock::new();
    let obs = OBS.get_or_init(|| DpObs {
        runs: magis_obs::metrics::counter("magis_sched_dp_runs"),
        states: magis_obs::metrics::counter("magis_sched_dp_states_expanded"),
        seconds: magis_obs::metrics::histogram("magis_sched_dp_seconds"),
    });
    obs.runs.inc();
    obs.states.add(expanded as u64);
    obs.seconds.observe_duration(start.elapsed());
}

/// An executed-set key: bit `i` lives in word `i / 64`, and `Ord` is
/// lexicographic over the words. Level order, truncation and every
/// tie-break follow that order, so they are the same for every key
/// type.
trait NodeSet: Clone + Ord {
    /// The empty set over `words` words.
    fn empty(words: usize) -> Self;
    fn words(&self) -> &[u64];
    fn words_mut(&mut self) -> &mut [u64];

    #[inline]
    fn set(&mut self, i: usize) {
        self.words_mut()[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.words_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    fn contains(&self, other: &Self) -> bool {
        self.words().iter().zip(other.words()).all(|(a, b)| a & b == *b)
    }
}

impl<const W: usize> NodeSet for [u64; W] {
    #[inline]
    fn empty(words: usize) -> Self {
        debug_assert_eq!(words, W);
        [0; W]
    }
    #[inline]
    fn words(&self) -> &[u64] {
        self
    }
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

impl NodeSet for Box<[u64]> {
    fn empty(words: usize) -> Self {
        vec![0; words].into_boxed_slice()
    }
    #[inline]
    fn words(&self) -> &[u64] {
        self
    }
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// The DP over a window of up to `64 · words` nodes. Readiness and
/// root-freeing are mask tests, and each state carries its ready set
/// incrementally, so a transition costs O(out-degree) rather than an
/// O(n) scan.
///
/// The schedule itself is *not* stored per state: each state records
/// only the arena index of its `(parent, last-node)` link, and the
/// winning order is reconstructed by walking parents at the end.
fn dp<K: NodeSet>(task: &SchedTask<'_>, width: usize, words: usize) -> (Vec<usize>, u64, usize) {
    let n = task.len();
    debug_assert!(n <= 64 * words);
    let mask = |nodes: &[usize]| {
        let mut m = K::empty(words);
        for &i in nodes {
            m.set(i);
        }
        m
    };
    let pred_mask: Vec<K> = task.preds.iter().map(|p| mask(p)).collect();
    let root_users: Vec<K> = task.roots.iter().map(|r| mask(&r.users)).collect();
    struct State<K> {
        executed: K,
        /// Nodes whose predecessors are all executed, not yet run.
        /// Pure function of `executed`.
        ready: K,
        mem: u64,
        peak: u64,
        /// Index into the parent-link arena (`u32::MAX` for the root).
        link: u32,
    }
    struct Cand<K> {
        ready: K,
        peak: u64,
        mem: u64,
        parent: u32,
        last: u32,
    }
    let sources: Vec<usize> = (0..n).filter(|&v| task.preds[v].is_empty()).collect();
    // Parent-link arena: one `(parent, last)` entry per state that
    // survives a level's truncation.
    let mut arena: Vec<(u32, u32)> = Vec::new();
    let mut level = vec![State {
        executed: K::empty(words),
        ready: mask(&sources),
        mem: task.base,
        peak: task.base,
        link: u32::MAX,
    }];
    let mut expanded = 0usize;
    let mut trans: Vec<(K, Cand<K>)> = Vec::new();
    for _ in 0..n {
        // Collect every transition flat, then dedup by a stable sort on
        // the key: ascending-key level order, and among transitions to
        // the same executed set the first-generated one wins (peak,
        // mem) ties. That order — not a hash map's — keeps truncation
        // and tie-breaks deterministic across runs and thread counts.
        trans.clear();
        for st in &level {
            // Ready bits in ascending node order.
            for (w, &word) in st.ready.words().iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    expanded += 1;
                    let mut key = st.executed.clone();
                    key.set(v);
                    let mut ready = st.ready.clone();
                    ready.clear(v);
                    for &s in &task.succs[v] {
                        if key.contains(&pred_mask[s]) {
                            ready.set(s);
                        }
                    }
                    let mut mem = st.mem;
                    for &ri in &task.allocs[v] {
                        mem += task.roots[ri].bytes;
                    }
                    let peak = st.peak.max(mem);
                    // Free roots whose final user just executed.
                    for &ri in &task.uses[v] {
                        let r = &task.roots[ri];
                        if r.freeable && key.contains(&root_users[ri]) {
                            mem -= r.bytes;
                        }
                    }
                    trans.push((key, Cand { ready, peak, mem, parent: st.link, last: v as u32 }));
                }
            }
        }
        trans.sort_by(|a, b| a.0.cmp(&b.0));
        let mut states: Vec<(K, Cand<K>)> = Vec::with_capacity(trans.len());
        for (key, c) in trans.drain(..) {
            match states.last_mut() {
                Some((k, best)) if *k == key => {
                    if (c.peak, c.mem) < (best.peak, best.mem) {
                        *best = c;
                    }
                }
                _ => states.push((key, c)),
            }
        }
        if states.len() > width {
            states.sort_by_key(|(_, c)| (c.peak, c.mem));
            states.truncate(width);
        }
        debug_assert!(!states.is_empty(), "DAG window must always have a ready node");
        level = states
            .into_iter()
            .map(|(executed, c)| {
                let link = arena.len() as u32;
                arena.push((c.parent, c.last));
                State { executed, ready: c.ready, mem: c.mem, peak: c.peak, link }
            })
            .collect();
    }
    let best = level
        .iter()
        .min_by_key(|s| (s.peak, s.mem))
        .expect("at least one complete schedule");
    // Reconstruct the winning order by walking the parent chain.
    let mut order = Vec::with_capacity(n);
    let mut cur = best.link;
    while cur != u32::MAX {
        let (parent, last) = arena[cur as usize];
        order.push(last as usize);
        cur = parent;
    }
    order.reverse();
    (order, best.peak, expanded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::is_topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory::memory_profile;

    /// Two parallel chains from one input: a long heavy chain and a
    /// short light one joining at the end. Greedy program order (heavy
    /// first then light) holds the heavy result while running the light
    /// chain; the optimal order interleaves to keep fewer live tensors.
    #[test]
    fn dp_beats_naive_order_on_fanout() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([1024], "x"); // 4 KiB
        // Wide fan-out: many independent consumers of x, each producing
        // a big tensor, all summed pairwise at the end. Naive order
        // computes all producers first (peak ~ k tensors); optimal
        // interleaves adds to free early.
        let k = 6;
        let mut prods = Vec::new();
        for _ in 0..k {
            prods.push(b.relu(x));
        }
        let mut acc = prods[0];
        for &p in &prods[1..] {
            acc = b.add_op(acc, p);
        }
        let g = b.finish();
        let task = SchedTask::whole_graph(&g);
        let naive = task.default_order();
        let naive_ids = task.to_node_ids(&naive);
        let naive_peak = memory_profile(&g, &naive_ids).peak_bytes;
        let res = dp_schedule(&task, &SchedConfig::default());
        let ids = task.to_node_ids(&res.order);
        assert!(is_topo_order(&g, &ids));
        let dp_peak = memory_profile(&g, &ids).peak_bytes;
        assert!(
            dp_peak < naive_peak,
            "dp {dp_peak} should beat naive {naive_peak}"
        );
        // DP's internal accounting must agree with the memory profiler.
        assert_eq!(dp_peak, res.peak);
    }

    #[test]
    fn beam_width_one_is_still_valid() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let _ = b.add_op(a, c);
        let g = b.finish();
        let task = SchedTask::whole_graph(&g);
        let cfg = SchedConfig { beam_width: 1, node_budget: 128 };
        let res = dp_schedule(&task, &cfg);
        let ids = task.to_node_ids(&res.order);
        assert!(is_topo_order(&g, &ids));
    }

    #[test]
    fn effective_width_shrinks() {
        let cfg = SchedConfig { beam_width: 64, node_budget: 128 };
        assert_eq!(cfg.effective_width(100), 64);
        assert_eq!(cfg.effective_width(256), 32);
        assert!(cfg.effective_width(100_000) >= 1);
    }

    #[test]
    fn empty_window() {
        let g = magis_graph::Graph::new();
        let task = SchedTask::whole_graph(&g);
        let res = dp_schedule(&task, &SchedConfig::default());
        assert!(res.order.is_empty());
    }

    #[test]
    fn dp_matches_profiler_on_random_small_graphs() {
        use magis_util::rng::{Rng, SeedableRng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut b = GraphBuilder::new(DType::F32);
            let x = b.input([rng.gen_range(64..512)], "x");
            let mut pool = vec![x];
            for _ in 0..rng.gen_range(3..10) {
                let pick = pool[rng.gen_range(0..pool.len())];
                let v = if rng.gen_bool(0.5) { b.relu(pick) } else { b.gelu(pick) };
                pool.push(v);
            }
            let g = b.finish();
            let task = SchedTask::whole_graph(&g);
            let res = dp_schedule(&task, &SchedConfig::default());
            let ids = task.to_node_ids(&res.order);
            assert!(is_topo_order(&g, &ids));
            assert_eq!(memory_profile(&g, &ids).peak_bytes, res.peak);
        }
    }
}
