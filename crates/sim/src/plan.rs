//! Offset-assigning memory planning over [`Lifetimes`] tables — the
//! fragmentation-aware second profiling stage behind the liveness-sum
//! profile (ROADMAP: "allocator-aware planning").
//!
//! The liveness profile scores a schedule by the *sum* of live tensor
//! bytes per step; a real runtime pays fragmentation on top of that,
//! because an allocator must place every tensor at a concrete address
//! and two free regions separated by a live tensor cannot serve one
//! large request. [`memory_plan`] runs a best-fit free-list allocator
//! with block coalescing over the tensor live intervals and reports
//! `planned_peak_bytes` — the high-water mark of the assigned address
//! space, always `>= peak_bytes` of the liveness profile.
//!
//! ## Determinism contract
//!
//! The plan is a pure function of the `(graph, order)` pair: live
//! intervals are resolved exactly as the liveness sweep resolves them,
//! allocation events are replayed in a canonical total order
//! (time, frees-before-allocs, root id), and the allocator state is
//! itself a pure function of the currently-occupied interval set (the
//! free list is kept maximally coalesced, and the high-water `top` is
//! always the maximum occupied end). That last invariant is what makes
//! [`memory_plan_delta`] exact: at the first diverging event it can
//! reconstruct the allocator from the live set alone and replay the
//! suffix, bit-identical to a from-scratch plan.
//!
//! The canonical order comes from one stable counting sort keyed by
//! `2·time + kind` over roots in ascending id (`O(roots + steps)`),
//! for a parent plan's placements too. [`MemoryPlan::allocations`] is
//! in canonical alloc order (allocation step, then root id), so the
//! delta planner copies the parent's k-th placement for the k-th alloc
//! event of the clean prefix, by position.

use crate::cost::CostError;
use crate::memory::{check_coverage, compute_lifetimes, position_table, Endpoint, Lifetimes};
use magis_graph::graph::{Graph, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Which peak-memory figure the optimizer scores candidates by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemObjective {
    /// Sum of live tensor bytes per step (the paper's `M_peak`).
    #[default]
    Liveness,
    /// High-water mark of the best-fit allocator's address space —
    /// liveness plus fragmentation.
    Planned,
}

impl MemObjective {
    /// Parses a CLI spelling (`liveness` | `planned`).
    pub fn parse(s: &str) -> Option<MemObjective> {
        match s {
            "liveness" => Some(MemObjective::Liveness),
            "planned" => Some(MemObjective::Planned),
            _ => None,
        }
    }
}

impl std::fmt::Display for MemObjective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemObjective::Liveness => write!(f, "liveness"),
            MemObjective::Planned => write!(f, "planned"),
        }
    }
}

/// One tensor's placement in the plan: a storage root pinned to a
/// device-address interval for its live steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedAlloc {
    /// The storage root this placement belongs to.
    pub root: NodeId,
    /// Device bytes of the root's storage.
    pub bytes: u64,
    /// Assigned device offset.
    pub offset: u64,
    /// First schedule step at which the storage is live.
    pub alloc_step: usize,
    /// Last schedule step at which the storage is live (inclusive).
    pub free_step: usize,
}

/// The result of offset-assigning memory planning: every sized storage
/// root placed at a concrete address for its live interval.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryPlan {
    /// High-water mark of the assigned address space.
    pub planned_peak_bytes: u64,
    /// Peak of the liveness sum over the same intervals (equals the
    /// liveness profile's `peak_bytes`).
    pub liveness_peak_bytes: u64,
    steps: usize,
    allocs: Vec<PlannedAlloc>,
}

impl MemoryPlan {
    /// Schedule length the plan was computed against.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The placements, in canonical replay order (allocation step,
    /// then root id).
    pub fn allocations(&self) -> &[PlannedAlloc] {
        &self.allocs
    }

    /// Fragmentation overhead of the plan: `planned / liveness` peak
    /// (`1.0` when the graph is empty — nothing to fragment).
    pub fn fragmentation_ratio(&self) -> f64 {
        if self.liveness_peak_bytes == 0 {
            1.0
        } else {
            self.planned_peak_bytes as f64 / self.liveness_peak_bytes as f64
        }
    }

    fn empty() -> MemoryPlan {
        MemoryPlan { planned_peak_bytes: 0, liveness_peak_bytes: 0, steps: 0, allocs: Vec::new() }
    }
}

/// Planner observability, looked up once. Recording is dropped on
/// suppressed (worker) threads inside the metrics layer itself.
struct PlanObs {
    plans: magis_obs::metrics::Counter,
    delta_plans: magis_obs::metrics::Counter,
    reused_allocs: magis_obs::metrics::Counter,
    replanned_allocs: magis_obs::metrics::Counter,
    planned_peak: magis_obs::metrics::Gauge,
    fragmentation: magis_obs::metrics::Gauge,
}

fn obs() -> &'static PlanObs {
    static OBS: OnceLock<PlanObs> = OnceLock::new();
    OBS.get_or_init(|| PlanObs {
        plans: magis_obs::metrics::counter("magis_sim_plans"),
        delta_plans: magis_obs::metrics::counter("magis_sim_plan_delta_profiles"),
        reused_allocs: magis_obs::metrics::counter("magis_sim_plan_delta_reused_allocs"),
        replanned_allocs: magis_obs::metrics::counter("magis_sim_plan_delta_replanned_allocs"),
        planned_peak: magis_obs::metrics::gauge("magis_sim_planned_peak_bytes"),
        fragmentation: magis_obs::metrics::gauge("magis_sim_fragmentation_ratio"),
    })
}

fn record_plan(plan: &MemoryPlan) {
    obs().planned_peak.set(plan.planned_peak_bytes as f64);
    obs().fragmentation.set(plan.fragmentation_ratio());
}

/// Event kinds: at equal times frees happen before allocations, so a
/// tensor dead at step `t` vacates its region before the step-`t`
/// allocations are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Free,
    Alloc,
}

/// One allocator event in the canonical replay order: time,
/// frees-before-allocs, then root id as the deterministic tiebreak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: usize,
    kind: EventKind,
    root: NodeId,
    bytes: u64,
}

/// Marks a root with no live placement in the node-indexed table.
const NOT_LIVE: usize = usize::MAX;

/// Canonical event list of `(root, bytes, alloc step, inclusive free
/// step)` intervals given in ascending root order: one stable counting
/// sort keyed by `2·time + kind`, where the free event fires one step
/// after the inclusive free step (so every key is below `2·steps + 1`).
fn canonical_events<I>(steps: usize, intervals: I) -> Vec<Event>
where
    I: Iterator<Item = (NodeId, u64, usize, usize)> + Clone,
{
    // `start[k + 1]` counts key `k`; the prefix sum turns it into the
    // first slot of key `k + 1`.
    let mut start = vec![0usize; 2 * steps + 2];
    for (_, _, a, f) in intervals.clone() {
        start[2 * a + 2] += 1;
        start[2 * f + 3] += 1;
    }
    for k in 1..start.len() {
        start[k] += start[k - 1];
    }
    let blank = Event { time: 0, kind: EventKind::Free, root: NodeId::from_index(0), bytes: 0 };
    let mut events = vec![blank; start[start.len() - 1]];
    for (root, bytes, a, f) in intervals {
        let alloc = (2 * a + 1, a, EventKind::Alloc);
        for (key, time, kind) in [alloc, (2 * f + 2, f + 1, EventKind::Free)] {
            events[start[key]] = Event { time, kind, root, bytes };
            start[key] += 1;
        }
    }
    events
}

/// Resolves a lifetime table into the canonical event list. Endpoint
/// resolution mirrors the liveness sweep exactly: alloc `Boundary` is
/// step 0 and free `Boundary` is the last step.
fn events_of(lt: &Lifetimes, pos: &[usize]) -> Vec<Event> {
    let steps = lt.steps;
    canonical_events(
        steps,
        lt.bytes.iter().enumerate().filter(|&(_, &b)| b > 0).map(move |(r, &bytes)| {
            let a = match lt.alloc[r] {
                Endpoint::Boundary => 0,
                Endpoint::At(n) => pos[n.index()],
            };
            let f = match lt.free[r] {
                Endpoint::Boundary => steps - 1,
                Endpoint::At(n) => pos[n.index()],
            };
            (NodeId::from_index(r), bytes, a, f)
        }),
    )
}

/// Rebuilds the canonical event list from a finished plan's
/// placements — scattered by root index, then counting-sorted — for
/// the delta planner to diff a child's events against.
fn events_of_plan(plan: &MemoryPlan) -> Vec<Event> {
    let cap = plan.allocs.iter().map(|a| a.root.index() + 1).max().unwrap_or(0);
    let mut by_root = vec![None; cap];
    for a in &plan.allocs {
        by_root[a.root.index()] = Some(a);
    }
    let intervals = by_root.iter().flatten().map(|a| (a.root, a.bytes, a.alloc_step, a.free_step));
    canonical_events(plan.steps, intervals)
}

/// Best-fit free list with block coalescing. The state invariant that
/// carries the whole determinism story: the free blocks are exactly
/// the maximal gaps of the occupied interval set below `top`, and
/// `top` is the maximum occupied end (0 when nothing is occupied).
/// Both follow from eager coalescing on free and top-truncation when
/// the highest region vacates — so the allocator can be reconstructed
/// from the occupied set alone ([`FreeList::from_occupied`]).
struct FreeList {
    /// offset -> length of each free block.
    by_off: BTreeMap<u64, u64>,
    /// (length, offset) ordered for best-fit: smallest adequate block,
    /// lowest offset as tiebreak.
    by_size: BTreeSet<(u64, u64)>,
    /// High-water mark: maximum occupied end.
    top: u64,
}

impl FreeList {
    fn new() -> FreeList {
        FreeList { by_off: BTreeMap::new(), by_size: BTreeSet::new(), top: 0 }
    }

    /// Reconstructs the allocator from an occupied interval set
    /// (`(offset, len)`, non-overlapping, `len > 0`, any order).
    fn from_occupied(mut occ: Vec<(u64, u64)>) -> FreeList {
        occ.sort_unstable();
        let mut fl = FreeList::new();
        let mut cur_end = 0u64;
        for (off, len) in occ {
            if off > cur_end {
                fl.by_off.insert(cur_end, off - cur_end);
                fl.by_size.insert((off - cur_end, cur_end));
            }
            cur_end = off + len;
        }
        fl.top = cur_end;
        fl
    }

    /// Places `bytes` at the best-fitting free block, or grows `top`
    /// when no block is large enough.
    fn alloc(&mut self, bytes: u64, step: usize) -> Result<u64, CostError> {
        if let Some(&(len, off)) = self.by_size.range((bytes, 0)..).next() {
            self.by_size.remove(&(len, off));
            self.by_off.remove(&off);
            if len > bytes {
                self.by_off.insert(off + bytes, len - bytes);
                self.by_size.insert((len - bytes, off + bytes));
            }
            Ok(off)
        } else {
            let off = self.top;
            self.top = off.checked_add(bytes).ok_or(CostError::MemoryOverflow { step })?;
            Ok(off)
        }
    }

    /// Returns `[offset, offset + bytes)` to the free list, coalescing
    /// with both neighbors and truncating `top` when the merged block
    /// reaches it.
    fn free(&mut self, offset: u64, bytes: u64) {
        let mut start = offset;
        let mut len = bytes;
        if let Some((&p_off, &p_len)) = self.by_off.range(..offset).next_back() {
            if p_off + p_len == offset {
                self.by_off.remove(&p_off);
                self.by_size.remove(&(p_len, p_off));
                start = p_off;
                len += p_len;
            }
        }
        if let Some(&s_len) = self.by_off.get(&(offset + bytes)) {
            self.by_off.remove(&(offset + bytes));
            self.by_size.remove(&(s_len, offset + bytes));
            len += s_len;
        }
        if start + len == self.top {
            self.top = start;
        } else {
            self.by_off.insert(start, len);
            self.by_size.insert((len, start));
        }
    }
}

/// Replays `events` through the allocator, appending placements to
/// `allocs`. `live` maps a root index to its placement's index in
/// `allocs` ([`NOT_LIVE`] when unplaced).
fn replay(
    events: &[Event],
    fl: &mut FreeList,
    live: &mut [usize],
    allocs: &mut Vec<PlannedAlloc>,
) -> Result<(), CostError> {
    for e in events {
        match e.kind {
            EventKind::Alloc => {
                let offset = fl.alloc(e.bytes, e.time)?;
                live[e.root.index()] = allocs.len();
                let (root, bytes, alloc_step) = (e.root, e.bytes, e.time);
                allocs.push(PlannedAlloc { root, bytes, offset, alloc_step, free_step: 0 });
            }
            EventKind::Free => {
                let a = close(e, live, allocs);
                fl.free(a.offset, a.bytes);
            }
        }
    }
    Ok(())
}

/// Retires a free event's placement from `live` and records its
/// inclusive free step (the event fires one step after it).
fn close<'a>(e: &Event, live: &mut [usize], allocs: &'a mut [PlannedAlloc]) -> &'a PlannedAlloc {
    let k = std::mem::replace(&mut live[e.root.index()], NOT_LIVE);
    let a = allocs.get_mut(k).expect("free of a root that was never allocated");
    a.free_step = e.time - 1;
    a
}

/// Liveness peak over the event list: fold the running live sum in
/// replay order and take the maximum after each allocation. Equals the
/// liveness sweep's `peak_bytes` — asserted in debug builds by the
/// callers that hold both.
fn liveness_peak_of(events: &[Event]) -> Result<u64, CostError> {
    let mut cur: u64 = 0;
    let mut peak: u64 = 0;
    for e in events {
        match e.kind {
            EventKind::Alloc => {
                cur = cur.checked_add(e.bytes).ok_or(CostError::MemoryOverflow { step: e.time })?;
                peak = peak.max(cur);
            }
            EventKind::Free => cur -= e.bytes,
        }
    }
    Ok(peak)
}

fn plan_from_parts(lt: &Lifetimes, pos: &[usize], steps: usize) -> Result<MemoryPlan, CostError> {
    if steps == 0 {
        return Ok(MemoryPlan::empty());
    }
    let events = events_of(lt, pos);
    let mut live = vec![NOT_LIVE; lt.bytes.len()];
    let mut allocs = Vec::with_capacity(events.len() / 2);
    replay(&events, &mut FreeList::new(), &mut live, &mut allocs)?;
    debug_assert!(
        live.iter().all(|&k| k == NOT_LIVE),
        "every allocation is freed by its (inclusive) free step + 1"
    );
    let planned_peak_bytes = allocs.iter().map(|a| a.offset + a.bytes).max().unwrap_or(0);
    let liveness_peak_bytes = liveness_peak_of(&events)?;
    Ok(MemoryPlan { planned_peak_bytes, liveness_peak_bytes, steps, allocs })
}

/// Plans device offsets for `g` executed in `order`: best-fit free-list
/// allocation with block coalescing over the tensor live intervals.
///
/// # Errors
///
/// Returns [`CostError::BadSchedule`] when `order` does not cover the
/// graph and [`CostError::MemoryOverflow`] when the address space
/// exceeds `u64`.
pub fn memory_plan(g: &Graph, order: &[NodeId]) -> Result<MemoryPlan, CostError> {
    check_coverage(g, order)?;
    plan_from_lifetimes(g, order, &compute_lifetimes(g, order, &position_table(g, order)))
}

/// [`memory_plan`] over an already-computed [`Lifetimes`] table (the
/// one a [`crate::MemoryTables`] or `memory_profile_delta` holds for
/// this same `(g, order)` pair), skipping the lifetime recomputation.
pub fn plan_from_lifetimes(
    g: &Graph,
    order: &[NodeId],
    lt: &Lifetimes,
) -> Result<MemoryPlan, CostError> {
    check_coverage(g, order)?;
    if order.is_empty() {
        return Ok(MemoryPlan::empty());
    }
    let pos = position_table(g, order);
    let plan = plan_from_parts(lt, &pos, order.len())?;
    obs().plans.inc();
    record_plan(&plan);
    Ok(plan)
}

/// Incremental re-planning: re-bases the longest clean event prefix of
/// `parent` (copying its placements verbatim), reconstructs the
/// allocator from the live set at the first diverging event, and
/// replays only the suffix. Bit-identical to [`memory_plan`] on the
/// same `(g, order, lt)` — debug builds assert full equality, and the
/// optimizer's paranoia mode cross-checks it end-to-end.
///
/// `lt` must be the lifetime table of `(g, order)` (full or delta —
/// they are asserted equal elsewhere); `parent` is the plan of the
/// state this candidate was derived from.
pub fn memory_plan_delta(
    g: &Graph,
    order: &[NodeId],
    lt: &Lifetimes,
    parent: &MemoryPlan,
) -> Result<MemoryPlan, CostError> {
    check_coverage(g, order)?;
    if order.is_empty() {
        return Ok(MemoryPlan::empty());
    }
    let pos = position_table(g, order);
    let steps = order.len();
    let events = events_of(lt, &pos);
    let old_events = events_of_plan(parent);
    let lcp = events.iter().zip(&old_events).take_while(|(a, b)| a == b).count();

    // Both lists are canonical, so the k-th alloc event of the clean
    // prefix is the parent's k-th placement: copy it (its free step is
    // rewritten when the root's free event is reached).
    let mut live = vec![NOT_LIVE; lt.bytes.len()];
    let mut allocs = Vec::with_capacity(events.len() / 2);
    for e in &events[..lcp] {
        match e.kind {
            EventKind::Alloc => {
                live[e.root.index()] = allocs.len();
                allocs.push(parent.allocs[allocs.len()].clone());
            }
            EventKind::Free => _ = close(e, &mut live, &mut allocs),
        }
    }
    let reused = allocs.len() as u64;
    // The allocator state at the divergence point is a pure function
    // of what is occupied — reconstruct it from the prefix placements
    // still live and replay the dirty tail.
    let occupied =
        allocs.iter().filter(|a| live[a.root.index()] != NOT_LIVE).map(|a| (a.offset, a.bytes));
    let mut fl = FreeList::from_occupied(occupied.collect());
    replay(&events[lcp..], &mut fl, &mut live, &mut allocs)?;
    debug_assert!(live.iter().all(|&k| k == NOT_LIVE));
    let planned_peak_bytes = allocs.iter().map(|a| a.offset + a.bytes).max().unwrap_or(0);
    let liveness_peak_bytes = liveness_peak_of(&events)?;
    let plan = MemoryPlan { planned_peak_bytes, liveness_peak_bytes, steps, allocs };

    obs().delta_plans.inc();
    obs().reused_allocs.add(reused);
    obs().replanned_allocs.add(plan.allocs.len() as u64 - reused);
    record_plan(&plan);

    #[cfg(debug_assertions)]
    {
        let full = plan_from_parts(lt, &pos, steps).expect("full re-plan of a planned schedule");
        debug_assert_eq!(
            plan, full,
            "delta re-planning must be bit-identical to a from-scratch plan"
        );
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::memory_profile;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::graph::Graph;
    use magis_graph::tensor::DType;

    fn plan_of(g: &Graph) -> (MemoryPlan, Vec<NodeId>) {
        let order = topo_order(g);
        (memory_plan(g, &order).expect("plannable"), order)
    }

    #[test]
    fn empty_graph_plans_empty() {
        let g = Graph::new();
        let plan = memory_plan(&g, &[]).unwrap();
        assert_eq!(plan.planned_peak_bytes, 0);
        assert_eq!(plan.allocations().len(), 0);
        assert_eq!(plan.fragmentation_ratio(), 1.0);
    }

    #[test]
    fn chain_plan_matches_liveness() {
        // x -> relu -> relu: equal-size tensors, perfect reuse — no
        // fragmentation, planned == liveness.
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256], "x");
        for _ in 0..4 {
            cur = b.relu(cur);
        }
        let g = b.finish();
        let (plan, order) = plan_of(&g);
        let prof = memory_profile(&g, &order);
        assert_eq!(plan.liveness_peak_bytes, prof.peak_bytes);
        assert_eq!(plan.planned_peak_bytes, prof.peak_bytes, "chain reuse is exact");
        assert_eq!(plan.fragmentation_ratio(), 1.0);
    }

    #[test]
    fn planned_peak_dominates_liveness() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let w = b.weight([64, 64], "w");
        let h = b.matmul(x, w);
        let h2 = b.relu(h);
        let _y = b.matmul(h2, w);
        let g = b.finish();
        let (plan, order) = plan_of(&g);
        let prof = memory_profile(&g, &order);
        assert!(plan.planned_peak_bytes >= prof.peak_bytes);
        assert_eq!(plan.liveness_peak_bytes, prof.peak_bytes);
    }

    #[test]
    fn coalescing_reclaims_a_fully_freed_region() {
        // x (4160 B) and w (160 B) are adjacent; both die once m is
        // consumed, and `big` (4160 B) only fits at offset 0 if the two
        // freed neighbors were merged into one 4320 B block.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([26, 40], "x"); // 4160 B
        let w = b.weight([40, 1], "w"); // 160 B
        let m = b.matmul(x, w); // 104 B
        let w2 = b.weight([1, 40], "w2"); // 160 B
        let big = b.matmul(m, w2); // 4160 B
        let g = b.finish();
        let order = vec![x, w, w2, m, big];
        let plan = memory_plan(&g, &order).unwrap();
        let find = |n: NodeId| plan.allocations().iter().find(|a| a.root == n).unwrap();
        // Inputs are resident from step 0, placed in root-id order:
        // x@0, w@4160, w2@4320, then m@4480.
        assert_eq!(find(x).offset, 0);
        assert_eq!(find(w).offset, 4160);
        assert_eq!(find(w2).offset, 4320);
        assert_eq!(find(m).offset, 4480);
        // At big's step x and w are dead; their blocks coalesce into
        // [0, 4320) and best-fit places big there, not on top.
        assert_eq!(find(big).offset, 0, "coalesced region was reclaimed");
        assert_eq!(plan.planned_peak_bytes, 4480 + 104);
    }

    #[test]
    fn allocations_never_overlap_in_time_and_address() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([128, 128], "x");
        let w = b.weight([128, 128], "w");
        let h = b.matmul(x, w);
        let h2 = b.gelu(h);
        let h3 = b.add_op(h2, x);
        let _y = b.matmul(h3, w);
        let g = b.finish();
        let (plan, _) = plan_of(&g);
        let allocs = plan.allocations();
        for i in 0..allocs.len() {
            for j in i + 1..allocs.len() {
                let (a, c) = (&allocs[i], &allocs[j]);
                let time_overlap = a.alloc_step <= c.free_step && c.alloc_step <= a.free_step;
                let addr_overlap = a.offset < c.offset + c.bytes && c.offset < a.offset + a.bytes;
                assert!(
                    !(time_overlap && addr_overlap),
                    "{a:?} and {c:?} overlap in time x address"
                );
            }
        }
    }

    #[test]
    fn delta_plan_identical_to_full_on_reorder() {
        // Same graph, two schedules: the delta path re-bases the clean
        // prefix and replays the rest, matching a from-scratch plan.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256], "x");
        let a1 = b.relu(x);
        let a2 = b.gelu(x);
        let y = b.add_op(a1, a2);
        let g = b.finish();
        let order1 = vec![x, a1, a2, y];
        let order2 = vec![x, a2, a1, y];
        let parent = memory_plan(&g, &order1).unwrap();
        let pos2 = position_table(&g, &order2);
        let lt2 = compute_lifetimes(&g, &order2, &pos2);
        let delta = memory_plan_delta(&g, &order2, &lt2, &parent).unwrap();
        let full = memory_plan(&g, &order2).unwrap();
        assert_eq!(delta, full);
    }

    #[test]
    fn delta_plan_with_identical_schedule_is_a_full_copy() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64, 64], "x");
        let w = b.weight([64, 64], "w");
        let _y = b.matmul(x, w);
        let g = b.finish();
        let order = topo_order(&g);
        let parent = memory_plan(&g, &order).unwrap();
        let pos = position_table(&g, &order);
        let lt = compute_lifetimes(&g, &order, &pos);
        let delta = memory_plan_delta(&g, &order, &lt, &parent).unwrap();
        assert_eq!(delta, parent);
    }

    #[test]
    fn free_list_best_fit_and_coalescing() {
        let mut fl = FreeList::new();
        // Three appended blocks: a[0,100) b[100,50) c[150,200).
        assert_eq!(fl.alloc(100, 0).unwrap(), 0);
        assert_eq!(fl.alloc(50, 0).unwrap(), 100);
        assert_eq!(fl.alloc(200, 0).unwrap(), 150);
        assert_eq!(fl.top, 350);
        // Free a and b separately: they coalesce into [0, 150).
        fl.free(0, 100);
        fl.free(100, 50);
        assert_eq!(fl.by_off.len(), 1);
        assert_eq!(fl.by_off[&0], 150);
        // Best fit: a 40-byte request goes into the gap, not on top.
        assert_eq!(fl.alloc(40, 0).unwrap(), 0);
        // A too-large request appends at top.
        assert_eq!(fl.alloc(120, 0).unwrap(), 350);
        // Freeing the top block truncates `top` instead of listing it.
        fl.free(350, 120);
        assert_eq!(fl.top, 350);
        fl.free(150, 200);
        // [40,150) free + [150,350) free merge and truncate to 40.
        assert_eq!(fl.top, 40);
        assert!(fl.by_off.is_empty());
    }

    #[test]
    fn from_occupied_matches_replay_state() {
        // Occupied {[10,20), [40,10)} -> gaps [0,10) and [30,10), top 50.
        let fl = FreeList::from_occupied(vec![(40, 10), (10, 20)]);
        assert_eq!(fl.top, 50);
        assert_eq!(fl.by_off.len(), 2);
        assert_eq!(fl.by_off[&0], 10);
        assert_eq!(fl.by_off[&30], 10);
    }

    #[test]
    fn objective_parses_and_displays() {
        assert_eq!(MemObjective::parse("liveness"), Some(MemObjective::Liveness));
        assert_eq!(MemObjective::parse("planned"), Some(MemObjective::Planned));
        assert_eq!(MemObjective::parse("bogus"), None);
        assert_eq!(MemObjective::Planned.to_string(), "planned");
        assert_eq!(MemObjective::default(), MemObjective::Liveness);
    }
}
