//! # magis-sim
//!
//! Device, cost, and memory simulation substrate for the MAGIS
//! reproduction. Substitutes for the paper's GPU profiling harness (see
//! DESIGN.md §2): an RTX-3090-like analytic [`DeviceSpec`], a roofline
//! [`CostModel`] with small-kernel utilization penalties, a step-level
//! memory profiler with hot-spot extraction, and a two-stream execution
//! simulator that overlaps swap transfers with compute.
//!
//! ```
//! use magis_graph::builder::GraphBuilder;
//! use magis_graph::tensor::DType;
//! use magis_graph::algo::topo_order;
//! use magis_sim::{CostModel, evaluate_checked};
//!
//! let mut b = GraphBuilder::new(DType::F32);
//! let x = b.input([512, 512], "x");
//! let w = b.weight([512, 512], "w");
//! let y = b.matmul(x, w);
//! let g = b.finish();
//! let order = topo_order(&g);
//! let ev = evaluate_checked(&g, &order, &CostModel::default()).unwrap();
//! assert!(ev.latency > 0.0 && ev.peak_bytes > 0);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod calibrate;
pub mod cost;
pub mod delta;
pub mod device;
pub mod exec;
pub mod memory;
pub mod plan;
pub mod profile;

pub use backend::{
    Backend, BackendRegistry, EfficiencyTable, OpClass, SpecError, DEFAULT_BACKEND,
};
pub use calibrate::{CalibrationError, TraceSample};
pub use cost::{CostError, CostModel, NodeCost};
pub use delta::memory_profile_delta;
pub use device::DeviceSpec;
pub use exec::{memory_timeline, simulate, ExecTimeline};
pub use memory::{memory_profile, storage_root, Lifetimes, MemoryProfile};
pub use plan::{
    memory_plan, memory_plan_delta, plan_from_lifetimes, MemObjective, MemoryPlan, PlannedAlloc,
};
pub use profile::{OpCost, PerfCache, UncachedCost};

use magis_graph::GraphView;
use magis_graph::graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// Observability handles, looked up once. All recording is dropped on
/// suppressed (worker) threads, so parallel-search over-evaluation
/// cannot skew these counts — see `magis_obs::gate`.
struct ObsHandles {
    evaluations: magis_obs::metrics::Counter,
    eval_failures: magis_obs::metrics::Counter,
    eval_seconds: magis_obs::metrics::Histogram,
}

fn obs() -> &'static ObsHandles {
    static OBS: OnceLock<ObsHandles> = OnceLock::new();
    OBS.get_or_init(|| ObsHandles {
        evaluations: magis_obs::metrics::counter("magis_sim_evaluations"),
        eval_failures: magis_obs::metrics::counter("magis_sim_eval_failures"),
        eval_seconds: magis_obs::metrics::histogram("magis_sim_eval_seconds"),
    })
}

/// Combined latency + memory evaluation of a scheduled graph.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// End-to-end latency in seconds (swap-overlap aware).
    pub latency: f64,
    /// Peak device memory in bytes (liveness sum — the paper's
    /// `M_peak`), regardless of the active objective.
    pub peak_bytes: u64,
    /// Allocator high-water mark when the planning stage ran
    /// ([`evaluate_with_plan`] with a plan), `None` otherwise.
    pub planned_peak_bytes: Option<u64>,
    /// Full memory profile (per-step usage, hot-spots).
    pub memory: MemoryProfile,
}

/// The memory side of one evaluation: the liveness profile, the
/// per-root lifetime table it was swept from, and — under
/// [`MemObjective::Planned`] — the allocator plan. Every evaluation
/// path builds these through [`MemoryTables::new`], from scratch or as
/// a delta from a parent's tables.
#[derive(Debug, Clone)]
pub struct MemoryTables {
    /// Liveness profile (per-step usage, peak, hot-spots).
    pub profile: MemoryProfile,
    /// Lifetime table of the order, the parent table of the next
    /// delta update.
    pub lifetimes: Lifetimes,
    /// Offset-assigning plan, present exactly under
    /// [`MemObjective::Planned`].
    pub plan: Option<MemoryPlan>,
}

/// The already-evaluated parent a [`MemoryTables`] is derived from:
/// its graph, order and tables, plus the rewrite's touched node set
/// (see [`memory_profile_delta`]).
#[derive(Debug, Clone, Copy)]
pub struct ParentTables<'a> {
    /// The parent's graph.
    pub graph: &'a Graph,
    /// The parent's order.
    pub order: &'a [NodeId],
    /// Lifetime table of `(graph, order)`.
    pub lifetimes: &'a Lifetimes,
    /// Memory plan of `(graph, order)`, if the parent was planned.
    pub plan: Option<&'a MemoryPlan>,
    /// Nodes whose edges the rewrite changed, in either graph's ids.
    pub touched: &'a BTreeSet<NodeId>,
}

impl MemoryTables {
    /// The tables of `g` executed in `order` under `objective`.
    ///
    /// Without a parent everything is computed from scratch. With one,
    /// the profile is a [`memory_profile_delta`] of the parent's
    /// lifetimes and the plan a [`memory_plan_delta`] of the parent's
    /// plan, or a from-scratch [`plan_from_lifetimes`] when the parent
    /// carries none. Either way the result is bit-identical to the
    /// from-scratch tables.
    ///
    /// # Errors
    ///
    /// Returns [`CostError::BadSchedule`] when `order` does not cover
    /// `g` exactly once, and the conservation/overflow errors of the
    /// profile and plan.
    pub fn new(
        g: &Graph,
        order: &[NodeId],
        objective: MemObjective,
        parent: Option<ParentTables<'_>>,
    ) -> Result<MemoryTables, CostError> {
        let (profile, lifetimes) = match &parent {
            Some(p) => memory_profile_delta(g, order, p.graph, p.order, p.lifetimes, p.touched)?,
            None => memory::profile_lifetimes(g, order)?,
        };
        let plan = match (objective, parent.and_then(|p| p.plan)) {
            (MemObjective::Liveness, _) => None,
            (MemObjective::Planned, Some(pp)) => Some(memory_plan_delta(g, order, &lifetimes, pp)?),
            (MemObjective::Planned, None) => Some(plan_from_lifetimes(g, order, &lifetimes)?),
        };
        Ok(MemoryTables { profile, lifetimes, plan })
    }

    /// `(objective peak, liveness peak)`: the planned high-water mark
    /// (or the liveness peak when unplanned), then the liveness peak as
    /// the tiebreak.
    pub fn key(&self) -> (u64, u64) {
        let peak = self.profile.peak_bytes;
        (self.plan.as_ref().map_or(peak, |p| p.planned_peak_bytes), peak)
    }

    /// These tables as the parent of `(graph, order)`'s successor, for
    /// a rewrite that changed the edges of `touched`.
    pub fn as_parent<'a>(
        &'a self,
        graph: &'a Graph,
        order: &'a [NodeId],
        touched: &'a BTreeSet<NodeId>,
    ) -> ParentTables<'a> {
        ParentTables {
            graph,
            order,
            lifetimes: &self.lifetimes,
            plan: self.plan.as_ref(),
            touched,
        }
    }
}

/// Evaluates a graph under a schedule from scratch: liveness tables,
/// then [`evaluate_with_plan`]. Every failure mode surfaces as a typed
/// [`CostError`] instead of a panic or silent garbage: schedule
/// coverage, per-node latency validity (NaN / infinite / negative),
/// total-latency finiteness, and memory-accounting conservation.
///
/// Generic over any [`NodeCost`] source — the raw [`CostModel`] for a
/// registry [`Backend`], or the shared [`PerfCache`].
pub fn evaluate_checked<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
) -> Result<Evaluation, CostError> {
    // The tables go first: they establish exact schedule coverage,
    // without which the simulation could index with an unscheduled
    // node's position and panic.
    let tables = MemoryTables::new(g, order, MemObjective::Liveness, None)
        .inspect_err(|_| obs().eval_failures.inc())?;
    evaluate_with_plan(g, order, cm, tables.profile, None)
}

/// The step every evaluation ends in: the checked two-stream
/// simulation over already-computed memory tables (a
/// [`MemoryTables`]'s profile and plan for the same `(g, order)`
/// pair, which establish exact schedule coverage). Callers handing in
/// a profile from anywhere else must have validated coverage
/// themselves: the simulation panics on wrong-length orders but trusts
/// `memory` and `plan`.
///
/// The latency source is any [`NodeCost`] — pass the shared
/// [`PerfCache`] to memoize per-operator latencies across candidates.
/// A plan's allocator high-water mark is surfaced as
/// [`Evaluation::planned_peak_bytes`].
///
/// # Errors
///
/// Returns a typed [`CostError`] on NaN/infinite/negative per-node or
/// total latencies.
///
/// # Panics
///
/// Panics if `order` has the wrong length for `g`.
pub fn evaluate_with_plan<C: NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
    memory: MemoryProfile,
    plan: Option<&MemoryPlan>,
) -> Result<Evaluation, CostError> {
    let start = std::time::Instant::now();
    let mut span = magis_obs::span!("magis_sim", "evaluate", nodes = g.len());
    // Each simulation counts once in the total and once in the labeled
    // per-backend family (a separate family, so the unlabeled series
    // stays untouched).
    obs().evaluations.inc();
    magis_obs::metrics::counter(&magis_obs::metrics::labeled(
        "magis_sim_evaluations_by_backend",
        &[("backend", cm.backend_name())],
    ))
    .inc();
    debug_assert!(
        plan.is_none_or(|p| p.liveness_peak_bytes == memory.peak_bytes),
        "the plan's liveness peak must agree with the profile it rides on"
    );
    // Latencies are validated inline as the simulation consumes them,
    // so a defect is attributed to the node that produced it without a
    // separate whole-schedule pass over the cost source.
    let result = exec::simulate(g, order, cm).and_then(|timeline| match timeline.total {
        t if !t.is_finite() => Err(CostError::NonFiniteLatency { node: None, value: t }),
        t if t < 0.0 => Err(CostError::NegativeLatency { node: None, value: t }),
        t => Ok(Evaluation {
            latency: t,
            peak_bytes: memory.peak_bytes,
            planned_peak_bytes: plan.map(|p| p.planned_peak_bytes),
            memory,
        }),
    });
    obs().eval_seconds.observe_duration(start.elapsed());
    match &result {
        Ok(ev) => {
            span.record("peak_bytes", ev.peak_bytes);
            span.record("latency", ev.latency);
        }
        Err(e) => {
            obs().eval_failures.inc();
            span.record("error", e.to_string());
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::topo_order;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    #[test]
    fn evaluate_combines_both() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([256, 256], "x");
        let w = b.weight([256, 256], "w");
        let h = b.matmul(x, w);
        let _y = b.relu(h);
        let g = b.finish();
        let order = topo_order(&g);
        let ev = evaluate_checked(&g, &order, &CostModel::default()).unwrap();
        assert!(ev.latency > 0.0);
        assert_eq!(ev.peak_bytes, ev.memory.peak_bytes);
        assert!(ev.peak_bytes >= 3 * 256 * 256 * 4);
    }

    #[test]
    fn evaluate_checked_accepts_valid_and_matches_its_parts() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([128, 128], "x");
        let _ = b.relu(x);
        let g = b.finish();
        let order = topo_order(&g);
        let cm = CostModel::default();
        let c = evaluate_checked(&g, &order, &cm).unwrap();
        assert_eq!(simulate(&g, &order, &cm).unwrap().total.to_bits(), c.latency.to_bits());
        assert_eq!(memory_profile(&g, &order).peak_bytes, c.peak_bytes);
    }

    #[test]
    fn delta_tables_equal_scratch_tables_under_both_objectives() {
        use magis_graph::op::{OpKind, UnaryKind};
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256], "x");
        for _ in 0..8 {
            cur = b.relu(cur);
        }
        let g_old = b.finish();
        let order_old = topo_order(&g_old);
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        let target = order_old[4];
        let input = txn.pre(target)[0];
        let twin = txn.add(OpKind::Unary(UnaryKind::Relu), &[input]).unwrap();
        let user = txn.suc(target)[0];
        txn.replace_input(user, target, twin);
        let g = txn.commit().0;
        let order = topo_order(&g);
        let touched: BTreeSet<NodeId> = [target, user].into_iter().collect();
        for objective in [MemObjective::Liveness, MemObjective::Planned] {
            let parent = MemoryTables::new(&g_old, &order_old, objective, None).unwrap();
            let delta = MemoryTables::new(
                &g,
                &order,
                objective,
                Some(parent.as_parent(&g_old, &order_old, &touched)),
            )
            .unwrap();
            let full = MemoryTables::new(&g, &order, objective, None).unwrap();
            assert_eq!(delta.profile.step_bytes, full.profile.step_bytes);
            assert_eq!(delta.profile.hotspots, full.profile.hotspots);
            assert_eq!(delta.lifetimes, full.lifetimes);
            assert_eq!(delta.plan, full.plan);
            assert_eq!(delta.plan.is_some(), objective == MemObjective::Planned);
            assert_eq!(delta.key(), full.key());
            let planned = full.plan.as_ref().map(|p| p.planned_peak_bytes);
            assert_eq!(delta.key().0, planned.unwrap_or(full.profile.peak_bytes));
            assert_eq!(delta.key().1, full.profile.peak_bytes);
        }
    }

    #[test]
    fn evaluate_checked_rejects_bad_coverage() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let _ = b.relu(x);
        let g = b.finish();
        let err = evaluate_checked(&g, &[x], &CostModel::default()).unwrap_err();
        assert!(matches!(err, CostError::BadSchedule { expected: 2, got: 1 }));
        // Duplicate entries keep the length right but break coverage;
        // the conservation sweep catches the resulting double-free.
        let err = evaluate_checked(&g, &[x, x], &CostModel::default());
        assert!(err.is_err());
    }
}
