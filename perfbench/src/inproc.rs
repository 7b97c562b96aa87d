//! In-process optimization requests through `magis_core::optimizer`,
//! and the correctness check every request's result goes through.

use crate::deck::{Kind, Request};
use magis_core::optimizer::{try_optimize, Objective, OptimizeResult, OptimizerConfig};
use magis_core::state::{EvalContext, MState};
use magis_graph::graph::Graph;
use magis_sim::MemObjective;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A soft budget no request reaches: only the evaluation cap may stop a
/// search, so every result is a pure function of its input.
const NO_WALL_BUDGET: Duration = Duration::from_secs(3600);

/// An input graph and its unoptimized cost, which a request's latency
/// limit and result ratios are relative to.
pub struct Input {
    pub graph: Graph,
    /// Liveness peak of the unoptimized graph.
    pub peak: u64,
    /// Allocator-planned peak, when evaluated under the planned
    /// objective.
    pub planned_peak: Option<u64>,
    pub latency: f64,
}

impl Input {
    /// Evaluates the initial state of `graph` under `objective`.
    pub fn new(graph: Graph, objective: MemObjective) -> Input {
        let init = MState::initial(graph.clone(), &context(objective));
        Input {
            peak: init.eval.peak_bytes,
            planned_peak: init.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
            latency: init.eval.latency,
            graph,
        }
    }
}

/// Builds every model of `kind` and evaluates its initial state: the
/// set-up a caller pays before its first request. The in-process
/// workloads search under a single objective.
pub fn setup(kind: Kind) -> Vec<Input> {
    let objective = kind.objectives()[0];
    kind.models()
        .into_iter()
        .map(|(model, scale)| Input::new(model.build(scale).graph, objective))
        .collect()
}

pub fn context(objective: MemObjective) -> EvalContext {
    EvalContext {
        mem_objective: objective,
        ..EvalContext::default()
    }
}

/// The optimizer configuration of one request, with a fresh evaluation
/// context (and so a cold operator-cost cache) as a new caller has.
pub fn config(req: &Request, latency: f64, threads: usize, cap: usize) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::new(Objective::MinMemory {
        lat_limit: latency * req.factor,
    })
    .with_budget(NO_WALL_BUDGET)
    .with_max_evals(cap)
    .with_threads(threads)
    .with_driver(req.driver);
    cfg.ctx = context(req.objective);
    cfg
}

/// The deterministic outcome of one request: what repeats of the same
/// request, and served runs of it, must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub peak_bytes: u64,
    pub planned_peak: Option<u64>,
    pub latency_bits: u64,
    pub evaluated: u64,
    pub expanded: u64,
    pub cache_hits: u64,
}

impl Outcome {
    pub fn of(res: &OptimizeResult) -> Outcome {
        Outcome {
            peak_bytes: res.best.eval.peak_bytes,
            planned_peak: res.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
            latency_bits: res.best.eval.latency.to_bits(),
            evaluated: res.stats.evaluated as u64,
            expanded: res.stats.expanded as u64,
            cache_hits: res.stats.eval_cache_hits as u64,
        }
    }

    /// Objective peak over the input's, and latency over the input's.
    pub fn ratios(&self, input: &Input) -> (f64, f64) {
        let peak = match (self.planned_peak, input.planned_peak) {
            (Some(best), Some(init)) => best as f64 / init as f64,
            _ => self.peak_bytes as f64 / input.peak as f64,
        };
        (peak, f64::from_bits(self.latency_bits) / input.latency)
    }
}

/// Runs one request and times it; a panic or an error is returned as
/// `Err`.
pub fn timed(graph: Graph, cfg: &OptimizerConfig) -> (Result<OptimizeResult, String>, f64) {
    let t0 = Instant::now();
    let res = match catch_unwind(AssertUnwindSafe(|| try_optimize(graph, cfg))) {
        Ok(Ok(res)) => Ok(res),
        Ok(Err(e)) => Err(format!("optimize failed: {e}")),
        Err(_) => Err("optimize panicked".into()),
    };
    (res, t0.elapsed().as_secs_f64())
}

/// Checks a result against an independent recomputation: both graphs
/// validate, the schedule covers the overlay graph exactly once in
/// topological order, a from-scratch evaluation of that order gives the
/// reported peak and latency bit for bit, and under the planned
/// objective a from-scratch plan gives the reported planned peak. The
/// search must also have stopped for a reason that is not wall-clock.
pub fn check(res: &OptimizeResult, cfg: &OptimizerConfig) -> Result<(), String> {
    if !res.stats.stop_reason.is_deterministic() {
        return Err(format!(
            "stopped by {}, not by the evaluation cap",
            res.stats.stop_reason
        ));
    }
    let best = &res.best;
    best.base
        .validate()
        .map_err(|e| format!("base graph: {e}"))?;
    best.eval
        .graph
        .validate()
        .map_err(|e| format!("overlay graph: {e}"))?;
    magis_sched::validate_schedule(&best.eval.graph, &best.eval.order)
        .map_err(|e| format!("schedule: {e}"))?;
    let full = magis_sim::evaluate_checked(&best.eval.graph, &best.eval.order, &cfg.ctx.cost())
        .map_err(|e| format!("re-evaluation: {e}"))?;
    if full.peak_bytes != best.eval.peak_bytes {
        return Err(format!(
            "peak {} re-evaluates to {}",
            best.eval.peak_bytes, full.peak_bytes
        ));
    }
    if full.latency.to_bits() != best.eval.latency.to_bits() {
        return Err(format!(
            "latency {:e} re-evaluates to {:e}",
            best.eval.latency, full.latency
        ));
    }
    if cfg.ctx.mem_objective == MemObjective::Planned {
        let reported = best
            .eval
            .plan
            .as_ref()
            .ok_or("planned objective without a plan")?;
        let plan = magis_sim::memory_plan(&best.eval.graph, &best.eval.order)
            .map_err(|e| format!("re-plan: {e}"))?;
        if plan.planned_peak_bytes != reported.planned_peak_bytes {
            return Err(format!(
                "planned peak {} re-plans to {}",
                reported.planned_peak_bytes, plan.planned_peak_bytes
            ));
        }
    }
    if let Objective::MinMemory { lat_limit } = cfg.objective {
        if best.eval.latency > lat_limit {
            return Err(format!(
                "latency {:e} over the limit {lat_limit:e}",
                best.eval.latency
            ));
        }
    }
    Ok(())
}
