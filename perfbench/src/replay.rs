//! The traced replay: per-layer self-times of one candidate evaluation.
//!
//! Starting from each input's initial state, the replay walks a greedy
//! descent. At every step it generates the candidate batch and, for each
//! candidate, calls the layers' public functions in the order the
//! engine's candidate evaluation uses: `rules::apply`, the overlay
//! build, the structural hash, the evaluation-cache probe and then, on
//! a miss, the steps of `MState::from_applied` one by one (the
//! reschedule interval, partition, DP per piece, order stabilisation,
//! delta profile, delta plan, swap placement and simulation). Each
//! replayed child is compared bit for bit with `MState::from_applied`
//! on the same input, so the timings describe the program that runs.

use crate::deck::Kind;
use magis_core::eval_cache::EvalCache;
use magis_core::rules::{self, Applied, RuleConfig};
use magis_core::state::{build_overlay_graph, EvalContext, MState};
use magis_graph::algo::graph_hash;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::GraphView;
use magis_sched::{
    dp_schedule, partition, place_swaps, reschedule_interval_cached, stabilize_order, SchedTask,
};
use magis_sim::{MemObjective, MemoryPlan};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// F-Tree depth the optimizer analyses with by default.
const MAX_LEVEL: usize = 4;
/// Latency factor the descent keeps its chosen children within.
const DESCENT_FACTOR: f64 = 1.10;

/// Spans that together make up `MState::from_applied`: their summed
/// self-times must account for the reference call's time.
pub const FROM_APPLIED_PARTS: [&str; 10] = [
    "state.overlay",
    "sched.interval",
    "sched.splice",
    "sched.partition",
    "sched.dp",
    "sched.stabilize",
    "sim.delta_profile",
    "sim.plan_delta",
    "sched.place_swaps",
    "sim.evaluate",
];

/// Summed span time and call count per layer, plus deterministic work
/// counters. With `timed == false` no clock is read, which is how the
/// tracing overhead is measured.
#[derive(Debug, Default)]
pub struct Layers {
    pub timed: bool,
    pub spans: BTreeMap<&'static str, (Duration, u64)>,
    pub counts: BTreeMap<&'static str, u64>,
    /// Largest DP piece scheduled, in nodes.
    pub dp_max_piece: u64,
    /// Replayed children that differed from `MState::from_applied`.
    pub mismatches: Vec<String>,
}

impl Layers {
    pub fn new(timed: bool) -> Layers {
        Layers {
            timed,
            ..Layers::default()
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.timed {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(name, t0.elapsed());
        out
    }

    fn record(&mut self, name: &'static str, d: Duration) {
        let e = self.spans.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Summed span time of `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans.get(name).map_or(Duration::ZERO, |e| e.0)
    }

    /// Number of calls `name` timed.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |e| e.1)
    }

    pub fn merge(&mut self, other: Layers) {
        for (k, (d, n)) in other.spans {
            let e = self.spans.entry(k).or_default();
            e.0 += d;
            e.1 += n;
        }
        for (k, n) in other.counts {
            *self.counts.entry(k).or_default() += n;
        }
        self.dp_max_piece = self.dp_max_piece.max(other.dp_max_piece);
        self.mismatches.extend(other.mismatches);
    }
}

/// What the replica of the evaluation pipeline produced for one child.
struct Replayed {
    order: Vec<NodeId>,
    peak_bytes: u64,
    latency_bits: u64,
    planned_peak: Option<u64>,
}

/// One replay input: a model's graph and the objective it is searched
/// under.
pub struct ReplayInput {
    pub label: &'static str,
    pub graph: Graph,
    pub objective: MemObjective,
}

pub fn inputs(kind: Kind, graphs: &[Graph]) -> Vec<ReplayInput> {
    kind.models()
        .iter()
        .zip(graphs)
        .map(|(&(model, _), g)| ReplayInput {
            label: model.label(),
            graph: g.clone(),
            objective: kind.replay_objective(model),
        })
        .collect()
}

/// Replays `depth` expansions of a greedy descent over every input.
pub fn replay(inputs: &[ReplayInput], depth: usize, timed: bool) -> Layers {
    let mut layers = Layers::new(timed);
    for input in inputs {
        descend(input, depth, &mut layers);
    }
    layers
}

fn descend(input: &ReplayInput, depth: usize, l: &mut Layers) {
    let ctx = crate::inproc::context(input.objective);
    let mut state = MState::initial(input.graph.clone(), &ctx);
    let lat_limit = state.eval.latency * DESCENT_FACTOR;
    let mut cache = EvalCache::new(1024);
    for step in 0..depth {
        if state.tree_stale {
            l.time("ftree.analyze", || state.analyze(MAX_LEVEL));
        }
        let mut batch = l.time("rules.generate", || {
            rules::generate(&state, &RuleConfig::default())
        });
        batch.sort_by_key(|t| t.sort_key());
        l.count("rules.generated", batch.len() as u64);
        // Every child's parent reachability comes from this state; the
        // engine's first candidate pays for it, here it is paid up
        // front so neither side of the comparison below gets it free.
        state.eval.reachability();
        let mut best: Option<MState> = None;
        for (i, t) in batch.iter().enumerate() {
            let Ok(applied) = l.time("rules.apply", || rules::apply(&state, t)) else {
                l.count("rules.apply_failed", 1);
                continue;
            };
            let Ok(overlay) = l.time("state.overlay", || {
                build_overlay_graph(&applied.base, &applied.ftree)
            }) else {
                l.count("rules.apply_failed", 1);
                continue;
            };
            let hash = l.time("graph.hash", || graph_hash(&overlay));
            if l.time("eval_cache.probe", || {
                cache.get(hash, ctx.mem_objective).is_some()
            }) {
                continue;
            }
            // Alternate which side runs first so neither always finds
            // the caches warm.
            let (replayed, reference) = if i % 2 == 0 {
                let r = replay_eval(&state, &applied, overlay, &ctx, l);
                (r, from_applied(&applied, &state, &ctx, l))
            } else {
                let f = from_applied(&applied, &state, &ctx, l);
                (replay_eval(&state, &applied, overlay, &ctx, l), f)
            };
            let child = match (replayed, reference) {
                (Ok(r), Ok(c)) => {
                    if let Some(why) = differs(&r, &c) {
                        l.mismatches
                            .push(format!("{} step {step} {t}: {why}", input.label));
                    }
                    c
                }
                (Err(_), Err(_)) => continue,
                (r, c) => {
                    l.mismatches.push(format!(
                        "{} step {step} {t}: replay ok={} from_applied ok={}",
                        input.label,
                        r.is_ok(),
                        c.is_ok()
                    ));
                    continue;
                }
            };
            l.count("state.evaluated", 1);
            let unshared = unshared_pages(&child.base, &state.base)
                + unshared_pages(&child.eval.graph, &state.eval.graph);
            l.count("graph.pages_unshared", unshared as u64);
            let better = |b: &MState| child.cost().0 < b.cost().0;
            if child.eval.latency <= lat_limit && best.as_ref().is_none_or(better) {
                best = Some(child.clone());
            }
            cache.insert(hash, child, t.sort_key().0, ctx.mem_objective);
        }
        match best {
            Some(next) => state = next,
            None => break,
        }
    }
}

fn unshared_pages(child: &Graph, parent: &Graph) -> usize {
    child.page_count() - child.shared_pages_with(parent)
}

fn from_applied(
    applied: &Applied,
    parent: &MState,
    ctx: &EvalContext,
    l: &mut Layers,
) -> Result<MState, String> {
    let applied = applied.clone();
    l.time("state.from_applied", || {
        MState::from_applied(applied, parent, ctx)
    })
    .map_err(|e| e.to_string())
}

fn differs(r: &Replayed, c: &MState) -> Option<String> {
    if r.order != c.eval.order {
        return Some("schedule order differs".into());
    }
    if r.peak_bytes != c.eval.peak_bytes {
        return Some(format!("peak {} != {}", r.peak_bytes, c.eval.peak_bytes));
    }
    if r.latency_bits != c.eval.latency.to_bits() {
        return Some("latency bits differ".into());
    }
    let planned = c.eval.plan.as_ref().map(|p| p.planned_peak_bytes);
    if r.planned_peak != planned {
        return Some(format!("planned peak {:?} != {planned:?}", r.planned_peak));
    }
    None
}

/// The incremental evaluation of `MState::from_applied` with a parent,
/// one public call at a time.
fn replay_eval(
    parent: &MState,
    applied: &Applied,
    g: Graph,
    ctx: &EvalContext,
    l: &mut Layers,
) -> Result<Replayed, String> {
    let p = &parent.eval;
    let planned = ctx.mem_objective == MemObjective::Planned;
    let parent_plan = if planned { p.plan.as_ref() } else { None };
    let t_inc = Instant::now();

    let s_old: BTreeSet<NodeId> = l.time("sched.splice", || {
        applied
            .mutated
            .iter()
            .copied()
            .filter(|v| p.graph.contains(*v))
            .collect()
    });
    let interval = l.time("sched.interval", || {
        reschedule_interval_cached(
            &p.graph,
            &s_old,
            &p.order,
            &ctx.interval,
            Some(p.reachability()),
        )
    });
    let (beg, end) = interval.unwrap_or((p.order.len(), p.order.len()));
    l.count("sched.window_steps", end.saturating_sub(beg) as u64);
    let (prefix, suffix, s_new) = l.time("sched.splice", || {
        let prefix: Vec<NodeId> = p.order[..beg]
            .iter()
            .copied()
            .filter(|&v| g.contains(v))
            .collect();
        let suffix: Vec<NodeId> = p.order[end..]
            .iter()
            .copied()
            .filter(|&v| g.contains(v))
            .collect();
        let kept: BTreeSet<NodeId> = prefix.iter().chain(suffix.iter()).copied().collect();
        let s_new: BTreeSet<NodeId> = g.node_ids().filter(|v| !kept.contains(v)).collect();
        (prefix, suffix, s_new)
    });
    let pieces = l.time("sched.partition", || partition(&g, &s_new));
    let mut middle = Vec::with_capacity(s_new.len());
    for piece in pieces {
        l.dp_max_piece = l.dp_max_piece.max(piece.len() as u64);
        let (ids, states) = l.time("sched.dp", || {
            let set: BTreeSet<NodeId> = piece.iter().copied().collect();
            let task = SchedTask::subset(&g, &set);
            let res = dp_schedule(&task, &ctx.sched_incremental);
            (task.to_node_ids(&res.order), res.states_expanded)
        });
        l.count("sched.dp_states", states as u64);
        middle.extend(ids);
    }
    let desired: Vec<NodeId> = l.time("sched.splice", || {
        prefix.into_iter().chain(middle).chain(suffix).collect()
    });
    let rescheduled = l.time("sched.stabilize", || stabilize_order(&g, &desired));
    let carried = l.time("sched.stabilize", || stabilize_order(&g, &p.order));

    let profile_of = |l: &mut Layers, order: &[NodeId]| {
        l.time("sim.delta_profile", || {
            magis_sim::memory_profile_delta(&g, order, &p.graph, &p.order, &p.lifetimes, &s_old)
        })
        .map_err(|e| e.to_string())
    };
    let (new_prof, new_lt) = profile_of(l, &rescheduled)?;
    let plan_of = |l: &mut Layers, order: &[NodeId], lt| -> Result<Option<MemoryPlan>, String> {
        match parent_plan {
            Some(pp) => l
                .time("sim.plan_delta", || {
                    magis_sim::memory_plan_delta(&g, order, lt, pp)
                })
                .map(Some)
                .map_err(|e| e.to_string()),
            None => Ok(None),
        }
    };
    let (order, profile, lifetimes, inc_plan) = if carried == rescheduled {
        let plan = plan_of(l, &rescheduled, &new_lt)?;
        (rescheduled, new_prof, new_lt, plan)
    } else {
        let (old_prof, old_lt) = profile_of(l, &carried)?;
        let new_plan = plan_of(l, &rescheduled, &new_lt)?;
        let old_plan = plan_of(l, &carried, &old_lt)?;
        let carried_won = match (&new_plan, &old_plan) {
            (Some(np), Some(op)) => {
                (np.planned_peak_bytes, new_prof.peak_bytes)
                    > (op.planned_peak_bytes, old_prof.peak_bytes)
            }
            _ => new_prof.peak_bytes > old_prof.peak_bytes,
        };
        if carried_won {
            l.count("sched.carried_won", 1);
            (carried, old_prof, old_lt, old_plan)
        } else {
            (rescheduled, new_prof, new_lt, new_plan)
        }
    };
    if l.timed {
        l.record("sched.incremental", t_inc.elapsed());
    }

    let placed = l.time("sched.place_swaps", || {
        place_swaps(&g, &order, ctx.perf.as_ref())
    });
    let (profile, plan) = if placed == order {
        let plan = match (planned, inc_plan) {
            (true, Some(plan)) => Some(plan),
            (true, None) => Some(
                l.time("sim.plan_delta", || {
                    magis_sim::plan_from_lifetimes(&g, &placed, &lifetimes)
                })
                .map_err(|e| e.to_string())?,
            ),
            (false, _) => None,
        };
        (profile, plan)
    } else {
        let (profile, lifetimes) = l
            .time("sim.delta_profile", || {
                magis_sim::memory_profile_delta(
                    &g,
                    &placed,
                    &g,
                    &order,
                    &lifetimes,
                    &BTreeSet::new(),
                )
            })
            .map_err(|e| e.to_string())?;
        let plan = match (planned, &inc_plan) {
            (true, Some(pp)) => Some(
                l.time("sim.plan_delta", || {
                    magis_sim::memory_plan_delta(&g, &placed, &lifetimes, pp)
                })
                .map_err(|e| e.to_string())?,
            ),
            (true, None) => Some(
                l.time("sim.plan_delta", || {
                    magis_sim::plan_from_lifetimes(&g, &placed, &lifetimes)
                })
                .map_err(|e| e.to_string())?,
            ),
            (false, _) => None,
        };
        (profile, plan)
    };
    let ev = l
        .time("sim.evaluate", || {
            magis_sim::evaluate_with_plan(&g, &placed, ctx.perf.as_ref(), profile, plan.as_ref())
        })
        .map_err(|e| e.to_string())?;
    Ok(Replayed {
        order: placed,
        peak_bytes: ev.peak_bytes,
        latency_bits: ev.latency.to_bits(),
        planned_peak: plan.map(|p| p.planned_peak_bytes),
    })
}
