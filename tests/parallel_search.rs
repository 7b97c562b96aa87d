//! Determinism and thread-safety of the parallel M-Optimizer.
//!
//! The parallel candidate-evaluation layer must be invisible in the
//! results: `threads = 1` and `threads = N` run the same search
//! trajectory — identical incumbent, identical progress history,
//! identical counters — because candidates are sorted by a total
//! order before the fan-out and merged back in that order.
//!
//! The eval cap (`max_evals`) is small and the wall-clock budget is
//! generous, so neither run can time out mid-batch; timing is then the
//! only nondeterministic input and it never influences the trajectory.

use magis::prelude::*;
use std::time::Duration;

/// A capped, never-timing-out configuration.
fn capped(objective: Objective, threads: usize) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(threads)
}

/// Runs one workload under one objective with the given thread count
/// and returns everything the trajectory determines.
struct Run {
    best: (u64, f64),
    history: Vec<(u64, f64)>,
    evaluated: usize,
    expanded: usize,
    candidates: usize,
    filtered: usize,
    analyses: usize,
}

impl Run {
    fn of(res: &magis::core::optimizer::OptimizeResult) -> Run {
        Run {
            best: res.best.cost(),
            history: res.history.iter().map(|p| (p.peak_bytes, p.latency)).collect(),
            evaluated: res.stats.evaluated,
            expanded: res.stats.expanded,
            candidates: res.stats.candidates,
            filtered: res.stats.filtered,
            analyses: res.stats.analyses,
        }
    }
}

fn run(tg: &Graph, objective: Objective, threads: usize) -> Run {
    let res = optimize(tg.clone(), &capped(objective, threads));
    assert_eq!(res.stats.threads, threads);
    Run::of(&res)
}

fn assert_identical(w: Workload, scale: f64) {
    let tg = w.build(scale);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let objectives = [
        Objective::MinMemory { lat_limit: init.eval.latency * 1.10 },
        Objective::MinLatency {
            mem_limit: (init.eval.peak_bytes as f64 * 0.8) as u64,
        },
    ];
    for objective in objectives {
        let serial = run(&tg.graph, objective, 1);
        let parallel = run(&tg.graph, objective, 4);
        assert_eq!(
            serial.best, parallel.best,
            "{}: best (peak_bytes, latency) must not depend on thread count",
            w.label()
        );
        assert_eq!(
            serial.history.len(),
            parallel.history.len(),
            "{}: incumbent-improvement history length must match",
            w.label()
        );
        assert_eq!(serial.history, parallel.history, "{}: history points", w.label());
        assert_eq!(serial.evaluated, parallel.evaluated, "{}: evaluated", w.label());
        assert_eq!(serial.expanded, parallel.expanded, "{}: expanded", w.label());
        assert_eq!(serial.candidates, parallel.candidates, "{}: candidates", w.label());
        assert_eq!(serial.filtered, parallel.filtered, "{}: filtered", w.label());
        assert_eq!(serial.analyses, parallel.analyses, "{}: F-Tree analyses", w.label());
        assert!(serial.evaluated > 0, "{}: the capped search did real work", w.label());
        assert!(serial.analyses >= 1, "{}: the seed is analyzed", w.label());
    }
}

#[test]
fn unet_is_deterministic_across_thread_counts() {
    assert_identical(Workload::UNet, 0.15);
}

#[test]
fn bert_is_deterministic_across_thread_counts() {
    assert_identical(Workload::BertBase, 0.1);
}

#[test]
fn resnet_is_deterministic_across_thread_counts() {
    assert_identical(Workload::ResNet50, 0.1);
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Beyond serial-vs-parallel: the parallel path replayed twice must
    // agree with itself (no hidden iteration-order dependence).
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let a = run(&tg.graph, obj, 4);
    let b = run(&tg.graph, obj, 4);
    assert_eq!(a.best, b.best);
    assert_eq!(a.history, b.history);
}

#[test]
fn concurrent_optimize_calls_share_a_graph() {
    // Two searches from different threads over the same model must not
    // interfere: `optimize` holds no global mutable state, and the
    // shared `Graph` is only read.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let g = &tg.graph;
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(move || run(g, obj, 2));
        let hb = s.spawn(move || run(g, obj, 2));
        (ha.join().expect("first search"), hb.join().expect("second search"))
    });
    assert_eq!(a.best, b.best);
    assert_eq!(a.history, b.history);
    assert_eq!(a.evaluated, b.evaluated);
}

/// Counters and trace identities of a search capped at `max_evals`,
/// traced through a sink scoped to this thread (the merge thread, the
/// only writer of per-candidate records) so tests running alongside
/// cannot leak records into it.
fn traced_capped(
    tg: &Graph,
    objective: Objective,
    threads: usize,
    max_evals: usize,
) -> (Run, Vec<usize>, Vec<String>) {
    use magis::obs::trace::{self, BufferSink, TraceEvent};
    let cfg = capped(objective, threads).with_max_evals(max_evals);
    let sink = std::sync::Arc::new(BufferSink::new());
    let guard = trace::scoped(sink.clone(), Vec::new());
    let res = optimize(tg.clone(), &cfg);
    drop(guard);
    let s = &res.stats;
    let counters = vec![
        s.panicked,
        s.cost_rejections,
        s.invariant_rejections,
        s.quarantined_candidates,
        s.eval_cache_hits,
        s.eval_cache_misses,
        s.eval_cache_evictions,
        s.eval_cache_purged,
    ];
    let mut identities: Vec<String> = sink.take().iter().map(TraceEvent::identity).collect();
    identities.sort();
    (Run::of(&res), counters, identities)
}

#[test]
fn eval_cap_inside_the_first_batch_is_thread_count_invariant() {
    // A cap smaller than the first expansion's batch: the fan-out's
    // claim gate closes mid-batch, and candidates still in flight on
    // other workers must leave no trace in the result.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    for max_evals in [1, 5] {
        let (serial, serial_counts, serial_ids) = traced_capped(&tg.graph, obj, 1, max_evals);
        let (parallel, parallel_counts, parallel_ids) = traced_capped(&tg.graph, obj, 4, max_evals);
        assert_eq!(serial.expanded, 1, "cap {max_evals} ends the search in its first expansion");
        assert!(serial.candidates > max_evals, "cap {max_evals} cuts the first batch");
        assert_eq!(serial.evaluated, max_evals);
        assert_eq!(serial.best, parallel.best, "cap {max_evals}: best");
        assert_eq!(serial.history, parallel.history, "cap {max_evals}: history");
        assert_eq!(serial.evaluated, parallel.evaluated, "cap {max_evals}: evaluated");
        assert_eq!(serial.expanded, parallel.expanded, "cap {max_evals}: expanded");
        assert_eq!(serial.candidates, parallel.candidates, "cap {max_evals}: candidates");
        assert_eq!(serial.filtered, parallel.filtered, "cap {max_evals}: filtered");
        assert_eq!(serial.analyses, parallel.analyses, "cap {max_evals}: F-Tree analyses");
        assert_eq!(serial_counts, parallel_counts, "cap {max_evals}: counters");
        assert!(serial_ids.iter().any(|id| id.starts_with("span:magis_core/candidate_eval[")));
        assert_eq!(serial_ids, parallel_ids, "cap {max_evals}: trace identity multiset");
    }
}

#[test]
fn search_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Graph>();
    assert_send_sync::<MState>();
    assert_send_sync::<EvalContext>();
    assert_send_sync::<OptimizerConfig>();
    assert_send_sync::<magis::sim::PerfCache>();
}
