//! Checkpoint/resume suite: a search that periodically serializes its
//! state can be killed at any point and resumed from the last
//! checkpoint to a valid incumbent no worse than the checkpointed one.

use magis::core::budget::SearchBudget;
use magis::core::checkpoint::SearchCheckpoint;
use magis::core::optimizer::{self, CheckpointPolicy, Objective, OptimizerConfig};
use magis::prelude::*;
use magis::sched::validate_schedule;
use magis::sim::MemObjective;
use std::path::PathBuf;
use std::time::Duration;

fn seed_state() -> (Graph, MState) {
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    (tg.graph, init)
}

/// A unique scratch path per test (tests run concurrently in one
/// process; the process id keeps parallel `cargo test` runs apart).
fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("magis_ckpt_{}_{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn capped(objective: Objective, max_evals: usize, threads: usize) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(max_evals)
        .with_threads(threads)
}

#[test]
fn checkpoint_file_round_trips_the_search_state() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("roundtrip");
    let cfg = capped(obj, 40, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(8));
    let res = optimizer::optimize(g, &cfg);
    assert!(res.stats.checkpoints_written >= 1, "periodic + final writes happened");
    assert_eq!(res.stats.checkpoint_failures, 0);

    let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");
    // The final write snapshots the finished search.
    assert_eq!(ckpt.best_cost, res.best.cost());
    assert_eq!(ckpt.counters.evaluated, res.stats.evaluated);
    assert_eq!(ckpt.counters.expanded, res.stats.expanded);
    assert_eq!(ckpt.seed_cost, init.cost());

    // The checkpointed incumbent restores to a valid, re-simulable
    // state with the exact recorded cost.
    let best = ckpt.restore_state(&EvalContext::default()).expect("restores");
    assert_eq!(best.cost(), ckpt.best_cost);
    best.eval.graph.validate().expect("restored graph validates");
    validate_schedule(&best.eval.graph, &best.eval.order).expect("restored schedule validates");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_from_mid_search_checkpoint_is_no_worse() {
    // Phase 1: a short run, as if killed after 18 evaluations.
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("midsearch");
    let cfg = capped(obj, 18, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(4));
    let partial = optimizer::optimize(g, &cfg);
    let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");

    // Phase 2: resume with a larger budget. The incumbent may only
    // improve on what the checkpoint recorded.
    let res = optimizer::resume(&ckpt, &capped(obj, 60, 1)).expect("resume succeeds");
    assert!(res.stats.resumed);
    assert!(
        res.best.eval.peak_bytes <= ckpt.best_cost.0,
        "resumed incumbent {} must be no worse than checkpointed {}",
        res.best.eval.peak_bytes,
        ckpt.best_cost.0
    );
    assert!(res.best.eval.peak_bytes <= partial.best.eval.peak_bytes);
    assert!(res.best.eval.peak_bytes <= init.eval.peak_bytes);
    assert!(
        res.stats.evaluated >= ckpt.counters.evaluated,
        "counters continue from the checkpoint"
    );
    res.best.eval.graph.validate().expect("incumbent graph validates");
    validate_schedule(&res.best.eval.graph, &res.best.eval.order)
        .expect("incumbent schedule validates");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn resume_is_deterministic_across_thread_counts() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("threads");
    let cfg = capped(obj, 18, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(6));
    let _ = optimizer::optimize(g, &cfg);
    let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");

    let serial = optimizer::resume(&ckpt, &capped(obj, 50, 1)).expect("serial resume");
    let parallel = optimizer::resume(&ckpt, &capped(obj, 50, 4)).expect("parallel resume");
    assert_eq!(serial.best.cost(), parallel.best.cost());
    assert_eq!(serial.stats.evaluated, parallel.stats.evaluated);
    assert_eq!(serial.stats.expanded, parallel.stats.expanded);
    let sh: Vec<_> = serial.history.iter().map(|p| (p.peak_bytes, p.latency)).collect();
    let ph: Vec<_> = parallel.history.iter().map(|p| (p.peak_bytes, p.latency)).collect();
    assert_eq!(sh, ph);
    let _ = std::fs::remove_file(&path);
}

/// Fingerprint of everything two runs of the same deterministic
/// search must agree on bit-for-bit.
fn fingerprint(res: &magis::core::optimizer::OptimizeResult) -> String {
    let mut s = format!(
        "cost=({},{:016x}) planned={:?} evaluated={} expanded={} pareto=",
        res.best.eval.peak_bytes,
        res.best.eval.latency.to_bits(),
        res.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
        res.stats.evaluated,
        res.stats.expanded,
    );
    for (m, l) in res.pareto.front() {
        s.push_str(&format!("({m},{:016x})", l.to_bits()));
    }
    s
}

/// The tentpole contract: a search killed mid-run and resumed from a
/// frontier checkpoint reproduces the uninterrupted run bit-exactly —
/// under the planned (allocator-aware) objective, where evaluation is
/// most involved.
#[test]
fn frontier_resume_reproduces_uninterrupted_run_bit_exactly() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let planned = |max: usize, threads: usize| {
        let mut cfg = capped(obj, usize::MAX, threads)
            .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(max));
        cfg.ctx.mem_objective = MemObjective::Planned;
        cfg
    };

    // "Kill" after the first expansion boundary past 1 evaluation,
    // with frontier checkpointing on. The candidate limit stops only
    // at expansion boundaries, so this run's evaluated count tells us
    // where the boundary fell; the reference run then targets one
    // evaluation past it, forcing at least one further expansion.
    let path = scratch("frontier_exact");
    let cfg_killed = planned(1, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(4).with_frontier(true));
    let killed = optimizer::optimize(g.clone(), &cfg_killed);
    let target = killed.stats.evaluated + 1;
    let ckpt = SearchCheckpoint::read_from(&path).expect("frontier checkpoint parses");
    assert!(!ckpt.frontier.is_empty(), "frontier persisted");

    // Reference: one uninterrupted run to the same cumulative target.
    let full = optimizer::optimize(g, &planned(target, 1));
    assert!(full.stats.expanded > killed.stats.expanded, "reference crosses the kill point");

    let resumed = optimizer::resume(&ckpt, &planned(target, 1)).expect("resume succeeds");
    assert!(resumed.stats.resumed);
    assert_eq!(
        fingerprint(&full),
        fingerprint(&resumed),
        "kill + frontier-resume must be indistinguishable from an uninterrupted run"
    );
    let _ = std::fs::remove_file(&path);
}

/// Same contract, resuming with a different thread count: the frontier
/// checkpoint composes with the sorted-batch determinism guarantee.
#[test]
fn frontier_resume_is_bit_exact_across_thread_counts() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let cap = |max: usize, threads: usize| {
        capped(obj, usize::MAX, threads)
            .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(max))
    };
    let path = scratch("frontier_threads");
    let killed = optimizer::optimize(
        g.clone(),
        &cap(1, 2)
            .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(3).with_frontier(true)),
    );
    let target = killed.stats.evaluated + 1;
    let full = optimizer::optimize(g, &cap(target, 1));
    let ckpt = SearchCheckpoint::read_from(&path).expect("parses");
    let r1 = optimizer::resume(&ckpt, &cap(target, 1)).expect("serial resume");
    let r4 = optimizer::resume(&ckpt, &cap(target, 4)).expect("parallel resume");
    assert_eq!(fingerprint(&full), fingerprint(&r1));
    assert_eq!(fingerprint(&r1), fingerprint(&r4));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_checkpoints_are_rejected_with_typed_errors() {
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let path = scratch("corrupt");
    let cfg = capped(obj, 12, 1)
        .with_checkpoint(CheckpointPolicy::new(path.clone()).with_every(4));
    let _ = optimizer::optimize(g, &cfg);
    let text = std::fs::read_to_string(&path).expect("checkpoint exists");

    // Truncation (a crash mid-write of a non-atomic writer) and header
    // corruption must both fail to parse — never produce a state.
    for corrupt in [
        text[..text.len() / 2].to_string(),
        text.replacen("magis-checkpoint v4", "magis-checkpoint v9", 1),
        text.replacen("ckpt-end", "", 1),
    ] {
        let p2 = scratch("corrupt2");
        std::fs::write(&p2, corrupt).expect("write corrupt");
        assert!(SearchCheckpoint::read_from(&p2).is_err(), "corrupt checkpoint parsed");
        let _ = std::fs::remove_file(&p2);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_write_failure_is_not_fatal() {
    // An unwritable checkpoint path must not kill the search — it is
    // counted and the search completes normally.
    let (g, init) = seed_state();
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let bad = PathBuf::from("/nonexistent-dir/magis.ckpt");
    let cfg = capped(obj, 12, 1).with_checkpoint(CheckpointPolicy::new(bad).with_every(4));
    let res = optimizer::optimize(g, &cfg);
    assert!(res.stats.checkpoint_failures >= 1);
    assert_eq!(res.stats.checkpoints_written, 0);
    assert!(res.best.eval.peak_bytes <= init.eval.peak_bytes);
}
