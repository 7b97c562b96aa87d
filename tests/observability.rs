//! Observability determinism and round-trip properties.
//!
//! The determinism contract: every count-type metric and the trace
//! event *identity set* are bit-identical between `threads = 1` and
//! `threads = 4` on a seeded, eval-capped search; only wall-time
//! measurements (histogram sums, `ts_us` / `dur_us` / `thread` /
//! `elapsed_us` / `eval_time_us`) may differ.
//!
//! The metrics registry and trace sink are process-global, so every
//! test that touches them serializes on [`obs_lock`].

use magis::core::optimizer::{OptimizeResult, OptimizerStats};
use magis::obs::metrics::default_registry;
use magis::obs::trace::{self, BufferSink, TraceEvent};
use magis::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

struct Capture {
    counters: BTreeMap<String, u64>,
    histogram_counts: BTreeMap<String, u64>,
    identities: Vec<String>,
    events: Vec<TraceEvent>,
    res: OptimizeResult,
}

/// One seeded, eval-capped search with a fresh registry and an
/// in-memory trace sink. The generous budget guarantees the cap — not
/// the clock — ends the search, so timing never steers the trajectory.
fn traced_run(threads: usize) -> Capture {
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let cfg = OptimizerConfig::new(Objective::MinMemory { lat_limit: init.eval.latency * 1.10 })
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(48)
        .with_threads(threads);
    default_registry().reset();
    let sink = Arc::new(BufferSink::new());
    trace::install(sink.clone());
    let res = optimize(tg.graph.clone(), &cfg);
    trace::uninstall();
    let events = sink.take();
    let mut identities: Vec<String> = events.iter().map(TraceEvent::identity).collect();
    identities.sort();
    let snap = default_registry().snapshot();
    Capture {
        counters: snap.counters,
        histogram_counts: snap.histograms.iter().map(|(k, &(n, _))| (k.clone(), n)).collect(),
        identities,
        events,
        res,
    }
}

#[test]
fn count_metrics_and_trace_set_identical_across_threads() {
    let _g = obs_lock();
    let serial = traced_run(1);
    let parallel = traced_run(4);

    // Every counter — including the per-(family, outcome) labeled ones
    // — is bit-identical, and so is every histogram *count* (only the
    // wall-time sums may differ).
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.histogram_counts, parallel.histogram_counts);

    // The searches did real, observable work.
    assert!(serial.counters["magis_core_expansions"] > 0);
    assert!(serial.counters["magis_core_evaluated"] > 0);
    assert!(serial.counters["magis_core_queue_pushes"] > 0);
    assert!(serial.counters.keys().any(|k| k.starts_with("magis_core_candidate_outcomes{")));

    // The trace identity multiset (everything except ts/dur/thread) is
    // identical: same spans, same events, same deterministic payloads.
    assert_eq!(serial.identities, parallel.identities);
    assert!(!serial.identities.is_empty());

    // The taxonomy is present: spans for expansion, candidate
    // evaluation, scheduling, and cost simulation; a stop event.
    for prefix in [
        "span:magis_core/expansion[",
        "span:magis_core/candidate_eval[",
        "span:magis_sched/full_schedule[",
        "span:magis_sim/evaluate",
        "event:magis_core/stop[",
    ] {
        assert!(
            serial.identities.iter().any(|id| id.starts_with(prefix)),
            "missing trace records with prefix {prefix}"
        );
    }

    // And the search results themselves still agree (the instrumented
    // build keeps the PR-1 determinism guarantee).
    assert_eq!(serial.res.best.cost(), parallel.res.best.cost());
    assert_eq!(serial.res.stats.evaluated, parallel.res.stats.evaluated);
}

/// The service extends the determinism contract across its worker
/// pool: the same job set run under pools of 1 and 4 workers produces
/// bit-identical count metrics (counters + histogram counts) and the
/// same trace identity multiset — only wall-time measurements differ.
#[test]
fn serve_counts_and_trace_set_identical_across_worker_pools() {
    use magis::serve::{Client, JobSpec, ServeConfig, Server};

    struct ServeCapture {
        counters: BTreeMap<String, u64>,
        histogram_counts: BTreeMap<String, u64>,
        identities: Vec<String>,
        results: Vec<String>,
    }

    fn serve_run(workers: usize) -> ServeCapture {
        let dir = std::env::temp_dir()
            .join(format!("magis_obs_pool{workers}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        default_registry().reset();
        let sink = Arc::new(BufferSink::new());
        trace::install(sink.clone());

        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: dir.clone(),
            workers,
            result_cache: 0,
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle().expect("handle");
        let join = std::thread::spawn(move || server.run());

        // Three distinct deterministic jobs (candidate-cap stops), all
        // in flight at once so a 4-worker pool actually overlaps them.
        let mut c = Client::connect(handle.addr()).expect("connect");
        let ids: Vec<u64> = [24usize, 32, 40]
            .iter()
            .map(|&cap| {
                let spec = JobSpec {
                    workload: Some("unet".into()),
                    scale: 0.15,
                    max_candidates: Some(cap),
                    budget_ms: 3_600_000,
                    threads: 1,
                    ..JobSpec::default()
                };
                c.submit_nowait(&spec).expect("submit")
            })
            .collect();
        let mut results = Vec::new();
        for id in ids {
            loop {
                let st = c.status(id).expect("status");
                match st.get("state").and_then(magis::obs::json::Json::as_str) {
                    Some("done") => {
                        let r = magis::serve::JobResult::from_json(
                            st.get("result").expect("result"),
                        )
                        .expect("result parses");
                        results.push(r.identity_key());
                        break;
                    }
                    Some("failed") | Some("interrupted") => {
                        panic!("job {id} settled badly: {}", st.render())
                    }
                    _ => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
        trace::uninstall();

        let mut identities: Vec<String> =
            sink.take().iter().map(TraceEvent::identity).collect();
        identities.sort();
        let snap = default_registry().snapshot();
        let _ = std::fs::remove_dir_all(&dir);
        ServeCapture {
            counters: snap.counters,
            histogram_counts: snap
                .histograms
                .iter()
                .map(|(k, &(n, _))| (k.clone(), n))
                .collect(),
            identities,
            results,
        }
    }

    let _g = obs_lock();
    let single = serve_run(1);
    let pooled = serve_run(4);

    // Count metrics: every counter (serve + core, labeled included)
    // and every histogram count is bit-identical.
    assert_eq!(single.counters, pooled.counters);
    assert_eq!(single.histogram_counts, pooled.histogram_counts);
    assert_eq!(single.counters["magis_serve_jobs_accepted"], 3);
    assert_eq!(single.counters["magis_serve_jobs_completed"], 3);
    assert_eq!(single.counters["magis_serve_result_cache_misses"], 3);
    assert_eq!(single.histogram_counts["magis_serve_job_seconds"], 3);
    assert_eq!(single.histogram_counts["magis_serve_queue_wait_seconds"], 3);

    // Trace identity multiset: same supervision events (admitted /
    // queue_wait / run / job_done, each tagged job = id) and the same
    // per-job search records, regardless of pool size.
    assert_eq!(single.identities, pooled.identities);
    for prefix in [
        "event:magis_serve/admitted[",
        "span:magis_serve/queue_wait[",
        "span:magis_serve/run[",
        "event:magis_serve/job_done[",
        "event:magis_serve/drained",
        "span:magis_core/expansion[",
    ] {
        assert!(
            single.identities.iter().any(|id| id.starts_with(prefix)),
            "missing trace records with prefix {prefix}"
        );
    }

    // And the job results themselves are bit-identical.
    assert_eq!(single.results, pooled.results);
}

#[test]
fn trace_events_round_trip_through_jsonl() {
    let _g = obs_lock();
    let cap = traced_run(2);
    assert!(!cap.events.is_empty());
    for ev in &cap.events {
        let line = ev.to_jsonl();
        let back = TraceEvent::parse_line(&line)
            .unwrap_or_else(|e| panic!("line failed to parse back: {e}\n{line}"));
        // Full fidelity: identity AND the volatile envelope survive.
        assert_eq!(back.identity(), ev.identity());
        assert_eq!(back.ts_us, ev.ts_us);
        assert_eq!(back.dur_us, ev.dur_us);
        assert_eq!(back.thread, ev.thread);
    }
}

#[test]
fn timeline_is_deterministic_and_serializes() {
    let _g = obs_lock();
    let serial = traced_run(1);
    let parallel = traced_run(4);
    let (a, b) = (&serial.res.timeline, &parallel.res.timeline);

    // Per-expansion points: every field but the wall-clock one agrees.
    assert_eq!(a.points.len(), b.points.len());
    assert!(!a.points.is_empty());
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(
            (p.expansion, p.evaluated, p.best_peak_bytes, p.frontier_size, p.pareto_size),
            (q.expansion, q.evaluated, q.best_peak_bytes, q.frontier_size, q.pareto_size)
        );
        assert_eq!(p.best_latency.to_bits(), q.best_latency.to_bits());
    }
    assert_eq!(a.points.last().unwrap().expansion, serial.res.stats.expanded as u64);

    // Pareto evolution and the final memory profile are identical.
    assert_eq!(a.pareto.len(), b.pareto.len());
    for (p, q) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(p.expansion, q.expansion);
        assert_eq!(p.points, q.points);
    }
    assert_eq!(a.memory_profile, b.memory_profile);
    assert!(!a.memory_profile.is_empty());

    // Per-family stats: all counts and deltas agree; only the measured
    // evaluation time may differ.
    assert_eq!(a.families.keys().collect::<Vec<_>>(), b.families.keys().collect::<Vec<_>>());
    let mut proposed = 0u64;
    for (fam, fa) in &a.families {
        let fb = &b.families[fam];
        assert_eq!(
            (fa.proposed, fa.accepted, fa.rejected, fa.mem_delta_bytes),
            (fb.proposed, fb.accepted, fb.rejected, fb.mem_delta_bytes),
            "family {fam}"
        );
        assert_eq!(fa.lat_delta.to_bits(), fb.lat_delta.to_bits(), "family {fam}");
        proposed += fa.proposed;
    }
    assert!(proposed > 0);

    // The whole timeline serializes to JSON that parses back.
    let text = a.to_json().render();
    let parsed = magis::obs::json::parse(&text).expect("timeline JSON parses");
    let pts = parsed.get("points").and_then(|j| j.as_arr()).expect("points array");
    assert_eq!(pts.len(), a.points.len());
}

/// Every `magis_core_*` counter the search publishes, paired with the
/// `OptimizerStats` field it must equal. Spelled out here rather than
/// read from the optimizer, so a wrong row in its table fails this
/// test.
fn core_counts(s: &OptimizerStats) -> BTreeMap<String, u64> {
    [
        ("magis_core_expansions", s.expanded),
        ("magis_core_candidates", s.candidates),
        ("magis_core_evaluated", s.evaluated),
        ("magis_core_filtered", s.filtered),
        ("magis_core_panicked", s.panicked),
        ("magis_core_cost_rejections", s.cost_rejections),
        ("magis_core_invariant_rejections", s.invariant_rejections),
        ("magis_core_quarantined_candidates", s.quarantined_candidates),
        ("magis_core_quarantined_families", s.families_quarantined),
        ("magis_core_queue_pushes", s.queue_pushes),
        ("magis_core_incumbent_improvements", s.incumbent_improvements),
        ("magis_core_checkpoints_written", s.checkpoints_written),
        ("magis_core_checkpoint_failures", s.checkpoint_failures),
        ("magis_core_eval_cache_hits", s.eval_cache_hits),
        ("magis_core_eval_cache_misses", s.eval_cache_misses),
        ("magis_core_eval_cache_evictions", s.eval_cache_evictions),
        ("magis_core_eval_cache_purged", s.eval_cache_purged),
        ("magis_core_incremental_evals", s.incremental_evals),
        ("magis_core_incremental_carried_wins", s.incremental_carried_wins),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v as u64))
    .collect()
}

/// The plain (unlabeled) `magis_core_*` counters of a snapshot, minus
/// the per-call `searches` / `resumes` tallies, which no stats field
/// mirrors.
fn registry_core_counts() -> (BTreeMap<String, u64>, u64, u64) {
    let snap = default_registry().snapshot();
    let c = &snap.counters;
    let counts = c
        .iter()
        .filter(|(k, _)| k.starts_with("magis_core_") && !k.contains('{'))
        .filter(|(k, _)| *k != "magis_core_searches" && *k != "magis_core_resumes")
        .map(|(k, &v)| (k.clone(), v))
        .collect();
    (counts, c["magis_core_searches"], c["magis_core_resumes"])
}

#[test]
fn core_counters_equal_optimizer_stats_fresh_and_resumed() {
    use magis::core::budget::SearchBudget;
    use magis::core::checkpoint::SearchCheckpoint;
    use magis::core::optimizer::{resume, CheckpointPolicy, ParanoiaLevel};
    use magis_util::fault::{FaultPlan, FaultSite};

    let _g = obs_lock();
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let objective = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    // Every fault site fires now and then, so the rejection, panic and
    // quarantine counters are non-zero too. The injected panics are
    // caught by the sandbox; their panic messages are expected noise.
    // Full paranoia rejects corrupted rewrites before they can reach
    // the checkpointed frontier.
    let mut plan = FaultPlan::new(0x0B5);
    for site in FaultSite::ALL {
        plan = plan.with_rate(site, 0.06);
    }
    for threads in [1, 4] {
        let path = std::env::temp_dir()
            .join(format!("magis_obs_counts_{threads}_{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let policy = CheckpointPolicy::new(path.clone()).with_every(8).with_frontier(true);
        let cfg = |limit: usize| {
            OptimizerConfig::new(objective)
                .with_budget(Duration::from_secs(3600))
                .with_threads(threads)
                .with_fault_plan(plan)
                .with_quarantine_threshold(2)
                .with_paranoia(ParanoiaLevel::All)
                .with_search_budget(SearchBudget {
                    candidate_limit: Some(limit),
                    ..SearchBudget::UNLIMITED
                })
                .with_checkpoint(policy.clone())
        };

        // A fresh search stopped mid-way; its final checkpoint carries
        // the frontier.
        default_registry().reset();
        let fresh = optimize(tg.graph.clone(), &cfg(40));
        let (counts, searches, resumes) = registry_core_counts();
        assert_eq!(counts, core_counts(&fresh.stats), "fresh search, {threads} thread(s)");
        assert_eq!((searches, resumes), (1, 0));
        for key in [
            "magis_core_evaluated",
            "magis_core_queue_pushes",
            "magis_core_checkpoints_written",
            "magis_core_panicked",
            "magis_core_cost_rejections",
            "magis_core_invariant_rejections",
            "magis_core_quarantined_families",
            "magis_core_incremental_evals",
        ] {
            assert!(counts[key] > 0, "{key} is exercised");
        }

        // Resumed in a fresh registry: the counters restart from the
        // checkpointed totals, so they stay cumulative over the whole
        // search and still equal the resumed run's stats.
        let ckpt = SearchCheckpoint::read_from(&path).expect("checkpoint parses");
        default_registry().reset();
        let resumed = resume(&ckpt, &cfg(80)).expect("resumes");
        let (counts, searches, resumes) = registry_core_counts();
        assert_eq!(counts, core_counts(&resumed.stats), "resumed search, {threads} thread(s)");
        assert_eq!((searches, resumes), (1, 1));
        assert!(resumed.stats.evaluated > ckpt.counters.evaluated, "the resume made progress");
        assert!(counts["magis_core_expansions"] > ckpt.counters.expanded as u64);
        let _ = std::fs::remove_file(&path);
    }
}
