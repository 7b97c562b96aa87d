//! Benchmark of the MAGIS optimizer and service.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     [--workload greedy-conv|mcts-tfm|serve-mixed|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run sends seeded optimization requests, each stopped by an
//! evaluation cap, through `magis_core::optimizer::try_optimize` in process
//! or through `magis_serve::Client` against an in-process daemon. It
//! checks every result and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced replay
//! (`--trace 1`), ending with one JSON line. `perfbench/LAYERS.md`
//! describes the workloads and which layer should move which metric.
//! The exit code is non-zero when any check fails.

mod deck;
mod inproc;
mod replay;
mod report;
mod serve;

use deck::{Kind, Request};
use inproc::Outcome;
use magis_core::optimizer::OptimizeResult;
use magis_obs::json::Json;
use report::{geomean, median, metric, percentile, Fingerprint, Metric, Report};
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 41;
/// Requests a timed run completes at least, so that ten or more lie
/// beyond the 90th percentile.
const MIN_REQUESTS: usize = 110;
/// Expansions the traced replay descends per input.
const TRACE_DEPTH: usize = 3;
/// Expansions the fingerprint's replay descends per input.
const FINGERPRINT_DEPTH: usize = 1;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.kinds = Kind::ALL.to_vec(),
            "--workload" => {
                args.kinds = vec![Kind::parse(&value).ok_or(format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\nusage: magis-perfbench [--workload greedy-conv|mcts-tfm|serve-mixed|all] [--seed N] [--seconds S] [--trace 0|1]");
        std::process::exit(2);
    });
    let mut reports = Vec::new();
    for &kind in &args.kinds {
        let report = if args.trace {
            traced(kind, args.seed, args.seconds)
        } else {
            timed(kind, args.seed, args.seconds)
        };
        report.print();
        reports.push(report);
    }
    println!("{}", report::result_line(&reports));
    if !reports.iter().all(Report::correct) {
        std::process::exit(1);
    }
}

/// Counts of a batch of requests, and the problems found checking it.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// Sums of the optimizer's statistics over requests.
#[derive(Default)]
struct SearchTotals {
    requests: u64,
    candidates: u64,
    evaluated: u64,
    expanded: u64,
    filtered: u64,
    cache_hits: u64,
    cache_misses: u64,
    fanout_wall: f64,
    worker_cpu: f64,
    outside_eval: f64,
    threads: u64,
}

impl SearchTotals {
    fn add(&mut self, res: &OptimizeResult, request_secs: f64) {
        let s = &res.stats;
        self.requests += 1;
        self.candidates += s.candidates as u64;
        self.evaluated += s.evaluated as u64;
        self.expanded += s.expanded as u64;
        self.filtered += s.filtered as u64;
        self.cache_hits += s.eval_cache_hits as u64;
        self.cache_misses += s.eval_cache_misses as u64;
        self.fanout_wall += s.eval_wall_time.as_secs_f64();
        self.worker_cpu += (s.trans_time + s.sched_sim_time + s.hash_time).as_secs_f64();
        self.outside_eval += request_secs - s.eval_wall_time.as_secs_f64();
        self.threads = s.threads as u64;
    }

    fn metrics(&self) -> Vec<Metric> {
        let n = self.requests.max(1) as f64;
        let per = |x: f64| x / n;
        vec![
            metric(
                "rules.candidates_per_eval",
                self.candidates as f64 / self.evaluated.max(1) as f64,
                "ratio",
                self.evaluated,
            ),
            metric(
                "eval_cache.hit_ratio",
                self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64,
                "ratio",
                self.cache_hits + self.cache_misses,
            ),
            metric(
                "optimizer.fanout_wall_s",
                per(self.fanout_wall),
                "s",
                self.requests,
            ),
            metric(
                "optimizer.worker_cpu_s",
                per(self.worker_cpu),
                "s",
                self.requests,
            ),
            metric(
                "optimizer.parallel_efficiency",
                self.worker_cpu / (self.fanout_wall * self.threads.max(1) as f64),
                "ratio",
                self.requests,
            ),
            metric(
                "optimizer.outside_eval_s",
                per(self.outside_eval),
                "s",
                self.requests,
            ),
            metric(
                "optimizer.expanded",
                per(self.expanded as f64),
                "count",
                self.requests,
            ),
            metric(
                "optimizer.filtered_ratio",
                self.filtered as f64 / self.candidates.max(1) as f64,
                "ratio",
                self.candidates,
            ),
        ]
    }
}

/// Compares a request's outcome with the first run of the same deck
/// entry, which it must repeat exactly.
fn record_outcome(first: &mut [Option<Outcome>], idx: usize, got: Outcome, tally: &mut Tally) {
    match first[idx] {
        None => first[idx] = Some(got),
        Some(want) if want == got => {}
        Some(want) => tally.fail(format!(
            "deck entry {idx} repeated as {got:?}, first {want:?}"
        )),
    }
}

/// The request half of the fingerprint: summed work and the geometric
/// mean result ratios over one pass of the deck. `ratios` gives an
/// outcome's peak and latency relative to its input's.
fn deck_fingerprint(
    first: &[Option<Outcome>],
    ratios: impl Fn(usize, &Outcome) -> Option<(f64, f64)>,
) -> Fingerprint {
    let mut fp = Fingerprint::default();
    let (mut peaks, mut lats) = (Vec::new(), Vec::new());
    for (i, o) in first.iter().enumerate() {
        let Some(o) = o else { continue };
        if let Some((p, l)) = ratios(i, o) {
            peaks.push(p);
            lats.push(l);
        }
        fp.evaluated += o.evaluated;
        fp.expanded += o.expanded;
        fp.eval_cache_hits += o.cache_hits;
    }
    fp.peak_ratio = geomean(&peaks);
    fp.latency_ratio = geomean(&lats);
    fp
}

/// Adds the replay's work counts to the fingerprint, checks it against
/// earlier runs of the seed, and reports any replayed child that
/// differed from `MState::from_applied`.
fn finish_fingerprint(
    kind: Kind,
    seed: u64,
    fp: &mut Fingerprint,
    graphs: &[magis_graph::graph::Graph],
    tally: &mut Tally,
) {
    let layers = replay::replay(&replay::inputs(kind, graphs), FINGERPRINT_DEPTH, false);
    fp.dp_states = layers.get_count("sched.dp_states");
    fp.pages_unshared = layers.get_count("graph.pages_unshared");
    for m in layers.mismatches {
        tally
            .problems
            .push(format!("replay differs from MState::from_applied: {m}"));
    }
    let path = report::out_dir().join(format!("fingerprint-{}-seed{seed}.json", kind.name()));
    if let Err(e) = fp.check_stored(&path) {
        tally.problems.push(e);
    }
}

/// A timed run of an in-process workload: end-to-end metrics.
fn timed(kind: Kind, seed: u64, seconds: f64) -> Report {
    if kind == Kind::ServeMixed {
        return timed_serve(kind, seed, seconds);
    }
    let mut setups = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        inputs = inproc::setup(kind);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let deck = deck::deck(kind, seed);
    let mut tally = Tally::default();
    let mut first = vec![None; deck.len()];
    let mut done = Vec::new();
    let (mut checking, mut checking_cpu) = (Duration::ZERO, 0.0);
    let (start, cpu_start) = (Instant::now(), report::cpu_seconds());
    let window = |checking: Duration| (start.elapsed() - checking).as_secs_f64();
    let mut i = 0;
    while i < deck.len() || i < MIN_REQUESTS || window(checking) < seconds {
        let req = &deck[i % deck.len()];
        let input = &inputs[req.input];
        let cfg = inproc::config(req, input.latency, kind.threads(), kind.eval_cap());
        let (res, secs) = inproc::timed(input.graph.clone(), &cfg);
        let (t_check, cpu_check) = (Instant::now(), report::cpu_seconds());
        tally.attempted += 1;
        match res {
            Ok(res) => {
                done.push(Done {
                    secs,
                    evaluated: res.stats.evaluated as u64,
                    end: window(checking + t_check.elapsed()),
                    cpu_end: cpu_check - cpu_start - checking_cpu,
                });
                match inproc::check(&res, &cfg) {
                    Ok(()) => {
                        record_outcome(&mut first, i % deck.len(), Outcome::of(&res), &mut tally)
                    }
                    Err(e) => tally.fail(format!("request {i}: {e}")),
                }
            }
            Err(e) => tally.fail(format!("request {i}: {e}")),
        }
        checking += t_check.elapsed();
        checking_cpu += report::cpu_seconds() - cpu_check;
        i += 1;
    }
    let rss = report::rss_peak_mb();
    let graphs: Vec<_> = inputs.iter().map(|x| x.graph.clone()).collect();
    let mut fp = deck_fingerprint(&first, |i, o| Some(o.ratios(&inputs[deck[i].input])));
    finish_fingerprint(kind, seed, &mut fp, &graphs, &mut tally);
    let metrics = end_to_end(&done, deck.len(), &fp, &setups, rss);
    Report {
        workload: kind.name(),
        seed,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        fingerprint: fp,
    }
}

/// A completed request: its wall time, the candidates it evaluated, and
/// when it completed, in seconds of the run's measured window.
struct Done {
    secs: f64,
    evaluated: u64,
    end: f64,
    /// Process CPU seconds spent in the window when it completed.
    cpu_end: f64,
}

/// The end-to-end metrics. Throughputs are medians over consecutive
/// groups of `group` completions (one deck's worth), so that a short
/// stall of the machine moves one group rather than the whole figure.
fn end_to_end(
    done: &[Done],
    group: usize,
    fp: &Fingerprint,
    setups: &[f64],
    rss: f64,
) -> Vec<Metric> {
    let (mut cands, mut cpu_cands, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut prev_end, mut prev_cpu) = (0.0, 0.0);
    for g in done.chunks_exact(group) {
        let secs: f64 = g.iter().map(|d| d.secs).sum();
        let evaluated = g.iter().map(|d| d.evaluated).sum::<u64>() as f64;
        let last = &g[g.len() - 1];
        cands.push(evaluated / secs);
        cpu_cands.push(evaluated / (last.cpu_end - prev_cpu));
        rates.push(g.len() as f64 / (last.end - prev_end));
        (prev_end, prev_cpu) = (last.end, last.cpu_end);
    }
    let times: Vec<f64> = done.iter().map(|d| d.secs).collect();
    let n = times.len() as u64;
    let groups = cands.len() as u64;
    vec![
        metric("cands_per_s", median(&cands), "1/s", groups),
        metric("cands_per_cpu_s", median(&cpu_cands), "1/s", groups),
        metric("requests_per_s", median(&rates), "1/s", groups),
        metric("request_s_p50", percentile(&times, 0.5), "s", n),
        metric("request_s_p90", percentile(&times, 0.9), "s", n),
        metric("peak_ratio", fp.peak_ratio, "ratio", n),
        metric("latency_ratio", fp.latency_ratio, "ratio", n),
        metric("setup_s", median(setups), "s", setups.len() as u64),
        metric("rss_peak_mb", rss, "MiB", 1),
    ]
}

/// The served spec of every request of a deck.
fn serve_specs(kind: Kind, deck: &[Request], inputs: &serve::Inputs) -> Vec<magis_serve::JobSpec> {
    deck.iter().map(|r| serve::spec(kind, r, inputs)).collect()
}

fn state_dir() -> std::path::PathBuf {
    report::out_dir().join(format!("serve-state-{}", std::process::id()))
}

/// Checks every served result against the in-process run of its spec.
/// Returns the references by deck index.
fn check_served(
    deck: &[Request],
    specs: &[magis_serve::JobSpec],
    served: &[serve::Served],
    tally: &mut Tally,
    first: &mut [Option<Outcome>],
) -> Vec<Option<serve::Reference>> {
    let mut refs: Vec<Option<serve::Reference>> = (0..deck.len()).map(|_| None).collect();
    for s in served {
        tally.attempted += 1;
        let result = match &s.result {
            Ok(r) => r,
            Err(e) => {
                tally.fail(format!("served request for deck entry {}: {e}", s.idx));
                continue;
            }
        };
        if refs[s.idx].is_none() {
            match serve::reference(&specs[s.idx], &deck[s.idx]) {
                Ok(r) => refs[s.idx] = Some(r),
                Err(e) => {
                    tally.fail(format!("deck entry {}: {e}", s.idx));
                    continue;
                }
            }
        }
        let r = refs[s.idx].as_ref().expect("set above");
        let checked = match &r.result {
            Ok(res) => inproc::check(res, &r.cfg)
                .and_then(|()| serve::matches(result, res))
                .map(|()| Outcome::of(res)),
            Err(e) => Err(format!("in-process reference: {e}")),
        };
        match checked {
            Ok(o) => record_outcome(first, s.idx, o, tally),
            Err(e) => tally.fail(format!("served deck entry {}: {e}", s.idx)),
        }
    }
    refs
}

fn timed_serve(kind: Kind, seed: u64, seconds: f64) -> Report {
    let dir = state_dir();
    let mut setups = Vec::new();
    let mut up = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, daemon)) = up.take() {
            serve::Daemon::stop(daemon);
        }
        let t0 = Instant::now();
        match serve::setup(kind, &dir) {
            Ok(x) => up = Some(x),
            Err(e) => return broken(kind, seed, false, format!("daemon set-up: {e}")),
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (inputs, daemon) = up.expect("set up at least once");
    let deck = deck::deck(kind, seed);
    let specs = serve_specs(kind, &deck, &inputs);
    let until = serve::Until::Measured {
        seconds,
        min: MIN_REQUESTS,
    };
    let served = serve::closed_loop(daemon.addr(), &specs, until, false);
    let rss = report::rss_peak_mb();
    daemon.stop();

    let mut tally = Tally::default();
    let mut first = vec![None; deck.len()];
    let refs = check_served(&deck, &specs, &served, &mut tally, &mut first);
    let done: Vec<Done> = served
        .iter()
        .filter_map(|s| {
            let r = s.result.as_ref().ok()?;
            Some(Done {
                secs: s.secs,
                evaluated: r.evaluated,
                end: s.end,
                cpu_end: s.cpu_end,
            })
        })
        .collect();
    let mut fp = deck_fingerprint(&first, |i, o| refs[i].as_ref().map(|r| o.ratios(&r.input)));
    finish_fingerprint(kind, seed, &mut fp, &inputs.graphs, &mut tally);
    let metrics = end_to_end(&done, deck.len(), &fp, &setups, rss);
    Report {
        workload: kind.name(),
        seed,
        traced: false,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        fingerprint: fp,
    }
}

fn broken(kind: Kind, seed: u64, traced: bool, why: String) -> Report {
    Report {
        workload: kind.name(),
        seed,
        traced,
        attempted: 1,
        failed: 1,
        problems: vec![why],
        metrics: Vec::new(),
        fingerprint: Fingerprint::default(),
    }
}

/// A traced run: one pass over the deck for the optimizer's and the
/// service's statistics, then the replay, alternately untraced and
/// traced, for `seconds`.
fn traced(kind: Kind, seed: u64, seconds: f64) -> Report {
    let deck = deck::deck(kind, seed);
    let mut tally = Tally::default();
    let mut totals = SearchTotals::default();
    let mut serve_metrics = Vec::new();
    let (graphs, mut fp) = if kind == Kind::ServeMixed {
        let dir = state_dir();
        let (inputs, daemon) = match serve::setup(kind, &dir) {
            Ok(x) => x,
            Err(e) => return broken(kind, seed, true, format!("daemon set-up: {e}")),
        };
        let specs = serve_specs(kind, &deck, &inputs);
        let before = serve::metrics(daemon.addr()).unwrap_or_default();
        let served = serve::closed_loop(daemon.addr(), &specs, serve::Until::OnePass, true);
        let after = serve::metrics(daemon.addr()).unwrap_or_default();
        daemon.stop();
        let mut first = vec![None; deck.len()];
        let refs = check_served(&deck, &specs, &served, &mut tally, &mut first);
        for r in refs.iter().flatten() {
            if let Ok(res) = &r.result {
                totals.add(res, r.secs);
            }
        }
        serve_metrics = serve_layer(&served, &refs, &before, &after);
        let fp = deck_fingerprint(&first, |i, o| refs[i].as_ref().map(|r| o.ratios(&r.input)));
        (inputs.graphs, fp)
    } else {
        let inputs = inproc::setup(kind);
        let fingerprint_at = |threads: usize, tally: &mut Tally, totals: &mut SearchTotals| {
            let mut first = vec![None; deck.len()];
            for (i, req) in deck.iter().enumerate() {
                let input = &inputs[req.input];
                let cfg = inproc::config(req, input.latency, threads, kind.eval_cap());
                let (res, secs) = inproc::timed(input.graph.clone(), &cfg);
                tally.attempted += 1;
                match res.and_then(|res| inproc::check(&res, &cfg).map(|()| (res, secs))) {
                    Ok((res, secs)) => {
                        totals.add(&res, secs);
                        first[i] = Some(Outcome::of(&res));
                    }
                    Err(e) => tally.fail(format!("deck entry {i} at {threads} threads: {e}")),
                }
            }
            first
        };
        let first = fingerprint_at(kind.threads(), &mut tally, &mut totals);
        if kind.threads() > 1 {
            // The thread-count determinism contract, seen from outside.
            let single = fingerprint_at(1, &mut tally, &mut SearchTotals::default());
            if single != first {
                tally
                    .problems
                    .push("results differ between 1 and 2 search threads".into());
            }
        }
        let fp = deck_fingerprint(&first, |i, o| Some(o.ratios(&inputs[deck[i].input])));
        (inputs.iter().map(|x| x.graph.clone()).collect(), fp)
    };
    finish_fingerprint(kind, seed, &mut fp, &graphs, &mut tally);

    let replay_inputs = replay::inputs(kind, &graphs);
    let mut layers = replay::Layers::new(true);
    let (mut untraced_s, mut traced_s, mut passes) = (0.0, 0.0, 0u64);
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let plain = replay::replay(&replay_inputs, TRACE_DEPTH, false);
        untraced_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let timed = replay::replay(&replay_inputs, TRACE_DEPTH, true);
        traced_s += t0.elapsed().as_secs_f64();
        for m in plain.mismatches.iter().chain(&timed.mismatches) {
            tally
                .problems
                .push(format!("replay differs from MState::from_applied: {m}"));
        }
        layers.merge(timed);
        passes += 1;
    }
    let overhead = (traced_s - untraced_s) / passes as f64;
    let mut metrics = layer_metrics(&layers, overhead, passes);
    metrics.extend(totals.metrics());
    if serve_metrics.is_empty() {
        serve_metrics = SERVE_LAYER
            .iter()
            .map(|&(n, u)| metric(n, 0.0, u, 0))
            .collect();
    }
    metrics.extend(serve_metrics);
    metrics.sort_by_key(|m| m.name);

    let report = Report {
        workload: kind.name(),
        seed,
        traced: true,
        attempted: tally.attempted,
        failed: tally.failed,
        problems: tally.problems,
        metrics,
        fingerprint: fp,
    };
    let coverage = report.get("trace.coverage_ratio");
    if coverage < 0.9 {
        println!("  warning: layer self-times cover {coverage:.3} of state.from_applied_us");
    }
    let extra = vec![
        ("replay_passes".to_string(), Json::UInt(passes)),
        (
            "untraced_replay_s".into(),
            Json::Float(untraced_s / passes as f64),
        ),
        (
            "traced_replay_s".into(),
            Json::Float(traced_s / passes as f64),
        ),
        (
            "calls".into(),
            Json::Obj(
                layers
                    .spans
                    .iter()
                    .map(|(k, (_, n))| (k.to_string(), Json::UInt(*n)))
                    .collect(),
            ),
        ),
    ];
    let path = report::out_dir().join(format!("layers-{}-seed{seed}.json", kind.name()));
    if let Err(e) = report::write(&path, &report.to_json(extra).render()) {
        println!("  warning: {e}");
    } else {
        println!("  per-layer figures written to {}", path.display());
    }
    report
}

const SERVE_LAYER: [(&str, &str); 8] = [
    ("serve.admit_ms", "ms"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.inproc_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.checkpoints", "count"),
    ("serve.progress_events", "count"),
    ("serve.result_bytes", "bytes"),
];

fn serve_layer(
    served: &[serve::Served],
    refs: &[Option<serve::Reference>],
    before: &str,
    after: &str,
) -> Vec<Metric> {
    let delta = |name: &str| serve::scrape(after, name) - serve::scrape(before, name);
    let ok: Vec<&serve::Served> = served.iter().filter(|s| s.result.is_ok()).collect();
    let n = ok.len().max(1) as f64;
    let jobs = delta("magis_serve_job_seconds_count").max(1.0);
    let waits = delta("magis_serve_queue_wait_seconds_count").max(1.0);
    let inproc: Vec<f64> = ok
        .iter()
        .filter_map(|s| refs[s.idx].as_ref())
        .map(|r| r.secs)
        .collect();
    let overhead: f64 = ok
        .iter()
        .filter_map(|s| refs[s.idx].as_ref().map(|r| s.secs - r.secs))
        .sum::<f64>()
        / n;
    let bytes: f64 = ok
        .iter()
        .filter_map(|s| s.result.as_ref().ok())
        .map(|r| r.to_json().render().len() as f64)
        .sum::<f64>()
        / n;
    let k = ok.len() as u64;
    vec![
        metric(
            "serve.admit_ms",
            ok.iter().map(|s| s.admit_secs).sum::<f64>() * 1e3 / n,
            "ms",
            k,
        ),
        metric(
            "serve.queue_wait_s",
            delta("magis_serve_queue_wait_seconds_sum") / waits,
            "s",
            waits as u64,
        ),
        metric(
            "serve.run_s",
            delta("magis_serve_job_seconds_sum") / jobs,
            "s",
            jobs as u64,
        ),
        metric("serve.inproc_s", inproc.iter().sum::<f64>() / n, "s", k),
        metric("serve.overhead_s", overhead, "s", k),
        metric(
            "serve.checkpoints",
            delta("magis_core_checkpoints_written") / n,
            "count",
            k,
        ),
        metric(
            "serve.progress_events",
            ok.iter().map(|s| s.progress_events as f64).sum::<f64>() / n,
            "count",
            k,
        ),
        metric("serve.result_bytes", bytes, "bytes", k),
    ]
}

fn layer_metrics(l: &replay::Layers, overhead: f64, passes: u64) -> Vec<Metric> {
    let evals = l.get_count("state.evaluated").max(1);
    let us = |name: &str| l.total(name).as_secs_f64() * 1e6;
    let per_call = |name: &'static str, out: &'static str| {
        metric(
            out,
            us(name) / l.calls(name).max(1) as f64,
            "us",
            l.calls(name),
        )
    };
    let per_eval =
        |name: &'static str, out: &'static str| metric(out, us(name) / evals as f64, "us", evals);
    let parts: f64 = replay::FROM_APPLIED_PARTS.iter().map(|p| us(p)).sum();
    let generated = l.get_count("rules.generated").max(1);
    vec![
        per_call("rules.generate", "rules.generate_us"),
        per_call("rules.apply", "rules.apply_us"),
        metric(
            "rules.apply_failed_ratio",
            l.get_count("rules.apply_failed") as f64 / generated as f64,
            "ratio",
            generated,
        ),
        per_call("graph.hash", "graph.hash_us"),
        metric(
            "graph.pages_unshared",
            l.get_count("graph.pages_unshared") as f64 / evals as f64,
            "count",
            evals,
        ),
        per_call("ftree.analyze", "ftree.analyze_us"),
        per_eval("state.overlay", "state.overlay_us"),
        per_call("eval_cache.probe", "eval_cache.probe_us"),
        per_eval("sched.interval", "sched.interval_us"),
        per_eval("sched.splice", "sched.splice_us"),
        per_eval("sched.partition", "sched.partition_us"),
        per_eval("sched.dp", "sched.dp_us"),
        metric(
            "sched.dp_states",
            l.get_count("sched.dp_states") as f64 / evals as f64,
            "count",
            evals,
        ),
        metric("sched.dp_max_piece", l.dp_max_piece as f64, "count", evals),
        metric(
            "sched.window_steps",
            l.get_count("sched.window_steps") as f64 / evals as f64,
            "count",
            evals,
        ),
        per_eval("sched.stabilize", "sched.stabilize_us"),
        per_eval("sched.incremental", "sched.incremental_us"),
        metric(
            "sched.carried_won_ratio",
            l.get_count("sched.carried_won") as f64 / evals as f64,
            "ratio",
            evals,
        ),
        per_eval("sched.place_swaps", "sched.place_swaps_us"),
        per_eval("sim.delta_profile", "sim.delta_profile_us"),
        per_eval("sim.plan_delta", "sim.plan_delta_us"),
        per_eval("sim.evaluate", "sim.evaluate_us"),
        per_eval("state.from_applied", "state.from_applied_us"),
        metric(
            "trace.coverage_ratio",
            parts / us("state.from_applied"),
            "ratio",
            evals,
        ),
        metric("trace.overhead_s", overhead, "s", passes),
    ]
}
