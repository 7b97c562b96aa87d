//! Argument parsing and subcommand dispatch for the `magis` binary.
//! Hand-rolled (no third-party argument parser): flags are
//! `--name value` pairs after a subcommand.

use magis_graph::GraphView;
use magis_baselines::BaselineKind;
use magis_core::checkpoint::SearchCheckpoint;
use magis_core::codegen::generate_pytorch;
use magis_core::fission::apply_full;
use magis_core::budget::SearchBudget;
use magis_core::driver::DriverKind;
use magis_core::optimizer::{
    self, try_optimize, CheckpointPolicy, Objective, OptimizeResult, OptimizerConfig,
    ParanoiaLevel,
};
use magis_core::state::{EvalContext, EvalMode, MState};
use magis_graph::graph::Graph;
use magis_graph::io::{to_dot, to_text, DotOptions};
use magis_models::Workload;
use magis_sim::{Backend, BackendRegistry, CostModel, MemObjective, DEFAULT_BACKEND};
use std::collections::HashMap;
use std::path::Path;
use std::time::Duration;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
magis — MAGIS memory optimizer (ASPLOS'24 reproduction)

USAGE:
  magis list
  magis inspect  --workload NAME [--scale F] [--backend NAME]
  magis optimize --workload NAME [--scale F] [--mode memory|latency]
                 [--limit F] [--budget-ms N] [--threads N]
                 [--wall-limit-ms N] [--max-candidates N]
                 [--backend NAME] [--calibrate FILE]
                 [--objective liveness|planned]
                 [--driver greedy|mcts]
                 [--paranoia off|incumbent|all]
                 [--eval incremental|full] [--eval-cache N]
                 [--checkpoint FILE] [--checkpoint-every N]
                 [--checkpoint-frontier true|false]
                 [--emit py|dot|text] [--out FILE]
  magis optimize --resume FILE [--mode memory|latency] [--limit F]
                 [--budget-ms N] [--threads N] [...]
  magis baseline --workload NAME --system pofo|dtr|xla|tvm|ti
                 [--scale F] [--budget-ratio F]
                 [--backend NAME] [--calibrate FILE]
  magis serve    [--addr HOST:PORT] [--state-dir DIR] [--workers N]
                 [--queue-capacity N] [--client-cap N] [--retry-cap N]
                 [--drain-timeout-ms N] [--stall-after-ms N]
                 [--result-cache N] [--port-file FILE]
  magis submit   --addr HOST:PORT | --port-file FILE
                 --workload NAME [--scale F] [--mode memory|latency]
                 [--limit F] [--objective liveness|planned]
                 [--driver greedy|mcts]
                 [--backend NAME] [--budget-ms N] [--wall-limit-ms N]
                 [--max-candidates N] [--threads N] [--client NAME]
                 [--wait true|false]
  magis watch    --addr HOST:PORT | --port-file FILE  --id N
  magis top      --addr HOST:PORT | --port-file FILE
                 [--interval-ms N] [--iterations N]
  magis metrics  --addr HOST:PORT | --port-file FILE
  magis trace-check --trace FILE [--expect-job N]
  magis --backend-list

WORKLOADS: resnet50 bert vit unet unetpp gpt-neo btlm

BACKENDS:
  --backend NAME  cost-model backend profile (default: rtx3090).
                  `magis --backend-list` prints every registered
                  profile with its device spec and efficiencies.
  --calibrate F   refit the chosen backend against a measured JSONL
                  trace (one {\"class\",\"flops\",\"bytes\",\"latency_s\"}
                  object per line): per-class efficiencies and launch
                  overhead are re-estimated by least squares before
                  the backend is used.

MODES (optimize):
  memory   minimize peak memory; --limit is the allowed latency factor
           relative to unoptimized (default 1.10)
  latency  minimize latency; --limit is the allowed memory fraction of
           the unoptimized peak (default 0.8)

OPTIONS (optimize):
  --threads N     candidate-evaluation worker threads (default: all
                  cores; 1 = serial). Results are identical for every N.
  --wall-limit-ms N
                  hard deadline: the search stops at N ms and returns
                  its best-so-far incumbent with `stop reason:
                  deadline` (anytime semantics; wall-clock dependent,
                  so not reproducible run-to-run).
  --max-candidates N
                  hard cap on evaluated candidates — the deterministic
                  stopping knob (`stop reason: eval-cap`), cumulative
                  across --resume.
  --checkpoint-frontier B
                  with --checkpoint: also persist the full search
                  frontier so a --resume continues the trajectory
                  bit-exactly instead of restarting the queue from the
                  incumbent (default false; the serve daemon always
                  enables it).
  --objective O   memory accounting the search steers on: liveness
                  (default, sum of live tensor bytes per step) |
                  planned (allocator-planned high-water mark from a
                  best-fit free-list offset assignment over tensor
                  lifetimes — includes fragmentation). `planned` plans
                  every candidate and reports the fragmentation ratio
                  in the summary; results stay bit-identical for every
                  --threads value.
  --driver D      search strategy: greedy (default, the paper's
                  Algorithm 3 best-first queue) | mcts (seeded Monte
                  Carlo tree search over rewrite sequences — UCT
                  selection, RNG rollouts through the incremental
                  evaluator). Both are bit-identical for every
                  --threads value; checkpoints are driver-tagged, so
                  --resume restores the checkpoint's engine and
                  ignores this flag.
  --paranoia L    invariant enforcement: off | incumbent (default) |
                  all. `incumbent` cross-checks the incremental
                  evaluation of a would-be incumbent against a full
                  re-evaluation (bit-identical peak memory + latency);
                  `all` cross-checks every evaluated candidate.
  --eval M        candidate evaluation mode: incremental (default,
                  delta-schedule + delta memory profile against the
                  parent) | full (re-schedule and re-profile from
                  scratch — the baseline `eval_throughput` measures
                  against). Results are bit-identical either way.
  --eval-cache N  capacity of the structural-hash evaluation cache
                  (duplicate candidates reached via different rewrite
                  paths skip scheduling + simulation). 0 disables;
                  default 1024.
  --checkpoint F  write a search checkpoint to F every
                  --checkpoint-every evaluations (default 64) and at
                  search end. Written atomically (temp + rename).
  --resume F      continue a search from checkpoint F. Budget, thread
                  count, mode, limit, and backend come from the command
                  line, not the checkpoint (re-pass --backend if the
                  original run used one); the workload flag is not
                  needed.

OBSERVABILITY (optimize):
  --trace-out F   record a structured trace of the search (spans for
                  expansion / candidate evaluation / scheduling / cost
                  simulation, events for accept / reject / quarantine /
                  checkpoint / resume / stop) as JSONL to F.
  --metrics-out F write a Prometheus-style text snapshot of all
                  magis_* counters, gauges, and histograms to F at
                  the end of the run.
  --log-level L   diagnostic logging on stderr: error | warn (default)
                  | info | debug | trace.
  Count-type metrics and the trace event *set* are identical for every
  --threads value; only wall-time measurements vary.

MONITORING (serve):
  submit --wait   renders a live one-line ticker on a terminal (search
                  phase, expansions, evaluations, incumbent cost) from
                  the daemon's progress stream.
  watch --id N    attaches to a job already in flight (any number of
                  watchers, mid-flight attach) and streams the same
                  progress frames until the job settles.
  top             polls status + metrics into a refreshing terminal
                  summary (queue depth, running jobs, completions,
                  rejections, retries, cache hits, job wall-time).
                  --iterations N stops after N refreshes (0 = forever).
  metrics         prints the daemon's metric registry as Prometheus
                  text exposition — pipe it to a scraper.
  Every job journals its own trace to jobs/job-<id>/trace.jsonl on the
  daemon side; the trace id is the job id.

trace-check validates a --trace-out file: every line must parse back
as a trace record. Prints per-record-name counts. With --expect-job N
it additionally requires every record to carry a `job = N` correlation
field (use on a daemon's jobs/job-N/trace.jsonl).
";

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments (prints usage, exit code 2).
    Usage(String),
    /// Execution failure (exit code 1).
    Runtime(String),
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, CliError> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError::Usage(format!("expected a flag, got '{}'", args[i])))?;
        let val = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("flag --{key} needs a value")))?;
        out.insert(key.to_string(), val.clone());
        i += 2;
    }
    Ok(out)
}

fn workload(flags: &HashMap<String, String>) -> Result<Workload, CliError> {
    let name = flags
        .get("workload")
        .ok_or_else(|| CliError::Usage("--workload is required".into()))?;
    match name.to_lowercase().as_str() {
        "resnet50" | "resnet" => Ok(Workload::ResNet50),
        "bert" => Ok(Workload::BertBase),
        "vit" => Ok(Workload::VitBase),
        "unet" => Ok(Workload::UNet),
        "unetpp" | "unet++" => Ok(Workload::UNetPP),
        "gpt-neo" | "gptneo" | "gpt" => Ok(Workload::GptNeo13B),
        "btlm" => Ok(Workload::Btlm3B),
        other => Err(CliError::Usage(format!("unknown workload '{other}'"))),
    }
}

fn f64_flag(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} expects a number, got '{v}'"))),
    }
}

fn usize_flag(
    flags: &HashMap<String, String>,
    key: &str,
    default: usize,
) -> Result<usize, CliError> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} expects an integer, got '{v}'"))),
    }
}

fn bool_flag(
    flags: &HashMap<String, String>,
    key: &str,
    default: bool,
) -> Result<bool, CliError> {
    match flags.get(key).map(String::as_str) {
        None => Ok(default),
        Some("true") | Some("1") | Some("yes") => Ok(true),
        Some("false") | Some("0") | Some("no") => Ok(false),
        Some(v) => Err(CliError::Usage(format!("--{key} expects true|false, got '{v}'"))),
    }
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Resolves `--backend` (default `rtx3090`) against the built-in
/// registry, then applies `--calibrate FILE` when present: the trace
/// is parsed as JSONL and the backend refit by least squares.
fn backend_for(flags: &HashMap<String, String>) -> Result<Backend, CliError> {
    let reg = BackendRegistry::builtin();
    let name = flags.get("backend").map(String::as_str).unwrap_or(DEFAULT_BACKEND);
    let base = reg.get(name).ok_or_else(|| {
        CliError::Usage(format!(
            "unknown backend '{name}' (available: {})",
            reg.names().join(", ")
        ))
    })?;
    match flags.get("calibrate") {
        None => Ok(base.clone()),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
            let samples = magis_sim::calibrate::parse_trace(&text)
                .map_err(|e| CliError::Runtime(format!("{path}: {e}")))?;
            base.calibrated(format!("{name}-calibrated"), &samples)
                .map_err(|e| CliError::Runtime(format!("calibrating against {path}: {e}")))
        }
    }
}

/// Prints the `--backend-list` table: every registered profile with
/// its headline device numbers and per-class efficiencies.
fn backend_list() {
    let reg = BackendRegistry::builtin();
    println!(
        "{:<10} {:>9} {:>9} {:>8} {:>9}  efficiencies (mm/bmm/conv/norm/other)",
        "backend", "TFLOP/s", "mem GB/s", "cap GiB", "launch µs"
    );
    for b in reg.iter() {
        let d = b.device();
        let e = b.efficiency();
        println!(
            "{:<10} {:>9.1} {:>9.0} {:>8.1} {:>9.2}  {:.2}/{:.2}/{:.2}/{:.2}/{:.2}",
            b.name(),
            d.peak_flops / 1e12,
            d.mem_bandwidth / 1e9,
            gib(d.mem_capacity),
            d.launch_overhead * 1e6,
            e.matmul,
            e.batch_matmul,
            e.conv,
            e.normalization,
            e.other
        );
    }
}

/// Entry point, separated from `main` for testability.
pub fn run(args: &[String]) -> Result<(), CliError> {
    // `--backend-list` is valueless, so it is handled before the
    // `--name value` flag parser sees it.
    if args.iter().any(|a| a == "--backend-list") {
        backend_list();
        return Ok(());
    }
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".into()));
    };
    match cmd.as_str() {
        "list" => {
            println!("workload      batch  dtype  config");
            for w in Workload::all() {
                println!(
                    "{:12}  {:>5}  {:>5}  {}",
                    w.label(),
                    w.batch(),
                    w.dtype().to_string(),
                    w.config_note()
                );
            }
            Ok(())
        }
        "inspect" => inspect(&parse_flags(rest)?),
        "optimize" => cmd_optimize(&parse_flags(rest)?),
        "baseline" => cmd_baseline(&parse_flags(rest)?),
        "serve" => cmd_serve(&parse_flags(rest)?),
        "submit" => cmd_submit(&parse_flags(rest)?),
        "watch" => cmd_watch(&parse_flags(rest)?),
        "top" => cmd_top(&parse_flags(rest)?),
        "metrics" => cmd_metrics(&parse_flags(rest)?),
        "trace-check" => cmd_trace_check(&parse_flags(rest)?),
        other => Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
    }
}

fn inspect(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let w = workload(flags)?;
    let scale = f64_flag(flags, "scale", 0.5)?;
    let backend = backend_for(flags)?;
    let tg = w.build(scale);
    let g = &tg.graph;
    let ctx = EvalContext::for_backend(&backend);
    let state = MState::initial(g.clone(), &ctx);
    let params: u64 = g
        .node_ids()
        .filter(|&v| g.node(v).op.is_weight_input())
        .map(|v| g.node(v).size_bytes())
        .sum();
    println!("{} @ scale {scale}", w.label());
    println!("  nodes:       {}", g.len());
    println!("  parameters:  {:.3} GiB", gib(params));
    println!("  peak memory: {:.3} GiB (program order)", gib(state.eval.peak_bytes));
    println!(
        "  latency:     {:.2} ms (simulated {})",
        state.eval.latency * 1e3,
        backend.name()
    );
    println!("  hot-spots:   {}", state.eval.hotspots_base.len());
    Ok(())
}

/// Builds the objective from `--mode`/`--limit` relative to the
/// unoptimized seed cost `(peak_bytes, latency)`.
fn objective_for(
    flags: &HashMap<String, String>,
    mode: &str,
    seed_cost: (u64, f64),
) -> Result<Objective, CliError> {
    match mode {
        "memory" => Ok(Objective::MinMemory {
            lat_limit: seed_cost.1 * f64_flag(flags, "limit", 1.10)?,
        }),
        "latency" => Ok(Objective::MinLatency {
            mem_limit: (seed_cost.0 as f64 * f64_flag(flags, "limit", 0.8)?) as u64,
        }),
        other => Err(CliError::Usage(format!("unknown mode '{other}'"))),
    }
}

/// Shared `optimize` config knobs: budget, threads, paranoia,
/// checkpointing.
fn search_config(
    flags: &HashMap<String, String>,
    objective: Objective,
    backend: &Backend,
) -> Result<OptimizerConfig, CliError> {
    let budget = f64_flag(flags, "budget-ms", 15_000.0)?;
    let threads = usize_flag(flags, "threads", magis_util::parallel::available_threads())?;
    let paranoia = match flags.get("paranoia") {
        None => ParanoiaLevel::default(),
        Some(v) => ParanoiaLevel::parse(v).ok_or_else(|| {
            CliError::Usage(format!("--paranoia expects off|incumbent|all, got '{v}'"))
        })?,
    };
    let driver = match flags.get("driver") {
        None => DriverKind::default(),
        Some(v) => DriverKind::parse(v).ok_or_else(|| {
            CliError::Usage(format!("--driver expects greedy|mcts, got '{v}'"))
        })?,
    };
    let mut cfg = OptimizerConfig::new(objective)
        .with_budget(Duration::from_millis(budget as u64))
        .with_threads(threads)
        .with_paranoia(paranoia)
        .with_driver(driver);
    cfg.ctx = EvalContext::for_backend(backend);
    cfg.ctx.mem_objective = match flags.get("objective") {
        None => MemObjective::default(),
        Some(v) => MemObjective::parse(v).ok_or_else(|| {
            CliError::Usage(format!("--objective expects liveness|planned, got '{v}'"))
        })?,
    };
    cfg.ctx.mode = match flags.get("eval").map(String::as_str) {
        None | Some("incremental") => EvalMode::Incremental,
        Some("full") => EvalMode::Full,
        Some(v) => {
            return Err(CliError::Usage(format!(
                "--eval expects incremental|full, got '{v}'"
            )))
        }
    };
    let cache_cap = usize_flag(flags, "eval-cache", cfg.eval_cache)?;
    cfg = cfg.with_eval_cache(cache_cap);
    let mut search_budget = SearchBudget::UNLIMITED;
    if let Some(ms) = flags.get("wall-limit-ms") {
        let ms: u64 = ms.parse().map_err(|_| {
            CliError::Usage(format!("--wall-limit-ms expects an integer, got '{ms}'"))
        })?;
        search_budget = search_budget.with_wall_limit(Duration::from_millis(ms));
    }
    if flags.contains_key("max-candidates") {
        let cap = usize_flag(flags, "max-candidates", 0)?;
        search_budget = search_budget.with_candidate_limit(cap);
    }
    cfg = cfg.with_search_budget(search_budget);
    if let Some(path) = flags.get("checkpoint") {
        let every = usize_flag(flags, "checkpoint-every", 64)?;
        let frontier = bool_flag(flags, "checkpoint-frontier", false)?;
        cfg = cfg
            .with_checkpoint(CheckpointPolicy::new(path).with_every(every).with_frontier(frontier));
    }
    Ok(cfg)
}

/// Configures observability from the `optimize` flags: log level and
/// the JSONL trace sink. Must run before the search starts.
fn setup_obs(flags: &HashMap<String, String>) -> Result<(), CliError> {
    if let Some(level) = flags.get("log-level") {
        let l: magis_obs::log::Level =
            level.parse().map_err(|e: String| CliError::Usage(format!("--log-level: {e}")))?;
        magis_obs::log::set_level(l);
    }
    if let Some(path) = flags.get("trace-out") {
        let sink = magis_obs::trace::JsonlSink::create(Path::new(path))
            .map_err(|e| CliError::Runtime(format!("creating trace file {path}: {e}")))?;
        magis_obs::trace::install(std::sync::Arc::new(sink));
    }
    Ok(())
}

/// Flushes the trace sink and writes the metrics snapshot. Runs after
/// the search (on success) so the snapshot covers the whole run.
fn finish_obs(flags: &HashMap<String, String>) -> Result<(), CliError> {
    if flags.contains_key("trace-out") {
        magis_obs::trace::uninstall();
    }
    if let Some(path) = flags.get("metrics-out") {
        let text = magis_obs::metrics::default_registry().render();
        std::fs::write(path, text)
            .map_err(|e| CliError::Runtime(format!("writing metrics to {path}: {e}")))?;
    }
    Ok(())
}

/// Prints the one-screen end-of-run summary table: headline result,
/// stop reason, search volume, per-phase timing, and the full
/// fault/hardening accounting from
/// [`magis_core::optimizer::OptimizerStats`].
fn print_summary(seed_cost: (u64, f64), res: &OptimizeResult) {
    let best = &res.best;
    let s = &res.stats;
    let secs = |d: Duration| format!("{:.3} s", d.as_secs_f64());
    let fam_names = |fams: &[u8]| -> String {
        if fams.is_empty() {
            "none".to_string()
        } else {
            fams.iter()
                .map(|&f| magis_core::rules::family_name(f))
                .collect::<Vec<_>>()
                .join(", ")
        }
    };
    let rule = "─".repeat(62);
    let row = |k: &str, v: String| eprintln!("  {k:<24} {v}");
    eprintln!("{rule}");
    eprintln!("  magis search summary");
    eprintln!("{rule}");
    row(
        "peak memory",
        format!(
            "{:.3} GiB  ({:.1}% of baseline)",
            gib(best.eval.peak_bytes),
            100.0 * best.eval.peak_bytes as f64 / seed_cost.0 as f64
        ),
    );
    if let Some(plan) = &best.eval.plan {
        row(
            "planned peak",
            format!(
                "{:.3} GiB  (allocator high-water mark)",
                gib(plan.planned_peak_bytes)
            ),
        );
        row("fragmentation", format!("{:.4}x  (planned / liveness)", plan.fragmentation_ratio()));
    }
    row(
        "latency",
        format!(
            "{:.2} ms  ({:+.1}% vs baseline)",
            best.eval.latency * 1e3,
            100.0 * (best.eval.latency / seed_cost.1 - 1.0)
        ),
    );
    row("stop reason", s.stop_reason.to_string());
    row("resumed", (if s.resumed { "yes" } else { "no" }).to_string());
    row("driver", s.driver.to_string());
    row("threads", s.threads.to_string());
    row("expanded / evaluated", format!("{} / {}", s.expanded, s.evaluated));
    row("candidates generated", format!("{}  ({} duplicates filtered)", s.candidates, s.filtered));
    row(
        "eval cache",
        format!(
            "{} hits / {} misses  ({} evicted, {} purged)",
            s.eval_cache_hits, s.eval_cache_misses, s.eval_cache_evictions, s.eval_cache_purged
        ),
    );
    row("time: transform", secs(s.trans_time));
    row("time: sched + sim", secs(s.sched_sim_time));
    row("time: hash / filter", secs(s.hash_time));
    row("time: F-Tree analysis", format!("{}  ({} analyses)", secs(s.analyze_time), s.analyses));
    row("time: eval wall", secs(s.eval_wall_time));
    row("panics sandboxed", s.panicked.to_string());
    row("cost rejections", s.cost_rejections.to_string());
    row("invariant rejections", s.invariant_rejections.to_string());
    row("quarantined candidates", s.quarantined_candidates.to_string());
    row("quarantined families", fam_names(&s.quarantined_families));
    row(
        "checkpoints",
        format!("{} written, {} failed", s.checkpoints_written, s.checkpoint_failures),
    );
    eprintln!("{rule}");
}

/// Prints the result summary and handles `--emit`/`--out`.
fn report_result(
    flags: &HashMap<String, String>,
    seed_cost: (u64, f64),
    res: &OptimizeResult,
) -> Result<(), CliError> {
    let best = &res.best;
    print_summary(seed_cost, res);
    if let Some(emit) = flags.get("emit") {
        let text = render(best, emit, &CostModel::for_backend(&backend_for(flags)?))?;
        match flags.get("out") {
            Some(path) => std::fs::write(path, text)
                .map_err(|e| CliError::Runtime(format!("writing {path}: {e}")))?,
            None => println!("{text}"),
        }
    }
    Ok(())
}

fn cmd_optimize(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let mode = flags.get("mode").map(String::as_str).unwrap_or("memory");
    setup_obs(flags)?;
    let out = cmd_optimize_inner(flags, mode);
    // The trace is flushed and the metrics snapshot written even when
    // the search fails — a failing run is when you want them most.
    let obs = finish_obs(flags);
    out.and(obs)
}

fn cmd_optimize_inner(flags: &HashMap<String, String>, mode: &str) -> Result<(), CliError> {

    // Resume path: everything about the search state comes from the
    // checkpoint; everything about *how to keep searching* (budget,
    // threads, mode, limit, paranoia) comes from the command line.
    let backend = backend_for(flags)?;
    if let Some(path) = flags.get("resume") {
        let ckpt = SearchCheckpoint::read_from(Path::new(path))
            .map_err(|e| CliError::Runtime(format!("loading checkpoint: {e}")))?;
        let objective = objective_for(flags, mode, ckpt.seed_cost)?;
        let cfg = search_config(flags, objective, &backend)?;
        eprintln!(
            "resuming from {path}: incumbent {:.3} GiB / {:.2} ms after {} evaluations",
            gib(ckpt.best_cost.0),
            ckpt.best_cost.1 * 1e3,
            ckpt.counters.evaluated
        );
        let res = optimizer::resume(&ckpt, &cfg)
            .map_err(|e| CliError::Runtime(format!("resuming: {e}")))?;
        return report_result(flags, ckpt.seed_cost, &res);
    }

    let w = workload(flags)?;
    let scale = f64_flag(flags, "scale", 0.5)?;
    let tg = w.build(scale);
    let ctx = EvalContext::for_backend(&backend);
    let init = MState::try_initial(tg.graph.clone(), &ctx)
        .map_err(|e| CliError::Runtime(format!("evaluating the seed graph: {e}")))?;
    let objective = objective_for(flags, mode, init.cost())?;
    eprintln!(
        "{}: {} nodes, baseline {:.3} GiB / {:.2} ms on {}; optimizing ({mode})…",
        w.label(),
        tg.graph.len(),
        gib(init.eval.peak_bytes),
        init.eval.latency * 1e3,
        backend.name()
    );
    let cfg = search_config(flags, objective, &backend)?;
    let res = try_optimize(tg.graph, &cfg)
        .map_err(|e| CliError::Runtime(format!("optimizing: {e}")))?;
    report_result(flags, init.cost(), &res)
}

fn render(best: &MState, emit: &str, cm: &CostModel) -> Result<String, CliError> {
    match emit {
        "dot" => Ok(to_dot(&best.eval.graph, &DotOptions::default())),
        "text" => Ok(to_text(&best.eval.graph)),
        "py" => {
            // Materialize fission, then schedule and emit.
            let mut g: Graph = best.base.clone();
            for i in best.ftree.enabled_order() {
                g = apply_full(&g, &best.ftree.node(i).spec)
                    .map_err(|e| CliError::Runtime(format!("materializing fission: {e}")))?;
            }
            let order = magis_sched::full_schedule(&g, &Default::default());
            let order = magis_sched::place_swaps(&g, &order, cm);
            generate_pytorch(&g, &order).map_err(|e| CliError::Runtime(e.to_string()))
        }
        other => Err(CliError::Usage(format!("unknown --emit format '{other}'"))),
    }
}

fn cmd_baseline(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let w = workload(flags)?;
    let scale = f64_flag(flags, "scale", 0.5)?;
    let system = flags
        .get("system")
        .ok_or_else(|| CliError::Usage("--system is required".into()))?;
    let kind = match system.to_lowercase().as_str() {
        "pofo" => BaselineKind::Pofo,
        "dtr" => BaselineKind::Dtr,
        "xla" => BaselineKind::Xla,
        "tvm" => BaselineKind::Tvm,
        "ti" | "torch-inductor" => BaselineKind::TorchInductor,
        other => return Err(CliError::Usage(format!("unknown system '{other}'"))),
    };
    let backend = backend_for(flags)?;
    let tg = w.build(scale);
    let cm = CostModel::for_backend(&backend);
    let anchor = magis_baselines::pytorch::run(&tg.graph, &cm);
    let ratio = f64_flag(flags, "budget-ratio", 0.8)?;
    let r = kind.run(&tg.graph, Some((anchor.peak_bytes as f64 * ratio) as u64), &cm);
    println!(
        "{} on {} ({}) @ {:.0}% budget: peak {:.3} GiB ({:.1}%), latency {:+.1}%, {}",
        kind.label(),
        w.label(),
        backend.name(),
        ratio * 100.0,
        gib(r.peak_bytes),
        100.0 * r.peak_bytes as f64 / anchor.peak_bytes as f64,
        100.0 * (r.latency / anchor.latency - 1.0),
        if r.feasible { "feasible" } else { "FAILED to meet budget" }
    );
    Ok(())
}

/// `magis serve` — runs the supervised optimization daemon in the
/// foreground until SIGTERM/ctrl-c (then drains gracefully).
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    setup_obs(flags)?;
    let mut cfg = magis_serve::ServeConfig::default();
    if let Some(a) = flags.get("addr") {
        cfg.addr = a.clone();
    }
    if let Some(d) = flags.get("state-dir") {
        cfg.state_dir = d.into();
    }
    cfg.workers = usize_flag(flags, "workers", cfg.workers)?.max(1);
    cfg.queue_capacity = usize_flag(flags, "queue-capacity", cfg.queue_capacity)?;
    cfg.client_cap = usize_flag(flags, "client-cap", cfg.client_cap)?;
    cfg.retry_cap = usize_flag(flags, "retry-cap", cfg.retry_cap as usize)? as u32;
    cfg.backoff_base_ms = usize_flag(flags, "backoff-base-ms", cfg.backoff_base_ms as usize)? as u64;
    cfg.drain_timeout_ms =
        usize_flag(flags, "drain-timeout-ms", cfg.drain_timeout_ms as usize)? as u64;
    cfg.stall_after_ms = usize_flag(flags, "stall-after-ms", cfg.stall_after_ms as usize)? as u64;
    cfg.result_cache = usize_flag(flags, "result-cache", cfg.result_cache)?;
    cfg.port_file = flags.get("port-file").map(Into::into);
    let server = magis_serve::Server::bind(cfg)
        .map_err(|e| CliError::Runtime(format!("starting the server: {e}")))?;
    if let Ok(addr) = server.local_addr() {
        eprintln!("magis serve: listening on {addr}");
    }
    server.run().map_err(|e| CliError::Runtime(format!("serving: {e}")))
}

/// Builds a [`magis_serve::JobSpec`] from `submit` flags (shares the
/// `optimize` flag names).
fn job_spec(flags: &HashMap<String, String>) -> Result<magis_serve::JobSpec, CliError> {
    let mut spec = magis_serve::JobSpec::default();
    workload(flags)?; // validate the name early, client-side
    spec.workload = flags.get("workload").map(|w| w.to_lowercase());
    spec.scale = f64_flag(flags, "scale", 0.5)?;
    spec.mode = flags.get("mode").cloned().unwrap_or_else(|| "memory".into());
    spec.limit = match flags.get("limit") {
        None => None,
        Some(_) => Some(f64_flag(flags, "limit", 0.0)?),
    };
    if let Some(v) = flags.get("objective") {
        spec.objective = MemObjective::parse(v).ok_or_else(|| {
            CliError::Usage(format!("--objective expects liveness|planned, got '{v}'"))
        })?;
    }
    spec.backend = flags.get("backend").cloned();
    spec.budget_ms = usize_flag(flags, "budget-ms", 15_000)? as u64;
    if flags.contains_key("wall-limit-ms") {
        spec.wall_limit_ms = Some(usize_flag(flags, "wall-limit-ms", 0)? as u64);
    }
    if flags.contains_key("max-candidates") {
        spec.max_candidates = Some(usize_flag(flags, "max-candidates", 0)?);
    }
    spec.threads = usize_flag(flags, "threads", 1)?.max(1);
    if flags.contains_key("eval-cache") {
        spec.eval_cache = Some(usize_flag(flags, "eval-cache", 0)?);
    }
    spec.checkpoint_every = usize_flag(flags, "checkpoint-every", spec.checkpoint_every)?.max(1);
    if let Some(v) = flags.get("driver") {
        DriverKind::parse(v).ok_or_else(|| {
            CliError::Usage(format!("--driver expects greedy|mcts, got '{v}'"))
        })?;
        spec.strategy = Some(v.clone());
    }
    if let Some(c) = flags.get("client") {
        spec.client = c.clone();
    }
    Ok(spec)
}

/// Resolves the daemon address from `--addr` or `--port-file`.
fn serve_addr(flags: &HashMap<String, String>) -> Result<String, CliError> {
    if let Some(a) = flags.get("addr") {
        return Ok(a.clone());
    }
    if let Some(p) = flags.get("port-file") {
        let text = std::fs::read_to_string(p)
            .map_err(|e| CliError::Runtime(format!("reading {p}: {e}")))?;
        return Ok(text.trim().to_string());
    }
    Err(CliError::Usage("submit needs --addr or --port-file".into()))
}

/// Renders one progress frame as the single-line live ticker body.
/// Search-snapshot frames show the deterministic expansion-boundary
/// numbers; heartbeat frames (queued / between expansions) show the
/// eval-beat counter.
fn ticker_line(frame: &magis_obs::json::Json) -> String {
    use magis_obs::json::Json;
    let u = |k: &str| frame.get(k).and_then(Json::as_u64);
    match frame.get("phase").and_then(Json::as_str) {
        Some(phase) => {
            let lat = match frame.get("best_latency") {
                Some(Json::Float(f)) => *f,
                Some(Json::UInt(n)) => *n as f64,
                _ => 0.0,
            };
            format!(
                "{phase:<6} exp {:>4}  eval {:>5}  best {:.3} GiB / {:.2} ms  frontier {}",
                u("expansion").unwrap_or(0),
                u("evaluated").unwrap_or(0),
                gib(u("best_peak_bytes").unwrap_or(0)),
                lat * 1e3,
                u("frontier").unwrap_or(0),
            )
        }
        None => format!(
            "{:<6} beats {:>6}  {:>6} ms",
            frame.get("state").and_then(Json::as_str).unwrap_or("…"),
            u("beats").unwrap_or(0),
            u("elapsed_ms").unwrap_or(0),
        ),
    }
}

/// Prints the end-of-stream summary shared by `submit --wait` and
/// `watch`, or turns a failed job into a [`CliError`].
fn report_wait_outcome(label: &str, out: magis_serve::WaitOutcome) -> Result<(), CliError> {
    match out.result {
        Err(e) => Err(CliError::Runtime(format!("job {} failed: {e}", out.id))),
        Ok(r) => {
            let rule = "─".repeat(62);
            let row = |k: &str, v: String| eprintln!("  {k:<24} {v}");
            eprintln!("{rule}");
            eprintln!("  magis {label}: job {} done", out.id);
            eprintln!("{rule}");
            row("peak memory", format!("{:.3} GiB", gib(r.peak_bytes)));
            if let Some(p) = r.planned_peak_bytes {
                row("planned peak", format!("{:.3} GiB", gib(p)));
            }
            row("latency", format!("{:.2} ms", r.latency * 1e3));
            row("stop reason", r.stop_reason.clone());
            row("expanded / evaluated", format!("{} / {}", r.expanded, r.evaluated));
            row("resumed", (if r.resumed { "yes" } else { "no" }).to_string());
            row("cached", (if out.cached { "yes" } else { "no" }).to_string());
            row("progress events", out.progress_events.to_string());
            eprintln!("{rule}");
            Ok(())
        }
    }
}

/// `magis submit` — sends one job to a running daemon and (by
/// default) waits for the result, rendering a live one-line ticker
/// from the progress stream when stderr is a terminal.
fn cmd_submit(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use std::io::IsTerminal;
    let addr = serve_addr(flags)?;
    let spec = job_spec(flags)?;
    let wait = bool_flag(flags, "wait", true)?;
    let mut client = magis_serve::Client::connect(&addr)
        .map_err(|e| CliError::Runtime(format!("connecting to {addr}: {e}")))?;
    if !wait {
        let id = client
            .submit_nowait(&spec)
            .map_err(|e| CliError::Runtime(e.to_string()))?;
        println!("submitted job {id}");
        return Ok(());
    }
    let live = std::io::stderr().is_terminal();
    let out = client
        .submit_and_wait_with(&spec, |frame| {
            if live {
                eprint!("\r\x1b[2K  {}", ticker_line(frame));
            }
        })
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if live {
        eprint!("\r\x1b[2K");
    }
    report_wait_outcome("submit", out)
}

/// `magis watch` — attaches to a job already submitted (mid-flight or
/// settled) and streams its progress frames until it settles.
fn cmd_watch(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use std::io::IsTerminal;
    let addr = serve_addr(flags)?;
    if !flags.contains_key("id") {
        return Err(CliError::Usage("watch needs --id".into()));
    }
    let id = usize_flag(flags, "id", 0)? as u64;
    let mut client = magis_serve::Client::connect(&addr)
        .map_err(|e| CliError::Runtime(format!("connecting to {addr}: {e}")))?;
    let live = std::io::stderr().is_terminal();
    let out = client
        .watch(id, |frame| {
            if live {
                eprint!("\r\x1b[2K  {}", ticker_line(frame));
            } else {
                eprintln!("  {}", ticker_line(frame));
            }
        })
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    if live {
        eprint!("\r\x1b[2K");
    }
    report_wait_outcome("watch", out)
}

/// `magis metrics` — prints the daemon's metric registry as Prometheus
/// text exposition (the scrape surface).
fn cmd_metrics(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let addr = serve_addr(flags)?;
    let mut client = magis_serve::Client::connect(&addr)
        .map_err(|e| CliError::Runtime(format!("connecting to {addr}: {e}")))?;
    let text = client.metrics().map_err(|e| CliError::Runtime(e.to_string()))?;
    print!("{text}");
    Ok(())
}

/// Pulls one sample's value out of a Prometheus text exposition.
fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let mut it = l.split_whitespace();
        (it.next() == Some(name)).then(|| it.next()?.parse().ok())?
    })
}

/// `magis top` — polls `status` + `metrics` into a refreshing
/// terminal summary of the daemon.
fn cmd_top(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use std::io::IsTerminal;
    let addr = serve_addr(flags)?;
    let interval = usize_flag(flags, "interval-ms", 1000)? as u64;
    let iterations = usize_flag(flags, "iterations", 0)?;
    let mut client = magis_serve::Client::connect(&addr)
        .map_err(|e| CliError::Runtime(format!("connecting to {addr}: {e}")))?;
    let clear = std::io::stdout().is_terminal();
    let mut n = 0usize;
    loop {
        let pong = client.ping().map_err(|e| CliError::Runtime(e.to_string()))?;
        let text = client.metrics().map_err(|e| CliError::Runtime(e.to_string()))?;
        let v = |name: &str| prom_value(&text, name).unwrap_or(0.0);
        if clear && n > 0 {
            print!("\x1b[2J\x1b[H");
        }
        let q = pong.get("queued").and_then(magis_obs::json::Json::as_u64).unwrap_or(0);
        let r = pong.get("running").and_then(magis_obs::json::Json::as_u64).unwrap_or(0);
        let rule = "─".repeat(62);
        println!("{rule}");
        println!("  magis top — {addr}");
        println!("{rule}");
        let row = |k: &str, val: String| println!("  {k:<24} {val}");
        row("queued / running", format!("{q} / {r}"));
        row(
            "jobs",
            format!(
                "{:.0} submitted, {:.0} accepted, {:.0} completed, {:.0} failed",
                v("magis_serve_jobs_submitted"),
                v("magis_serve_jobs_accepted"),
                v("magis_serve_jobs_completed"),
                v("magis_serve_jobs_failed"),
            ),
        );
        row(
            "rejected",
            format!(
                "{:.0} queue-full, {:.0} client-cap, {:.0} draining",
                v("magis_serve_rejected_queue_full"),
                v("magis_serve_rejected_client_cap"),
                v("magis_serve_rejected_draining"),
            ),
        );
        row(
            "retries / replays",
            format!("{:.0} / {:.0}", v("magis_serve_retries"), v("magis_serve_jobs_replayed")),
        );
        row(
            "result cache",
            format!(
                "{:.0} hits / {:.0} misses",
                v("magis_serve_result_cache_hits"),
                v("magis_serve_result_cache_misses"),
            ),
        );
        let jobs_n = v("magis_serve_job_seconds_count");
        let wait_n = v("magis_serve_queue_wait_seconds_count");
        row(
            "job wall-time",
            if jobs_n > 0.0 {
                format!("{:.3} s avg over {jobs_n:.0} runs", v("magis_serve_job_seconds_sum") / jobs_n)
            } else {
                "no runs yet".to_string()
            },
        );
        row(
            "queue wait",
            if wait_n > 0.0 {
                format!(
                    "{:.3} s avg over {wait_n:.0} pickups",
                    v("magis_serve_queue_wait_seconds_sum") / wait_n
                )
            } else {
                "no pickups yet".to_string()
            },
        );
        row("watchdog stalls", format!("{:.0}", v("magis_serve_watchdog_stalls")));
        println!("{rule}");
        n += 1;
        if iterations != 0 && n >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(interval));
    }
}

/// Validates a `--trace-out` JSONL file: every non-empty line must
/// parse back as a trace record. Prints per-record-name counts. With
/// `--expect-job N`, every record must additionally carry a `job = N`
/// correlation field — the shape `magis-serve` writes into a job
/// directory's `trace.jsonl`.
fn cmd_trace_check(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let path = flags
        .get("trace")
        .ok_or_else(|| CliError::Usage("--trace is required".into()))?;
    let expect_job: Option<u64> = match flags.get("expect-job") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| {
            CliError::Usage(format!("--expect-job expects an integer, got '{v}'"))
        })?),
    };
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Runtime(format!("reading {path}: {e}")))?;
    let mut spans = 0usize;
    let mut events = 0usize;
    let mut names: std::collections::BTreeMap<String, usize> = std::collections::BTreeMap::new();
    for (no, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = magis_obs::trace::TraceEvent::parse_line(line)
            .map_err(|e| CliError::Runtime(format!("{path}:{}: {e}", no + 1)))?;
        if let Some(want) = expect_job {
            let tagged = ev.fields.iter().any(|(k, v)| {
                k == "job" && matches!(v, magis_obs::trace::FieldValue::U64(n) if *n == want)
            });
            if !tagged {
                return Err(CliError::Runtime(format!(
                    "{path}:{}: record {}/{} carries no job={want} field",
                    no + 1,
                    ev.target,
                    ev.name
                )));
            }
        }
        match ev.kind {
            magis_obs::trace::TraceKind::Span => spans += 1,
            magis_obs::trace::TraceKind::Event => events += 1,
        }
        *names.entry(format!("{}/{}", ev.target, ev.name)).or_default() += 1;
    }
    if spans + events == 0 {
        return Err(CliError::Runtime(format!("{path}: no trace records")));
    }
    println!("{path}: {} records OK ({spans} spans, {events} events)", spans + events);
    if let Some(want) = expect_job {
        println!("  every record carries job={want}");
    }
    for (name, n) in names {
        println!("  {name}: {n}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn list_runs() {
        run(&s(&["list"])).unwrap();
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&s(&[])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&s(&["inspect"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&s(&["inspect", "--workload", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--scale", "abc"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--threads", "two"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--eval", "sometimes"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--eval-cache", "lots"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--objective", "wishful"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn inspect_runs_small() {
        run(&s(&["inspect", "--workload", "unet", "--scale", "0.1"])).unwrap();
    }

    #[test]
    fn backend_list_runs() {
        run(&s(&["--backend-list"])).unwrap();
        // Valueless flag works in any position, even mid-command.
        run(&s(&["inspect", "--backend-list"])).unwrap();
    }

    #[test]
    fn backend_selection_and_errors() {
        run(&s(&["inspect", "--workload", "unet", "--scale", "0.1", "--backend", "a100"]))
            .unwrap();
        run(&s(&[
            "baseline", "--workload", "bert", "--system", "tvm", "--scale", "0.1",
            "--backend", "mobile",
        ]))
        .unwrap();
        assert!(matches!(
            run(&s(&["inspect", "--workload", "unet", "--backend", "cray-1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["inspect", "--workload", "unet", "--calibrate", "/nonexistent.jsonl"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn calibrate_flag_round_trips() {
        use magis_sim::backend::OpClass;
        let reg = BackendRegistry::builtin();
        let tpu = reg.get("tpu").unwrap();
        let samples = magis_sim::calibrate::synthesize_trace(
            tpu,
            &[
                (OpClass::MatMul, 4.0e12, 3.0e7),
                (OpClass::MatMul, 8.0e12, 6.0e7),
                (OpClass::Conv, 2.0e12, 5.0e7),
                (OpClass::Conv, 6.0e12, 1.5e8),
                (OpClass::Other, 1.0e7, 4.0e8),
                (OpClass::Other, 2.0e7, 8.0e8),
            ],
        );
        let path = "/tmp/magis_cli_calibrate_test.jsonl";
        std::fs::write(path, magis_sim::calibrate::render_trace(&samples)).unwrap();
        // Calibrating the tpu profile against its own synthetic trace
        // must parse, fit, and run end-to-end.
        run(&s(&[
            "inspect", "--workload", "unet", "--scale", "0.1", "--backend", "tpu",
            "--calibrate", path,
        ]))
        .unwrap();
        let _ = std::fs::remove_file(path);
        // A defective trace is a runtime error, not a panic.
        let bad = "/tmp/magis_cli_calibrate_bad.jsonl";
        std::fs::write(bad, "{\"class\":\"warp-drive\",\"flops\":1,\"bytes\":1,\"latency_s\":1}\n")
            .unwrap();
        assert!(matches!(
            run(&s(&["inspect", "--workload", "unet", "--calibrate", bad])),
            Err(CliError::Runtime(_))
        ));
        let _ = std::fs::remove_file(bad);
    }

    #[test]
    fn baseline_runs_small() {
        run(&s(&[
            "baseline",
            "--workload",
            "bert",
            "--system",
            "dtr",
            "--scale",
            "0.1",
            "--budget-ratio",
            "0.8",
        ]))
        .unwrap();
    }

    #[test]
    fn optimize_checkpoint_then_resume() {
        let ckpt = "/tmp/magis_cli_ckpt_test.ckpt";
        let _ = std::fs::remove_file(ckpt);
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "600",
            "--threads", "2", "--checkpoint", ckpt, "--checkpoint-every", "8",
        ]))
        .unwrap();
        assert!(Path::new(ckpt).exists(), "final checkpoint written");
        run(&s(&["optimize", "--resume", ckpt, "--budget-ms", "200", "--threads", "2"]))
            .unwrap();
        let _ = std::fs::remove_file(ckpt);
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--paranoia", "bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--resume", "/nonexistent/path.ckpt"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn optimize_with_observability_outputs() {
        let trace = "/tmp/magis_cli_trace_test.jsonl";
        let metrics = "/tmp/magis_cli_metrics_test.txt";
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "400",
            "--threads", "2", "--trace-out", trace, "--metrics-out", metrics, "--log-level",
            "warn",
        ]))
        .unwrap();
        run(&s(&["trace-check", "--trace", trace])).unwrap();
        let m = std::fs::read_to_string(metrics).unwrap();
        assert!(m.contains("magis_core_expansions"), "metrics snapshot has core counters");
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(metrics);
        assert!(matches!(
            run(&s(&["trace-check", "--trace", "/nonexistent.jsonl"])),
            Err(CliError::Runtime(_))
        ));
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--log-level", "loud"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn optimize_planned_objective() {
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "400",
            "--threads", "2", "--objective", "planned", "--paranoia", "all",
        ]))
        .unwrap();
    }

    #[test]
    fn optimize_full_eval_mode() {
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "300",
            "--threads", "2", "--eval", "full", "--eval-cache", "0",
        ]))
        .unwrap();
    }

    #[test]
    fn optimize_deadline_and_candidate_caps() {
        // A tight deadline still returns a valid best-so-far summary.
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--budget-ms", "5000",
            "--threads", "2", "--wall-limit-ms", "150",
        ]))
        .unwrap();
        // The candidate cap is the deterministic stopping knob.
        run(&s(&[
            "optimize", "--workload", "unet", "--scale", "0.1", "--threads", "2",
            "--max-candidates", "5",
        ]))
        .unwrap();
        assert!(matches!(
            run(&s(&["optimize", "--workload", "unet", "--wall-limit-ms", "soon"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&[
                "optimize", "--workload", "unet", "--checkpoint", "/tmp/x.ckpt",
                "--checkpoint-frontier", "maybe",
            ])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["submit", "--workload", "unet"])),
            Err(CliError::Usage(_)),
        ), "submit without an address is a usage error");
    }

    #[test]
    fn monitoring_usage_errors() {
        assert!(
            matches!(run(&s(&["watch", "--addr", "127.0.0.1:1"])), Err(CliError::Usage(_))),
            "watch needs --id"
        );
        assert!(
            matches!(run(&s(&["metrics"])), Err(CliError::Usage(_))),
            "metrics needs an address"
        );
        assert!(matches!(run(&s(&["top"])), Err(CliError::Usage(_))), "top needs an address");
        assert!(
            matches!(
                run(&s(&["trace-check", "--trace", "/tmp/x.jsonl", "--expect-job", "one"])),
                Err(CliError::Usage(_))
            ),
            "--expect-job must be an integer"
        );
    }

    #[test]
    fn prom_value_reads_samples() {
        let text = "# HELP x\nmagis_serve_jobs_completed 3\nmagis_serve_job_seconds_sum 1.5\n";
        assert_eq!(prom_value(text, "magis_serve_jobs_completed"), Some(3.0));
        assert_eq!(prom_value(text, "magis_serve_job_seconds_sum"), Some(1.5));
        assert_eq!(prom_value(text, "magis_serve_jobs_failed"), None);
    }

    #[test]
    fn serve_monitoring_end_to_end() {
        let dir = std::env::temp_dir().join(format!("magis_cli_monitor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = magis_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: dir.clone(),
            workers: 1,
            result_cache: 0,
            ..Default::default()
        };
        let server = magis_serve::Server::bind(cfg).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle().unwrap();
        let t = std::thread::spawn(move || server.run().unwrap());

        let mut c = magis_serve::Client::connect(&addr).unwrap();
        let spec = magis_serve::JobSpec {
            workload: Some("unet".into()),
            scale: 0.1,
            budget_ms: 400,
            threads: 1,
            ..Default::default()
        };
        let id = c.submit_nowait(&spec).unwrap();
        // Mid-flight (or post-hoc) attach by id, then the scrape and
        // summary surfaces, then trace correlation on the job's
        // journaled trace.
        run(&s(&["watch", "--addr", &addr, "--id", &id.to_string()])).unwrap();
        run(&s(&["metrics", "--addr", &addr])).unwrap();
        run(&s(&["top", "--addr", &addr, "--iterations", "1"])).unwrap();
        let trace = dir.join(format!("jobs/job-{id}")).join("trace.jsonl");
        run(&s(&[
            "trace-check",
            "--trace",
            trace.to_str().unwrap(),
            "--expect-job",
            &id.to_string(),
        ]))
        .unwrap();
        handle.shutdown();
        t.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn optimize_memory_small_budget() {
        run(&s(&[
            "optimize",
            "--workload",
            "unet",
            "--scale",
            "0.1",
            "--budget-ms",
            "400",
            "--threads",
            "2",
            "--emit",
            "text",
            "--out",
            "/tmp/magis_cli_test.txt",
        ]))
        .unwrap();
        let t = std::fs::read_to_string("/tmp/magis_cli_test.txt").unwrap();
        assert!(t.contains("conv2d"));
    }
}
