//! The service workload: a closed loop of clients against an in-process
//! `magis_serve::Server`, and the in-process reference every served
//! result must equal.

use crate::deck::{Kind, Request};
use crate::inproc::{self, Input};
use crate::report;
use magis_core::budget::SearchBudget;
use magis_core::driver::DriverKind;
use magis_core::optimizer::{Objective, OptimizeResult, OptimizerConfig};
use magis_graph::graph::Graph;
use magis_serve::{Client, JobResult, JobSpec, ServeConfig, Server, ServerHandle};
use magis_sim::{BackendRegistry, DEFAULT_BACKEND};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Clients in the closed loop and workers in the daemon: one each per
/// core of the two-core machine the benchmark was sized on.
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// A soft budget no job reaches (see `inproc::NO_WALL_BUDGET`).
const NO_WALL_BUDGET_MS: u64 = 3_600_000;

/// A running in-process daemon.
pub struct Daemon {
    handle: ServerHandle,
    join: thread::JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    /// Binds a daemon on a free local port with a fresh journal under
    /// `dir`, and returns once it answers a ping.
    pub fn start(dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: dir.to_path_buf(),
            workers: WORKERS,
            result_cache: 0,
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle().map_err(|e| format!("handle: {e}"))?;
        let join = thread::spawn(move || server.run());
        let daemon = Daemon {
            handle,
            join,
            dir: dir.to_path_buf(),
        };
        let t0 = Instant::now();
        loop {
            match Client::connect(daemon.addr()).and_then(|mut c| c.ping()) {
                Ok(_) => return Ok(daemon),
                Err(e) if t0.elapsed() > Duration::from_secs(10) => {
                    daemon.stop();
                    return Err(format!("daemon never answered: {e}"));
                }
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr()
    }

    /// Drains the daemon, waits for its threads and removes its journal.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.join.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The client's inputs: each model's graph and its record, the form a
/// served job carries it in.
pub struct Inputs {
    pub graphs: Vec<Graph>,
    pub records: Vec<String>,
}

/// The set-up before the first served request can start: build every
/// model, encode it for the wire, and bring the daemon up.
pub fn setup(kind: Kind, dir: &Path) -> Result<(Inputs, Daemon), String> {
    let graphs: Vec<Graph> = kind
        .models()
        .into_iter()
        .map(|(model, scale)| model.build(scale).graph)
        .collect();
    let records = graphs.iter().map(magis_graph::io::to_record).collect();
    let daemon = Daemon::start(dir)?;
    Ok((Inputs { graphs, records }, daemon))
}

pub fn spec(kind: Kind, req: &Request, inputs: &Inputs) -> JobSpec {
    JobSpec {
        graph: Some(inputs.records[req.input].clone()),
        limit: Some(req.factor),
        objective: req.objective,
        budget_ms: NO_WALL_BUDGET_MS,
        max_candidates: Some(kind.eval_cap()),
        threads: kind.threads(),
        strategy: Some(driver_name(req.driver).into()),
        ..JobSpec::default()
    }
}

fn driver_name(d: DriverKind) -> &'static str {
    match d {
        DriverKind::Greedy => "greedy",
        DriverKind::Mcts => "mcts",
    }
}

/// One served request as the client saw it.
pub struct Served {
    /// Deck index of the request.
    pub idx: usize,
    /// Submit until the result arrived.
    pub secs: f64,
    /// When the result arrived, in seconds since the loop started.
    pub end: f64,
    /// Process CPU seconds (daemon and clients) spent since the loop
    /// started, when the result arrived.
    pub cpu_end: f64,
    /// Submit until the job id came back (traced passes only).
    pub admit_secs: f64,
    pub progress_events: usize,
    pub result: Result<JobResult, String>,
}

/// When a closed loop stops issuing requests.
pub enum Until {
    /// At least `min` requests and `seconds` of wall time, and no
    /// request of the deck left unissued.
    Measured { seconds: f64, min: usize },
    /// Exactly one pass over the deck.
    OnePass,
}

/// Runs `CLIENTS` clients, each sending its next request as soon as
/// its previous one completes. Traced passes submit without waiting and
/// then watch the job, so the admission time is seen on its own.
/// Returns the requests in completion order.
pub fn closed_loop(
    addr: std::net::SocketAddr,
    specs: &[JobSpec],
    until: Until,
    traced: bool,
) -> Vec<Served> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    let (start, cpu_start) = (Instant::now(), report::cpu_seconds());
    let more = |i: usize| match until {
        Until::Measured { seconds, min } => {
            i < specs.len() || i < min || start.elapsed().as_secs_f64() < seconds
        }
        Until::OnePass => i < specs.len(),
    };
    thread::scope(|s| {
        for c in 0..CLIENTS {
            let (next, done, more) = (&next, &done, &more);
            s.spawn(move || {
                let mut client: Option<Client> = None;
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if !more(i) {
                        break;
                    }
                    let mut spec = specs[i % specs.len()].clone();
                    spec.client = format!("client-{c}");
                    let t0 = Instant::now();
                    let out = request(&mut client, addr, &spec, traced);
                    let secs = t0.elapsed().as_secs_f64();
                    let end = start.elapsed().as_secs_f64();
                    let cpu_end = report::cpu_seconds() - cpu_start;
                    let served = match out {
                        Ok((admit, events, result)) => Served {
                            idx: i % specs.len(),
                            secs,
                            end,
                            cpu_end,
                            admit_secs: admit,
                            progress_events: events,
                            result,
                        },
                        Err(e) => {
                            // A broken connection is not reused.
                            client = None;
                            Served {
                                idx: i % specs.len(),
                                secs,
                                end,
                                cpu_end,
                                admit_secs: 0.0,
                                progress_events: 0,
                                result: Err(e),
                            }
                        }
                    };
                    done.lock()
                        .expect("no client panics holding the lock")
                        .push(served);
                }
            });
        }
    });
    let mut done = done.into_inner().expect("no client panicked");
    done.sort_by(|a: &Served, b: &Served| a.end.total_cmp(&b.end));
    done
}

type Reply = (f64, usize, Result<JobResult, String>);

fn request(
    client: &mut Option<Client>,
    addr: std::net::SocketAddr,
    spec: &JobSpec,
    traced: bool,
) -> Result<Reply, String> {
    if client.is_none() {
        *client = Some(Client::connect(addr).map_err(|e| e.to_string())?);
    }
    let c = client.as_mut().expect("connected above");
    let t0 = Instant::now();
    let out = if traced {
        let id = c.submit_nowait(spec).map_err(|e| e.to_string())?;
        let admit = t0.elapsed().as_secs_f64();
        let out = c.watch(id, |_| {}).map_err(|e| e.to_string())?;
        (admit, out)
    } else {
        let out = c.submit_and_wait(spec).map_err(|e| e.to_string())?;
        (0.0, out)
    };
    let (admit, out) = out;
    if out.cached {
        return Err("served from the result cache, which is off".into());
    }
    Ok((admit, out.progress_events, out.result))
}

/// The in-process run of a served job's spec: the same graph record,
/// backend, objective, driver and candidate cap, through
/// `magis_core::optimizer` directly.
pub struct Reference {
    pub input: Input,
    pub cfg: OptimizerConfig,
    pub result: Result<OptimizeResult, String>,
    pub secs: f64,
}

pub fn reference(spec: &JobSpec, req: &Request) -> Result<Reference, String> {
    let record = spec
        .graph
        .as_deref()
        .ok_or("served specs carry a graph record")?;
    let graph = magis_graph::io::from_record(record).map_err(|e| format!("record: {e}"))?;
    let backend = BackendRegistry::builtin()
        .get(DEFAULT_BACKEND)
        .cloned()
        .ok_or("the default backend is registered")?;
    let input = Input::new(graph, req.objective);
    let limit = spec.limit.ok_or("served specs carry a latency limit")?;
    let budget = SearchBudget::UNLIMITED.with_candidate_limit(
        spec.max_candidates
            .ok_or("served specs carry a candidate cap")?,
    );
    let mut cfg = OptimizerConfig::new(Objective::MinMemory {
        lat_limit: input.latency * limit,
    })
    .with_budget(Duration::from_millis(spec.budget_ms))
    .with_threads(spec.threads)
    .with_driver(req.driver)
    .with_search_budget(budget);
    cfg.ctx = magis_core::state::EvalContext::for_backend(&backend);
    cfg.ctx.mem_objective = spec.objective;
    let (result, secs) = inproc::timed(input.graph.clone(), &cfg);
    Ok(Reference {
        input,
        cfg,
        result,
        secs,
    })
}

/// A served result must equal the in-process one bit for bit.
pub fn matches(served: &JobResult, reference: &OptimizeResult) -> Result<(), String> {
    let want = inproc::Outcome::of(reference);
    let got = (
        served.peak_bytes,
        served.latency.to_bits(),
        served.evaluated,
        served.expanded,
        served.planned_peak_bytes,
    );
    let expect = (
        want.peak_bytes,
        want.latency_bits,
        want.evaluated,
        want.expanded,
        want.planned_peak,
    );
    if got != expect {
        return Err(format!("served {got:?} != in-process {expect:?}"));
    }
    if !served.deterministic {
        return Err(format!("served job stopped by {}", served.stop_reason));
    }
    Ok(())
}

/// The value of sample `name` in a Prometheus text scrape (0 when
/// absent): a counter, or a histogram's `_sum` or `_count`.
pub fn scrape(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .filter_map(|v| v.trim().parse::<f64>().ok())
        .next()
        .unwrap_or(0.0)
}

pub fn metrics(addr: std::net::SocketAddr) -> Result<String, String> {
    Client::connect(addr)
        .and_then(|mut c| c.metrics())
        .map_err(|e| e.to_string())
}
