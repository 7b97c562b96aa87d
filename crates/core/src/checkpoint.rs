//! Search checkpoint/resume: periodic serialization of the
//! M-Optimizer's state so a killed search can restart from its last
//! incumbent instead of from the seed graph.
//!
//! Format: a versioned, line-oriented text file with no external
//! dependencies (the repo is fully offline). Floating-point values are
//! stored as bit patterns (`f64::to_bits` in hex) so a checkpoint
//! round-trip is bit-exact and resume preserves determinism. The
//! incumbent is stored as **two** graph records plus the exact
//! schedule: its base graph and the overlaid (fission-applied) graph
//! that was actually simulated. On resume the stored schedule is
//! re-simulated rather than re-scheduled — re-scheduling could land on
//! a different (worse) evaluation than the one that won incumbency.
//!
//! There is one format, `magis-checkpoint v4`; any other version is
//! rejected with a typed error. In file order it holds:
//!
//! * a `driver` line naming the search engine that wrote it (`greedy`
//!   or `mcts`) — resume restores that engine regardless of the
//!   caller's configured driver;
//! * the RNG seed, the seed and incumbent costs, and a `counters` line
//!   with ten cumulative [`OptimizerStats`] counts (expanded,
//!   evaluated, candidates, filtered, panicked, cost rejections,
//!   invariant rejections, quarantined candidates, checkpoints
//!   written, checkpoint failures), so a resumed search's stats and
//!   `magis_core_*` counters continue from the checkpointed totals;
//! * the Pareto points, seen-set hashes, quarantine strikes, and the
//!   incumbent's schedule and F-Tree;
//! * the optional **frontier**: every entry still on the driver's
//!   frontier, each with its sequence number, staleness flag, and the
//!   same order/F-Tree/graph-record block as the incumbent. A
//!   frontier-bearing checkpoint resumes *exactly* — the queue,
//!   seen-set, and sequence counter are reconstructed verbatim, so a
//!   killed-and-resumed search replays the identical trajectory and
//!   finishes bit-identical to an uninterrupted run (given
//!   deterministic stopping, i.e. a candidate cap rather than wall
//!   clock). A frontier-free checkpoint resumes best-effort: the
//!   incumbent is re-seeded and the search re-explores from there;
//! * for an MCTS frontier, the tree metadata (parent/visit/reward per
//!   node, plus the RNG state);
//! * the incumbent's two graph records and a footer.
//!
//! The decoder sizes every vector from the input that is left, not from
//! the count the file declares, so a corrupt count ends in a typed
//! error rather than an allocation failure.
//!
//! The optimizer's configuration (objective, budget, thread count,
//! rule set) is deliberately **not** stored: the resuming caller's
//! config is authoritative, so a checkpoint can be resumed under a
//! different budget or thread count without surgery.

use magis_graph::GraphView;
use crate::driver::DriverKind;
use crate::ftree::{FTree, FTreeNode};
use crate::fission::FissionSpec;
use crate::optimizer::OptimizerStats;
use crate::state::{EvalContext, EvalError, MState};
use magis_graph::graph::NodeId;
use magis_graph::io::{self, RecordError};
use magis_sched::{validate_schedule, ScheduleError};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::Path;
use std::str::FromStr;

const CKPT_HEADER: &str = "magis-checkpoint v4";
const CKPT_FOOTER: &str = "ckpt-end";

/// Why loading or restoring a checkpoint failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (path kept in the message).
    Io(String),
    /// A malformed line in the checkpoint body.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The embedded graph record failed to parse or validate.
    Record(RecordError),
    /// The stored schedule is not a valid schedule of the stored graph.
    Schedule(ScheduleError),
    /// Re-simulating the stored incumbent failed.
    Eval(EvalError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O: {msg}"),
            CheckpointError::Parse { line, msg } => {
                write!(f, "checkpoint line {line}: {msg}")
            }
            CheckpointError::Record(e) => write!(f, "checkpoint graph record: {e}"),
            CheckpointError::Schedule(e) => write!(f, "checkpoint schedule: {e}"),
            CheckpointError::Eval(e) => write!(f, "checkpoint re-evaluation: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<RecordError> for CheckpointError {
    fn from(e: RecordError) -> Self {
        CheckpointError::Record(e)
    }
}

impl From<ScheduleError> for CheckpointError {
    fn from(e: ScheduleError) -> Self {
        CheckpointError::Schedule(e)
    }
}

impl From<EvalError> for CheckpointError {
    fn from(e: EvalError) -> Self {
        CheckpointError::Eval(e)
    }
}

/// One frontier entry captured in a frontier-bearing checkpoint: the
/// state's serialized parts plus the queue bookkeeping
/// (sequence number, staleness) needed to reconstruct the heap
/// verbatim.
#[derive(Debug, Clone)]
pub struct FrontierEntry {
    /// The entry's queue sequence number (FIFO tiebreak within equal
    /// objective keys — restoring it preserves pop order exactly).
    pub seq: u64,
    /// Whether the state's F-Tree needed re-analysis before expansion.
    pub tree_stale: bool,
    /// The state's schedule as arena indices into its eval graph.
    pub order: Vec<usize>,
    /// The state's F-Tree nodes.
    pub ftree_nodes: Vec<FTreeNode>,
    /// Graph record of the state's base graph.
    pub base_record: String,
    /// Graph record of the state's overlaid (simulated) graph.
    pub eval_record: String,
}

/// Per-node MCTS tree metadata stored beside a frontier entry.
/// The entry at the same position in the frontier carries the node's
/// state; this struct carries everything else the tree needs.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsNodeMeta {
    /// Arena index of the parent node; `None` for the root.
    pub parent: Option<u64>,
    /// The candidate index (within the parent's sorted batch) that
    /// produced this node — the UCT tie-break key.
    pub cand_index: u64,
    /// Visit count accumulated by backpropagation.
    pub visits: u64,
    /// Total reward accumulated by backpropagation.
    pub reward_sum: f64,
    /// Whether the node's candidate batch has been expanded.
    pub expanded: bool,
}

/// MCTS engine state stored in a frontier-bearing checkpoint: the
/// driver's RNG state plus one [`MctsNodeMeta`] per frontier entry (in
/// arena order). Restoring it resumes the tree — and the rollout RNG
/// stream — exactly where the checkpoint left off.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsCheckpoint {
    /// Raw RNG state ([`magis_util::rng::SmallRng::state`]).
    pub rng_state: u64,
    /// Tree metadata, index-aligned with the checkpoint's frontier.
    pub nodes: Vec<MctsNodeMeta>,
}

/// A serializable snapshot of the M-Optimizer's search state.
#[derive(Debug, Clone)]
pub struct SearchCheckpoint {
    /// RNG seed of the search (naïve-fission ablation determinism).
    pub rng_seed: u64,
    /// `(peak_bytes, latency)` of the unoptimized seed state.
    pub seed_cost: (u64, f64),
    /// `(peak_bytes, latency)` of the incumbent at checkpoint time.
    pub best_cost: (u64, f64),
    /// Cumulative search counts. Only the ten fields of the `counters`
    /// line are persisted (see the module docs); every other field
    /// decodes as its default.
    pub counters: OptimizerStats,
    /// Pareto frontier points `(peak_bytes, latency)`.
    pub pareto: Vec<(u64, f64)>,
    /// Graph hashes already explored (includes the incumbent's own).
    pub seen: Vec<u64>,
    /// Quarantine strikes per rule family (`Transform::sort_key().0`).
    pub quarantine: Vec<(u8, u32)>,
    /// The incumbent's schedule as arena indices into the eval graph.
    pub best_order: Vec<usize>,
    /// The incumbent's F-Tree nodes.
    pub ftree_nodes: Vec<FTreeNode>,
    /// Graph record of the incumbent's base graph.
    pub base_record: String,
    /// Graph record of the incumbent's overlaid (simulated) graph.
    pub eval_record: String,
    /// The sequence counter's next value (only meaningful when
    /// `frontier` is non-empty).
    pub next_seq: u64,
    /// The driver frontier at checkpoint time, sorted by sequence
    /// number (empty when the checkpoint policy doesn't request
    /// frontier capture). Non-empty frontiers make resume
    /// trajectory-exact.
    pub frontier: Vec<FrontierEntry>,
    /// The search engine that wrote this checkpoint. Resume restores
    /// this engine, not the caller's configured one.
    pub driver: DriverKind,
    /// MCTS tree metadata (MCTS frontier checkpoints only).
    pub mcts: Option<MctsCheckpoint>,
}

fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn parse_num<T: FromStr>(tok: &str, line: usize, what: &str) -> Result<T, CheckpointError> {
    tok.parse::<T>().map_err(|_| CheckpointError::Parse {
        line,
        msg: format!("bad {what} '{tok}'"),
    })
}

/// A `0`/`1` flag.
fn parse_flag(tok: &str, line: usize, what: &str) -> Result<bool, CheckpointError> {
    match tok {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(CheckpointError::Parse { line, msg: format!("bad {what} flag '{tok}'") }),
    }
}

fn parse_f64_hex(tok: &str, line: usize, what: &str) -> Result<f64, CheckpointError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointError::Parse { line, msg: format!("bad {what} bits '{tok}'") })
}

fn parse_hex_u64(tok: &str, line: usize, what: &str) -> Result<u64, CheckpointError> {
    u64::from_str_radix(tok, 16).map_err(|_| CheckpointError::Parse {
        line,
        msg: format!("bad {what} '{tok}'"),
    })
}

/// `+`-joined list of usizes; `-` for empty.
fn join_plus<I: IntoIterator<Item = usize>>(it: I) -> String {
    let parts: Vec<String> = it.into_iter().map(|v| v.to_string()).collect();
    if parts.is_empty() { "-".to_string() } else { parts.join("+") }
}

fn parse_plus(tok: &str, line: usize, what: &str) -> Result<Vec<usize>, CheckpointError> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split('+').map(|t| parse_num::<usize>(t, line, what)).collect()
}

// ---- shared state-block emitters (incumbent + frontier entries) ----

fn encode_order(out: &mut String, order: &[usize]) {
    out.push_str(&format!("order {}\n", order.len()));
    for chunk in order.chunks(16) {
        out.push('o');
        for i in chunk {
            out.push_str(&format!(" {i}"));
        }
        out.push('\n');
    }
}

fn encode_ftree(out: &mut String, nodes: &[FTreeNode]) {
    out.push_str(&format!("ftree {}\n", nodes.len()));
    for n in nodes {
        let parent = match n.parent {
            Some(p) => p.to_string(),
            None => "-".to_string(),
        };
        let dims = if n.spec.dims.is_empty() {
            "-".to_string()
        } else {
            n.spec
                .dims
                .iter()
                .map(|(v, d)| format!("{}:{}", v.index(), d))
                .collect::<Vec<_>>()
                .join("+")
        };
        out.push_str(&format!(
            "f {parent} {} {} ch={} set={} dims={dims}\n",
            n.level,
            n.spec.parts,
            join_plus(n.children.iter().copied()),
            join_plus(n.spec.set.iter().map(|v| v.index())),
        ));
    }
}

fn encode_graph(out: &mut String, tag: &str, rec: &str) {
    let nlines = rec.lines().count();
    out.push_str(&format!("{tag} {nlines}\n"));
    out.push_str(rec);
    if !rec.ends_with('\n') {
        out.push('\n');
    }
}

// ---- shared state-block parsers ----

fn next_line(lines: &[&str], ln: &mut usize) -> Result<String, CheckpointError> {
    let i = *ln;
    if i >= lines.len() {
        return Err(CheckpointError::Parse {
            line: i + 1,
            msg: "unexpected end of checkpoint".to_string(),
        });
    }
    *ln = i + 1;
    Ok(lines[i].to_string())
}

/// Initial capacity for `declared` entries: never more than the lines
/// left in the input (the vector grows where a line holds several), so
/// a corrupt count fails at end of input instead of aborting on a huge
/// allocation first.
fn capacity(declared: usize, lines: &[&str], ln: usize) -> usize {
    declared.min(lines.len().saturating_sub(ln))
}

/// Accepts only the current header; any other `magis-checkpoint`
/// version is named in the error.
fn check_header(header: &str) -> Result<(), CheckpointError> {
    let header = header.trim();
    if header == CKPT_HEADER {
        return Ok(());
    }
    let (magic, current) = CKPT_HEADER.split_once(' ').expect("header is '<magic> <version>'");
    let msg = match header.split_once(' ') {
        Some((m, version)) if m == magic => {
            format!("unsupported checkpoint version {version}; this build reads {current}")
        }
        _ => format!("bad header '{header}' (expected '{CKPT_HEADER}')"),
    };
    Err(CheckpointError::Parse { line: 1, msg })
}

fn expect_kv(
    line: String,
    ln: usize,
    key: &str,
    arity: usize,
) -> Result<Vec<String>, CheckpointError> {
    let toks: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    if toks.len() != arity + 1 || toks[0] != key {
        return Err(CheckpointError::Parse {
            line: ln,
            msg: format!("expected '{key}' with {arity} fields, got '{line}'"),
        });
    }
    Ok(toks[1..].to_vec())
}

fn decode_order(lines: &[&str], ln: &mut usize) -> Result<Vec<usize>, CheckpointError> {
    let t = expect_kv(next_line(lines, ln)?, *ln, "order", 1)?;
    let no = parse_num::<usize>(&t[0], *ln, "order count")?;
    let mut order = Vec::with_capacity(capacity(no, lines, *ln));
    while order.len() < no {
        let line = next_line(lines, ln)?;
        let mut toks = line.split_whitespace();
        if toks.next() != Some("o") {
            return Err(CheckpointError::Parse {
                line: *ln,
                msg: format!("expected 'o' order line, got '{line}'"),
            });
        }
        for tok in toks {
            order.push(parse_num::<usize>(tok, *ln, "order index")?);
        }
        if order.len() > no {
            return Err(CheckpointError::Parse {
                line: *ln,
                msg: format!("more order entries than declared ({no})"),
            });
        }
    }
    Ok(order)
}

fn decode_ftree(lines: &[&str], ln: &mut usize) -> Result<Vec<FTreeNode>, CheckpointError> {
    let t = expect_kv(next_line(lines, ln)?, *ln, "ftree", 1)?;
    let nf = parse_num::<usize>(&t[0], *ln, "ftree count")?;
    let mut ftree_nodes = Vec::with_capacity(capacity(nf, lines, *ln));
    for _ in 0..nf {
        let line = next_line(lines, ln)?;
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 7 || toks[0] != "f" {
            return Err(CheckpointError::Parse {
                line: *ln,
                msg: format!("expected 'f' node line with 6 fields, got '{line}'"),
            });
        }
        let parent = if toks[1] == "-" {
            None
        } else {
            Some(parse_num::<usize>(toks[1], *ln, "parent")?)
        };
        let level = parse_num::<usize>(toks[2], *ln, "level")?;
        let parts = parse_num::<u64>(toks[3], *ln, "parts")?;
        let ch = toks[4].strip_prefix("ch=").ok_or_else(|| CheckpointError::Parse {
            line: *ln,
            msg: format!("expected ch= field, got '{}'", toks[4]),
        })?;
        let children = parse_plus(ch, *ln, "child index")?;
        let set_tok = toks[5].strip_prefix("set=").ok_or_else(|| CheckpointError::Parse {
            line: *ln,
            msg: format!("expected set= field, got '{}'", toks[5]),
        })?;
        let set: BTreeSet<NodeId> = parse_plus(set_tok, *ln, "set node")?
            .into_iter()
            .map(NodeId::from_index)
            .collect();
        let dims_tok = toks[6].strip_prefix("dims=").ok_or_else(|| CheckpointError::Parse {
            line: *ln,
            msg: format!("expected dims= field, got '{}'", toks[6]),
        })?;
        let mut dims: BTreeMap<NodeId, i32> = BTreeMap::new();
        if dims_tok != "-" {
            for pair in dims_tok.split('+') {
                let (v, d) = pair.split_once(':').ok_or_else(|| CheckpointError::Parse {
                    line: *ln,
                    msg: format!("bad dims pair '{pair}'"),
                })?;
                let v = parse_num::<usize>(v, *ln, "dims node")?;
                let d: i32 = d.parse().map_err(|_| CheckpointError::Parse {
                    line: *ln,
                    msg: format!("bad dims value '{d}'"),
                })?;
                dims.insert(NodeId::from_index(v), d);
            }
        }
        ftree_nodes.push(FTreeNode {
            spec: FissionSpec { set, dims, parts },
            parent,
            children,
            level,
        });
    }
    // Parent/children indices must stay inside the forest.
    for (i, n) in ftree_nodes.iter().enumerate() {
        let bad = n.parent.iter().chain(n.children.iter()).find(|&&j| j >= nf);
        if let Some(&j) = bad {
            return Err(CheckpointError::Parse {
                line: *ln,
                msg: format!("ftree node {i} references out-of-range node {j}"),
            });
        }
    }
    Ok(ftree_nodes)
}

fn decode_graph(tag: &str, lines: &[&str], ln: &mut usize) -> Result<String, CheckpointError> {
    let line = next_line(lines, ln)?;
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() != 2 || toks[0] != tag {
        return Err(CheckpointError::Parse {
            line: *ln,
            msg: format!("expected '{tag} <lines>', got '{line}'"),
        });
    }
    let n = parse_num::<usize>(toks[1], *ln, "graph line count")?;
    let mut rec = String::new();
    for _ in 0..n {
        rec.push_str(&next_line(lines, ln)?);
        rec.push('\n');
    }
    Ok(rec)
}

/// Rebuilds one [`MState`] from its checkpointed parts: both graph
/// records restored and re-validated, F-Tree references checked against
/// the base graph, the stored schedule validated against the eval graph
/// and re-simulated under `ctx`. Shared by the incumbent and frontier
/// restore paths.
fn restore_parts(
    order: &[usize],
    ftree_nodes: &[FTreeNode],
    base_record: &str,
    eval_record: &str,
    ctx: &EvalContext,
) -> Result<MState, CheckpointError> {
    let base = io::from_record(base_record)?;
    let eval_graph = io::from_record(eval_record)?;
    for (i, n) in ftree_nodes.iter().enumerate() {
        if let Some(&v) = n.spec.set.iter().find(|v| !base.contains(**v)) {
            return Err(CheckpointError::Parse {
                line: 0,
                msg: format!("ftree node {i} references node {v} absent from the base graph"),
            });
        }
    }
    let order: Vec<NodeId> = order.iter().map(|&i| NodeId::from_index(i)).collect();
    validate_schedule(&eval_graph, &order)?;
    let ftree = FTree::from_nodes(ftree_nodes.to_vec());
    Ok(MState::resume(base, ftree, eval_graph, order, ctx)?)
}

impl SearchCheckpoint {
    /// Captures the serializable parts of an incumbent state. Search
    /// bookkeeping (pareto, seen, quarantine, counters) is filled in by
    /// the optimizer.
    ///
    /// A stale F-Tree is stored as empty: a `tree_stale` state's tree
    /// is discarded and rebuilt by analysis before any expansion, and
    /// an inherited stale tree may dangle (a TASO rewrite can remove
    /// base nodes its spec sets still reference), which would fail the
    /// restore-time validation for a tree that never gets used.
    pub fn snapshot_state(best: &MState) -> (Vec<usize>, Vec<FTreeNode>, String, String) {
        let order: Vec<usize> = best.eval.order.iter().map(|v| v.index()).collect();
        let nodes: Vec<FTreeNode> =
            if best.tree_stale { Vec::new() } else { best.ftree.nodes().to_vec() };
        (order, nodes, io::to_record(&best.base), io::to_record(&best.eval.graph))
    }

    /// Serializes the checkpoint to its text form.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str(CKPT_HEADER);
        out.push('\n');
        out.push_str(&format!("driver {}\n", self.driver.as_str()));
        out.push_str(&format!("rng {:016x}\n", self.rng_seed));
        out.push_str(&format!(
            "seed_cost {} {}\n",
            self.seed_cost.0,
            f64_hex(self.seed_cost.1)
        ));
        out.push_str(&format!(
            "best_cost {} {}\n",
            self.best_cost.0,
            f64_hex(self.best_cost.1)
        ));
        let c = &self.counters;
        out.push_str(&format!(
            "counters {} {} {} {} {} {} {} {} {} {}\n",
            c.expanded,
            c.evaluated,
            c.candidates,
            c.filtered,
            c.panicked,
            c.cost_rejections,
            c.invariant_rejections,
            c.quarantined_candidates,
            c.checkpoints_written,
            c.checkpoint_failures
        ));
        out.push_str(&format!("pareto {}\n", self.pareto.len()));
        for &(m, l) in &self.pareto {
            out.push_str(&format!("p {m} {}\n", f64_hex(l)));
        }
        out.push_str(&format!("seen {}\n", self.seen.len()));
        for chunk in self.seen.chunks(16) {
            out.push('s');
            for h in chunk {
                out.push_str(&format!(" {h:016x}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("quarantine {}\n", self.quarantine.len()));
        for &(fam, strikes) in &self.quarantine {
            out.push_str(&format!("q {fam} {strikes}\n"));
        }
        encode_order(&mut out, &self.best_order);
        encode_ftree(&mut out, &self.ftree_nodes);
        out.push_str(&format!("next_seq {}\n", self.next_seq));
        out.push_str(&format!("frontier {}\n", self.frontier.len()));
        for e in &self.frontier {
            out.push_str(&format!(
                "entry {} {}\n",
                e.seq,
                if e.tree_stale { 1 } else { 0 }
            ));
            encode_order(&mut out, &e.order);
            encode_ftree(&mut out, &e.ftree_nodes);
            encode_graph(&mut out, "base-graph", &e.base_record);
            encode_graph(&mut out, "eval-graph", &e.eval_record);
        }
        if let Some(m) = &self.mcts {
            out.push_str(&format!("mcts {} {:016x}\n", m.nodes.len(), m.rng_state));
            for n in &m.nodes {
                let parent = match n.parent {
                    Some(p) => p.to_string(),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "m {parent} {} {} {} {}\n",
                    n.cand_index,
                    n.visits,
                    f64_hex(n.reward_sum),
                    if n.expanded { 1 } else { 0 }
                ));
            }
        }
        encode_graph(&mut out, "base-graph", &self.base_record);
        encode_graph(&mut out, "eval-graph", &self.eval_record);
        out.push_str(CKPT_FOOTER);
        out.push('\n');
        out
    }

    /// Parses a checkpoint from its text form.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CheckpointError`] on any structural defect:
    /// version mismatch, truncation, malformed lines, bad counts.
    pub fn decode(text: &str) -> Result<SearchCheckpoint, CheckpointError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut ln = 0usize; // index into `lines`; 1-based in errors

        check_header(&next_line(&lines, &mut ln)?)?;

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "driver", 1)?;
        let driver = DriverKind::parse(&t[0]).ok_or_else(|| CheckpointError::Parse {
            line: ln,
            msg: format!("unknown driver '{}'", t[0]),
        })?;

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "rng", 1)?;
        let rng_seed = parse_hex_u64(&t[0], ln, "rng seed")?;

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "seed_cost", 2)?;
        let seed_cost =
            (parse_num::<u64>(&t[0], ln, "seed peak")?, parse_f64_hex(&t[1], ln, "seed latency")?);

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "best_cost", 2)?;
        let best_cost =
            (parse_num::<u64>(&t[0], ln, "best peak")?, parse_f64_hex(&t[1], ln, "best latency")?);

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "counters", 10)?;
        let c = |i: usize| parse_num::<usize>(&t[i], ln, &format!("counter #{i}"));
        let counters = OptimizerStats {
            expanded: c(0)?,
            evaluated: c(1)?,
            candidates: c(2)?,
            filtered: c(3)?,
            panicked: c(4)?,
            cost_rejections: c(5)?,
            invariant_rejections: c(6)?,
            quarantined_candidates: c(7)?,
            checkpoints_written: c(8)?,
            checkpoint_failures: c(9)?,
            ..OptimizerStats::default()
        };

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "pareto", 1)?;
        let np = parse_num::<usize>(&t[0], ln, "pareto count")?;
        let mut pareto = Vec::with_capacity(capacity(np, &lines, ln));
        for _ in 0..np {
            let t = expect_kv(next_line(&lines, &mut ln)?, ln, "p", 2)?;
            let peak = parse_num::<u64>(&t[0], ln, "pareto peak")?;
            pareto.push((peak, parse_f64_hex(&t[1], ln, "pareto latency")?));
        }

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "seen", 1)?;
        let ns = parse_num::<usize>(&t[0], ln, "seen count")?;
        let mut seen = Vec::with_capacity(capacity(ns, &lines, ln));
        while seen.len() < ns {
            let line = next_line(&lines, &mut ln)?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("s") {
                return Err(CheckpointError::Parse {
                    line: ln,
                    msg: format!("expected 's' hash line, got '{line}'"),
                });
            }
            for tok in toks {
                seen.push(parse_hex_u64(tok, ln, "seen hash")?);
            }
            if seen.len() > ns {
                return Err(CheckpointError::Parse {
                    line: ln,
                    msg: format!("more seen hashes than declared ({ns})"),
                });
            }
        }

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "quarantine", 1)?;
        let nq = parse_num::<usize>(&t[0], ln, "quarantine count")?;
        let mut quarantine = Vec::with_capacity(capacity(nq, &lines, ln));
        for _ in 0..nq {
            let t = expect_kv(next_line(&lines, &mut ln)?, ln, "q", 2)?;
            let fam = parse_num::<u64>(&t[0], ln, "family")?;
            if fam > u8::MAX as u64 {
                return Err(CheckpointError::Parse { line: ln, msg: format!("family {fam} out of range") });
            }
            let strikes = parse_num::<u64>(&t[1], ln, "strikes")?;
            quarantine.push((fam as u8, strikes.min(u32::MAX as u64) as u32));
        }

        let best_order = decode_order(&lines, &mut ln)?;
        let ftree_nodes = decode_ftree(&lines, &mut ln)?;

        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "next_seq", 1)?;
        let next_seq = parse_num::<u64>(&t[0], ln, "next_seq")?;
        let t = expect_kv(next_line(&lines, &mut ln)?, ln, "frontier", 1)?;
        let nfr = parse_num::<usize>(&t[0], ln, "frontier count")?;
        let mut frontier = Vec::with_capacity(capacity(nfr, &lines, ln));
        for _ in 0..nfr {
            let t = expect_kv(next_line(&lines, &mut ln)?, ln, "entry", 2)?;
            let seq = parse_num::<u64>(&t[0], ln, "entry seq")?;
            let tree_stale = parse_flag(&t[1], ln, "entry staleness")?;
            let order = decode_order(&lines, &mut ln)?;
            let ftree_nodes = decode_ftree(&lines, &mut ln)?;
            let base_record = decode_graph("base-graph", &lines, &mut ln)?;
            let eval_record = decode_graph("eval-graph", &lines, &mut ln)?;
            frontier.push(FrontierEntry {
                seq,
                tree_stale,
                order,
                ftree_nodes,
                base_record,
                eval_record,
            });
        }
        // An optional MCTS tree section follows the frontier.
        let mcts = if lines.get(ln).is_some_and(|l| l.starts_with("mcts ")) {
            let t = expect_kv(next_line(&lines, &mut ln)?, ln, "mcts", 2)?;
            let nn = parse_num::<usize>(&t[0], ln, "mcts node count")?;
            let rng_state = parse_hex_u64(&t[1], ln, "mcts rng state")?;
            let mut nodes = Vec::with_capacity(capacity(nn, &lines, ln));
            for _ in 0..nn {
                let t = expect_kv(next_line(&lines, &mut ln)?, ln, "m", 5)?;
                let parent = if t[0] == "-" {
                    None
                } else {
                    Some(parse_num::<u64>(&t[0], ln, "mcts parent")?)
                };
                let cand_index = parse_num::<u64>(&t[1], ln, "mcts cand_index")?;
                let visits = parse_num::<u64>(&t[2], ln, "mcts visits")?;
                let reward_sum = parse_f64_hex(&t[3], ln, "mcts reward")?;
                let expanded = parse_flag(&t[4], ln, "mcts expanded")?;
                nodes.push(MctsNodeMeta { parent, cand_index, visits, reward_sum, expanded });
            }
            Some(MctsCheckpoint { rng_state, nodes })
        } else {
            None
        };

        let base_record = decode_graph("base-graph", &lines, &mut ln)?;
        let eval_record = decode_graph("eval-graph", &lines, &mut ln)?;

        let footer = next_line(&lines, &mut ln)?;
        if footer.trim() != CKPT_FOOTER {
            return Err(CheckpointError::Parse {
                line: ln,
                msg: format!("expected footer '{CKPT_FOOTER}', got '{footer}'"),
            });
        }

        Ok(SearchCheckpoint {
            rng_seed,
            seed_cost,
            best_cost,
            counters,
            pareto,
            seen,
            quarantine,
            best_order,
            ftree_nodes,
            base_record,
            eval_record,
            next_seq,
            frontier,
            driver,
            mcts,
        })
    }

    /// Writes the checkpoint to `path` via a temp-file + rename so a
    /// crash mid-write never leaves a torn checkpoint behind.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.encode())
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, path)
            .map_err(|e| CheckpointError::Io(format!("rename to {}: {e}", path.display())))
    }

    /// Reads and parses a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns a typed error for I/O failures or any structural defect.
    pub fn read_from(path: &Path) -> Result<SearchCheckpoint, CheckpointError> {
        let text = fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Self::decode(&text)
    }

    /// Rebuilds the incumbent [`MState`] from the stored parts: both
    /// graph records are restored and re-validated, the stored schedule
    /// is checked against the eval graph (topological order, exactly-
    /// once coverage), and the schedule is re-simulated under `ctx` to
    /// reproduce the evaluation.
    ///
    /// # Errors
    ///
    /// Any corruption — dangling edges, a schedule that no longer
    /// topo-sorts the graph, defective re-simulated costs — surfaces
    /// as a typed [`CheckpointError`].
    pub fn restore_state(&self, ctx: &EvalContext) -> Result<MState, CheckpointError> {
        restore_parts(&self.best_order, &self.ftree_nodes, &self.base_record, &self.eval_record, ctx)
    }

    /// Rebuilds the checkpointed frontier: every entry is
    /// restored through the same validation/re-simulation pipeline as
    /// the incumbent, with its checkpointed staleness flag and sequence
    /// number reinstated. Returns `(seq, state)` pairs in stored
    /// (sequence) order; empty for frontier-free checkpoints.
    ///
    /// # Errors
    ///
    /// Any corrupt entry fails the whole restore with a typed
    /// [`CheckpointError`] — a partially restored frontier would
    /// silently diverge from the checkpointed trajectory.
    pub fn restore_frontier(
        &self,
        ctx: &EvalContext,
    ) -> Result<Vec<(u64, MState)>, CheckpointError> {
        let mut out = Vec::with_capacity(self.frontier.len());
        for e in &self.frontier {
            let mut state =
                restore_parts(&e.order, &e.ftree_nodes, &e.base_record, &e.eval_record, ctx)?;
            // `MState::resume` conservatively marks the tree stale; a
            // frontier entry must come back with the exact flag it was
            // queued with, or the resumed expansion would re-analyze
            // where the original didn't (diverging the trajectory).
            state.tree_stale = e.tree_stale;
            out.push((e.seq, state));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::EvalContext;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn small_state() -> MState {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([128, 64], "x");
        for i in 0..4 {
            let w = b.weight([64, 64], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        MState::initial(b.finish(), &EvalContext::default())
    }

    fn checkpoint_of(s: &MState) -> SearchCheckpoint {
        let (best_order, ftree_nodes, base_record, eval_record) =
            SearchCheckpoint::snapshot_state(s);
        SearchCheckpoint {
            rng_seed: 0x5eed,
            seed_cost: s.cost(),
            best_cost: s.cost(),
            counters: OptimizerStats { expanded: 3, evaluated: 17, ..Default::default() },
            pareto: vec![s.cost(), (s.cost().0 / 2, s.cost().1 * 2.0)],
            seen: vec![1, 2, 0xdeadbeef],
            quarantine: vec![(4, 2)],
            best_order,
            ftree_nodes,
            base_record,
            eval_record,
            next_seq: 0,
            frontier: Vec::new(),
            driver: DriverKind::Greedy,
            mcts: None,
        }
    }

    fn frontier_entry_of(s: &MState, seq: u64, tree_stale: bool) -> FrontierEntry {
        let (order, ftree_nodes, base_record, eval_record) = SearchCheckpoint::snapshot_state(s);
        FrontierEntry { seq, tree_stale, order, ftree_nodes, base_record, eval_record }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let s = small_state();
        let c = checkpoint_of(&s);
        let text = c.encode();
        let d = SearchCheckpoint::decode(&text).unwrap();
        assert_eq!(d.rng_seed, c.rng_seed);
        assert_eq!(d.seed_cost.0, c.seed_cost.0);
        assert_eq!(d.seed_cost.1.to_bits(), c.seed_cost.1.to_bits());
        assert_eq!(d.best_cost.1.to_bits(), c.best_cost.1.to_bits());
        assert_eq!(d.counters, c.counters);
        assert_eq!(d.pareto.len(), c.pareto.len());
        assert_eq!(d.seen, c.seen);
        assert_eq!(d.quarantine, c.quarantine);
        assert_eq!(d.best_order, c.best_order);
        assert_eq!(d.base_record, c.base_record);
        assert_eq!(d.eval_record, c.eval_record);
        // Re-encoding the decoded checkpoint is byte-identical.
        assert_eq!(d.encode(), text);
    }

    #[test]
    fn frontier_round_trips_and_restores() {
        let ctx = EvalContext::default();
        let s = small_state();
        let mut c = checkpoint_of(&s);
        c.next_seq = 7;
        c.frontier = vec![frontier_entry_of(&s, 2, true), frontier_entry_of(&s, 5, false)];
        let text = c.encode();
        let d = SearchCheckpoint::decode(&text).unwrap();
        assert_eq!(d.next_seq, 7);
        assert_eq!(d.frontier.len(), 2);
        assert_eq!(d.frontier[0].seq, 2);
        assert!(d.frontier[0].tree_stale);
        assert_eq!(d.frontier[1].seq, 5);
        assert!(!d.frontier[1].tree_stale);
        assert_eq!(d.encode(), text, "frontier re-encode is byte-identical");
        let restored = d.restore_frontier(&ctx).unwrap();
        assert_eq!(restored.len(), 2);
        let (seq, st) = &restored[0];
        assert_eq!(*seq, 2);
        assert!(st.tree_stale);
        assert_eq!(st.eval.latency.to_bits(), s.eval.latency.to_bits());
        assert_eq!(st.eval.peak_bytes, s.eval.peak_bytes);
        // The staleness flag is reinstated verbatim, not forced on.
        assert!(!restored[1].1.tree_stale);
        // A corrupt frontier entry fails the whole restore.
        let mut bad = d.clone();
        bad.frontier[1].order[0] = 9999;
        assert!(bad.restore_frontier(&ctx).is_err());
    }

    #[test]
    fn restore_reproduces_evaluation() {
        let ctx = EvalContext::default();
        let s = small_state();
        let c = checkpoint_of(&s);
        let r = SearchCheckpoint::decode(&c.encode()).unwrap();
        let restored = r.restore_state(&ctx).unwrap();
        assert_eq!(restored.eval.latency.to_bits(), s.eval.latency.to_bits());
        assert_eq!(restored.eval.peak_bytes, s.eval.peak_bytes);
        assert_eq!(restored.eval.order, s.eval.order);
        assert!(restored.tree_stale, "resume must re-analyze the F-Tree");
        restored.base.validate().unwrap();
        restored.eval.graph.validate().unwrap();
    }

    /// A checkpoint written by the v4 encoder as it stood before the
    /// search counters moved onto `OptimizerStats`: a small state with
    /// one frontier entry and an MCTS section, and ten distinct
    /// counter values pinning the `counters` field order.
    const V4_FIXTURE: &str = include_str!("../tests/fixtures/v4_mcts_frontier.ckpt");

    #[test]
    fn v4_fixture_decodes_and_reencodes_byte_identically() {
        let d = SearchCheckpoint::decode(V4_FIXTURE).unwrap();
        assert_eq!(d.encode(), V4_FIXTURE);
        let c = &d.counters;
        assert_eq!(
            [
                c.expanded,
                c.evaluated,
                c.candidates,
                c.filtered,
                c.panicked,
                c.cost_rejections,
                c.invariant_rejections,
                c.quarantined_candidates,
                c.checkpoints_written,
                c.checkpoint_failures,
            ],
            [3, 17, 41, 5, 1, 2, 4, 6, 7, 8]
        );
        assert_eq!(d.driver, DriverKind::Mcts);
        assert_eq!(d.mcts.as_ref().map(|m| m.nodes.len()), Some(1));
        let ctx = EvalContext::default();
        assert_eq!(d.restore_state(&ctx).unwrap().eval.peak_bytes, d.best_cost.0);
        assert_eq!(d.restore_frontier(&ctx).unwrap().len(), 1);
    }

    #[test]
    fn retired_versions_are_rejected() {
        for v in ["v1", "v2", "v3"] {
            let text = V4_FIXTURE.replacen("v4", v, 1);
            let err = SearchCheckpoint::decode(&text).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unsupported checkpoint version {v}; this build reads v4")),
                "{v}: {err}"
            );
        }
        let err = SearchCheckpoint::decode("not-a-checkpoint\n").unwrap_err().to_string();
        assert!(err.contains("bad header"), "{err}");
    }

    #[test]
    fn oversized_counts_are_errors_not_aborts() {
        let lines: Vec<&str> = V4_FIXTURE.lines().collect();
        let keys = [
            "pareto",
            "seen",
            "quarantine",
            "order",
            "ftree",
            "frontier",
            "mcts",
            "base-graph",
            "eval-graph",
        ];
        for key in keys {
            let at = lines.iter().position(|l| l.split(' ').next() == Some(key)).unwrap();
            for huge in [1u64 << 40, u64::MAX] {
                let mut toks: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
                toks[1] = huge.to_string();
                let mut edited = lines.clone();
                let line = toks.join(" ");
                edited[at] = &line;
                let text = edited.join("\n") + "\n";
                assert!(SearchCheckpoint::decode(&text).is_err(), "{key} {huge}");
                // The same count at the very end of a truncated file.
                let cut = edited[..=at].join("\n") + "\n";
                assert!(SearchCheckpoint::decode(&cut).is_err(), "{key} {huge} truncated");
            }
        }
    }

    #[test]
    fn mcts_checkpoints_round_trip() {
        let s = small_state();
        let mut c = checkpoint_of(&s);
        c.driver = DriverKind::Mcts;
        c.next_seq = 2;
        c.frontier = vec![frontier_entry_of(&s, 0, false), frontier_entry_of(&s, 1, false)];
        c.mcts = Some(MctsCheckpoint {
            rng_state: 0xdead_beef_0bad_cafe,
            nodes: vec![
                MctsNodeMeta {
                    parent: None,
                    cand_index: 0,
                    visits: 7,
                    reward_sum: 1.25,
                    expanded: true,
                },
                MctsNodeMeta {
                    parent: Some(0),
                    cand_index: 3,
                    visits: 2,
                    reward_sum: 0.5,
                    expanded: false,
                },
            ],
        });
        let text = c.encode();
        let d = SearchCheckpoint::decode(&text).unwrap();
        assert_eq!(d.driver, DriverKind::Mcts);
        assert_eq!(d.mcts, c.mcts);
        assert_eq!(d.encode(), text, "MCTS re-encode is byte-identical");
        // A corrupt driver tag is rejected.
        assert!(SearchCheckpoint::decode(&text.replacen("driver mcts", "driver dfs", 1)).is_err());
        // A corrupt tree line is rejected.
        assert!(SearchCheckpoint::decode(&text.replacen("m - 0 7", "m - x 7", 1)).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let s = small_state();
        let text = checkpoint_of(&s).encode();
        // Unknown version.
        assert!(SearchCheckpoint::decode(&text.replacen("v4", "v9", 1)).is_err());
        // Truncation (drop the footer and graph tail).
        let cut = &text[..text.len() / 2];
        assert!(SearchCheckpoint::decode(cut).is_err());
        // Corrupt a counters field.
        let bad = text.replacen("counters 3", "counters x", 1);
        assert!(SearchCheckpoint::decode(&bad).is_err());
        // A schedule index out of range is caught at restore.
        let mut c = checkpoint_of(&s);
        c.best_order[0] = 9999;
        let err = SearchCheckpoint::decode(&c.encode()).unwrap().restore_state(&EvalContext::default());
        assert!(err.is_err());
        // A duplicated schedule entry is caught at restore.
        let mut c = checkpoint_of(&s);
        c.best_order[0] = c.best_order[1];
        assert!(SearchCheckpoint::decode(&c.encode())
            .unwrap()
            .restore_state(&EvalContext::default())
            .is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let s = small_state();
        let c = checkpoint_of(&s);
        let dir = std::env::temp_dir().join("magis-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.ckpt");
        c.write_to(&path).unwrap();
        let r = SearchCheckpoint::read_from(&path).unwrap();
        assert_eq!(r.encode(), c.encode());
        std::fs::remove_file(&path).ok();
    }
}
