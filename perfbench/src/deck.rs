//! Workload definitions and the seeded request deck each run cycles
//! through.
//!
//! A deck holds every (model, driver, objective) combination of a
//! workload the same number of times; the seed draws each request's
//! latency-limit factor and the order of the deck. Stratifying the
//! models keeps the mix, and with it every timing, comparable between
//! seeds, while the draws still make each seed's inputs its own.

use magis_core::driver::DriverKind;
use magis_models::Workload;
use magis_sim::MemObjective;

/// Latency-limit factors a request draws from: the search must keep the
/// optimized graph's latency within `factor ×` the unoptimized one.
pub const FACTORS: [f64; 6] = [1.05, 1.10, 1.15, 1.20, 1.25, 1.30];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Greedy driver over the fission-heavy CNNs, two search threads.
    GreedyConv,
    /// MCTS driver over the transformers, planned objective, one thread.
    MctsTfm,
    /// A closed loop of two clients against an in-process daemon.
    ServeMixed,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::GreedyConv, Kind::MctsTfm, Kind::ServeMixed];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::GreedyConv => "greedy-conv",
            Kind::MctsTfm => "mcts-tfm",
            Kind::ServeMixed => "serve-mixed",
        }
    }

    /// The models the workload optimizes, each at the scale it runs at.
    pub fn models(self) -> Vec<(Workload, f64)> {
        let cnn = [
            (Workload::UNet, 0.15),
            (Workload::UNetPP, 0.1),
            (Workload::ResNet50, 0.1),
        ];
        let tfm = [
            (Workload::BertBase, 0.1),
            (Workload::VitBase, 0.1),
            (Workload::GptNeo13B, 0.05),
            (Workload::Btlm3B, 0.05),
        ];
        match self {
            Kind::GreedyConv => cnn.to_vec(),
            Kind::MctsTfm => tfm.to_vec(),
            Kind::ServeMixed => cnn.iter().chain(tfm.iter()).copied().collect(),
        }
    }

    pub fn drivers(self) -> &'static [DriverKind] {
        match self {
            Kind::GreedyConv => &[DriverKind::Greedy],
            Kind::MctsTfm => &[DriverKind::Mcts],
            Kind::ServeMixed => &[DriverKind::Greedy, DriverKind::Mcts],
        }
    }

    pub fn objectives(self) -> &'static [MemObjective] {
        match self {
            Kind::GreedyConv => &[MemObjective::Liveness],
            Kind::MctsTfm => &[MemObjective::Planned],
            Kind::ServeMixed => &[MemObjective::Liveness, MemObjective::Planned],
        }
    }

    /// Requests per (model, driver, objective) combination in one deck.
    fn draws(self) -> usize {
        match self {
            Kind::GreedyConv => 4,
            Kind::MctsTfm => 3,
            Kind::ServeMixed => 1,
        }
    }

    /// Search threads per request (the machine the benchmark was sized
    /// on has two cores).
    pub fn threads(self) -> usize {
        match self {
            Kind::GreedyConv => 2,
            Kind::MctsTfm | Kind::ServeMixed => 1,
        }
    }

    /// The deterministic evaluation cap that ends every request: the
    /// in-process `max_evals`, or the served job's `max_candidates`.
    pub fn eval_cap(self) -> usize {
        match self {
            Kind::GreedyConv => 96,
            Kind::MctsTfm => 200,
            Kind::ServeMixed => 60,
        }
    }

    /// The objective the per-layer replay evaluates a model under.
    pub fn replay_objective(self, model: Workload) -> MemObjective {
        match self {
            Kind::GreedyConv => MemObjective::Liveness,
            Kind::MctsTfm => MemObjective::Planned,
            Kind::ServeMixed => match model {
                Workload::UNet | Workload::UNetPP | Workload::ResNet50 => MemObjective::Liveness,
                _ => MemObjective::Planned,
            },
        }
    }
}

/// One optimization request: which input, how it is searched, and its
/// latency-limit factor.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into the workload's models.
    pub input: usize,
    pub driver: DriverKind,
    pub objective: MemObjective,
    pub factor: f64,
}

/// SplitMix64: a small, well-mixed generator, enough for drawing
/// benchmark inputs reproducibly from a seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded deck of `kind`.
pub fn deck(kind: Kind, seed: u64) -> Vec<Request> {
    let salt = kind
        .name()
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
    let mut rng = Rng::new(seed ^ salt);
    let mut out = Vec::new();
    for input in 0..kind.models().len() {
        for &driver in kind.drivers() {
            for &objective in kind.objectives() {
                for _ in 0..kind.draws() {
                    let factor = FACTORS[rng.below(FACTORS.len())];
                    out.push(Request {
                        input,
                        driver,
                        objective,
                        factor,
                    });
                }
            }
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}
