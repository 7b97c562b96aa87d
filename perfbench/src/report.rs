//! Metrics, the work fingerprint, and what a run prints and stores.

use magis_obs::json::Json;
use std::path::{Path, PathBuf};

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: u64,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Deterministic work counts of one seed's deck: a run whose counts
/// differ from an earlier run of the same seed measured different work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fingerprint {
    pub evaluated: u64,
    pub expanded: u64,
    pub eval_cache_hits: u64,
    pub dp_states: u64,
    pub pages_unshared: u64,
    pub peak_ratio: f64,
    pub latency_ratio: f64,
}

impl Fingerprint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("evaluated".into(), Json::UInt(self.evaluated)),
            ("expanded".into(), Json::UInt(self.expanded)),
            ("eval_cache_hits".into(), Json::UInt(self.eval_cache_hits)),
            ("dp_states".into(), Json::UInt(self.dp_states)),
            ("pages_unshared".into(), Json::UInt(self.pages_unshared)),
            ("peak_ratio".into(), Json::Float(self.peak_ratio)),
            ("latency_ratio".into(), Json::Float(self.latency_ratio)),
        ])
    }

    fn from_json(j: &Json) -> Option<Fingerprint> {
        let u = |k: &str| j.get(k).and_then(Json::as_u64);
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Fingerprint {
            evaluated: u("evaluated")?,
            expanded: u("expanded")?,
            eval_cache_hits: u("eval_cache_hits")?,
            dp_states: u("dp_states")?,
            pages_unshared: u("pages_unshared")?,
            peak_ratio: f("peak_ratio")?,
            latency_ratio: f("latency_ratio")?,
        })
    }

    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Compares with the fingerprint an earlier run of the same seed
    /// stored at `path`, storing this one if there is none.
    pub fn check_stored(&self, path: &Path) -> Result<(), String> {
        if let Ok(text) = std::fs::read_to_string(path) {
            let stored = Json::parse(text.trim())
                .ok()
                .as_ref()
                .and_then(Fingerprint::from_json)
                .ok_or_else(|| format!("unreadable fingerprint {}", path.display()))?;
            return if stored.to_json().render() == self.render() {
                Ok(())
            } else {
                Err(format!(
                    "work fingerprint {} != earlier run's {}",
                    self.render(),
                    text.trim()
                ))
            };
        }
        write(path, &self.render())
    }
}

/// Everything one workload's run produced.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Failed requests' reasons, and any other reason the run is
    /// broken (work that did not repeat, a replay that measured a
    /// different program).
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    pub fingerprint: Fingerprint,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    /// One row per workload: every metric with its unit.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("== {} seed {} ({kind}) ==", self.workload, self.seed);
        for m in &self.metrics {
            println!(
                "  {:28} {:>16.6} {:8} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:28} {:>16.6} {:8} n={}",
            "failed_frac", frac, "ratio", self.attempted
        );
        println!("  fingerprint {}", self.fingerprint.render());
        for p in self.problems.iter().take(10) {
            println!("  problem: {p}");
        }
    }

    /// The per-layer figures with their sample counts, for a later
    /// change to cite.
    pub fn to_json(&self, extra: Vec<(String, Json)>) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Float(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                    ("samples".into(), Json::UInt(m.samples)),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        let mut o = vec![
            ("workload".to_string(), Json::Str(self.workload.into())),
            ("seed".into(), Json::UInt(self.seed)),
            ("correct".into(), Json::Bool(self.correct())),
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("metrics".into(), Json::Obj(metrics)),
        ];
        o.extend(extra);
        Json::Obj(o)
    }
}

/// The final line: correctness, request counts and every metric.
pub fn result_line(reports: &[Report]) -> String {
    let prefix = reports.len() > 1;
    let mut metrics = Vec::new();
    for r in reports {
        for m in &r.metrics {
            let name = if prefix {
                format!("{}.{}", r.workload, m.name)
            } else {
                m.name.to_string()
            };
            let v = Json::Obj(vec![
                ("value".into(), Json::Float(m.value)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            metrics.push((name, v));
        }
    }
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(reports.iter().all(Report::correct)),
        ),
        (
            "attempted".into(),
            Json::UInt(reports.iter().map(|r| r.attempted).sum()),
        ),
        (
            "failed".into(),
            Json::UInt(reports.iter().map(|r| r.failed).sum()),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// Where the benchmark keeps what it writes: fingerprints, per-layer
/// figures and the service's journal.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    percentile_sorted(&sorted(xs), 0.5)
}

/// Nearest-rank percentile `p` of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let mid = (s.len() as f64 - 1.0) * p;
    (s[mid.floor() as usize] + s[mid.ceil() as usize]) / 2.0
}

pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// CPU time of this process, all its threads included, in seconds.
/// Unlike wall time it does not grow while the machine runs other
/// work, so throughput measured with it stays steady on a shared host.
pub fn cpu_seconds() -> f64 {
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("cpu_seconds reads the 64-bit Linux timespec layout");
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) that outlives the call, and
    // the clock id is one Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "Linux supports the process CPU-time clock");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
