//! End-to-end benchmark of spark-moe.
//!
//! Three workloads, each run from one process (see `README.md` in this
//! directory for why each was chosen and what it supersedes):
//!
//! * [`campaign`] — the closed-system Fig. 6 campaign through
//!   `evaluate_scenario_multi`;
//! * [`storm`] — one admission-controlled open-loop storm through
//!   `evaluate_openloop`;
//! * [`serve`] — a single-client closed loop through the
//!   `BatchPredictor` serving front end.
//!
//! Every workload has two modes. The untraced run measures the
//! end-to-end metrics ([`E2E_METRICS`]) by calling the library's own entry
//! point repeatedly; the traced run reproduces that entry point from the
//! public calls underneath it, timing each call with a [`trace::Tracer`],
//! and reports the per-layer metrics ([`LAYER_METRICS`]). Both modes check
//! every output against a reference and count failed operations.

pub mod campaign;
pub mod host;
pub mod serve;
pub mod storm;
pub mod trace;

use std::time::Instant;

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `us`, `1/s`, `count`.
    pub unit: String,
}

impl Metric {
    /// A metric from its parts.
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// End-to-end metrics every workload reports in its untraced run:
/// `(name, unit)`. Each workload defines the operation behind
/// `throughput_per_s`; see `README.md`.
pub const E2E_METRICS: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// Policy labels of the campaign roster, in roster order.
pub const POLICY_LABELS: [&str; 4] = ["pairwise", "quasar", "moe", "oracle"];

/// Per-layer metrics every traced run reports: `(name, unit)`. A layer a
/// workload does not run, or that runs only inside a call timed as a
/// whole, reads 0 on that workload.
#[must_use]
pub fn layer_metric_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for p in POLICY_LABELS {
        names.push((format!("scheduler.busy_s.{p}"), "s"));
        names.push((format!("scheduler.events.{p}"), "count"));
        names.push((format!("scheduler.us_per_event.{p}"), "us"));
        names.push((format!("scheduler.oom_kills.{p}"), "count"));
    }
    for (name, unit) in LAYER_METRICS {
        names.push((name.to_string(), unit));
    }
    names
}

/// The per-layer metrics other than the per-policy scheduler rows.
pub const LAYER_METRICS: [(&str, &str); 36] = [
    ("harness.baseline.busy_s", "s"),
    ("harness.baseline.hits", "count"),
    ("harness.baseline.misses", "count"),
    ("par.wall_s", "s"),
    ("par.busy_s", "s"),
    ("par.efficiency", "ratio"),
    ("training.train_s", "s"),
    ("service.busy_s", "s"),
    ("service.us_per_arrival", "us"),
    ("service.us_per_arrival_growth", "ratio"),
    ("service.arrivals", "count"),
    ("service.admitted", "count"),
    ("service.shed", "count"),
    ("service.deferrals", "count"),
    ("service.breaker_trips", "count"),
    ("service.oom_kills", "count"),
    ("service.retries", "count"),
    ("service.faults_delivered", "count"),
    ("arrivals.generate_s", "s"),
    ("faults.generate_s", "s"),
    ("serving.batcher.busy_s", "s"),
    ("serving.batcher.dispatches", "count"),
    ("serving.batcher.dispatch_p50_us", "us"),
    ("serving.batcher.dispatch_p99_us", "us"),
    ("selector.busy_s", "s"),
    ("selector.rows", "count"),
    ("predictors.table.hits", "count"),
    ("predictors.table.misses", "count"),
    ("predictors.table.entries", "count"),
    ("predictors.table.hit_ratio", "ratio"),
    ("serving.artifact.encode_s", "s"),
    ("serving.artifact.decode_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// What one run of one workload produced.
#[derive(Debug)]
pub struct RunReport {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (replays, arrivals or requests).
    pub attempted: u64,
    /// Operations that failed (see each workload for what counts).
    pub failed: u64,
    /// The metrics of this mode, by name.
    pub metrics: Vec<Metric>,
    /// The workload's own named end-to-end figures (e.g.
    /// `campaign.stp_geomean`), printed beside the generic metrics.
    pub figures: Vec<Metric>,
    /// Human-readable notes: sample counts, check results, sizes.
    pub notes: Vec<String>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<trace::Span>,
}

/// Per-layer metric table, pre-filled with zeros for every name in
/// [`layer_metric_names`].
#[derive(Debug)]
pub struct Layers {
    rows: Vec<Metric>,
}

impl Default for Layers {
    fn default() -> Self {
        Self::new()
    }
}

impl Layers {
    /// All per-layer metrics at zero.
    #[must_use]
    pub fn new() -> Self {
        Layers {
            rows: layer_metric_names()
                .into_iter()
                .map(|(name, unit)| Metric::new(&name, 0.0, unit))
                .collect(),
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`layer_metric_names`]: a typo here
    /// is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = self
            .rows
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
        row.value = value;
    }

    /// Sets the prediction-table rows from a table's counters.
    pub fn set_table(&mut self, table: &colocate::predictors::PredictionTable) {
        let (hits, misses) = (table.hits() as f64, table.misses() as f64);
        self.set("predictors.table.hits", hits);
        self.set("predictors.table.misses", misses);
        self.set("predictors.table.entries", table.len() as f64);
        self.set("predictors.table.hit_ratio", ratio(hits, hits + misses));
    }

    /// Sets the tracing-overhead rows.
    pub fn set_overhead(&mut self, traced_wall: f64, untraced_wall: f64, covered: f64) {
        self.set("trace.wall_s", traced_wall);
        self.set("trace.untraced_wall_s", untraced_wall);
        self.set("trace.overhead_s", traced_wall - untraced_wall);
        self.set("trace.coverage", ratio(covered, traced_wall));
    }

    /// The filled table.
    #[must_use]
    pub fn into_metrics(self) -> Vec<Metric> {
        self.rows
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a sample (mean of the middle pair for even sizes); 0 when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Linear-interpolated percentile (`p` in 0..=100); 0 when empty.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    colocate::metrics::try_percentile(xs, p).unwrap_or(0.0)
}

/// Share of a run's wall time spent timing set-ups, and again timing
/// host-calibration units. Both are spread between the passes, so their
/// medians cover the whole run rather than one stretch of it: on a shared
/// host the speed moves by more than half in bursts of a fraction of a
/// second to a few seconds.
const SAMPLE_SHARE: f64 = 0.04;

/// Fewest set-ups, and fewest calibration units, timed in a run.
const MIN_SAMPLES: usize = 9;

/// One timed repetition of a workload's pass.
#[derive(Debug)]
pub struct Rep<T> {
    /// What the pass returned.
    pub out: T,
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Peak resident set size during the pass, MB (see [`repeat_for`]).
    pub peak_rss_mb: f64,
}

/// The timed repetitions of a run, its set-up time and the host's speed.
#[derive(Debug)]
pub struct Timed<T> {
    /// The passes, in order.
    pub reps: Vec<Rep<T>>,
    /// Median wall time of one set-up, seconds.
    pub setup_s: f64,
    /// Median wall time of one [`host::Unit::run`], seconds.
    pub unit_s: f64,
}

impl<T> Timed<T> {
    /// Wall seconds measured in this run as reference seconds (see
    /// [`host`]).
    #[must_use]
    pub fn reference_secs(&self, wall_s: f64) -> f64 {
        wall_s * host::REFERENCE_UNIT_SECS / self.unit_s
    }

    /// A rate per wall second measured in this run as a rate per
    /// reference second (see [`host`]).
    #[must_use]
    pub fn reference_rate(&self, per_wall_s: f64) -> f64 {
        per_wall_s * self.unit_s / host::REFERENCE_UNIT_SECS
    }

    /// The run's wall-clock readings behind the reference figures: the
    /// calibration unit's median time and the set-up's.
    #[must_use]
    pub fn host_figures(&self) -> Vec<Metric> {
        vec![
            Metric::new("host.unit_s", self.unit_s, "s"),
            Metric::new("host.setup_wall_s", self.setup_s, "s"),
        ]
    }
}

/// Times `f` once, appending its wall time to `secs`.
fn sample<S, E>(secs: &mut Vec<f64>, f: impl FnOnce() -> Result<S, E>) -> Result<(), E> {
    let t0 = Instant::now();
    std::hint::black_box(f()?);
    secs.push(t0.elapsed().as_secs_f64());
    Ok(())
}

/// Repeats `rep(k)` for `k = 0, 1, …` until `seconds` of wall time have
/// passed (at least once), timing each repetition, and times `setup` and
/// a [`host::Unit`] between them: before each pass until each has taken
/// [`SAMPLE_SHARE`] of the elapsed time (each at least once), and after
/// the last pass until each was timed [`MIN_SAMPLES`] times. Before each
/// pass the process's peak-RSS mark is reset (`/proc/self/clear_refs`), so
/// each carries its own peak; where the reset is refused every repetition
/// reads the whole process's peak instead.
///
/// # Errors
///
/// Propagates the first failing set-up.
pub fn repeat_for<T, S, E>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, E>,
    mut rep: impl FnMut(u64) -> T,
) -> Result<Timed<T>, E> {
    let start = Instant::now();
    let (mut setup_secs, mut unit_secs) = (Vec::new(), Vec::new());
    let mut unit = host::Unit::new();
    let mut reps = Vec::new();
    while reps.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Each kind is timed at least once, then until it has had its
        // share of the elapsed time.
        loop {
            sample(&mut setup_secs, &mut setup)?;
            if setup_secs.iter().sum::<f64>() >= SAMPLE_SHARE * start.elapsed().as_secs_f64() {
                break;
            }
        }
        loop {
            sample(&mut unit_secs, || Ok::<_, E>(unit.run()))?;
            if unit_secs.iter().sum::<f64>() >= SAMPLE_SHARE * start.elapsed().as_secs_f64() {
                break;
            }
        }
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        let t0 = Instant::now();
        let out = rep(reps.len() as u64);
        let wall_s = t0.elapsed().as_secs_f64();
        reps.push(Rep {
            out,
            wall_s,
            peak_rss_mb: peak_rss_mb(),
        });
    }
    while setup_secs.len() < MIN_SAMPLES {
        sample(&mut setup_secs, &mut setup)?;
    }
    while unit_secs.len() < MIN_SAMPLES {
        sample(&mut unit_secs, || Ok::<_, E>(unit.run()))?;
    }
    Ok(Timed {
        reps,
        setup_s: median(&setup_secs),
        unit_s: median(&unit_secs),
    })
}

/// Peak resident set size of this process (`VmHWM`), MB; 0 when
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median over repetitions of their peak RSS, MB.
#[must_use]
pub fn median_peak_rss<T>(reps: &[Rep<T>]) -> f64 {
    median(&reps.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>())
}

/// Seed of pass `k` of a run seeded with `seed`: `seed` itself for pass
/// 0, then a splitmix64 scramble so that passes of runs with nearby seeds
/// never draw the same inputs.
#[must_use]
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Worker threads for every fan-out (`RunConfig::workers`). One: on a
/// shared host of a few cores a second thread measures the neighbours more
/// than the program, and the host calibration ([`host`]) tracks a single
/// thread's speed closely but two threads' only loosely.
pub const WORKERS: usize = 1;

/// `config` with every core of the host, for the untimed reproductions
/// that check a run's passes: campaign and service results are identical
/// for every worker count, so the check also covers that.
#[must_use]
pub fn check_config(config: &colocate::harness::RunConfig) -> colocate::harness::RunConfig {
    colocate::harness::RunConfig {
        workers: Some(host_workers()),
        ..config.clone()
    }
}

/// The host's available parallelism, recorded as `nproc`.
#[must_use]
pub fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Bitwise equality of two floats (distinguishes `-0.0` from `0.0` and
/// treats identical NaN payloads as equal).
#[must_use]
pub fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}
