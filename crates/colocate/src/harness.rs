//! Campaign runners: everything the figure/table binaries need.
//!
//! * [`isolated_times`] — per-task `C_iso`: each application alone on the
//!   cluster with all memory (the denominator of every metric, §5.3);
//! * [`run_policy`] — one mix under one policy, with normalised metrics;
//! * [`evaluate_chaos`] — the one mix campaign (§5.2): a fixed number of
//!   random mixes of a Table 3 scenario, each replayed under several
//!   `(policy, resilience)` entries against one shared injected fault
//!   plan, folded into mean and min–max bars (Fig. 19);
//! * [`evaluate_scenario_multi`] — the same campaign at zero fault
//!   intensity, one entry per policy (Figs. 6, 9 and 10);
//! * [`bin_trace`] — converts event-sampled utilisation traces into the
//!   time-binned per-node matrix of Fig. 7;
//! * [`overhead_fractions`] — feature-extraction and calibration shares of
//!   total execution time (Figs. 11/12).

use crate::checkpoint::{self, ChaosFold, CheckpointConfig};
use crate::metrics::{normalize, NormalizedMetrics};
use crate::scheduler::{
    run_schedule, run_schedule_custom, run_schedule_with_faults, FaultStats, PolicyKind,
    ResilienceConfig, ScheduleOutcome, SchedulerConfig,
};
use crate::training::{train_system, TrainedSystem, TrainingConfig};
use crate::ColocateError;
use simkit::faults::{FaultPlan, FaultPlanConfig};
use simkit::journal::Journal;
use simkit::par;
use simkit::stats::Welford;
use simkit::SimRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use workloads::catalog::Catalog;
use workloads::mixes::{MixEntry, MixScenario};

/// Configuration for harness runs: scheduler + offline training settings.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Scheduler configuration.
    pub scheduler: SchedulerConfig,
    /// Offline training configuration.
    pub training: TrainingConfig,
    /// Worker threads for campaign fan-out; `None` defers to
    /// [`par::available_workers`] (the `SPARK_MOE_THREADS` override, then
    /// the host's parallelism). Campaign results are identical for every
    /// value — see [`evaluate_chaos`].
    pub workers: Option<usize>,
}

impl RunConfig {
    /// The worker count campaigns run with.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        self.workers.unwrap_or_else(par::available_workers).max(1)
    }
}

/// Outcome of one policy on one mix, with normalised metrics attached.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The raw schedule.
    pub makespan_secs: f64,
    /// Per-app turnarounds (s), submission order.
    pub turnarounds: Vec<f64>,
    /// Per-app isolated times (s), submission order.
    pub iso_secs: Vec<f64>,
    /// Normalised STP / ANTT-reduction against the isolated baseline.
    pub normalized: NormalizedMetrics,
    /// The full schedule outcome (trace, overheads, OOM count).
    pub schedule: ScheduleOutcome,
}

/// Isolated execution time of every job in `jobs`, each run alone on the
/// cluster with all memory.
///
/// # Errors
///
/// Propagates scheduler failures.
pub fn isolated_times_custom(
    catalog: &Catalog,
    jobs: &[(usize, f64)],
    config: &SchedulerConfig,
    seed: u64,
) -> Result<Vec<f64>, ColocateError> {
    jobs.iter()
        .map(|&job| {
            let solo =
                run_schedule_custom(PolicyKind::Isolated, catalog, &[job], None, config, seed)?;
            Ok(solo.makespan_secs)
        })
        .collect()
}

/// [`isolated_times_custom`] over a Table 3-style mix.
///
/// # Errors
///
/// Propagates scheduler failures.
pub fn isolated_times(
    catalog: &Catalog,
    mix: &[MixEntry],
    config: &SchedulerConfig,
    seed: u64,
) -> Result<Vec<f64>, ColocateError> {
    let jobs: Vec<(usize, f64)> = mix.iter().map(|e| (e.benchmark, e.size.gb())).collect();
    isolated_times_custom(catalog, &jobs, config, seed)
}

/// Memoizes isolated solo runs (`C_iso`) across a campaign.
///
/// A solo run is a pure function of `(benchmark, input size, seed)`, yet
/// the isolated baseline is recomputed for every app of every mix — and
/// Table 3 mixes repeat `(benchmark, size)` pairs freely, so a campaign
/// pays for the same solo simulations over and over. This cache keys each
/// solo makespan by exactly its inputs, making cached and uncached
/// campaigns bit-for-bit identical while skipping every repeat.
///
/// The cache is shared across the campaign's worker threads. Lookups and
/// inserts take a short lock; the simulation itself runs lock-free, so two
/// workers can momentarily duplicate the same key — both compute the same
/// deterministic value, and the extra insert is a no-op.
#[derive(Debug, Default)]
pub struct BaselineCache {
    /// `(benchmark index, input-size bits, seed) -> solo makespan (s)`.
    map: Mutex<HashMap<(usize, u64, u64), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BaselineCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The isolated makespan of one job, computed at most once per key.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn isolated_secs(
        &self,
        catalog: &Catalog,
        job: (usize, f64),
        config: &SchedulerConfig,
        seed: u64,
    ) -> Result<f64, ColocateError> {
        // A poisoned lock only means another worker panicked after a
        // completed insert; the map is a plain memo table whose entries
        // are always whole, so recover the guard rather than propagate.
        let key = (job.0, job.1.to_bits(), seed);
        if let Some(&secs) = self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(secs);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let solo = run_schedule_custom(PolicyKind::Isolated, catalog, &[job], None, config, seed)?;
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, solo.makespan_secs);
        Ok(solo.makespan_secs)
    }

    /// [`isolated_times`] through the cache: per-app `C_iso` for a mix.
    ///
    /// # Errors
    ///
    /// Propagates scheduler failures.
    pub fn isolated_times(
        &self,
        catalog: &Catalog,
        mix: &[MixEntry],
        config: &SchedulerConfig,
        seed: u64,
    ) -> Result<Vec<f64>, ColocateError> {
        mix.iter()
            .map(|e| self.isolated_secs(catalog, (e.benchmark, e.size.gb()), config, seed))
            .collect()
    }

    /// `(hits, misses)` so far; a hit is a solo simulation skipped.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Runs one mix under one policy and normalises against the isolated
/// baseline. Training (when the policy needs it) is derived from `seed`.
///
/// # Errors
///
/// Propagates training and scheduler failures.
pub fn run_policy(
    policy: PolicyKind,
    catalog: &Catalog,
    mix: &[MixEntry],
    config: &RunConfig,
    seed: u64,
) -> Result<PolicyOutcome, ColocateError> {
    let system = trained_system_for(policy, catalog, config, seed)?;
    let schedule = run_schedule(
        policy,
        catalog,
        mix,
        system.as_ref(),
        &config.scheduler,
        seed,
    )?;
    let iso_secs = isolated_times(catalog, mix, &config.scheduler, seed)?;
    let turnarounds: Vec<f64> = schedule.per_app.iter().map(|a| a.finished_at).collect();
    let normalized = normalize(&iso_secs, &turnarounds);
    Ok(PolicyOutcome {
        makespan_secs: schedule.makespan_secs,
        turnarounds,
        iso_secs,
        normalized,
        schedule,
    })
}

/// Whether a policy needs the offline-trained system.
fn needs_offline_training(policy: PolicyKind) -> bool {
    matches!(
        policy,
        PolicyKind::Moe | PolicyKind::Quasar | PolicyKind::UnifiedAnn
    )
}

/// Trains the offline system if `policy` needs one.
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_system_for(
    policy: PolicyKind,
    catalog: &Catalog,
    config: &RunConfig,
    seed: u64,
) -> Result<Option<TrainedSystem>, ColocateError> {
    if needs_offline_training(policy) {
        let mut rng = SimRng::seed_from(seed ^ 0x7EA1);
        Ok(Some(train_system(catalog, &config.training, &mut rng)?))
    } else {
        Ok(None)
    }
}

/// Trains the offline systems for a whole policy roster, running the
/// training pipeline at most **once**: every predictive policy trains from
/// the same `seed ^ 0x7EA1` stream, so their systems are bit-identical and
/// one pass can be cloned across the roster. The clones share one Arc'd
/// [`PredictionTable`](crate::predictors::PredictionTable), so policies
/// and mix replays of the campaign reuse each other's expert selections.
///
/// # Errors
///
/// Propagates training failures.
pub fn trained_systems_for(
    policies: &[PolicyKind],
    catalog: &Catalog,
    config: &RunConfig,
    seed: u64,
) -> Result<Vec<Option<TrainedSystem>>, ColocateError> {
    let mut shared: Option<TrainedSystem> = None;
    let mut systems = Vec::with_capacity(policies.len());
    for &p in policies {
        if needs_offline_training(p) {
            if shared.is_none() {
                shared = trained_system_for(p, catalog, config, seed)?;
            }
            systems.push(shared.clone());
        } else {
            systems.push(None);
        }
    }
    Ok(systems)
}

/// Aggregated results of a scenario campaign.
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Scenario evaluated.
    pub scenario: MixScenario,
    /// Mean normalised STP across mixes.
    pub stp_mean: f64,
    /// Min/max normalised STP across mixes (the Fig. 6 whiskers).
    pub stp_min_max: (f64, f64),
    /// Mean ANTT reduction (%).
    pub antt_mean: f64,
    /// Min/max ANTT reduction across mixes.
    pub antt_min_max: (f64, f64),
    /// Number of mixes evaluated.
    pub mixes: usize,
}

/// Per-policy aggregates from a shared-mix campaign
/// (see [`evaluate_scenario_multi`]).
#[derive(Debug, Clone)]
pub struct MultiPolicyStats {
    /// Scenario evaluated.
    pub scenario: MixScenario,
    /// Per-policy stats, parallel to the `policies` argument.
    pub per_policy: Vec<ScenarioStats>,
}

/// Evaluates several policies on the *same* random mixes of one scenario,
/// sharing the per-mix isolated baselines (each app's solo run) across
/// policies — the apples-to-apples comparison of Figs. 6, 9 and 10.
///
/// Mixes fan out across [`RunConfig::effective_workers`] threads (each mix
/// seeded by `base_seed + index`, results folded in index order, so stats
/// are identical for every worker count), the trained system is built once
/// and shared read-only by all workers, and solo baselines are memoized in
/// a campaign-wide [`BaselineCache`] keyed by `(benchmark, size, seed)` —
/// Table 3 mixes repeat apps, so the cache skips a large share of the solo
/// simulations without changing a single bit of output.
///
/// # Errors
///
/// Propagates per-mix failures.
pub fn evaluate_scenario_multi(
    policies: &[PolicyKind],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
) -> Result<MultiPolicyStats, ColocateError> {
    evaluate_scenario_multi_checkpointed(
        policies, scenario, catalog, config, mixes, base_seed, None,
    )
}

/// [`evaluate_scenario_multi`] with opt-in crash-safe checkpointing.
///
/// The fault-free campaign is the chaos campaign at zero intensity: one
/// [`ChaosEntry`] per policy (the run's own resilience block) replayed by
/// [`evaluate_chaos_checkpointed`] under [`ChaosSpec::default`], whose
/// fault plans are empty. With `ckpt` set, each mix's per-policy fold is
/// journaled as it commits and an interrupted campaign resumes bit for
/// bit at any worker count. Without `ckpt` this is exactly
/// [`evaluate_scenario_multi`].
///
/// # Errors
///
/// Propagates per-mix failures and journal I/O/validation failures.
pub fn evaluate_scenario_multi_checkpointed(
    policies: &[PolicyKind],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
    ckpt: Option<&CheckpointConfig>,
) -> Result<MultiPolicyStats, ColocateError> {
    let entries: Vec<ChaosEntry> = policies
        .iter()
        .map(|&policy| ChaosEntry {
            label: policy.display_name(),
            policy,
            resilience: config.scheduler.resilience,
        })
        .collect();
    let stats = evaluate_chaos_checkpointed(
        &entries,
        scenario,
        catalog,
        config,
        mixes,
        base_seed,
        &ChaosSpec::default(),
        ckpt,
    )?;
    Ok(MultiPolicyStats {
        scenario,
        per_policy: stats
            .per_entry
            .into_iter()
            .map(|e| ScenarioStats {
                scenario,
                stp_mean: e.stp_mean,
                stp_min_max: e.stp_min_max,
                antt_mean: e.antt_mean,
                antt_min_max: e.antt_min_max,
                mixes,
            })
            .collect(),
    })
}

/// Shape of a chaos campaign: one fault intensity plus the plan
/// parameters shared by every mix. The fault horizon scales with each
/// mix's summed isolated time so a given intensity means the same fault
/// *rate* regardless of how long the mix runs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosSpec {
    /// Fault intensity in `[0, 1]`; 0 injects nothing.
    pub intensity: f64,
    /// Mean node outage, seconds.
    pub mean_outage_secs: f64,
    /// Mean monitor-dropout duration, seconds.
    pub mean_dropout_secs: f64,
    /// Log-scale standard deviation of prediction-noise factors.
    pub noise_sd: f64,
    /// Fault horizon as a fraction of the mix's summed isolated time.
    pub horizon_frac: f64,
    /// Spot-preemption rate per node at full intensity (0 = no spot
    /// faults, the historical default — plans stay bit-identical).
    pub spot_rate: f64,
    /// Warning lead time before each spot revocation, seconds.
    pub spot_warning_secs: f64,
    /// Fraction of the fault horizon over which prediction-noise strikes
    /// are drawn (see [`FaultPlanConfig::noise_window_frac`]). The closed
    /// system keeps the historical `0.1`; open-loop campaigns widen it.
    pub noise_window_frac: f64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            intensity: 0.0,
            mean_outage_secs: 300.0,
            mean_dropout_secs: 600.0,
            noise_sd: 0.35,
            horizon_frac: 0.5,
            spot_rate: 0.0,
            spot_warning_secs: 120.0,
            noise_window_frac: 0.1,
        }
    }
}

impl ChaosSpec {
    /// A spec with everything default except the intensity.
    #[must_use]
    pub fn at_intensity(intensity: f64) -> Self {
        ChaosSpec {
            intensity,
            ..ChaosSpec::default()
        }
    }

    /// The fault plan this spec injects into one mix or replication run
    /// under schedule seed `seed`, drawn from `seed ^ 0xC4A0_5EED` so the
    /// fault stream is independent of the schedule stream.
    ///
    /// # Errors
    ///
    /// [`ColocateError::Config`] for a negative or non-finite intensity or
    /// spot rate, a noise window outside `[0, 1]`, or a non-positive
    /// horizon — the inputs [`FaultPlan::generate`] would panic on.
    pub(crate) fn fault_plan(
        &self,
        seed: u64,
        horizon_secs: f64,
        nodes: usize,
        apps: usize,
    ) -> Result<FaultPlan, ColocateError> {
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let invalid = |msg: String| Err(ColocateError::Config(msg));
        if !non_negative(self.intensity) {
            return invalid(format!(
                "chaos intensity {} must be finite and >= 0",
                self.intensity
            ));
        }
        if !non_negative(self.spot_rate) {
            return invalid(format!(
                "spot rate {} must be finite and >= 0",
                self.spot_rate
            ));
        }
        if !(0.0..=1.0).contains(&self.noise_window_frac) {
            return invalid(format!(
                "noise window fraction {} must lie in [0, 1]",
                self.noise_window_frac
            ));
        }
        if horizon_secs.is_nan() || horizon_secs <= 0.0 {
            return invalid(format!("fault horizon {horizon_secs} s must be positive"));
        }
        Ok(FaultPlan::generate(
            seed ^ 0xC4A0_5EED,
            &FaultPlanConfig {
                intensity: self.intensity,
                horizon_secs,
                nodes,
                apps,
                mean_outage_secs: self.mean_outage_secs,
                mean_dropout_secs: self.mean_dropout_secs,
                noise_sd: self.noise_sd,
                spot_rate: self.spot_rate,
                spot_warning_secs: self.spot_warning_secs,
                noise_window_frac: self.noise_window_frac,
            },
        ))
    }
}

/// One contender in a chaos campaign: a policy plus its resilience
/// configuration (so the same policy can race itself with and without
/// the self-healing layer).
#[derive(Debug, Clone, Copy)]
pub struct ChaosEntry {
    /// Label used in figures and result files.
    pub label: &'static str,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Self-healing configuration for this entry.
    pub resilience: ResilienceConfig,
}

/// Aggregates for one chaos-campaign entry.
#[derive(Debug, Clone)]
pub struct ChaosPolicyStats {
    /// The entry's label.
    pub label: &'static str,
    /// Mean normalised STP across mixes.
    pub stp_mean: f64,
    /// Min/max normalised STP across mixes.
    pub stp_min_max: (f64, f64),
    /// Mean ANTT reduction (%).
    pub antt_mean: f64,
    /// Min/max ANTT reduction across mixes.
    pub antt_min_max: (f64, f64),
    /// Mean OOM kills per mix.
    pub oom_kills_mean: f64,
    /// Fault/recovery counters summed over all mixes.
    pub faults: FaultStats,
}

/// Results of one chaos campaign (one scenario × one intensity).
#[derive(Debug, Clone)]
pub struct ChaosStats {
    /// Scenario evaluated.
    pub scenario: MixScenario,
    /// Fault intensity of the campaign.
    pub intensity: f64,
    /// Number of mixes evaluated.
    pub mixes: usize,
    /// Per-entry aggregates, parallel to the `entries` argument.
    pub per_entry: Vec<ChaosPolicyStats>,
}

/// Evaluates several `(policy, resilience)` entries on the *same* random
/// mixes of one scenario while replaying the *same* per-mix [`FaultPlan`]
/// against each entry — the apples-to-apples chaos comparison behind
/// Fig. 19.
///
/// Per mix `m`, the schedule seed is `base_seed + m` and the fault plan is
/// drawn from `(base_seed + m) ^ 0xC4A0_5EED` so the fault stream is
/// independent of the schedule stream: changing the resilience config
/// never changes which faults strike. Isolated baselines stay fault-free
/// (`C_iso` keeps its §5.3 meaning) and are memoized in a
/// [`BaselineCache`]. Mixes fan out across
/// [`RunConfig::effective_workers`] threads with results folded in index
/// order, so the returned stats are bit-for-bit identical for every
/// worker count. The offline system is trained once and shared by every
/// predictive entry.
///
/// # Errors
///
/// [`ColocateError::Config`] for a malformed `chaos` spec; propagates
/// training and per-mix scheduler failures.
pub fn evaluate_chaos(
    entries: &[ChaosEntry],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
    chaos: &ChaosSpec,
) -> Result<ChaosStats, ColocateError> {
    evaluate_chaos_checkpointed(
        entries, scenario, catalog, config, mixes, base_seed, chaos, None,
    )
}

/// [`evaluate_chaos`] with opt-in crash-safe checkpointing.
///
/// With `ckpt` set, the journal is validated against this campaign's
/// [`checkpoint::chaos_binding`], its folds are replayed, and each new
/// mix's per-entry fold (STP, ANTT, OOM kills, fault counters) is
/// journaled as it commits, one worker-batch at a time, so a kill loses
/// at most the in-flight batch. A resumed campaign — even one killed mid
/// fault plan, since plans are regenerated deterministically from
/// `(seed, spec)` — yields bit-for-bit identical [`ChaosStats`] at any
/// worker count.
///
/// # Errors
///
/// [`ColocateError::Config`] for a malformed `chaos` spec; propagates
/// training, per-mix scheduler and journal failures.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_chaos_checkpointed(
    entries: &[ChaosEntry],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
    chaos: &ChaosSpec,
    ckpt: Option<&CheckpointConfig>,
) -> Result<ChaosStats, ColocateError> {
    let workers = config.effective_workers();

    // Train once per campaign; predictive entries share one bit-identical
    // system (and thereby one campaign-wide prediction table).
    let policies: Vec<PolicyKind> = entries.iter().map(|e| e.policy).collect();
    let systems = trained_systems_for(&policies, catalog, config, base_seed)?;
    // Per-entry scheduler configs differ only in their resilience block.
    let cfgs: Vec<SchedulerConfig> = entries
        .iter()
        .map(|e| SchedulerConfig {
            resilience: e.resilience,
            ..config.scheduler.clone()
        })
        .collect();

    // Mix drawing stays serial: the scenario RNG is one stream.
    let mut mix_rng = SimRng::seed_from(base_seed);
    let all_mixes: Vec<Vec<MixEntry>> = (0..mixes)
        .map(|_| scenario.random_mix(catalog, &mut mix_rng))
        .collect();

    let mut acc = vec![EntryAccum::new(); entries.len()];
    let fold = |acc: &mut [EntryAccum], per_entry: &[ChaosFold]| {
        for (a, f) in acc.iter_mut().zip(per_entry) {
            a.push(f);
        }
    };

    let mut journal: Option<Journal> = None;
    let mut start = 0; // first mix index not covered by the journal
    if let Some(c) = ckpt {
        let binding =
            checkpoint::chaos_binding(entries, scenario, catalog, config, mixes, base_seed, chaos);
        let recovered = Journal::open(&c.path, &binding, c.flush_every)?;
        for payload in recovered.records.iter().take(mixes) {
            fold(
                &mut acc,
                &checkpoint::decode_chaos_folds(payload, entries.len())?,
            );
            start += 1;
        }
        let mut j = recovered.journal;
        j.set_kill_point(c.kill_point);
        journal = Some(j);
    }

    let baselines = BaselineCache::new();
    let mut next = start;
    while next < mixes {
        // Checkpointed runs commit one worker-batch at a time so a kill
        // loses at most the in-flight batch; unjournaled runs keep the
        // single full fan-out. Either way folds commit in index order,
        // so the statistics are identical.
        let batch = if journal.is_some() {
            workers.min(mixes - next)
        } else {
            mixes - next
        };
        let first = next;
        let per_mix = par::par_map_indexed(&all_mixes[first..first + batch], workers, |i, mix| {
            let seed = base_seed + (first + i) as u64;
            let iso = baselines.isolated_times(catalog, mix, &config.scheduler, seed)?;
            let jobs: Vec<(usize, f64)> = mix.iter().map(|e| (e.benchmark, e.size.gb())).collect();
            let horizon = (iso.iter().sum::<f64>() * chaos.horizon_frac).max(60.0);
            let plan =
                chaos.fault_plan(seed, horizon, config.scheduler.cluster.nodes, jobs.len())?;
            entries
                .iter()
                .enumerate()
                .map(|(ei, entry)| {
                    let schedule = run_schedule_with_faults(
                        entry.policy,
                        catalog,
                        &jobs,
                        systems[ei].as_ref(),
                        &cfgs[ei],
                        seed,
                        &plan,
                    )?;
                    let turnarounds: Vec<f64> =
                        schedule.per_app.iter().map(|a| a.finished_at).collect();
                    let n = normalize(&iso, &turnarounds);
                    Ok((
                        n.normalized_stp,
                        n.antt_reduction_pct,
                        schedule.oom_kills,
                        schedule.faults,
                    ))
                })
                .collect::<Result<Vec<ChaosFold>, ColocateError>>()
        });
        next += batch;

        for result in per_mix {
            let per_entry = result?;
            if let Some(j) = journal.as_mut() {
                j.append(&checkpoint::encode_chaos_folds(&per_entry))?;
            }
            fold(&mut acc, &per_entry);
        }
    }
    if let Some(j) = journal.as_mut() {
        j.sync()?;
    }

    Ok(ChaosStats {
        scenario,
        intensity: chaos.intensity,
        mixes,
        per_entry: entries
            .iter()
            .zip(acc)
            .map(|(e, a)| ChaosPolicyStats {
                label: e.label,
                stp_mean: a.stp.mean(),
                stp_min_max: (a.stp.min(), a.stp.max()),
                antt_mean: a.antt.mean(),
                antt_min_max: (a.antt.min(), a.antt.max()),
                oom_kills_mean: a.ooms.mean(),
                faults: a.faults,
            })
            .collect(),
    })
}

/// Running aggregates of one chaos-campaign entry, folded in mix order.
#[derive(Clone)]
struct EntryAccum {
    stp: Welford,
    antt: Welford,
    ooms: Welford,
    faults: FaultStats,
}

impl EntryAccum {
    fn new() -> Self {
        EntryAccum {
            stp: Welford::new(),
            antt: Welford::new(),
            ooms: Welford::new(),
            faults: FaultStats::default(),
        }
    }

    fn push(&mut self, &(stp, antt, kills, faults): &ChaosFold) {
        self.stp.push(stp);
        self.antt.push(antt);
        self.ooms.push(kills as f64);
        self.faults += faults;
    }
}

/// Converts an event-sampled trace (`(time, per-node load)`) into a
/// time-binned matrix: `bins × nodes`, each cell the time-weighted average
/// CPU load of that node within the bin (the Fig. 7 heat map).
///
/// # Panics
///
/// Panics if `bins == 0` or the trace is empty.
#[must_use]
pub fn bin_trace(trace: &[(f64, Vec<f64>)], makespan_secs: f64, bins: usize) -> Vec<Vec<f64>> {
    assert!(bins > 0, "need at least one bin");
    assert!(!trace.is_empty(), "empty trace");
    let nodes = trace[0].1.len();
    let bin_width = makespan_secs / bins as f64;
    let mut sums = vec![vec![0.0f64; nodes]; bins];
    let mut weights = vec![0.0f64; bins];

    for (i, (t0, loads)) in trace.iter().enumerate() {
        let t1 = trace
            .get(i + 1)
            .map_or(makespan_secs, |(t, _)| *t)
            .min(makespan_secs);
        if t1 <= *t0 {
            continue;
        }
        // Spread this piecewise-constant segment across bins. Guard the
        // advance against floating-point boundary collisions: when t sits
        // exactly on a bin edge, `(bin + 1) * width` can round to t and
        // stall the loop.
        let mut t = *t0;
        while t < t1 {
            let bin = ((t / bin_width) as usize).min(bins - 1);
            let mut bin_end = ((bin + 1) as f64 * bin_width).min(t1);
            if bin_end <= t {
                bin_end = (t + bin_width).min(t1);
                if bin_end <= t {
                    break;
                }
            }
            let dt = bin_end - t;
            for (n, &load) in loads.iter().enumerate() {
                sums[bin][n] += load * dt;
            }
            weights[bin] += dt;
            t = bin_end;
        }
    }
    for (bin, w) in weights.iter().enumerate() {
        if *w > 0.0 {
            for v in &mut sums[bin] {
                *v /= w;
            }
        }
    }
    sums
}

/// Mean feature-extraction and calibration fractions of total execution
/// time across a schedule's applications (the Fig. 11 stack).
#[must_use]
pub fn overhead_fractions(outcome: &ScheduleOutcome) -> (f64, f64) {
    let mut feature = 0.0;
    let mut calib = 0.0;
    let mut total = 0.0;
    for app in &outcome.per_app {
        feature += app.profiling.feature_secs;
        calib += app.profiling.calibration_secs;
        total += app.finished_at;
    }
    let total = total.max(1e-9);
    (feature / total, calib / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparklite::cluster::ClusterSpec;
    use workloads::mixes::InputSize;

    fn small_run_config() -> RunConfig {
        RunConfig {
            scheduler: SchedulerConfig {
                cluster: ClusterSpec::small(4),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn mix(catalog: &Catalog, names: &[(&str, InputSize)]) -> Vec<MixEntry> {
        names
            .iter()
            .map(|(n, s)| MixEntry {
                benchmark: catalog.by_name(n).unwrap().index(),
                size: *s,
            })
            .collect()
    }

    #[test]
    fn isolated_times_are_positive_and_size_monotone() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("HB.Sort", InputSize::Small),
                ("HB.Sort", InputSize::Medium),
            ],
        );
        let iso = isolated_times(&catalog, &m, &cfg.scheduler, 1).unwrap();
        assert!(iso[0] > 0.0);
        assert!(iso[1] > iso[0], "bigger input takes longer: {iso:?}");
    }

    #[test]
    fn oracle_normalized_stp_beats_baseline() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("SP.glm-regression", InputSize::Medium),
                ("BDB.Grep", InputSize::Medium),
                ("HB.PageRank", InputSize::Medium),
            ],
        );
        let out = run_policy(PolicyKind::Oracle, &catalog, &m, &cfg, 3).unwrap();
        assert!(
            out.normalized.normalized_stp > 1.5,
            "normalized STP {:.2}",
            out.normalized.normalized_stp
        );
        assert!(out.normalized.antt_reduction_pct > 0.0);
    }

    #[test]
    fn moe_close_to_oracle_on_small_mix() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("SB.Hive", InputSize::Medium),
                ("SP.Kmeans", InputSize::Medium),
                ("HB.WordCount", InputSize::Medium),
            ],
        );
        let oracle = run_policy(PolicyKind::Oracle, &catalog, &m, &cfg, 7).unwrap();
        let moe = run_policy(PolicyKind::Moe, &catalog, &m, &cfg, 7).unwrap();
        let ratio = moe.normalized.normalized_stp / oracle.normalized.normalized_stp;
        assert!(ratio > 0.6, "MoE only reaches {ratio:.2} of Oracle");
        assert!(ratio <= 1.05, "MoE cannot beat Oracle by much: {ratio:.2}");
    }

    #[test]
    fn multi_campaign_aggregates_mixes() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let stats = evaluate_scenario_multi(
            &[PolicyKind::Oracle, PolicyKind::Pairwise],
            MixScenario { label: 1, apps: 2 },
            &catalog,
            &cfg,
            3,
            11,
        )
        .unwrap();
        assert_eq!(stats.per_policy.len(), 2);
        for s in &stats.per_policy {
            assert_eq!(s.mixes, 3);
            assert!(s.stp_min_max.0 <= s.stp_mean);
            assert!(s.stp_mean <= s.stp_min_max.1);
            assert!(s.antt_min_max.0 <= s.antt_mean);
            assert!(s.antt_mean <= s.antt_min_max.1);
        }
    }

    #[test]
    fn trace_binning_is_time_weighted() {
        // One node: load 1.0 for 10 s then 0.0 for 10 s.
        let trace = vec![(0.0, vec![1.0]), (10.0, vec![0.0])];
        let bins = bin_trace(&trace, 20.0, 2);
        assert!((bins[0][0] - 1.0).abs() < 1e-9);
        assert!(bins[1][0].abs() < 1e-9);
        let single = bin_trace(&trace, 20.0, 1);
        assert!((single[0][0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn trace_binning_survives_boundary_aligned_events() {
        // Events exactly on bin boundaries must not stall the binning
        // loop (a floating-point edge found by Fig. 7's Pairwise trace).
        let trace = vec![(0.0, vec![1.0]), (10.0, vec![0.5]), (20.0, vec![0.25])];
        let bins = bin_trace(&trace, 30.0, 3);
        assert!((bins[0][0] - 1.0).abs() < 1e-9);
        assert!((bins[1][0] - 0.5).abs() < 1e-9);
        assert!((bins[2][0] - 0.25).abs() < 1e-9);
        // Irrational-ish makespan: boundaries don't divide evenly.
        let bins = bin_trace(&trace, 29.973, 7);
        let avg: f64 = bins.iter().map(|b| b[0]).sum::<f64>() / 7.0;
        assert!(avg > 0.2 && avg < 1.0);
    }

    #[test]
    fn overheads_are_small_fractions() {
        let catalog = Catalog::paper();
        let cfg = small_run_config();
        let m = mix(
            &catalog,
            &[
                ("HB.Sort", InputSize::Medium),
                ("HB.Kmeans", InputSize::Medium),
            ],
        );
        let out = run_policy(PolicyKind::Moe, &catalog, &m, &cfg, 5).unwrap();
        let (feature, calib) = overhead_fractions(&out.schedule);
        assert!(feature > 0.0 && feature < 0.5, "feature {feature}");
        assert!(calib > 0.0 && calib < 0.5, "calib {calib}");
    }
}
