//! `campaign`: the closed-system Fig. 6 campaign.
//!
//! Table 3 scenarios under Pairwise, Quasar, MoE and Oracle on the 40-node
//! paper cluster, a fixed number of mixes per scenario. The untraced run
//! calls `evaluate_scenario_multi` once per scenario; the traced run
//! reproduces that loop from public calls (train once, draw mixes
//! serially, one `BaselineCache` per scenario, `par_map_indexed` over
//! mixes with every `run_schedule` timed) and must fold to bitwise the
//! same statistics.
//!
//! An operation is one (mix × policy) replay. A replay fails when the
//! call returns `Err` or its scenario's fold differs from the reference.
//!
//! Replays differ in cost by orders of magnitude (a 2-app L1 mix against
//! a 30-app L10 mix with 1 TB inputs), and a handful of heavy mixes
//! decides a pass's cost: the replay rate of one 4-mix pass moves 2x
//! between seeds. The untraced run therefore keeps drawing fresh mixes
//! for its whole time budget, and its throughput counts the work the
//! replays did — engine events (`ScheduleOutcome::trace` entries), which
//! track a replay's cost far better than the replay count — over total
//! wall time. Every pass is reproduced after the timed loop, which checks
//! it and counts its events.

use crate::trace::Tracer;
use crate::{
    check_config, median_peak_rss, pass_seed, ratio, repeat_for, same_bits, Layers, Metric,
    RunReport, POLICY_LABELS,
};
use colocate::harness::{evaluate_scenario_multi, trained_systems_for, BaselineCache, RunConfig};
use colocate::metrics::normalize;
use colocate::scheduler::{run_schedule, PolicyKind};
use colocate::training::TrainedSystem;
use colocate::ColocateError;
use simkit::stats::Welford;
use simkit::{par, SimRng};
use std::time::Instant;
use workloads::{Catalog, MixEntry, MixScenario};

/// The Fig. 6 roster, parallel to [`POLICY_LABELS`].
pub const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Pairwise,
    PolicyKind::Quasar,
    PolicyKind::Moe,
    PolicyKind::Oracle,
];

/// Index of MoE in [`POLICIES`].
const MOE: usize = 2;

/// Size of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Scenarios evaluated, in order.
    pub scenarios: Vec<MixScenario>,
    /// Mixes per scenario.
    pub mixes: usize,
}

impl CampaignSpec {
    /// The benchmark's size: all of Table 3, 4 mixes per scenario per
    /// pass.
    #[must_use]
    pub fn paper() -> Self {
        CampaignSpec {
            scenarios: MixScenario::TABLE3.to_vec(),
            mixes: 4,
        }
    }

    /// A size for self-tests: L1 and L2, 2 mixes each.
    #[must_use]
    pub fn tiny() -> Self {
        CampaignSpec {
            scenarios: MixScenario::TABLE3[..2].to_vec(),
            mixes: 2,
        }
    }

    /// (mix × policy) replays in one pass.
    #[must_use]
    pub fn replays(&self) -> u64 {
        (self.scenarios.len() * self.mixes * POLICIES.len()) as u64
    }
}

/// One (scenario, policy) aggregate: mean, min and max of the normalized
/// STP and of the ANTT reduction — what `evaluate_scenario_multi` returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fold {
    /// Normalized STP: mean, min, max.
    pub stp: [f64; 3],
    /// ANTT reduction (%): mean, min, max.
    pub antt: [f64; 3],
}

impl Fold {
    fn from_welford(stp: &Welford, antt: &Welford) -> Self {
        Fold {
            stp: [stp.mean(), stp.min(), stp.max()],
            antt: [antt.mean(), antt.min(), antt.max()],
        }
    }

    /// Bitwise equality of every field.
    #[must_use]
    pub fn same(&self, other: &Fold) -> bool {
        self.stp
            .iter()
            .zip(&other.stp)
            .all(|(a, b)| same_bits(*a, *b))
            && self
                .antt
                .iter()
                .zip(&other.antt)
                .all(|(a, b)| same_bits(*a, *b))
    }
}

/// Folds of a whole pass, `[scenario][policy]`.
pub type Folds = Vec<Vec<Fold>>;

/// Replays whose (scenario, policy) fold differs from the reference; a
/// missing scenario or policy fails all its replays.
#[must_use]
pub fn count_failures(reference: &Folds, got: &Folds, spec: &CampaignSpec) -> u64 {
    let mut failed = 0;
    for (si, want) in reference.iter().enumerate() {
        for (pi, fold) in want.iter().enumerate() {
            let ok = got
                .get(si)
                .and_then(|row| row.get(pi))
                .is_some_and(|g| g.same(fold));
            if !ok {
                failed += spec.mixes as u64;
            }
        }
    }
    failed
}

/// MoE's normalized-STP geomean and mean ANTT reduction over scenarios.
#[must_use]
pub fn headline(folds: &Folds) -> (f64, f64) {
    let n = folds.len().max(1) as f64;
    let log_sum: f64 = folds.iter().map(|row| row[MOE].stp[0].ln()).sum();
    let antt_sum: f64 = folds.iter().map(|row| row[MOE].antt[0]).sum();
    ((log_sum / n).exp(), antt_sum / n)
}

/// One pass through the library's entry point: `evaluate_scenario_multi`
/// per scenario.
///
/// # Errors
///
/// Propagates the first failing scenario.
pub fn entry_pass(
    catalog: &Catalog,
    config: &RunConfig,
    spec: &CampaignSpec,
    seed: u64,
) -> Result<Folds, ColocateError> {
    let mut folds = Vec::with_capacity(spec.scenarios.len());
    for &scenario in &spec.scenarios {
        let stats =
            evaluate_scenario_multi(&POLICIES, scenario, catalog, config, spec.mixes, seed)?;
        folds.push(
            stats
                .per_policy
                .iter()
                .map(|s| Fold {
                    stp: [s.stp_mean, s.stp_min_max.0, s.stp_min_max.1],
                    antt: [s.antt_mean, s.antt_min_max.0, s.antt_min_max.1],
                })
                .collect(),
        );
    }
    Ok(folds)
}

/// Work counters of a reproduced pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Engine events (`trace.len()`) per policy.
    pub events: [u64; 4],
    /// OOM kills per policy.
    pub oom_kills: [u64; 4],
    /// Baseline-cache hits over all scenarios.
    pub baseline_hits: u64,
    /// Baseline-cache misses over all scenarios.
    pub baseline_misses: u64,
}

/// Reproduces [`entry_pass`] from the public calls underneath
/// `evaluate_scenario_multi`, with every call timed in `tracer`. The
/// systems are trained once by the caller (every scenario trains from the
/// same seed, so they are bit-identical to the ones each scenario call
/// would train).
///
/// # Errors
///
/// Propagates the first failing replay.
pub fn reproduce(
    catalog: &Catalog,
    config: &RunConfig,
    systems: &[Option<TrainedSystem>],
    spec: &CampaignSpec,
    seed: u64,
    tracer: &Tracer,
) -> Result<(Folds, Counters), ColocateError> {
    let workers = config.effective_workers();
    let span_names: Vec<String> = POLICY_LABELS
        .iter()
        .map(|p| format!("scheduler.run_schedule.{p}"))
        .collect();
    let mut counters = Counters::default();
    let mut folds = Vec::with_capacity(spec.scenarios.len());
    for &scenario in &spec.scenarios {
        let mut mix_rng = SimRng::seed_from(seed);
        let mixes: Vec<Vec<MixEntry>> = (0..spec.mixes)
            .map(|_| scenario.random_mix(catalog, &mut mix_rng))
            .collect();
        let baselines = BaselineCache::new();
        let per_mix = tracer.span("par.par_map_indexed", None, |par_id| {
            par::par_map_indexed(&mixes, workers, |i, mix| {
                tracer.span("par.item", Some(par_id), |item| {
                    let mix_seed = seed + i as u64;
                    let iso = tracer.span("harness.baseline.isolated_times", Some(item), |_| {
                        baselines.isolated_times(catalog, mix, &config.scheduler, mix_seed)
                    })?;
                    POLICIES
                        .iter()
                        .enumerate()
                        .map(|(pi, &policy)| {
                            let schedule = tracer.span(&span_names[pi], Some(item), |_| {
                                run_schedule(
                                    policy,
                                    catalog,
                                    mix,
                                    systems[pi].as_ref(),
                                    &config.scheduler,
                                    mix_seed,
                                )
                            })?;
                            let turnarounds: Vec<f64> =
                                schedule.per_app.iter().map(|a| a.finished_at).collect();
                            Ok((
                                normalize(&iso, &turnarounds),
                                schedule.trace.len() as u64,
                                schedule.oom_kills as u64,
                            ))
                        })
                        .collect::<Result<Vec<_>, ColocateError>>()
                })
            })
        });
        let mut stp = vec![Welford::new(); POLICIES.len()];
        let mut antt = vec![Welford::new(); POLICIES.len()];
        for result in per_mix {
            for (pi, (n, events, kills)) in result?.into_iter().enumerate() {
                stp[pi].push(n.normalized_stp);
                antt[pi].push(n.antt_reduction_pct);
                counters.events[pi] += events;
                counters.oom_kills[pi] += kills;
            }
        }
        let (hits, misses) = baselines.stats();
        counters.baseline_hits += hits;
        counters.baseline_misses += misses;
        folds.push(
            stp.iter()
                .zip(&antt)
                .map(|(s, a)| Fold::from_welford(s, a))
                .collect(),
        );
    }
    Ok((folds, counters))
}

fn setup(
    config: &RunConfig,
    seed: u64,
) -> Result<(Catalog, Vec<Option<TrainedSystem>>), ColocateError> {
    let catalog = Catalog::paper();
    let systems = trained_systems_for(&POLICIES, &catalog, config, seed)?;
    Ok((catalog, systems))
}

fn figures(folds: &Folds, replays_per_s: f64) -> Vec<Metric> {
    let (stp, antt) = headline(folds);
    vec![
        Metric::new("campaign.replays_per_s", replays_per_s, "1/s"),
        Metric::new("campaign.stp_geomean", stp, "x"),
        Metric::new("campaign.antt_reduction_pct", antt, "%"),
    ]
}

/// The untraced run: `evaluate_scenario_multi` passes for `seconds`,
/// each drawing fresh mixes from [`pass_seed`], with set-ups timed
/// between them; then every pass is reproduced, checked bitwise and its
/// engine events counted.
///
/// # Errors
///
/// Propagates set-up and reproduction failures (a failing timed pass is
/// counted, not propagated).
pub fn run(
    spec: &CampaignSpec,
    config: &RunConfig,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, ColocateError> {
    let catalog = Catalog::paper();
    let timed = repeat_for(
        seconds,
        || setup(config, seed),
        |k| {
            let pass_seed = pass_seed(seed, k);
            (pass_seed, entry_pass(&catalog, config, spec, pass_seed))
        },
    )?;
    let passes = &timed.reps;

    let mut failed = 0;
    let mut events = 0;
    let mut wall = 0.0;
    let mut pass0 = None;
    let check = check_config(config);
    for rep in passes {
        let (pass_seed, out) = &rep.out;
        wall += rep.wall_s;
        let systems = trained_systems_for(&POLICIES, &catalog, &check, *pass_seed)?;
        let (reference, counters) =
            reproduce(&catalog, &check, &systems, spec, *pass_seed, &Tracer::new())?;
        events += counters.events.iter().sum::<u64>();
        failed += match out {
            Ok(folds) => count_failures(&reference, folds, spec),
            Err(_) => spec.replays(),
        };
        pass0.get_or_insert(reference);
    }
    let attempted = spec.replays() * passes.len() as u64;
    let pass0 = pass0.expect("at least one pass ran");
    Ok(RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", timed.reference_secs(timed.setup_s), "s"),
            Metric::new("peak_rss_mb", median_peak_rss(passes), "MB"),
            Metric::new("throughput_per_s", timed.reference_rate(events as f64 / wall), "1/s"),
        ],
        figures: [figures(&pass0, attempted as f64 / wall), timed.host_figures()].concat(),
        notes: vec![format!(
            "campaign: {} scenarios x {} mixes x {} policies = {} replays per pass; {} passes, {attempted} replays, {events} engine events in {wall:.2} s; throughput_per_s = engine events per reference second (wall rate x host.unit_s / 10 ms)",
            spec.scenarios.len(),
            spec.mixes,
            POLICIES.len(),
            spec.replays(),
            passes.len()
        )],
        spans: Vec::new(),
    })
}

/// The traced run: one untraced `evaluate_scenario_multi` pass (the
/// reference and the overhead baseline), then the reproduction with every
/// layer call timed.
///
/// # Errors
///
/// Propagates set-up failures and a failing reference pass.
pub fn traced(
    spec: &CampaignSpec,
    config: &RunConfig,
    seed: u64,
) -> Result<RunReport, ColocateError> {
    let catalog = Catalog::paper();
    let t0 = Instant::now();
    let reference = entry_pass(&catalog, config, spec, seed)?;
    let untraced_wall = t0.elapsed().as_secs_f64();

    let tracer = Tracer::new();
    let t0 = Instant::now();
    let systems = tracer.span("training.trained_systems_for", None, |_| {
        trained_systems_for(&POLICIES, &catalog, config, seed)
    })?;
    let reproduced = reproduce(&catalog, config, &systems, spec, seed, &tracer);
    let traced_wall = t0.elapsed().as_secs_f64();

    let (failed, counters) = match reproduced {
        Ok((folds, counters)) => (count_failures(&reference, &folds, spec), counters),
        Err(_) => (spec.replays(), Counters::default()),
    };

    let mut layers = Layers::new();
    for (pi, p) in POLICY_LABELS.iter().enumerate() {
        let busy = tracer.total_secs(&format!("scheduler.run_schedule.{p}"));
        let events = counters.events[pi] as f64;
        layers.set(&format!("scheduler.busy_s.{p}"), busy);
        layers.set(&format!("scheduler.events.{p}"), events);
        layers.set(
            &format!("scheduler.us_per_event.{p}"),
            ratio(busy * 1e6, events),
        );
        layers.set(
            &format!("scheduler.oom_kills.{p}"),
            counters.oom_kills[pi] as f64,
        );
    }
    layers.set(
        "harness.baseline.busy_s",
        tracer.total_secs("harness.baseline.isolated_times"),
    );
    layers.set("harness.baseline.hits", counters.baseline_hits as f64);
    layers.set("harness.baseline.misses", counters.baseline_misses as f64);
    let par_wall = tracer.total_secs("par.par_map_indexed");
    let par_busy = tracer.total_secs("par.item");
    layers.set("par.wall_s", par_wall);
    layers.set("par.busy_s", par_busy);
    layers.set(
        "par.efficiency",
        ratio(par_busy, par_wall * config.effective_workers() as f64),
    );
    layers.set(
        "training.train_s",
        tracer.total_secs("training.trained_systems_for"),
    );
    if let Some(system) = systems[MOE].as_ref() {
        layers.set_table(&system.selections);
    }
    layers.set_overhead(traced_wall, untraced_wall, tracer.root_secs());

    Ok(RunReport {
        correct: failed == 0,
        attempted: spec.replays(),
        failed,
        metrics: layers.into_metrics(),
        figures: Vec::new(),
        notes: vec![format!(
            "campaign traced: reproduction vs evaluate_scenario_multi: {failed} of {} replays differ",
            spec.replays()
        )],
        spans: tracer.spans(),
    })
}
