//! `storm`: an admission-controlled open-loop storm.
//!
//! Seeded Poisson arrivals over the 44-benchmark catalog at the three
//! Table 3 input sizes, offered above the cluster's serialized capacity
//! and served by MoE with `AdmissionConfig::controlled()` and the
//! self-healing layer on the 40-node paper cluster, under a spot and
//! prediction-noise fault storm. The plan is pre-drawn: arrivals are open
//! loop in simulated time, so a slow service never slows arrivals.
//!
//! The untraced run calls `evaluate_openloop` with that single entry; the
//! traced run calls `run_service` per replication directly and must fold
//! to bitwise the same statistics.
//!
//! An operation is one arrival. Shedding is the admission gate's designed
//! answer to overload, checked bitwise like every other outcome, so a shed
//! arrival is a handled one. An arrival fails when it is lost (neither
//! finished nor shed), when its replication returns `Err`, or when the
//! pass's fold differs from the reference (then every arrival of the pass
//! fails).

use crate::trace::Tracer;
use crate::{
    check_config, median_peak_rss, pass_seed, ratio, repeat_for, same_bits, Layers, Metric,
    RunReport,
};
use colocate::harness::{
    isolated_times_custom, trained_system_for, BaselineCache, ChaosSpec, RunConfig,
};
use colocate::metrics::percentiles;
use colocate::scheduler::{FaultStats, PolicyKind, ResilienceConfig, SchedulerConfig};
use colocate::service::{
    evaluate_openloop, run_service, AdmissionConfig, OpenLoopEntry, OpenLoopEntryStats,
    OpenLoopSpec, ServiceConfig,
};
use colocate::training::TrainedSystem;
use colocate::ColocateError;
use simkit::arrivals::{ArrivalPlan, ArrivalPlanConfig, ArrivalProcess};
use simkit::faults::{FaultPlan, FaultPlanConfig};
use simkit::par;
use std::time::Instant;
use workloads::{Catalog, InputSize};

/// Offered load as a multiple of the serialized capacity (one job at a
/// time at its mean isolated time): above it, so shedding and deferral
/// engage, yet most arrivals are admitted.
const LOAD: f64 = 2.0;

/// Size of a storm.
#[derive(Debug, Clone)]
pub struct StormSpec {
    /// Expected arrivals per replication.
    pub arrivals: usize,
    /// Replications (independent plans) per pass.
    pub replications: usize,
}

impl StormSpec {
    /// The benchmark's size: four replications of ~2,000 arrivals at twice
    /// the serialized capacity.
    #[must_use]
    pub fn paper() -> Self {
        StormSpec {
            arrivals: 2000,
            replications: 4,
        }
    }

    /// A size for self-tests.
    #[must_use]
    pub fn tiny() -> Self {
        StormSpec {
            arrivals: 40,
            replications: 1,
        }
    }
}

/// The single contender: admission-controlled, self-healing MoE.
#[must_use]
pub fn entry() -> OpenLoopEntry {
    OpenLoopEntry {
        label: "admission (MoE)",
        policy: PolicyKind::Moe,
        admission: AdmissionConfig::controlled(),
        resilience: ResilienceConfig::self_healing(),
    }
}

/// Every catalog benchmark at every Table 3 input size.
#[must_use]
pub fn job_classes(catalog: &Catalog) -> Vec<(usize, f64)> {
    catalog
        .all()
        .iter()
        .flat_map(|b| InputSize::ALL.iter().map(move |s| (b.index(), s.gb())))
        .collect()
}

/// The open-loop campaign shape: Poisson arrivals at [`LOAD`] times the
/// serialized capacity measured from the classes' isolated times, with a
/// full-intensity storm whose prediction noise can strike anywhere in the
/// horizon.
///
/// # Errors
///
/// Propagates failures of the isolated runs.
pub fn open_spec(
    catalog: &Catalog,
    config: &RunConfig,
    spec: &StormSpec,
    seed: u64,
) -> Result<OpenLoopSpec, ColocateError> {
    let job_classes = job_classes(catalog);
    let iso = isolated_times_custom(catalog, &job_classes, &config.scheduler, seed)?;
    let mean_iso = iso.iter().sum::<f64>() / iso.len() as f64;
    let rate = LOAD / mean_iso;
    Ok(OpenLoopSpec {
        process: ArrivalProcess::Poisson { rate_per_sec: rate },
        horizon_secs: spec.arrivals as f64 / rate,
        tenants: 4,
        tenant_weights: Vec::new(),
        job_classes,
        max_jobs: spec.arrivals * 2,
        chaos: ChaosSpec {
            intensity: 1.0,
            spot_rate: 0.5,
            noise_window_frac: 1.0,
            ..ChaosSpec::default()
        },
        replications: spec.replications,
    })
}

/// Every replication's arrival and fault plans, drawn exactly as
/// `evaluate_openloop` draws them.
#[must_use]
pub fn plans(
    open: &OpenLoopSpec,
    config: &RunConfig,
    base_seed: u64,
    tracer: &Tracer,
) -> Vec<(ArrivalPlan, FaultPlan)> {
    (0..open.replications)
        .map(|i| plans_for(open, config, base_seed + i as u64, tracer))
        .collect()
}

fn plans_for(
    open: &OpenLoopSpec,
    config: &RunConfig,
    seed: u64,
    tracer: &Tracer,
) -> (ArrivalPlan, FaultPlan) {
    let arrival_cfg = ArrivalPlanConfig {
        process: open.process,
        horizon_secs: open.horizon_secs,
        tenants: open.tenants,
        job_classes: open.job_classes.len(),
        max_jobs: open.max_jobs,
    };
    let plan = tracer.span("arrivals.generate", None, |_| {
        ArrivalPlan::generate(seed ^ 0xA441_5EED, &arrival_cfg)
    });
    let faults = tracer.span("faults.generate", None, |_| {
        FaultPlan::generate(seed ^ 0xC4A0_5EED, &fault_config(open, config, plan.len()))
    });
    (plan, faults)
}

fn fault_config(open: &OpenLoopSpec, config: &RunConfig, apps: usize) -> FaultPlanConfig {
    let chaos = &open.chaos;
    FaultPlanConfig {
        intensity: chaos.intensity,
        horizon_secs: open.horizon_secs,
        nodes: config.scheduler.cluster.nodes,
        apps,
        mean_outage_secs: chaos.mean_outage_secs,
        mean_dropout_secs: chaos.mean_dropout_secs,
        noise_sd: chaos.noise_sd,
        spot_rate: chaos.spot_rate,
        spot_warning_secs: chaos.spot_warning_secs,
        noise_window_frac: chaos.noise_window_frac,
    }
}

fn service_config(open: &OpenLoopSpec, config: &RunConfig) -> ServiceConfig {
    let entry = entry();
    ServiceConfig {
        scheduler: SchedulerConfig {
            resilience: entry.resilience,
            ..config.scheduler.clone()
        },
        admission: entry.admission,
        tenant_weights: open.tenant_weights.clone(),
        job_classes: open.job_classes.clone(),
    }
}

/// The fields of `OpenLoopEntryStats` the check compares bitwise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StormFold {
    /// Total arrivals.
    pub arrivals: usize,
    /// Jobs that finished.
    pub finished: usize,
    /// Jobs shed.
    pub shed: usize,
    /// OOM kills.
    pub oom_kills: usize,
    /// Deferrals, abstain placements, breaker trips, max queue depth.
    pub admission: [usize; 4],
    /// Slowdown p50, p95, p99, mean; mean queue depth.
    pub floats: [f64; 5],
    /// Fault and recovery counters.
    pub faults: FaultStats,
}

impl StormFold {
    /// The fold of an `evaluate_openloop` entry.
    #[must_use]
    pub fn of(s: &OpenLoopEntryStats) -> Self {
        StormFold {
            arrivals: s.arrivals,
            finished: s.finished,
            shed: s.shed,
            oom_kills: s.oom_kills,
            admission: [
                s.deferrals,
                s.abstain_placements,
                s.breaker_trips,
                s.max_queue_depth,
            ],
            floats: [
                s.slowdown_p50,
                s.slowdown_p95,
                s.slowdown_p99,
                s.slowdown_mean,
                s.mean_queue_depth,
            ],
            faults: s.faults,
        }
    }

    /// Bitwise equality of every field.
    #[must_use]
    pub fn same(&self, o: &StormFold) -> bool {
        self.arrivals == o.arrivals
            && self.finished == o.finished
            && self.shed == o.shed
            && self.oom_kills == o.oom_kills
            && self.admission == o.admission
            && self
                .floats
                .iter()
                .zip(&o.floats)
                .all(|(a, b)| same_bits(*a, *b))
            && self.faults == o.faults
            && same_bits(self.faults.slices_requeued_gb, o.faults.slices_requeued_gb)
    }

    /// Failed arrivals: those lost, neither finished nor shed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.arrivals.saturating_sub(self.finished + self.shed) as u64
    }

    /// Internal consistency, the check for passes without a
    /// reproduction: no more jobs finished or shed than arrived, and every
    /// statistic finite.
    #[must_use]
    pub fn sane(&self) -> bool {
        self.finished + self.shed <= self.arrivals
            && self.floats.iter().all(|v| v.is_finite())
            && self.faults.slices_requeued_gb.is_finite()
    }
}

/// Failed arrivals of a pass checked against the reference: every arrival
/// fails on a mismatch, otherwise the lost ones.
#[must_use]
pub fn count_failures(reference: &StormFold, got: &StormFold) -> u64 {
    if got.same(reference) {
        got.failed()
    } else {
        got.arrivals.max(reference.arrivals) as u64
    }
}

/// One pass through the library's entry point.
///
/// # Errors
///
/// Propagates `evaluate_openloop` failures.
pub fn entry_pass(
    catalog: &Catalog,
    config: &RunConfig,
    open: &OpenLoopSpec,
    seed: u64,
) -> Result<StormFold, ColocateError> {
    let stats = evaluate_openloop(&[entry()], catalog, config, open, seed)?;
    Ok(StormFold::of(&stats.per_entry[0]))
}

/// Service counters of a reproduced pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Arrivals admitted by the gate.
    pub admitted: u64,
    /// Baseline-cache hits.
    pub baseline_hits: u64,
    /// Baseline-cache misses.
    pub baseline_misses: u64,
}

/// Reproduces `evaluate_openloop` for the storm's single entry from
/// `run_service` calls, one per replication, with every call timed.
///
/// # Errors
///
/// Propagates the first failing replication.
pub fn reproduce(
    catalog: &Catalog,
    config: &RunConfig,
    system: Option<&TrainedSystem>,
    open: &OpenLoopSpec,
    plans: &[(ArrivalPlan, FaultPlan)],
    seed: u64,
    tracer: &Tracer,
) -> Result<(StormFold, Counters), ColocateError> {
    let cfg = service_config(open, config);
    let baselines = BaselineCache::new();
    let per_rep = tracer.span("par.par_map_indexed", None, |par_id| {
        par::par_map_indexed(plans, config.effective_workers(), |i, (plan, faults)| {
            tracer.span("par.item", Some(par_id), |item| {
                let rep_seed = seed + i as u64;
                if plan.is_empty() {
                    return Ok::<_, ColocateError>(None);
                }
                let outcome = tracer.span("service.run_service", Some(item), |_| {
                    run_service(
                        PolicyKind::Moe,
                        catalog,
                        plan,
                        system,
                        &cfg,
                        rep_seed,
                        Some(faults),
                    )
                })?;
                let slowdowns =
                    tracer.span("harness.baseline.isolated_secs", Some(item), |_| {
                        let mut slowdowns = Vec::new();
                        for job in &outcome.jobs {
                            let Some(done) = job.finished_at else {
                                continue;
                            };
                            let iso = baselines.isolated_secs(
                                catalog,
                                (job.benchmark, job.input_gb),
                                &config.scheduler,
                                rep_seed,
                            )?;
                            if iso > 0.0 {
                                slowdowns.push((done - job.arrived_at) / iso);
                            }
                        }
                        Ok::<_, ColocateError>(slowdowns)
                    })?;
                Ok(Some((slowdowns, outcome)))
            })
        })
    });

    // Fold in replication order, exactly as `evaluate_openloop` does.
    let mut slowdowns = Vec::new();
    let mut total = StormFold::default();
    let mut counters = Counters::default();
    let mut mean_queue_sum = 0.0;
    let reps = per_rep.len();
    for result in per_rep {
        let Some((s, o)) = result? else {
            continue;
        };
        slowdowns.extend(s);
        total.arrivals += o.jobs.len();
        total.finished += o.jobs.iter().filter(|j| j.finished_at.is_some()).count();
        total.shed += o.shed_jobs;
        total.oom_kills += o.oom_kills;
        total.admission[0] += o.deferrals;
        total.admission[1] += o.abstain_placements;
        total.admission[2] += o.breaker_trips;
        total.admission[3] = total.admission[3].max(o.max_queue_depth);
        mean_queue_sum += o.mean_queue_depth;
        let (a, b) = (&mut total.faults, &o.faults);
        a.node_crashes += b.node_crashes;
        a.executor_crashes += b.executor_crashes;
        a.monitor_dropouts += b.monitor_dropouts;
        a.prediction_noise += b.prediction_noise;
        a.slices_requeued_gb += b.slices_requeued_gb;
        a.retries += b.retries;
        a.quarantines += b.quarantines;
        a.isolated_fallbacks += b.isolated_fallbacks;
        a.spot_preemptions += b.spot_preemptions;
        a.drains += b.drains;
        counters.admitted += o.jobs.iter().filter(|j| j.admitted_at.is_some()).count() as u64;
    }
    let ps = percentiles(&slowdowns, &[50.0, 95.0, 99.0]);
    let mean = if slowdowns.is_empty() {
        f64::NAN
    } else {
        slowdowns.iter().sum::<f64>() / slowdowns.len() as f64
    };
    total.floats = [
        ps[0],
        ps[1],
        ps[2],
        mean,
        mean_queue_sum / reps.max(1) as f64,
    ];
    (counters.baseline_hits, counters.baseline_misses) = baselines.stats();
    Ok((total, counters))
}

type Setup = (
    Catalog,
    OpenLoopSpec,
    Option<TrainedSystem>,
    Vec<(ArrivalPlan, FaultPlan)>,
);

fn setup(config: &RunConfig, spec: &StormSpec, seed: u64) -> Result<Setup, ColocateError> {
    let catalog = Catalog::paper();
    let open = open_spec(&catalog, config, spec, seed)?;
    let system = trained_system_for(PolicyKind::Moe, &catalog, config, seed)?;
    let plans = plans(&open, config, seed, &Tracer::new());
    Ok((catalog, open, system, plans))
}

fn figures(fold: &StormFold, arrivals_per_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("storm.arrivals_per_s", arrivals_per_s, "1/s"),
        Metric::new("storm.slowdown_p50", fold.floats[0], "x"),
        Metric::new("storm.slowdown_p99", fold.floats[2], "x"),
        Metric::new(
            "storm.shed_pct",
            ratio(100.0 * fold.shed as f64, fold.arrivals as f64),
            "%",
        ),
        Metric::new("storm.oom_kills", fold.oom_kills as f64, "count"),
    ]
}

/// The untraced run: `evaluate_openloop` passes for `seconds`, each
/// drawing fresh plans from [`pass_seed`], with set-ups timed between
/// them; then pass 0 is checked bitwise against a reproduction and later
/// passes for internal consistency.
///
/// # Errors
///
/// Propagates set-up and reference failures (a failing timed pass is
/// counted, not propagated).
pub fn run(
    spec: &StormSpec,
    config: &RunConfig,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, ColocateError> {
    let (catalog, open, system, plans) = setup(config, spec, seed)?;
    let timed = repeat_for(
        seconds,
        || setup(config, spec, seed),
        |k| entry_pass(&catalog, config, &open, pass_seed(seed, k)),
    )?;
    let passes = &timed.reps;
    let (reference, _) = reproduce(
        &catalog,
        &check_config(config),
        system.as_ref(),
        &open,
        &plans,
        seed,
        &Tracer::new(),
    )?;

    let mut failed = 0;
    let mut attempted = 0;
    let mut wall = 0.0;
    let mut correct = true;
    for (k, rep) in passes.iter().enumerate() {
        wall += rep.wall_s;
        match &rep.out {
            Ok(fold) => {
                attempted += fold.arrivals as u64;
                if k == 0 {
                    correct &= fold.same(&reference);
                    failed += count_failures(&reference, fold);
                } else if fold.sane() {
                    failed += fold.failed();
                } else {
                    correct = false;
                    failed += fold.arrivals as u64;
                }
            }
            Err(_) => {
                correct = false;
                attempted += reference.arrivals as u64;
                failed += reference.arrivals as u64;
            }
        }
    }
    let throughput = attempted as f64 / wall;
    Ok(RunReport {
        correct,
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", timed.reference_secs(timed.setup_s), "s"),
            Metric::new("peak_rss_mb", median_peak_rss(passes), "MB"),
            Metric::new("throughput_per_s", timed.reference_rate(throughput), "1/s"),
        ],
        figures: [figures(&reference, throughput), timed.host_figures()].concat(),
        notes: vec![format!(
            "storm: {} replications per pass, pass 0 {} arrivals ({} finished, {} shed); {} passes, {attempted} arrivals in {wall:.2} s; throughput_per_s = arrivals per reference second (wall rate x host.unit_s / 10 ms)",
            open.replications,
            reference.arrivals,
            reference.finished,
            reference.shed,
            passes.len()
        )],
        spans: Vec::new(),
    })
}

/// The traced run: one untraced `evaluate_openloop` pass (the reference
/// and the overhead baseline), the reproduction with every call timed,
/// then the growth probe: replication 0's plan cut to its first half, run
/// alone beside the full plan, gives `service.us_per_arrival_growth`.
///
/// # Errors
///
/// Propagates set-up failures and a failing reference pass.
pub fn traced(spec: &StormSpec, config: &RunConfig, seed: u64) -> Result<RunReport, ColocateError> {
    let catalog = Catalog::paper();
    let open = open_spec(&catalog, config, spec, seed)?;
    let t0 = Instant::now();
    let reference = entry_pass(&catalog, config, &open, seed)?;
    let untraced_wall = t0.elapsed().as_secs_f64();

    let tracer = Tracer::new();
    let t0 = Instant::now();
    let system = tracer.span("training.trained_system_for", None, |_| {
        trained_system_for(PolicyKind::Moe, &catalog, config, seed)
    })?;
    let plans = plans(&open, config, seed, &tracer);
    let reproduced = reproduce(
        &catalog,
        config,
        system.as_ref(),
        &open,
        &plans,
        seed,
        &tracer,
    );
    let traced_wall = t0.elapsed().as_secs_f64();

    let (failed, fold, counters) = match reproduced {
        Ok((fold, counters)) => (count_failures(&reference, &fold), fold, counters),
        Err(_) => (reference.arrivals as u64, reference, Counters::default()),
    };
    let growth = growth_probe(&catalog, config, system.as_ref(), &open, &plans[0], seed)?;

    let mut layers = Layers::new();
    let busy = tracer.total_secs("service.run_service");
    layers.set("service.busy_s", busy);
    layers.set(
        "service.us_per_arrival",
        ratio(busy * 1e6, fold.arrivals as f64),
    );
    layers.set("service.us_per_arrival_growth", growth);
    layers.set("service.arrivals", fold.arrivals as f64);
    layers.set("service.admitted", counters.admitted as f64);
    layers.set("service.shed", fold.shed as f64);
    layers.set("service.deferrals", fold.admission[0] as f64);
    layers.set("service.breaker_trips", fold.admission[2] as f64);
    layers.set("service.oom_kills", fold.oom_kills as f64);
    let f = &fold.faults;
    layers.set("service.retries", f.retries as f64);
    layers.set(
        "service.faults_delivered",
        (f.node_crashes
            + f.executor_crashes
            + f.monitor_dropouts
            + f.prediction_noise
            + f.spot_preemptions) as f64,
    );
    layers.set(
        "arrivals.generate_s",
        tracer.total_secs("arrivals.generate"),
    );
    layers.set("faults.generate_s", tracer.total_secs("faults.generate"));
    layers.set(
        "harness.baseline.busy_s",
        tracer.total_secs("harness.baseline.isolated_secs"),
    );
    layers.set("harness.baseline.hits", counters.baseline_hits as f64);
    layers.set("harness.baseline.misses", counters.baseline_misses as f64);
    let par_wall = tracer.total_secs("par.par_map_indexed");
    let par_busy = tracer.total_secs("par.item");
    layers.set("par.wall_s", par_wall);
    layers.set("par.busy_s", par_busy);
    layers.set(
        "par.efficiency",
        ratio(
            par_busy,
            par_wall * config.effective_workers().min(open.replications) as f64,
        ),
    );
    layers.set(
        "training.train_s",
        tracer.total_secs("training.trained_system_for"),
    );
    if let Some(system) = system.as_ref() {
        layers.set_table(&system.selections);
    }
    layers.set_overhead(traced_wall, untraced_wall, tracer.root_secs());

    Ok(RunReport {
        correct: fold.same(&reference),
        attempted: reference.arrivals as u64,
        failed,
        metrics: layers.into_metrics(),
        figures: Vec::new(),
        notes: vec![format!(
            "storm traced: run_service fold {} evaluate_openloop; growth probe full/half = {growth:.3}",
            if fold.same(&reference) { "matches" } else { "DIFFERS from" }
        )],
        spans: tracer.spans(),
    })
}

/// Per-arrival `run_service` cost of replication 0's full plan over that
/// of its first half, each run alone on the calling thread.
fn growth_probe(
    catalog: &Catalog,
    config: &RunConfig,
    system: Option<&TrainedSystem>,
    open: &OpenLoopSpec,
    (plan, faults): &(ArrivalPlan, FaultPlan),
    seed: u64,
) -> Result<f64, ColocateError> {
    let cfg = service_config(open, config);
    let half = ArrivalPlan::from_trace(
        plan.events()[..plan.len() / 2].to_vec(),
        plan.horizon_secs(),
    );
    let half_faults =
        FaultPlan::generate(seed ^ 0xC4A0_5EED, &fault_config(open, config, half.len()));
    let mut per_arrival = Vec::with_capacity(2);
    for (p, f) in [(plan, faults), (&half, &half_faults)] {
        let t0 = Instant::now();
        run_service(PolicyKind::Moe, catalog, p, system, &cfg, seed, Some(f))?;
        per_arrival.push(t0.elapsed().as_secs_f64() / p.len().max(1) as f64);
    }
    Ok(ratio(per_arrival[0], per_arrival[1]))
}
