//! Golden pin of the open-system service: two seeded `run_service` runs
//! must reproduce their recorded outcomes bit for bit. Each run folds
//! every job's fate (arrival, admission and finish bits, shed flag), the
//! makespan, the admission-layer counters (sheds, deferrals, abstain
//! placements, queue depths), the audit record and the fault counters into
//! one FNV-64 digest, so any drift in arrival delivery, WFQ admission,
//! shedding, placement, recovery or time advancement shows up here.
//!
//! * `controlled` — MoE behind `AdmissionConfig::controlled()` with
//!   self-healing on, under a spot + prediction-noise fault storm: the
//!   shed, defer and retry paths all fire.
//! * `open` — Oracle with admission disabled and staggered Poisson
//!   arrivals, one job class small enough that profiling credit alone
//!   finishes it: jobs that have not arrived yet must stay invisible to
//!   placement and to the event loop's next-instant search.

use colocate::harness::{trained_system_for, RunConfig};
use colocate::scheduler::{PolicyKind, ResilienceConfig, SchedulerConfig};
use colocate::service::{run_service, AdmissionConfig, ServiceConfig, ServiceOutcome};
use simkit::arrivals::{ArrivalPlan, ArrivalPlanConfig, ArrivalProcess};
use simkit::faults::{FaultPlan, FaultPlanConfig};
use sparklite::cluster::ClusterSpec;
use workloads::Catalog;

/// `(controlled digest, open digest)`.
const GOLDEN: (u64, u64) = (0x5bfa_9e58_4d39_f4c8, 0x17f8_0ea1_7d14_7500);

const SEED: u64 = 41;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, x: Option<f64>) {
        match x {
            Some(v) => {
                self.word(1);
                self.word(v.to_bits());
            }
            None => self.word(0),
        }
    }
}

fn digest(out: &ServiceOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(out.jobs.len() as u64);
    for job in &out.jobs {
        h.word(job.benchmark as u64);
        h.word(job.input_gb.to_bits());
        h.word(job.tenant as u64);
        h.word(job.arrived_at.to_bits());
        h.opt(job.admitted_at);
        h.opt(job.finished_at);
        h.word(u64::from(job.shed));
    }
    h.word(out.makespan_secs.to_bits());
    for count in [
        out.oom_kills,
        out.shed_jobs,
        out.deferrals,
        out.abstain_placements,
        out.breaker_trips,
        out.max_queue_depth,
    ] {
        h.word(count as u64);
    }
    h.word(out.mean_queue_depth.to_bits());
    let a = &out.audit;
    h.word(a.peak_committed_gb.to_bits());
    for count in [
        a.overbook_events,
        a.negative_commit_events,
        a.wfq_order_violations,
        a.quiet_breaker_reopens,
        a.nonfinite_quarantines,
    ] {
        h.word(count as u64);
    }
    h.word(u64::from(a.final_breaker_open));
    let f = &out.faults;
    for count in [
        f.node_crashes,
        f.executor_crashes,
        f.monitor_dropouts,
        f.prediction_noise,
        f.retries,
        f.quarantines,
        f.isolated_fallbacks,
        f.spot_preemptions,
        f.drains,
    ] {
        h.word(count as u64);
    }
    h.word(f.slices_requeued_gb.to_bits());
    h.0
}

fn classes(catalog: &Catalog, named: &[(&str, f64)]) -> Vec<(usize, f64)> {
    named
        .iter()
        .map(|&(n, gb)| (catalog.by_name(n).unwrap().index(), gb))
        .collect()
}

fn poisson(rate_per_sec: f64, horizon_secs: f64, tenants: usize, classes: usize) -> ArrivalPlan {
    ArrivalPlan::generate(
        SEED ^ 0xA441_5EED,
        &ArrivalPlanConfig {
            process: ArrivalProcess::Poisson { rate_per_sec },
            horizon_secs,
            tenants,
            job_classes: classes,
            max_jobs: 0,
        },
    )
}

fn controlled_run(catalog: &Catalog, sched: &SchedulerConfig) -> ServiceOutcome {
    let run_config = RunConfig {
        scheduler: sched.clone(),
        ..Default::default()
    };
    let system = trained_system_for(PolicyKind::Moe, catalog, &run_config, SEED)
        .unwrap()
        .unwrap();
    let job_classes = classes(
        catalog,
        &[
            ("HB.Sort", 20.0),
            ("SP.NaiveBayes", 40.0),
            ("HB.PageRank", 20.0),
            ("BDB.Grep", 40.0),
            ("SP.Kmeans", 30.0),
        ],
    );
    let horizon = 6_000.0;
    let plan = poisson(0.004, horizon, 3, job_classes.len());
    let faults = FaultPlan::generate(
        SEED ^ 0xC4A0_5EED,
        &FaultPlanConfig {
            intensity: 1.0,
            horizon_secs: horizon,
            nodes: sched.cluster.nodes,
            apps: plan.len(),
            spot_rate: 1.0,
            noise_sd: 1.5,
            noise_window_frac: 1.0,
            ..Default::default()
        },
    );
    let config = ServiceConfig {
        scheduler: SchedulerConfig {
            resilience: ResilienceConfig::self_healing(),
            ..sched.clone()
        },
        admission: AdmissionConfig::controlled(),
        tenant_weights: vec![1.0, 2.0, 0.5],
        job_classes,
    };
    run_service(
        PolicyKind::Moe,
        catalog,
        &plan,
        Some(&system),
        &config,
        SEED,
        Some(&faults),
    )
    .unwrap()
}

fn open_run(catalog: &Catalog, sched: &SchedulerConfig) -> ServiceOutcome {
    let job_classes = classes(
        catalog,
        &[
            ("HB.Sort", 0.05),
            ("HB.PageRank", 60.0),
            ("BDB.Grep", 30.0),
            ("SP.Pearson", 120.0),
        ],
    );
    let plan = poisson(0.004, 8_000.0, 2, job_classes.len());
    let config = ServiceConfig {
        scheduler: sched.clone(),
        admission: AdmissionConfig::default(),
        tenant_weights: Vec::new(),
        job_classes,
    };
    run_service(
        PolicyKind::Oracle,
        catalog,
        &plan,
        None,
        &config,
        SEED,
        None,
    )
    .unwrap()
}

#[test]
fn open_loop_runs_reproduce_their_pinned_outcomes() {
    let catalog = Catalog::paper();
    let sched = SchedulerConfig {
        cluster: ClusterSpec::small(4),
        ..Default::default()
    };
    let controlled = controlled_run(&catalog, &sched);
    let open = open_run(&catalog, &sched);

    // Sized so the pin covers shedding, backpressure and retries, not only
    // the happy path.
    assert!(controlled.shed_jobs > 0, "no job was shed");
    assert!(controlled.deferrals > 0, "no admission was deferred");
    assert!(controlled.faults.retries > 0, "no retry was scheduled");
    // A job small enough for profiling credit to finish it arrives after
    // the first scheduling instant, while earlier jobs are running.
    assert!(
        open.jobs
            .iter()
            .any(|j| j.input_gb < 1.0 && j.arrived_at > 0.0),
        "no late credit-finished job"
    );
    assert_eq!(open.shed_jobs, 0);

    let actual = (digest(&controlled), digest(&open));
    assert_eq!(
        actual, GOLDEN,
        "open-loop runs drifted from their pinned outcomes: {actual:#x?}"
    );
}
