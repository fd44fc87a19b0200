//! Chaos invariants: the fault-injection layer must be strictly additive
//! (zero intensity reproduces the fault-free scheduler bit for bit), must
//! conserve work and terminate at every stress level, must stay
//! worker-count deterministic, and the self-healing configuration must
//! actually help where it claims to.

use colocate::harness::{
    evaluate_chaos, evaluate_scenario_multi, trained_system_for, ChaosEntry, ChaosSpec, RunConfig,
};
use colocate::scheduler::{
    run_schedule_custom, run_schedule_with_faults, PolicyKind, ResilienceConfig, SchedulerConfig,
};
use colocate::service::{evaluate_openloop, AdmissionConfig, OpenLoopEntry, OpenLoopSpec};
use colocate::ColocateError;
use simkit::arrivals::ArrivalProcess;
use simkit::faults::{FaultPlan, FaultPlanConfig};
use sparklite::cluster::ClusterSpec;
use workloads::{Catalog, MixScenario};

fn small_config(nodes: usize) -> SchedulerConfig {
    SchedulerConfig {
        cluster: ClusterSpec::small(nodes),
        ..Default::default()
    }
}

fn jobs_of(catalog: &Catalog, names: &[(&str, f64)]) -> Vec<(usize, f64)> {
    names
        .iter()
        .map(|&(n, gb)| (catalog.by_name(n).unwrap().index(), gb))
        .collect()
}

fn plan_for(jobs: usize, nodes: usize, intensity: f64, seed: u64) -> FaultPlan {
    FaultPlan::generate(
        seed,
        &FaultPlanConfig {
            intensity,
            horizon_secs: 4_000.0,
            nodes,
            apps: jobs,
            ..Default::default()
        },
    )
}

#[test]
fn zero_intensity_plan_is_bit_identical_to_fault_free() {
    let catalog = Catalog::paper();
    let config = small_config(4);
    let jobs = jobs_of(
        &catalog,
        &[
            ("HB.Sort", 130.0),
            ("HB.PageRank", 60.0),
            ("SP.glm-regression", 130.0),
            ("BDB.Grep", 130.0),
        ],
    );
    for policy in [PolicyKind::Oracle, PolicyKind::Pairwise] {
        let plain = run_schedule_custom(policy, &catalog, &jobs, None, &config, 21).unwrap();
        let chaos = run_schedule_with_faults(
            policy,
            &catalog,
            &jobs,
            None,
            &config,
            21,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(
            plain.makespan_secs.to_bits(),
            chaos.makespan_secs.to_bits(),
            "{policy:?}: empty plan must not change the makespan"
        );
        assert_eq!(plain.oom_kills, chaos.oom_kills);
        assert_eq!(plain.trace.len(), chaos.trace.len());
        for (a, b) in plain.per_app.iter().zip(chaos.per_app.iter()) {
            assert_eq!(a.finished_at.to_bits(), b.finished_at.to_bits());
            assert_eq!(a.ready_at.to_bits(), b.ready_at.to_bits());
        }
        assert_eq!(chaos.faults, Default::default(), "no faults delivered");
    }
}

#[test]
fn zero_intensity_campaign_matches_fault_free_campaign() {
    let catalog = Catalog::paper();
    let config = RunConfig {
        scheduler: small_config(4),
        ..Default::default()
    };
    let scenario = MixScenario { label: 1, apps: 2 };
    let baseline =
        evaluate_scenario_multi(&[PolicyKind::Oracle], scenario, &catalog, &config, 3, 33).unwrap();
    let chaos = evaluate_chaos(
        &[ChaosEntry {
            label: "Oracle",
            policy: PolicyKind::Oracle,
            resilience: ResilienceConfig::default(),
        }],
        scenario,
        &catalog,
        &config,
        3,
        33,
        &ChaosSpec::at_intensity(0.0),
    )
    .unwrap();
    assert_eq!(
        baseline.per_policy[0].stp_mean.to_bits(),
        chaos.per_entry[0].stp_mean.to_bits(),
        "zero-intensity chaos campaign must reproduce the fault-free STP bit for bit"
    );
    assert_eq!(
        baseline.per_policy[0].antt_mean.to_bits(),
        chaos.per_entry[0].antt_mean.to_bits()
    );
}

#[test]
fn faulted_schedules_conserve_work_and_terminate() {
    let catalog = Catalog::paper();
    let nodes = 4;
    let config = small_config(nodes);
    let jobs = jobs_of(
        &catalog,
        &[
            ("HB.Sort", 130.0),
            ("HB.PageRank", 60.0),
            ("SP.glm-regression", 130.0),
            ("BDB.Grep", 130.0),
            ("HB.WordCount", 130.0),
        ],
    );
    for intensity in [0.1, 0.3, 0.5] {
        let plan = plan_for(jobs.len(), nodes, intensity, 77);
        assert!(!plan.is_empty(), "intensity {intensity} draws faults");
        for resilience in [
            ResilienceConfig::default(),
            ResilienceConfig::self_healing(),
        ] {
            let config = SchedulerConfig {
                resilience,
                ..config.clone()
            };
            let out = run_schedule_with_faults(
                PolicyKind::Oracle,
                &catalog,
                &jobs,
                None,
                &config,
                77,
                &plan,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "intensity {intensity} (resilience {}) must terminate: {e}",
                    resilience.enabled
                )
            });
            // Work conservation: every application finishes, which the
            // engine only reports once every GB of its input has been
            // processed — crashed slices included.
            assert_eq!(out.per_app.len(), jobs.len());
            assert!(
                out.per_app.iter().all(|a| a.finished_at > 0.0),
                "intensity {intensity}: all apps must finish"
            );
            let last = out
                .per_app
                .iter()
                .map(|a| a.finished_at)
                .fold(0.0, f64::max);
            assert!(out.makespan_secs >= last - 1e-6);
            // The fault layer delivered what the plan scheduled (crashes
            // on executor-less nodes are silent no-ops, so delivered
            // executor crashes may undercount the plan).
            let delivered = out.faults;
            let total = delivered.node_crashes
                + delivered.executor_crashes
                + delivered.monitor_dropouts
                + delivered.prediction_noise;
            assert!(total <= plan.len());
            assert!(
                total > 0,
                "intensity {intensity}: some faults must land before the makespan"
            );
        }
    }
}

#[test]
fn chaos_campaigns_are_worker_count_deterministic() {
    let catalog = Catalog::paper();
    let entries = [
        ChaosEntry {
            label: "healed",
            policy: PolicyKind::Moe,
            resilience: ResilienceConfig::self_healing(),
        },
        ChaosEntry {
            label: "oracle",
            policy: PolicyKind::Oracle,
            resilience: ResilienceConfig::default(),
        },
    ];
    let scenario = MixScenario { label: 1, apps: 2 };
    let chaos = ChaosSpec::at_intensity(0.3);
    let run = |workers: usize| {
        let config = RunConfig {
            scheduler: small_config(4),
            workers: Some(workers),
            ..Default::default()
        };
        evaluate_chaos(&entries, scenario, &catalog, &config, 3, 55, &chaos).unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    for (a, b) in serial.per_entry.iter().zip(parallel.per_entry.iter()) {
        assert_eq!(a.stp_mean.to_bits(), b.stp_mean.to_bits(), "{}", a.label);
        assert_eq!(a.antt_mean.to_bits(), b.antt_mean.to_bits(), "{}", a.label);
        assert_eq!(a.stp_min_max.0.to_bits(), b.stp_min_max.0.to_bits());
        assert_eq!(a.stp_min_max.1.to_bits(), b.stp_min_max.1.to_bits());
        assert_eq!(a.faults, b.faults, "{}", a.label);
    }
}

#[test]
fn self_healing_beats_plain_moe_under_heavy_faults() {
    // The acceptance bar: at intensity >= 0.3 the self-healing MoE must
    // strictly improve ANTT over the same policy with recovery disabled,
    // on the same mixes under the same fault plans.
    let catalog = Catalog::paper();
    let nodes = 4;
    let base = small_config(nodes);
    let jobs = jobs_of(
        &catalog,
        &[
            ("SP.NaiveBayes", 100.0),
            ("BDB.NaivesBayes", 100.0),
            ("HB.Bayes", 100.0),
            ("SP.Pearson", 100.0),
            ("HB.Sort", 130.0),
            ("HB.Scan", 130.0),
        ],
    );
    let run_config = RunConfig {
        scheduler: base.clone(),
        ..Default::default()
    };
    let system = trained_system_for(PolicyKind::Moe, &catalog, &run_config, 19)
        .unwrap()
        .unwrap();
    let mut healed_antt = 0.0;
    let mut plain_antt = 0.0;
    for seed in [19u64, 20, 21] {
        let plan = plan_for(jobs.len(), nodes, 0.3, seed ^ 0xC4A0_5EED);
        let turnarounds = |resilience: ResilienceConfig| {
            let config = SchedulerConfig {
                resilience,
                ..base.clone()
            };
            let out = run_schedule_with_faults(
                PolicyKind::Moe,
                &catalog,
                &jobs,
                Some(&system),
                &config,
                seed,
                &plan,
            )
            .unwrap();
            out.per_app.iter().map(|a| a.finished_at).sum::<f64>() / out.per_app.len() as f64
        };
        // Lower mean turnaround == better ANTT (same fault-free isolated
        // denominators on both sides).
        healed_antt += turnarounds(ResilienceConfig::self_healing());
        plain_antt += turnarounds(ResilienceConfig::default());
    }
    assert!(
        healed_antt < plain_antt,
        "self-healing mean turnaround {:.0}s must strictly beat plain {:.0}s at intensity 0.3",
        healed_antt / 3.0,
        plain_antt / 3.0
    );
}

/// A malformed chaos spec is a typed configuration error from both
/// campaign runners, never a panic out of the fault-plan generator.
#[test]
fn invalid_chaos_specs_are_config_errors() {
    let catalog = Catalog::paper();
    let config = RunConfig {
        scheduler: small_config(4),
        workers: Some(1),
        ..Default::default()
    };
    let entries = [ChaosEntry {
        label: "oracle",
        policy: PolicyKind::Oracle,
        resilience: ResilienceConfig::default(),
    }];
    let err = evaluate_chaos(
        &entries,
        MixScenario { label: 1, apps: 2 },
        &catalog,
        &config,
        1,
        7,
        &ChaosSpec::at_intensity(-0.1),
    )
    .unwrap_err();
    assert!(matches!(err, ColocateError::Config(_)), "got: {err}");

    let spec = OpenLoopSpec {
        process: ArrivalProcess::Poisson { rate_per_sec: 0.01 },
        horizon_secs: 1_000.0,
        tenants: 1,
        tenant_weights: Vec::new(),
        job_classes: jobs_of(&catalog, &[("HB.Sort", 30.0)]),
        max_jobs: 2,
        chaos: ChaosSpec {
            intensity: 0.3,
            noise_window_frac: 1.5,
            ..ChaosSpec::default()
        },
        replications: 1,
    };
    let open = [OpenLoopEntry {
        label: "oracle",
        policy: PolicyKind::Oracle,
        admission: AdmissionConfig::default(),
        resilience: ResilienceConfig::default(),
    }];
    let err = evaluate_openloop(&open, &catalog, &config, &spec, 7).unwrap_err();
    assert!(matches!(err, ColocateError::Config(_)), "got: {err}");
}
