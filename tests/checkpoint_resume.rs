//! Kill-resume equivalence for checkpointed campaigns (DESIGN.md §10).
//!
//! A campaign killed at a deterministic point — after N journal appends,
//! optionally mid-append with a torn trailing record — and then resumed
//! must produce bit-for-bit the statistics of an uninterrupted run, at
//! `SPARK_MOE_THREADS = 1` and under real fan-out alike, because the
//! stats are a pure function of the index-ordered fold sequence the
//! journal replays.

use colocate::checkpoint::CheckpointConfig;
use colocate::harness::{
    evaluate_chaos, evaluate_chaos_checkpointed, evaluate_scenario_multi,
    evaluate_scenario_multi_checkpointed, ChaosEntry, ChaosSpec, MultiPolicyStats, RunConfig,
    ScenarioStats,
};
use colocate::scheduler::{PolicyKind, ResilienceConfig, SchedulerConfig};
use colocate::ColocateError;
use simkit::journal::{JournalError, KillPoint};
use sparklite::cluster::ClusterSpec;
use std::path::PathBuf;
use workloads::{Catalog, MixScenario};

fn config(workers: usize) -> RunConfig {
    RunConfig {
        scheduler: SchedulerConfig {
            cluster: ClusterSpec::small(4),
            ..Default::default()
        },
        workers: Some(workers),
        ..Default::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ckpt_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SCENARIO: MixScenario = MixScenario { label: 1, apps: 2 };
const SEED: u64 = 33;

fn assert_scenario_stats_bitwise_eq(a: &ScenarioStats, b: &ScenarioStats, what: &str) {
    assert_eq!(a.mixes, b.mixes, "{what}: mix count");
    assert_eq!(
        a.stp_mean.to_bits(),
        b.stp_mean.to_bits(),
        "{what}: stp mean"
    );
    assert_eq!(
        a.stp_min_max.0.to_bits(),
        b.stp_min_max.0.to_bits(),
        "{what}: stp min"
    );
    assert_eq!(
        a.stp_min_max.1.to_bits(),
        b.stp_min_max.1.to_bits(),
        "{what}: stp max"
    );
    assert_eq!(
        a.antt_mean.to_bits(),
        b.antt_mean.to_bits(),
        "{what}: antt mean"
    );
    assert_eq!(
        a.antt_min_max.0.to_bits(),
        b.antt_min_max.0.to_bits(),
        "{what}: antt min"
    );
    assert_eq!(
        a.antt_min_max.1.to_bits(),
        b.antt_min_max.1.to_bits(),
        "{what}: antt max"
    );
}

fn assert_kill_point(err: &ColocateError) {
    assert!(
        matches!(
            err,
            ColocateError::Checkpoint(JournalError::KillPoint { .. })
        ),
        "expected kill-point abort, got: {err}"
    );
}

fn assert_multi_stats_bitwise_eq(a: &MultiPolicyStats, b: &MultiPolicyStats, what: &str) {
    assert_eq!(
        a.per_policy.len(),
        b.per_policy.len(),
        "{what}: policy count"
    );
    for (x, y) in a.per_policy.iter().zip(&b.per_policy) {
        assert_scenario_stats_bitwise_eq(x, y, what);
    }
}

const POLICIES: [PolicyKind; 2] = [PolicyKind::Oracle, PolicyKind::Pairwise];

/// A crash mid-append leaves a torn trailing record; recovery drops the
/// torn bytes, recomputes that one replay, and still matches the
/// uninterrupted run bit for bit.
#[test]
fn torn_final_record_is_dropped_and_recomputed() {
    let catalog = Catalog::paper();
    let baseline =
        evaluate_scenario_multi(&POLICIES, SCENARIO, &catalog, &config(1), 4, SEED).unwrap();

    let dir = tmp_dir("torn");
    let mut ckpt = CheckpointConfig::new(dir.join("campaign.journal"));
    ckpt.kill_point = Some(KillPoint {
        after_appends: 1,
        torn: true,
    });
    let err = evaluate_scenario_multi_checkpointed(
        &POLICIES,
        SCENARIO,
        &catalog,
        &config(1),
        4,
        SEED,
        Some(&ckpt),
    )
    .unwrap_err();
    assert_kill_point(&err);

    ckpt.kill_point = None;
    let resumed = evaluate_scenario_multi_checkpointed(
        &POLICIES,
        SCENARIO,
        &catalog,
        &config(4),
        4,
        SEED,
        Some(&ckpt),
    )
    .unwrap();
    assert_multi_stats_bitwise_eq(&baseline, &resumed, "resume past torn tail");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Shared-mix multi-policy campaigns resume identically too — the Fig. 6
/// shape — at both worker counts.
#[test]
fn multi_policy_kill_resume_is_bitwise_identical() {
    let catalog = Catalog::paper();
    let baseline =
        evaluate_scenario_multi(&POLICIES, SCENARIO, &catalog, &config(1), 4, SEED).unwrap();

    let dir = tmp_dir("multi");
    let mut ckpt = CheckpointConfig::new(dir.join("campaign.journal"));
    ckpt.kill_point = Some(KillPoint {
        after_appends: 2,
        torn: false,
    });
    let err = evaluate_scenario_multi_checkpointed(
        &POLICIES,
        SCENARIO,
        &catalog,
        &config(1),
        4,
        SEED,
        Some(&ckpt),
    )
    .unwrap_err();
    assert_kill_point(&err);

    ckpt.kill_point = None;
    for workers in [1usize, 4] {
        let resumed = evaluate_scenario_multi_checkpointed(
            &POLICIES,
            SCENARIO,
            &catalog,
            &config(workers),
            4,
            SEED,
            Some(&ckpt),
        )
        .unwrap();
        assert_multi_stats_bitwise_eq(
            &baseline,
            &resumed,
            &format!("multi resume at workers={workers}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos campaign killed mid fault plan resumes to byte-identical
/// machine-readable output: the `BENCH_*.json` record of the resumed run
/// equals the uninterrupted run's, byte for byte.
#[test]
fn chaos_mid_plan_resume_yields_byte_identical_json() {
    let catalog = Catalog::paper();
    let entries = [
        ChaosEntry {
            label: "Oracle",
            policy: PolicyKind::Oracle,
            resilience: ResilienceConfig::self_healing(),
        },
        ChaosEntry {
            label: "Pairwise",
            policy: PolicyKind::Pairwise,
            resilience: ResilienceConfig::default(),
        },
    ];
    let chaos = ChaosSpec::at_intensity(0.3);
    let baseline =
        evaluate_chaos(&entries, SCENARIO, &catalog, &config(1), 4, SEED, &chaos).unwrap();
    let baseline_json = bench_suite::report::chaos_stats_json(&[baseline]);

    let dir = tmp_dir("chaos");
    let mut ckpt = CheckpointConfig::new(dir.join("campaign.journal"));
    // One journal record commits per mix; aborting after two leaves the
    // campaign mid-plan (faults delivered for mixes 0–1, none beyond).
    ckpt.kill_point = Some(KillPoint {
        after_appends: 2,
        torn: true,
    });
    let err = evaluate_chaos_checkpointed(
        &entries,
        SCENARIO,
        &catalog,
        &config(1),
        4,
        SEED,
        &chaos,
        Some(&ckpt),
    )
    .unwrap_err();
    assert_kill_point(&err);

    ckpt.kill_point = None;
    for workers in [1usize, 4] {
        let resumed = evaluate_chaos_checkpointed(
            &entries,
            SCENARIO,
            &catalog,
            &config(workers),
            4,
            SEED,
            &chaos,
            Some(&ckpt),
        )
        .unwrap();
        let resumed_json = bench_suite::report::chaos_stats_json(&[resumed]);
        assert_eq!(
            baseline_json, resumed_json,
            "chaos JSON record must be byte-identical after resume (workers={workers})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal belongs to exactly one campaign definition: reusing the file
/// with a different base seed is refused with a typed binding mismatch
/// instead of silently mixing folds from different campaigns.
#[test]
fn journal_refuses_a_different_campaign_definition() {
    let catalog = Catalog::paper();
    let dir = tmp_dir("binding");
    let ckpt = CheckpointConfig::new(dir.join("campaign.journal"));
    let run = |seed: u64| {
        evaluate_scenario_multi_checkpointed(
            &POLICIES,
            SCENARIO,
            &catalog,
            &config(1),
            3,
            seed,
            Some(&ckpt),
        )
    };
    run(SEED).unwrap();

    let err = run(SEED + 1).unwrap_err();
    assert!(
        matches!(
            err,
            ColocateError::Checkpoint(JournalError::BindingMismatch { .. })
        ),
        "expected binding mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
