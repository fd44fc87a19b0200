//! Golden pin of the closed-system scheduler: every policy, fault-free and
//! under a seeded fault storm with self-healing on, must reproduce the
//! recorded schedule bit for bit. Each run folds its makespan, per-app
//! ready/finish times, OOM kills, trace length, one trace row and fault
//! counters into one FNV-64 digest, so any drift in placement, OOM
//! resolution, fault delivery, retry or time advancement shows up here
//! by policy and mode.

use colocate::harness::{trained_systems_for, RunConfig};
use colocate::scheduler::{
    run_schedule_custom, run_schedule_with_faults, PolicyKind, ResilienceConfig, ScheduleOutcome,
    SchedulerConfig,
};
use simkit::faults::{FaultPlan, FaultPlanConfig};
use sparklite::cluster::ClusterSpec;
use workloads::Catalog;

const POLICIES: [PolicyKind; 10] = [
    PolicyKind::Isolated,
    PolicyKind::Pairwise,
    PolicyKind::OnlineSearch,
    PolicyKind::Quasar,
    PolicyKind::Moe,
    PolicyKind::UnifiedLinear,
    PolicyKind::UnifiedExponential,
    PolicyKind::UnifiedLog,
    PolicyKind::UnifiedAnn,
    PolicyKind::Oracle,
];

/// `(fault-free digest, faulted digest)` per entry of [`POLICIES`].
const GOLDEN: [(u64, u64); 10] = [
    (0x32e9_54e8_897a_81a0, 0x5e04_c18d_e585_b8ea), // Isolated
    (0xf6b6_fd84_a5fc_618c, 0x233d_4229_aff1_8b0f), // Pairwise
    (0x0b66_f2e5_7e2f_59fb, 0x3ee0_3bbc_5d3a_4337), // OnlineSearch
    (0x59fe_e562_c590_6f39, 0x7530_af46_f02c_2fc1), // Quasar
    (0x5223_7aeb_5f5d_8579, 0xd17f_b9ed_80eb_c266), // Moe
    (0x2e3d_a031_778c_e6ff, 0xab90_e9ec_700e_51f1), // UnifiedLinear
    (0x66eb_3add_7646_dc45, 0x3173_4488_a8ac_7d7c), // UnifiedExponential
    (0x68cd_ba54_0d27_6e9b, 0x7003_9f87_6171_8f82), // UnifiedLog
    (0xe320_b1ab_db01_d197, 0x93d4_8fb7_ba8c_1fb3), // UnifiedAnn
    (0xeb5a_48b2_c507_bb60, 0xb522_492d_efd9_42bd), // Oracle
];

const SEED: u64 = 29;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(out: &ScheduleOutcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(out.makespan_secs.to_bits());
    for app in &out.per_app {
        h.word(app.ready_at.to_bits());
        h.word(app.finished_at.to_bits());
    }
    h.word(out.oom_kills as u64);
    h.word(out.trace.len() as u64);
    let (t, loads) = &out.trace[out.trace.len() / 2];
    h.word(t.to_bits());
    for load in loads {
        h.word(load.to_bits());
    }
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

#[test]
fn every_policy_reproduces_its_pinned_schedule() {
    let catalog = Catalog::paper();
    let sched = SchedulerConfig {
        cluster: ClusterSpec::small(4),
        ..Default::default()
    };
    let healing = SchedulerConfig {
        resilience: ResilienceConfig::self_healing(),
        ..sched.clone()
    };
    let run_config = RunConfig {
        scheduler: sched.clone(),
        ..Default::default()
    };
    let jobs: Vec<(usize, f64)> = [
        ("HB.Sort", 130.0),
        ("SP.NaiveBayes", 250.0),
        ("BDB.NaivesBayes", 250.0),
        ("HB.Bayes", 250.0),
        ("SP.Pearson", 250.0),
        ("SP.NaiveBayes", 250.0),
    ]
    .iter()
    .map(|&(n, gb)| (catalog.by_name(n).unwrap().index(), gb))
    .collect();
    let plan = FaultPlan::generate(
        SEED ^ 0xC4A0_5EED,
        &FaultPlanConfig {
            intensity: 1.0,
            horizon_secs: 4_000.0,
            nodes: 4,
            apps: jobs.len(),
            spot_rate: 1.0,
            noise_sd: 1.5,
            noise_window_frac: 1.0,
            ..Default::default()
        },
    );
    let systems = trained_systems_for(&POLICIES, &catalog, &run_config, SEED).unwrap();

    let mut actual = Vec::new();
    let (mut plain_ooms, mut faulted_ooms, mut quarantines, mut fallbacks) = (0, 0, 0, 0);
    for (policy, system) in POLICIES.iter().zip(&systems) {
        let plain =
            run_schedule_custom(*policy, &catalog, &jobs, system.as_ref(), &sched, SEED).unwrap();
        let faulted = run_schedule_with_faults(
            *policy,
            &catalog,
            &jobs,
            system.as_ref(),
            &healing,
            SEED,
            &plan,
        )
        .unwrap();
        assert_eq!(plain.faults, Default::default(), "{policy:?}");
        assert!(
            faulted.faults.node_crashes + faulted.faults.spot_preemptions > 0,
            "{policy:?}: the storm must deliver node faults"
        );
        plain_ooms += plain.oom_kills;
        faulted_ooms += faulted.oom_kills;
        quarantines += faulted.faults.quarantines;
        fallbacks += faulted.faults.isolated_fallbacks;
        actual.push((digest(&plain), digest(&faulted)));
    }
    // The mix is sized so the pin covers OOM resolution, node quarantine
    // and isolated fallback, not only the happy path.
    assert!(plain_ooms > 0 && faulted_ooms > 0 && quarantines > 0 && fallbacks > 0);
    for ((policy, got), want) in POLICIES.iter().zip(&actual).zip(&GOLDEN) {
        assert_eq!(
            got, want,
            "{policy:?} drifted from its pinned schedule; all digests: {actual:#x?}"
        );
    }
}
