//! Opt-in journaled checkpointing for campaign runs.
//!
//! A campaign (see [`crate::harness::evaluate_chaos_checkpointed`], which
//! also runs every fault-free multi-policy campaign) folds per-mix results
//! into Welford accumulators strictly in mix-index order; the final
//! statistics are a pure function of that ordered fold sequence. This
//! module persists the sequence: each committed mix is appended to a
//! [`simkit::journal`] record log as one [`ChaosFold`] per entry, and on
//! restart the harness replays the journaled folds, skips the mixes they
//! cover, and continues — producing **bit-for-bit** the same
//! `ChaosStats`/`MultiPolicyStats` as an uninterrupted run, at any worker
//! count.
//!
//! The journal header binds the *campaign definition* ([`chaos_binding`]):
//! base seed, scenario, mix count, the entry list, every [`ChaosSpec`]
//! field, a catalog signature, and a signature of the scheduler +
//! training configuration. The worker count is deliberately **excluded**
//! — results are worker-count invariant, so a sweep started under
//! `SPARK_MOE_THREADS=4` may be resumed under `SPARK_MOE_THREADS=1` and
//! vice versa. Anything else differing (another seed, another policy
//! list, a changed catalog) is a different campaign, and
//! [`simkit::journal::Journal::open`] refuses to resume it.

use crate::harness::{ChaosEntry, ChaosSpec, RunConfig};
use crate::scheduler::FaultStats;
use crate::ColocateError;
use simkit::journal::{fnv64, wire, KillPoint};
use std::path::PathBuf;
use workloads::catalog::Catalog;
use workloads::mixes::MixScenario;

/// Opt-in checkpointing for a campaign run.
///
/// Passed to the `*_checkpointed` harness entry points. `path` is the
/// journal file for this specific campaign (one campaign, one file);
/// `flush_every` is the fsync cadence in committed folds (1 = every fold
/// durable, the default); `kill_point` arms deterministic abort injection
/// and exists for the kill–resume tests — leave it `None` in real runs.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Journal file backing this campaign.
    pub path: PathBuf,
    /// Fsync cadence, in committed folds (clamped to ≥ 1).
    pub flush_every: u32,
    /// Deterministic abort injection (test-only); see [`KillPoint`].
    pub kill_point: Option<KillPoint>,
}

impl CheckpointConfig {
    /// A config journaling to `path`, fsyncing every fold, no kill point.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            path: path.into(),
            flush_every: 1,
            kill_point: None,
        }
    }
}

/// Appends a length-prefixed string (unambiguous concatenation).
fn push_str(buf: &mut Vec<u8>, s: &str) {
    wire::put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// FNV-64 signature of the benchmark catalog: names, CPU utilisations,
/// processing rates and fitted memory curves. A campaign resumed against
/// an edited catalog would silently mix incompatible folds; this makes
/// the journal binding catch it.
#[must_use]
pub fn catalog_signature(catalog: &Catalog) -> u64 {
    let mut buf = Vec::new();
    for b in catalog.all() {
        push_str(&mut buf, &b.name());
        wire::put_f64(&mut buf, b.cpu_util());
        wire::put_f64(&mut buf, b.rate_gb_per_s());
        push_str(&mut buf, &format!("{:?}", b.curve()));
    }
    fnv64(&buf)
}

/// FNV-64 signature of the run configuration — scheduler plus training
/// settings. The worker count is **not** hashed: campaign results are
/// bit-for-bit identical for every worker count, so a journal may be
/// resumed under any `SPARK_MOE_THREADS` (that invariance is the header's
/// "thread-independence guarantee").
#[must_use]
pub fn config_signature(config: &RunConfig) -> u64 {
    let mut buf = Vec::new();
    push_str(&mut buf, &format!("{:?}", config.scheduler));
    push_str(&mut buf, &format!("{:?}", config.training));
    fnv64(&buf)
}

/// Header binding for an `evaluate_chaos` campaign (and so for every
/// `evaluate_scenario_multi` campaign, its zero-intensity case).
#[must_use]
pub fn chaos_binding(
    entries: &[ChaosEntry],
    scenario: MixScenario,
    catalog: &Catalog,
    config: &RunConfig,
    mixes: usize,
    base_seed: u64,
    chaos: &ChaosSpec,
) -> Vec<u8> {
    let mut buf = Vec::new();
    push_str(&mut buf, "chaos");
    wire::put_u64(&mut buf, base_seed);
    wire::put_u64(&mut buf, scenario.label as u64);
    wire::put_u64(&mut buf, scenario.apps as u64);
    wire::put_u64(&mut buf, catalog_signature(catalog));
    wire::put_u64(&mut buf, config_signature(config));
    wire::put_u64(&mut buf, mixes as u64);
    wire::put_u64(&mut buf, entries.len() as u64);
    for e in entries {
        push_str(&mut buf, e.label);
        push_str(&mut buf, e.policy.display_name());
        push_str(&mut buf, &format!("{:?}", e.resilience));
    }
    wire::put_f64(&mut buf, chaos.intensity);
    wire::put_f64(&mut buf, chaos.mean_outage_secs);
    wire::put_f64(&mut buf, chaos.mean_dropout_secs);
    wire::put_f64(&mut buf, chaos.noise_sd);
    wire::put_f64(&mut buf, chaos.horizon_frac);
    wire::put_f64(&mut buf, chaos.spot_rate);
    wire::put_f64(&mut buf, chaos.spot_warning_secs);
    wire::put_f64(&mut buf, chaos.noise_window_frac);
    buf
}

/// Per-entry fold of one chaos mix: normalized STP, ANTT reduction, OOM
/// kills, and the delivered fault/recovery counters.
pub type ChaosFold = (f64, f64, usize, FaultStats);

/// One committed chaos fold (all entries of one mix), raw bits.
#[must_use]
pub fn encode_chaos_folds(folds: &[ChaosFold]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(folds.len() * 88);
    for (stp, antt, ooms, f) in folds {
        wire::put_f64(&mut buf, *stp);
        wire::put_f64(&mut buf, *antt);
        wire::put_u64(&mut buf, *ooms as u64);
        wire::put_u64(&mut buf, f.node_crashes as u64);
        wire::put_u64(&mut buf, f.executor_crashes as u64);
        wire::put_u64(&mut buf, f.monitor_dropouts as u64);
        wire::put_u64(&mut buf, f.prediction_noise as u64);
        wire::put_f64(&mut buf, f.slices_requeued_gb);
        wire::put_u64(&mut buf, f.retries as u64);
        wire::put_u64(&mut buf, f.quarantines as u64);
        wire::put_u64(&mut buf, f.isolated_fallbacks as u64);
        wire::put_u64(&mut buf, f.spot_preemptions as u64);
        wire::put_u64(&mut buf, f.drains as u64);
    }
    buf
}

/// Decodes [`encode_chaos_folds`] for `expect` entries.
///
/// # Errors
///
/// [`ColocateError::Checkpoint`] when the payload length does not match.
pub fn decode_chaos_folds(payload: &[u8], expect: usize) -> Result<Vec<ChaosFold>, ColocateError> {
    let mut r = wire::Reader::new(payload);
    let mut folds = Vec::with_capacity(expect);
    for _ in 0..expect {
        let stp = r.f64()?;
        let antt = r.f64()?;
        let ooms = r.u64()? as usize;
        let faults = FaultStats {
            node_crashes: r.u64()? as usize,
            executor_crashes: r.u64()? as usize,
            monitor_dropouts: r.u64()? as usize,
            prediction_noise: r.u64()? as usize,
            slices_requeued_gb: r.f64()?,
            retries: r.u64()? as usize,
            quarantines: r.u64()? as usize,
            isolated_fallbacks: r.u64()? as usize,
            spot_preemptions: r.u64()? as usize,
            drains: r.u64()? as usize,
        };
        folds.push((stp, antt, ooms, faults));
    }
    if !r.exhausted() {
        return Err(ColocateError::Checkpoint(
            simkit::journal::JournalError::Corrupt(
                "chaos record longer than the entry set expects".into(),
            ),
        ));
    }
    Ok(folds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{PolicyKind, ResilienceConfig};

    #[test]
    fn chaos_folds_round_trip() {
        let fold: ChaosFold = (
            2.0,
            41.5,
            3,
            FaultStats {
                node_crashes: 1,
                executor_crashes: 2,
                monitor_dropouts: 3,
                prediction_noise: 4,
                slices_requeued_gb: 7.5,
                retries: 5,
                quarantines: 6,
                isolated_fallbacks: 7,
                spot_preemptions: 8,
                drains: 9,
            },
        );
        let back = decode_chaos_folds(&encode_chaos_folds(&[fold]), 1).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].2, 3);
        assert_eq!(back[0].3, fold.3);
    }

    #[test]
    fn bindings_separate_campaign_definitions() {
        let catalog = Catalog::paper();
        let cfg = RunConfig::default();
        let sc = MixScenario { label: 1, apps: 2 };
        let entry = |policy, resilience| ChaosEntry {
            label: "plain",
            policy,
            resilience,
        };
        let plain = [entry(PolicyKind::Moe, ResilienceConfig::default())];
        let spec = ChaosSpec::at_intensity(0.3);
        let bind = |entries: &[ChaosEntry], cfg: &RunConfig, seed: u64, spec: &ChaosSpec| {
            chaos_binding(entries, sc, &catalog, cfg, 4, seed, spec)
        };
        let a = bind(&plain, &cfg, 42, &spec);
        let oracle = [entry(PolicyKind::Oracle, ResilienceConfig::default())];
        let healed = [entry(PolicyKind::Moe, ResilienceConfig::self_healing())];
        let wide = ChaosSpec {
            noise_window_frac: 1.0,
            ..spec
        };
        for (what, other) in [
            ("base seed", bind(&plain, &cfg, 43, &spec)),
            ("policy", bind(&oracle, &cfg, 42, &spec)),
            ("resilience", bind(&healed, &cfg, 42, &spec)),
            (
                "intensity",
                bind(&plain, &cfg, 42, &ChaosSpec::at_intensity(0.5)),
            ),
            ("noise window", bind(&plain, &cfg, 42, &wide)),
        ] {
            assert_ne!(a, other, "{what} must be bound");
        }
        // Worker count is intentionally NOT bound.
        let mut threaded = cfg.clone();
        threaded.workers = Some(4);
        assert_eq!(
            a,
            bind(&plain, &threaded, 42, &spec),
            "worker count must not be bound"
        );
    }
}
