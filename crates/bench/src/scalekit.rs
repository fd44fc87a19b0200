//! Shared workload builders for the cluster-scale sweep.
//!
//! `benches/scale.rs` (Criterion micro-benchmarks) and the `fig20_scale`
//! driver (the `results/BENCH_scale.json` record) measure the same hot
//! loop at growing node counts: **completion churn**, the scheduler's
//! inner loop (`next_completion` → `advance` → `complete` → respawn)
//! against a fully loaded engine with its per-node sharded rate cache.
//!
//! Keeping the builders here guarantees the bench and the driver measure
//! identical work.

use mlkit::regression::{CurveFamily, FittedCurve};
use sparklite::app::AppSpec;
use sparklite::cluster::ClusterSpec;
use sparklite::engine::ClusterEngine;
use sparklite::perf::InterferenceModel;

/// Executors per node in the scale engines (two co-located slices, the
/// paper's common case).
pub const EXECUTORS_PER_NODE: usize = 2;

/// Slice size (GB) of the `k`-th spawned executor: 250–495 GB, cycling so
/// completions stagger instead of arriving in lockstep cohorts.
#[must_use]
pub fn slice_gb(k: usize) -> f64 {
    250.0 + ((k * 37) % 50) as f64 * 5.0
}

fn scale_app(name: &str, cpu: f64) -> AppSpec {
    AppSpec {
        name: name.into(),
        // Effectively bottomless input: the respawn loop never drains it.
        input_gb: 1e15,
        rate_gb_per_s: 1.0,
        cpu_util: cpu,
        memory_curve: FittedCurve {
            family: CurveFamily::Linear,
            m: 0.02,
            b: 2.0,
        },
        footprint_noise_sd: 0.0,
    }
}

/// An engine with [`EXECUTORS_PER_NODE`] live executors on every node,
/// staggered slices, all comfortably inside RAM (cool shards).
#[must_use]
pub fn scale_engine(nodes: usize) -> ClusterEngine {
    let mut eng = ClusterEngine::new(ClusterSpec::with_nodes(nodes), InterferenceModel::default());
    let node_ids = eng.cluster().node_ids();
    let mut k = 0usize;
    for (i, &node) in node_ids.iter().enumerate() {
        for j in 0..EXECUTORS_PER_NODE {
            let app = eng.submit(scale_app(&format!("app{i}_{j}"), 0.3 + 0.05 * j as f64));
            eng.spawn_executor(app, node, slice_gb(k), 14.0)
                .expect("spawn fits")
                .expect("input available");
            k += 1;
        }
    }
    eng
}

/// One completion event, exactly as the scheduler's event loop performs
/// it: find the next finisher, advance everyone to that instant, retire
/// the finisher and respawn a fresh slice of its application in its place.
/// `k` indexes the respawn for slice staggering. Panics if the engine has
/// no live executors (the churn loops keep the population constant).
pub fn completion_step(eng: &mut ClusterEngine, k: usize) {
    let (dt, who) = eng.next_completion().expect("executors live");
    let (app, node) = {
        let e = eng.executor(who).expect("winner is live");
        (e.app(), e.node())
    };
    eng.advance(dt);
    eng.complete_executor(who).expect("winner finished");
    eng.spawn_executor(app, node, slice_gb(k), 14.0)
        .expect("respawn fits")
        .expect("input available");
}

/// Runs `events` completion events against `eng`, starting the slice
/// stagger at `k0`. Returns the next stagger index.
pub fn completion_churn(eng: &mut ClusterEngine, events: usize, k0: usize) -> usize {
    for k in k0..k0 + events {
        completion_step(eng, k);
    }
    k0 + events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_population() {
        let mut eng = scale_engine(3);
        assert_eq!(eng.live_executors(), 3 * EXECUTORS_PER_NODE);
        let k = completion_churn(&mut eng, 10, 3 * EXECUTORS_PER_NODE);
        assert_eq!(k, 3 * EXECUTORS_PER_NODE + 10);
        assert_eq!(eng.live_executors(), 3 * EXECUTORS_PER_NODE);
    }
}
