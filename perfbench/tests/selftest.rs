//! Self-test of the benchmark: every workload at a tiny size passes all
//! its checks, and a deliberately perturbed reference is reported as
//! failed operations, so the checks are not vacuous.

use colocate::harness::RunConfig;
use spark_moe_perfbench::campaign::{self, CampaignSpec};
use spark_moe_perfbench::serve::{self, ServeSpec, Stream};
use spark_moe_perfbench::storm::{self, StormSpec};
use spark_moe_perfbench::trace::Tracer;
use spark_moe_perfbench::{host, layer_metric_names, E2E_METRICS};
use workloads::Catalog;

const SEED: u64 = 7;

fn config() -> RunConfig {
    RunConfig {
        workers: Some(2),
        ..RunConfig::default()
    }
}

fn flip(v: f64) -> f64 {
    f64::from_bits(v.to_bits() ^ 1)
}

#[test]
fn campaign_passes_its_checks_and_catches_a_perturbed_fold() {
    let (spec, config) = (CampaignSpec::tiny(), config());
    let run = campaign::run(&spec, &config, SEED, 0.01).expect("untraced run");
    assert!(run.correct, "{:?}", run.notes);
    assert_eq!(run.failed, 0);
    assert!(run.attempted >= spec.replays());
    let traced = campaign::traced(&spec, &config, SEED).expect("traced run");
    assert!(traced.correct && traced.failed == 0, "{:?}", traced.notes);

    let catalog = Catalog::paper();
    let reference = campaign::entry_pass(&catalog, &config, &spec, SEED).expect("entry pass");
    assert_eq!(campaign::count_failures(&reference, &reference, &spec), 0);
    let mut perturbed = reference.clone();
    perturbed[1][2].stp[0] = flip(perturbed[1][2].stp[0]);
    assert_eq!(
        campaign::count_failures(&perturbed, &reference, &spec),
        spec.mixes as u64,
        "one flipped bit fails that scenario-policy's replays"
    );
}

#[test]
fn storm_passes_its_checks_and_catches_a_perturbed_fold() {
    let (spec, config) = (StormSpec::tiny(), config());
    let run = storm::run(&spec, &config, SEED, 0.01).expect("untraced run");
    assert!(run.correct && run.failed == 0, "{:?}", run.notes);
    let traced = storm::traced(&spec, &config, SEED).expect("traced run");
    assert!(traced.correct && traced.failed == 0, "{:?}", traced.notes);

    let catalog = Catalog::paper();
    let open = storm::open_spec(&catalog, &config, &spec, SEED).expect("open-loop spec");
    let reference = storm::entry_pass(&catalog, &config, &open, SEED).expect("entry pass");
    assert!(reference.arrivals > 0);
    assert_eq!(
        storm::count_failures(&reference, &reference),
        reference.failed(),
        "a matching pass fails only its lost arrivals"
    );
    assert_eq!(reference.failed(), 0, "every arrival is finished or shed");
    let mut perturbed = reference;
    perturbed.floats[2] = flip(perturbed.floats[2]);
    assert_eq!(
        storm::count_failures(&perturbed, &reference),
        reference.arrivals as u64
    );
}

#[test]
fn storm_reproduction_matches_the_entry_point() {
    let (spec, config) = (StormSpec::tiny(), config());
    let catalog = Catalog::paper();
    let open = storm::open_spec(&catalog, &config, &spec, SEED).expect("open-loop spec");
    let system = colocate::harness::trained_system_for(
        colocate::scheduler::PolicyKind::Moe,
        &catalog,
        &config,
        SEED,
    )
    .expect("training");
    let plans = storm::plans(&open, &config, SEED, &Tracer::new());
    let (fold, _) = storm::reproduce(
        &catalog,
        &config,
        system.as_ref(),
        &open,
        &plans,
        SEED,
        &Tracer::new(),
    )
    .expect("reproduction");
    let reference = storm::entry_pass(&catalog, &config, &open, SEED).expect("entry pass");
    assert!(fold.same(&reference), "{fold:?} vs {reference:?}");
}

#[test]
fn serve_passes_its_checks_and_catches_a_perturbed_oracle() {
    let (spec, config) = (ServeSpec::tiny(), config());
    let run = serve::run(&spec, &config, SEED, 0.01).expect("untraced run");
    assert!(run.correct && run.failed == 0, "{:?}", run.notes);
    let traced = serve::traced(&spec, &config, SEED).expect("traced run");
    assert!(traced.correct && traced.failed == 0, "{:?}", traced.notes);

    let catalog = Catalog::paper();
    let system = colocate::harness::trained_system_for(
        colocate::scheduler::PolicyKind::Moe,
        &catalog,
        &config,
        SEED,
    )
    .expect("training")
    .expect("MoE trains a system");
    let stream = Stream::generate(&catalog, SEED, &spec);
    assert!(
        stream.observations.len() < spec.requests,
        "the pool is re-submitted"
    );
    let mut oracle = serve::oracle(&system.predictor, &stream).expect("oracle");
    let pass = serve::pass(&system.predictor, stream.inputs(), false).expect("pass");
    assert_eq!(serve::count_failures(&stream, &oracle, &pass.selections), 0);
    oracle[0].distance = flip(oracle[0].distance);
    let uses = stream.requests.iter().filter(|&&k| k == 0).count() as u64;
    assert_eq!(
        serve::count_failures(&stream, &oracle, &pass.selections),
        uses,
        "every request for the perturbed observation fails"
    );
}

#[test]
fn host_unit_repeats_the_same_work() {
    let (mut a, mut b) = (host::Unit::new(), host::Unit::new());
    let first = a.run();
    assert_eq!(a.run(), first, "a reused unit does the work of a fresh one");
    assert_eq!(b.run(), first);
}

#[test]
fn benchmark_json_lists_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in E2E_METRICS {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "end-to-end metric {name} missing");
    }
    for (name, unit) in layer_metric_names() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "per-layer metric {name} missing");
    }
}
