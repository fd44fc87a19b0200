//! `serve`: the prediction-serving front end under a single client.
//!
//! One client thread drives a closed loop through
//! `BatchPredictor::submit`/`poll`/`flush` (`max_batch` 256) over a fresh
//! `PredictionTable` per pass. The seeded request stream draws fresh
//! profiling observations over the catalog; after a warm-up pool fills,
//! half of the requests re-submit an observation from that fixed pool, so
//! the table is insert-heavy and grows with every fresh request. The
//! predictor is the one a deployment loads: trained, written to a
//! `ModelArtifact`, read back and reassembled.
//!
//! An operation is one request. A request fails when its pass errors or
//! its selection differs bitwise from scalar `MoePredictor::select` on the
//! trained (not round-tripped) predictor, computed outside the timed
//! region.

use crate::trace::Tracer;
use crate::{median_peak_rss, percentile, ratio, repeat_for, same_bits, Layers, Metric, RunReport};
use colocate::harness::{trained_system_for, RunConfig};
use colocate::predictors::PredictionTable;
use colocate::scheduler::PolicyKind;
use colocate::serving::{BatchConfig, BatchPredictor, ModelArtifact};
use colocate::training::TrainedSystem;
use colocate::ColocateError;
use moe_core::features::FeatureVector;
use moe_core::{MoeError, MoePredictor, Selection};
use simkit::SimRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use workloads::{signatures, Catalog};

/// The client's clock advances this much per request (seconds): far below
/// the batcher's 10 ms deadline, so every dispatch is size-triggered and
/// the cut points repeat exactly.
const CLIENT_TICK_SECS: f64 = 1e-6;

/// Size of the request stream.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Requests per pass.
    pub requests: usize,
    /// Fresh observations that form the re-submission pool.
    pub pool: usize,
}

/// Batch size that triggers a dispatch.
const MAX_BATCH: usize = 256;

impl ServeSpec {
    /// The benchmark's size: 2^18 requests, a 1,024-observation pool.
    #[must_use]
    pub fn paper() -> Self {
        ServeSpec {
            requests: 1 << 18,
            pool: 1024,
        }
    }

    /// A size for self-tests.
    #[must_use]
    pub fn tiny() -> Self {
        ServeSpec {
            requests: 2000,
            pool: 64,
        }
    }
}

/// A seeded request stream: distinct observations and, per request, the
/// index of the observation it submits.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Distinct observations, in first-submission order.
    pub observations: Vec<FeatureVector>,
    /// Observation index of each request.
    pub requests: Vec<usize>,
}

impl Stream {
    /// Draws the stream for `seed`.
    #[must_use]
    pub fn generate(catalog: &Catalog, seed: u64, spec: &ServeSpec) -> Self {
        let mut rng = SimRng::seed_from(seed ^ 0x5E27_E5EE);
        let benches = catalog.all();
        let mut observations = Vec::new();
        let mut requests = Vec::with_capacity(spec.requests);
        for _ in 0..spec.requests {
            if observations.len() >= spec.pool && rng.unit() < 0.5 {
                requests.push(rng.uniform_usize(0, spec.pool - 1));
            } else {
                let b = rng.uniform_usize(0, benches.len() - 1);
                observations.push(signatures::observe_default(&benches[b], &mut rng));
                requests.push(observations.len() - 1);
            }
        }
        Stream {
            observations,
            requests,
        }
    }

    /// The requests as owned feature vectors, ready to submit.
    #[must_use]
    pub fn inputs(&self) -> Vec<FeatureVector> {
        self.requests
            .iter()
            .map(|&k| self.observations[k].clone())
            .collect()
    }
}

/// Scalar `select` of every distinct observation: the bitwise oracle.
///
/// # Errors
///
/// Propagates selection failures.
pub fn oracle(predictor: &MoePredictor, stream: &Stream) -> Result<Vec<Selection>, MoeError> {
    stream
        .observations
        .iter()
        .map(|f| predictor.select(f))
        .collect()
}

/// Requests whose selection is missing or differs bitwise from the
/// oracle.
#[must_use]
pub fn count_failures(stream: &Stream, oracle: &[Selection], got: &[Option<Selection>]) -> u64 {
    stream
        .requests
        .iter()
        .enumerate()
        .filter(|&(i, &k)| {
            let want = &oracle[k];
            !got.get(i).copied().flatten().is_some_and(|s| {
                s.expert == want.expert
                    && same_bits(s.distance, want.distance)
                    && s.low_confidence == want.low_confidence
            })
        })
        .count() as u64
}

/// One pass of the single client.
#[derive(Debug)]
pub struct Pass {
    /// Selection answered for each request.
    pub selections: Vec<Option<Selection>>,
    /// Wall time of the whole loop, seconds.
    pub wall_s: f64,
    /// Wall time of each dispatching call (size-triggered `submit` or the
    /// final `flush`), seconds.
    pub dispatch_s: Vec<f64>,
    /// Time inside every `submit`/`poll`/`flush` call, seconds (measured
    /// only when the pass is traced).
    pub batcher_busy_s: f64,
    /// The pass's table, for its counters.
    pub table: Arc<PredictionTable>,
}

/// Drives one pass: submit every request in order, polling after each,
/// then flush. With `traced` every front-end call is timed; otherwise only
/// the dispatching ones are.
///
/// # Errors
///
/// Propagates batcher construction and selection failures.
pub fn pass(
    predictor: &MoePredictor,
    inputs: Vec<FeatureVector>,
    traced: bool,
) -> Result<Pass, ColocateError> {
    let table = Arc::new(PredictionTable::new());
    let mut batcher = BatchPredictor::new(
        predictor.clone(),
        Arc::clone(&table),
        BatchConfig {
            max_batch: MAX_BATCH,
            max_delay: 0.010,
        },
    )
    .map_err(|e| ColocateError::Config(format!("batcher: {e}")))?;
    let mut selections: Vec<Option<Selection>> = vec![None; inputs.len()];
    let mut dispatch_s = Vec::with_capacity(inputs.len() / MAX_BATCH + 1);
    let mut busy = 0.0f64;
    let mut store = |done: Vec<(u64, Selection)>| {
        for (ticket, s) in done {
            if let Some(slot) = usize::try_from(ticket)
                .ok()
                .and_then(|t| selections.get_mut(t))
            {
                *slot = Some(s);
            }
        }
    };
    let t0 = Instant::now();
    for (i, f) in inputs.into_iter().enumerate() {
        let now = i as f64 * CLIENT_TICK_SECS;
        if traced || batcher.pending() + 1 >= MAX_BATCH {
            let dispatches = batcher.pending() + 1 >= MAX_BATCH;
            let t = Instant::now();
            batcher.submit(now, f)?;
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            if dispatches {
                dispatch_s.push(dt);
            }
        } else {
            batcher.submit(now, f)?;
        }
        if traced {
            let t = Instant::now();
            let done = batcher.poll(now)?;
            busy += t.elapsed().as_secs_f64();
            store(done);
        } else {
            store(batcher.poll(now)?);
        }
    }
    let t = Instant::now();
    let done = batcher.flush()?;
    let dt = t.elapsed().as_secs_f64();
    dispatch_s.push(dt);
    busy += dt;
    store(done);
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Pass {
        selections,
        wall_s,
        dispatch_s,
        batcher_busy_s: if traced { busy } else { 0.0 },
        table,
    })
}

/// Trains the system and round-trips its predictor through a
/// `ModelArtifact`, timing the encode and decode halves in `tracer`.
fn deploy(
    catalog: &Catalog,
    config: &RunConfig,
    seed: u64,
    tracer: &Tracer,
) -> Result<(TrainedSystem, MoePredictor), ColocateError> {
    let system = tracer
        .span("training.trained_system_for", None, |_| {
            trained_system_for(PolicyKind::Moe, catalog, config, seed)
        })?
        .ok_or_else(|| ColocateError::Config("MoE trains a system".into()))?;
    let bytes = tracer.span("serving.artifact.encode", None, |_| {
        ModelArtifact::from_predictor(&system.predictor, &system.fitted_curves).map(|a| a.encode())
    });
    let served = tracer.span("serving.artifact.decode", None, |_| {
        bytes.and_then(|b| ModelArtifact::decode(&b)?.into_predictor())
    });
    let served = served.map_err(|e| ColocateError::Config(format!("model artifact: {e}")))?;
    Ok((system, served))
}

fn figures(throughput: f64, p50_us: f64, p99_us: f64) -> Vec<Metric> {
    vec![
        Metric::new("serve.preds_per_s", throughput, "1/s"),
        Metric::new("serve.dispatch_p50_us", p50_us, "us"),
        Metric::new("serve.dispatch_p99_us", p99_us, "us"),
    ]
}

/// The untraced run: deployment, the stream and its oracle, then passes
/// for `seconds`, each checked against the oracle and dropped, with the
/// set-up (catalog, training, artifact round trip) timed between them.
///
/// # Errors
///
/// Propagates set-up and oracle failures (a failing timed pass is
/// counted, not propagated).
pub fn run(
    spec: &ServeSpec,
    config: &RunConfig,
    seed: u64,
    seconds: f64,
) -> Result<RunReport, ColocateError> {
    let setup = || {
        let catalog = Catalog::paper();
        let deployed = deploy(&catalog, config, seed, &Tracer::new())?;
        Ok::<_, ColocateError>((catalog, deployed))
    };
    let (catalog, (system, served)) = setup()?;
    let stream = Stream::generate(&catalog, seed, spec);
    let oracle = oracle(&system.predictor, &stream)?;

    // Each pass is checked and dropped inside its repetition, so only one
    // pass's table is ever resident.
    let timed = repeat_for(seconds, setup, |_| {
        pass(&served, stream.inputs(), false).map(|p| {
            (
                count_failures(&stream, &oracle, &p.selections),
                p.wall_s,
                p.dispatch_s,
            )
        })
    })?;
    let passes = &timed.reps;
    let mut failed = 0;
    let mut wall = 0.0;
    let mut dispatch_us = Vec::new();
    for rep in passes {
        match &rep.out {
            Ok((f, secs, dispatch_s)) => {
                failed += f;
                wall += secs;
                dispatch_us.extend(dispatch_s.iter().map(|s| s * 1e6));
            }
            Err(_) => failed += spec.requests as u64,
        }
    }
    let attempted = (spec.requests * passes.len()) as u64;
    let throughput = ratio(attempted as f64, wall);
    let (p50, p99) = (
        percentile(&dispatch_us, 50.0),
        percentile(&dispatch_us, 99.0),
    );
    Ok(RunReport {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", timed.reference_secs(timed.setup_s), "s"),
            Metric::new("peak_rss_mb", median_peak_rss(passes), "MB"),
            Metric::new("throughput_per_s", timed.reference_rate(throughput), "1/s"),
        ],
        figures: [figures(throughput, p50, p99), timed.host_figures()].concat(),
        notes: vec![
            format!(
                "serve: {} requests per pass ({} distinct), max_batch {}, {} passes",
                spec.requests,
                stream.observations.len(),
                MAX_BATCH,
                passes.len()
            ),
            format!(
                "throughput_per_s = requests per reference second of the client loop (wall rate x host.unit_s / 10 ms); dispatch latency = wall us per dispatching call, {} samples",
                dispatch_us.len()
            ),
        ],
        spans: Vec::new(),
    })
}

/// The traced run: the deployment steps timed, one untraced pass (the
/// overhead baseline), one pass with every front-end call timed, then the
/// attribution replay: the traced pass's distinct miss rows go through
/// `MoePredictor::select_batch` in the same `max_batch`-request cuts, so
/// `selector.busy_s` against `serving.batcher.busy_s` splits kernel time
/// from table and front-end overhead.
///
/// # Errors
///
/// Propagates set-up, oracle and untraced-pass failures.
pub fn traced(spec: &ServeSpec, config: &RunConfig, seed: u64) -> Result<RunReport, ColocateError> {
    let catalog = Catalog::paper();
    let tracer = Tracer::new();
    let (system, served) = deploy(&catalog, config, seed, &tracer)?;
    let stream = Stream::generate(&catalog, seed, spec);
    let oracle = oracle(&system.predictor, &stream)?;

    let untraced = pass(&served, stream.inputs(), false)?;
    let inputs = stream.inputs();
    let traced_pass = tracer.span("serving.batcher.pass", None, |_| {
        pass(&served, inputs, true)
    });
    let (failed, traced_wall, busy, dispatch_us) = match &traced_pass {
        Ok(p) => (
            count_failures(&stream, &oracle, &p.selections),
            p.wall_s,
            p.batcher_busy_s,
            p.dispatch_s.iter().map(|s| s * 1e6).collect(),
        ),
        Err(_) => (spec.requests as u64, 0.0, 0.0, Vec::new()),
    };

    let mut rows = 0usize;
    let mut seen = HashSet::new();
    for cut in stream.requests.chunks(MAX_BATCH) {
        let batch: Vec<FeatureVector> = cut
            .iter()
            .filter(|&&k| seen.insert(k))
            .map(|&k| stream.observations[k].clone())
            .collect();
        rows += batch.len();
        tracer.span("selector.select_batch", None, |_| {
            served.select_batch(&batch)
        })?;
    }

    let mut layers = Layers::new();
    layers.set(
        "training.train_s",
        tracer.total_secs("training.trained_system_for"),
    );
    layers.set(
        "serving.artifact.encode_s",
        tracer.total_secs("serving.artifact.encode"),
    );
    layers.set(
        "serving.artifact.decode_s",
        tracer.total_secs("serving.artifact.decode"),
    );
    layers.set("serving.batcher.busy_s", busy);
    layers.set("serving.batcher.dispatches", dispatch_us.len() as f64);
    layers.set(
        "serving.batcher.dispatch_p50_us",
        percentile(&dispatch_us, 50.0),
    );
    layers.set(
        "serving.batcher.dispatch_p99_us",
        percentile(&dispatch_us, 99.0),
    );
    layers.set(
        "selector.busy_s",
        tracer.total_secs("selector.select_batch"),
    );
    layers.set("selector.rows", rows as f64);
    let misses = traced_pass.as_ref().map_or(0, |p| p.table.misses());
    if let Ok(p) = &traced_pass {
        layers.set_table(&p.table);
    }
    layers.set_overhead(traced_wall, untraced.wall_s, busy);
    let rows_match = rows as u64 == misses;

    Ok(RunReport {
        correct: failed == 0 && rows_match,
        attempted: spec.requests as u64,
        failed,
        metrics: layers.into_metrics(),
        figures: Vec::new(),
        notes: vec![format!(
            "serve traced: {failed} of {} selections differ from scalar select; replayed miss rows {rows} vs table misses {misses}",
            spec.requests
        )],
        spans: tracer.spans(),
    })
}
