//! Fig. 20 (extension): simulator-core throughput as the cluster grows —
//! the scale sweep behind `results/BENCH_scale.json`.
//!
//! For each node count (40 / 400 / 4 000 / 40 000) the sweep times the
//! engine completion loop — `next_completion` → `advance` → `complete` →
//! respawn events against a fully loaded engine (2 executors/node) with
//! its per-node sharded rate cache and tournament tree — and reports
//! wall clock and events per second (median of several samples). The
//! record names the host's core count; the loop itself is serial.
//! Environment knobs for CI smoke runs:
//!
//! * `SPARK_MOE_SCALE_NODES` — largest node count to include (default
//!   40 000);
//! * `SPARK_MOE_SCALE_EVENTS` — cap on completion events per sample
//!   (default 20 000);
//! * `SPARK_MOE_CSV_DIR` — write `BENCH_scale.json` here instead of
//!   `results/`.

use bench_suite::report::json_num;
use bench_suite::scalekit::{completion_churn, scale_engine, EXECUTORS_PER_NODE};
use std::fmt::Write as _;
use std::time::Instant;

const SCALES: [usize; 4] = [40, 400, 4_000, 40_000];
/// Timed samples per scale; the record keeps their median.
const SAMPLES: usize = 5;
/// Completion events per timed sample.
const EVENTS: usize = 20_000;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct ScaleRow {
    nodes: usize,
    executors: usize,
    events: usize,
    wall_secs: f64,
    events_per_sec: f64,
}

/// Times `SAMPLES` bursts of `events` completion events against one
/// engine at `nodes`, after an untimed warm-up burst that populates the
/// rate cache and faults in the executor storage.
fn measure(nodes: usize, events: usize) -> ScaleRow {
    let mut eng = scale_engine(nodes);
    let mut k = completion_churn(&mut eng, events, nodes * EXECUTORS_PER_NODE);
    let mut walls = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let started = Instant::now();
        k = completion_churn(&mut eng, events, k);
        walls.push(started.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    let wall = walls[SAMPLES / 2];
    ScaleRow {
        nodes,
        executors: nodes * EXECUTORS_PER_NODE,
        events,
        wall_secs: wall,
        events_per_sec: events as f64 / wall.max(1e-12),
    }
}

fn record_json(rows: &[ScaleRow], cores: usize) -> String {
    let mut out = format!("{{\"host_cores\":{cores},\"samples\":{SAMPLES},\"scales\":[\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"nodes\":{},\"executors\":{},\"events\":{},\"wall_secs\":{},\"events_per_sec\":{}}}",
            r.nodes,
            r.executors,
            r.events,
            json_num(r.wall_secs),
            json_num(r.events_per_sec)
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// The output directory: `SPARK_MOE_CSV_DIR` when set, else `results/`.
fn out_dir() -> std::path::PathBuf {
    bench_suite::csv::csv_dir()
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

fn main() {
    let max_nodes = env_usize("SPARK_MOE_SCALE_NODES", SCALES[SCALES.len() - 1]);
    let event_cap = env_usize("SPARK_MOE_SCALE_EVENTS", usize::MAX);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let mut rows = Vec::new();
    for &nodes in SCALES.iter().filter(|&&n| n <= max_nodes) {
        let events = EVENTS.min(event_cap);
        eprintln!("fig20: {nodes} nodes — {SAMPLES} × {events} completion events");
        rows.push(measure(nodes, events));
    }

    println!("Fig. 20: simulator-core throughput vs cluster size ({cores} host cores)");
    println!(
        "{:>7} {:>10} {:>8} {:>12} {:>12}",
        "nodes", "executors", "events", "wall s", "events/s"
    );
    for r in &rows {
        println!(
            "{:>7} {:>10} {:>8} {:>12.6} {:>12.0}",
            r.nodes, r.executors, r.events, r.wall_secs, r.events_per_sec
        );
    }

    match bench_suite::fsutil::atomic_write_in(
        &out_dir(),
        "BENCH_scale.json",
        &record_json(&rows, cores),
    ) {
        Ok(path) => println!("scale record written to {}", path.display()),
        Err(e) => eprintln!("fig20_scale: cannot write BENCH_scale.json: {e}"),
    }
}
