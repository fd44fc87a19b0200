//! Command line of the spark-moe benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign|storm|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, the workload's named figures and a provenance line, then
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). When run from the repository root it also writes the whole
//! record, spans included, under `perfbench/out/`. Exits 1 when any output
//! check fails, 2 on a usage error.

use colocate::harness::RunConfig;
use spark_moe_perfbench::{campaign, serve, storm, trace::Span, RunReport};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: spark-moe-perfbench --workload <campaign|storm|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["campaign", "storm", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs").and_then(|packed| {
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[spark_moe_perfbench::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn spans_json(spans: &[Span]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"parent\": {}, \"start_s\": {}, \"end_s\": {}}}",
                json_str(&s.name),
                s.parent.map_or("null".into(), |p| p.to_string()),
                json_num(s.start_s),
                json_num(s.end_s)
            )
        })
        .collect();
    format!("[{}]", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = spark_moe_perfbench::host_workers();
    let workers = spark_moe_perfbench::WORKERS;
    let config = RunConfig {
        workers: Some(workers),
        ..RunConfig::default()
    };
    let (seed, secs) = (args.seed, args.seconds);
    let result = match (args.workload.as_str(), args.trace) {
        ("campaign", false) => campaign::run(&campaign::CampaignSpec::paper(), &config, seed, secs),
        ("campaign", true) => campaign::traced(&campaign::CampaignSpec::paper(), &config, seed),
        ("storm", false) => storm::run(&storm::StormSpec::paper(), &config, seed, secs),
        ("storm", true) => storm::traced(&storm::StormSpec::paper(), &config, seed),
        ("serve", false) => serve::run(&serve::ServeSpec::paper(), &config, seed, secs),
        _ => serve::traced(&serve::ServeSpec::paper(), &config, seed),
    };
    let report: RunReport = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let correct = report.correct && report.metrics.iter().all(|m| m.value.is_finite());

    let provenance = format!(
        "{{\"commit\": {}, \"nproc\": {}, \"workers\": {workers}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}}}",
        json_str(&commit()),
        nproc,
        json_str(&args.workload),
        json_num(secs),
        args.trace
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in report.figures.iter().chain(&report.metrics) {
        println!("{:<40} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    println!("provenance {provenance}");

    let result_line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        metrics_json(&report.metrics)
    );
    if Path::new("perfbench").is_dir() {
        let record = format!(
            "{{\"provenance\": {provenance}, \"result\": {result_line}, \"figures\": {}, \"notes\": [{}], \"spans\": {}}}\n",
            metrics_json(&report.figures),
            report.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
            spans_json(&report.spans)
        );
        let dir = Path::new("perfbench/out");
        let path = dir.join(format!(
            "{}.seed{seed}.trace{}.json",
            args.workload,
            u8::from(args.trace)
        ));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{result_line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
