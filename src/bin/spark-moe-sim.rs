//! `spark-moe-sim` — run co-location campaigns from the command line.
//!
//! ```text
//! spark-moe-sim [--policy moe|oracle|pairwise|quasar|online|isolated|all]
//!               [--scenario L1..L10] [--mixes N] [--seed N] [--nodes N]
//! ```
//!
//! Prints normalized STP, ANTT reduction, makespan and OOM kills per
//! policy, averaged over the requested number of random mixes.

use colocate::harness::{evaluate_scenario_multi, RunConfig};
use colocate::scheduler::PolicyKind;
use sparklite::cluster::ClusterSpec;
use workloads::{Catalog, MixScenario};

#[derive(Debug)]
struct Args {
    policies: Vec<PolicyKind>,
    scenario: MixScenario,
    mixes: usize,
    seed: u64,
    nodes: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: spark-moe-sim [--policy moe|oracle|pairwise|quasar|online|isolated|all]\n\
         \x20                   [--scenario L1..L10] [--mixes N] [--seed N] [--nodes N]"
    );
    std::process::exit(2)
}

/// A count flag's value: a positive integer, or the usage message. Zero
/// nodes or zero mixes leave nothing to simulate.
fn positive(value: &str) -> usize {
    value
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| usage())
}

fn parse_policy(name: &str) -> Option<Vec<PolicyKind>> {
    Some(match name {
        "moe" | "ours" => vec![PolicyKind::Moe],
        "oracle" => vec![PolicyKind::Oracle],
        "pairwise" => vec![PolicyKind::Pairwise],
        "quasar" => vec![PolicyKind::Quasar],
        "online" => vec![PolicyKind::OnlineSearch],
        "isolated" => vec![PolicyKind::Isolated],
        "all" => vec![
            PolicyKind::Pairwise,
            PolicyKind::OnlineSearch,
            PolicyKind::Quasar,
            PolicyKind::Moe,
            PolicyKind::Oracle,
        ],
        _ => return None,
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        policies: parse_policy("all").expect("static"),
        scenario: MixScenario::TABLE3[4],
        mixes: 3,
        seed: 42,
        nodes: 40,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).unwrap_or_else(|| usage());
        match flag {
            "--policy" => args.policies = parse_policy(value).unwrap_or_else(|| usage()),
            "--scenario" => {
                let label: usize = value
                    .trim_start_matches(['L', 'l'])
                    .parse()
                    .unwrap_or_else(|_| usage());
                args.scenario = *MixScenario::TABLE3
                    .iter()
                    .find(|s| s.label == label)
                    .unwrap_or_else(|| usage());
            }
            "--mixes" => args.mixes = positive(value),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = positive(value),
            _ => usage(),
        }
        i += 2;
    }
    args
}

fn main() {
    let args = parse_args();
    let catalog = Catalog::paper();
    let mut config = RunConfig::default();
    config.scheduler.cluster = ClusterSpec::small(args.nodes);

    println!(
        "scenario {} ({} apps) on {} nodes — {} mixes, seed {}",
        args.scenario.name(),
        args.scenario.apps,
        args.nodes,
        args.mixes,
        args.seed
    );
    println!(
        "{:<14} {:>10} {:>12} {:>18}",
        "policy", "STP", "ANTT red.", "STP [min, max]"
    );
    println!("{}", "-".repeat(58));

    let stats = evaluate_scenario_multi(
        &args.policies,
        args.scenario,
        &catalog,
        &config,
        args.mixes,
        args.seed,
    )
    .unwrap_or_else(|e| {
        eprintln!("campaign failed: {e}");
        std::process::exit(1)
    });
    for (policy, s) in args.policies.iter().zip(stats.per_policy.iter()) {
        println!(
            "{:<14} {:>10.2} {:>11.1}% {:>18}",
            policy.display_name(),
            s.stp_mean,
            s.antt_mean,
            format!("[{:.2}, {:.2}]", s.stp_min_max.0, s.stp_min_max.1)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_parse() {
        assert_eq!(parse_policy("moe").unwrap(), vec![PolicyKind::Moe]);
        assert_eq!(parse_policy("ours").unwrap(), vec![PolicyKind::Moe]);
        assert_eq!(parse_policy("oracle").unwrap(), vec![PolicyKind::Oracle]);
        assert_eq!(parse_policy("all").unwrap().len(), 5);
        assert!(parse_policy("bogus").is_none());
    }

    #[test]
    fn all_excludes_isolated_baseline() {
        // "all" compares co-location schemes; the isolated baseline enters
        // through the metrics, not as a row.
        assert!(!parse_policy("all").unwrap().contains(&PolicyKind::Isolated));
    }
}
