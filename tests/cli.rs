//! Command-line validation for `spark-moe-sim`: inputs that leave nothing
//! to simulate, and flags the parser does not know, are rejected with the
//! usage message and exit status 2 before any campaign starts.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_spark-moe-sim"))
        .args(args)
        .output()
        .expect("spark-moe-sim runs");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: spark-moe-sim"),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a table");
}

#[test]
fn zero_nodes_is_a_usage_error() {
    assert_usage_error(&["--nodes", "0"]);
}

#[test]
fn zero_mixes_is_a_usage_error() {
    assert_usage_error(&["--mixes", "0"]);
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus", "1"]);
}
