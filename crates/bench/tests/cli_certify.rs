//! Integration test for `dam-cli certify`: the exit-status contract is
//! part of the tool's API (scripts branch on it), so it is pinned here.
//!
//! `0` — certified, nothing detected; `3` — corruption detected (and
//! repaired to a re-certified matching); `1` — internal/input error;
//! `2` — usage error.

use std::path::PathBuf;
use std::process::{Command, Output};

fn dam_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dam-cli")).args(args).output().expect("dam-cli runs")
}

/// A generated instance in a file of the calling test's own, so tests
/// running concurrently never rewrite each other's input.
fn graph_file(test: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("certify_{test}.txt"));
    let gen = dam_cli(&["gen", "gnp", "24", "0.2", "--seed", "5"]);
    assert!(gen.status.success(), "gen must succeed");
    std::fs::write(&path, &gen.stdout).expect("write graph");
    path.to_string_lossy().into_owned()
}

#[test]
fn exit_codes_follow_the_contract() {
    let g = graph_file("exit_codes_follow_the_contract");

    let clean = dam_cli(&["certify", &g, "--seed", "7"]);
    assert_eq!(clean.status.code(), Some(0), "honest run must certify cleanly");

    let lied = dam_cli(&["certify", &g, "--seed", "7", "--liars", "3"]);
    assert_eq!(lied.status.code(), Some(3), "a lie must be detected (and exit 3)");

    let usage = dam_cli(&["certify", &g, "--corrupt", "1.5"]);
    assert_eq!(usage.status.code(), Some(2), "a bad probability is a usage error");

    let missing = dam_cli(&["certify"]);
    assert_eq!(missing.status.code(), Some(2), "a missing graph file is a usage error");

    let unreadable = dam_cli(&["certify", "/nonexistent/graph.txt"]);
    assert_eq!(unreadable.status.code(), Some(1), "an unreadable input is an internal error");
}

#[test]
fn json_report_carries_the_certificate_fields() {
    let g = graph_file("json_report_carries_the_certificate_fields");
    let out =
        dam_cli(&["certify", &g, "--seed", "7", "--corrupt", "0.05", "--liars", "2,9", "--json"]);
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8(out.stdout).expect("utf-8 json");
    for key in [
        r#""algorithm":"certified-ii""#,
        r#""detected":true"#,
        r#""certified":true"#,
        r#""detection_rounds":2"#,
        r#""repair_locality":"#,
        r#""flagged":["#,
        r#""excluded":["#,
    ] {
        assert!(text.contains(key), "json output must carry {key}: {text}");
    }
}
