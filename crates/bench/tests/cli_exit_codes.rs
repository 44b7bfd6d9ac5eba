//! The exit-status contract of **every** `dam-cli` subcommand, pinned:
//!
//! `0` — success (certified / nothing detected); `1` — internal or
//! input error; `2` — usage error; `3` — corruption detected (and
//! repaired). Scripts branch on these codes, so any drift is an API
//! break.
//!
//! The second half is the config-drift guard's CLI leg: every knob of
//! [`dam_core::runtime::RuntimeConfig`] declares the flag that reaches
//! it (`RuntimeConfig::KNOBS`), and this suite asserts each of those
//! flags is really spelled out in the usage text — so a new runtime
//! knob cannot land without a CLI surface.

use std::path::PathBuf;
use std::process::{Command, Output};

use dam_core::checkpoint::{inject, Damage};
use dam_core::runtime::RuntimeConfig;

fn dam_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dam-cli")).args(args).output().expect("dam-cli runs")
}

fn graph_file() -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("exit_codes_cli.txt");
    let gen = dam_cli(&["gen", "gnp", "24", "0.2", "--seed", "5"]);
    assert!(gen.status.success(), "gen must succeed");
    std::fs::write(&path, &gen.stdout).expect("write graph");
    path.to_string_lossy().into_owned()
}

fn code(args: &[&str]) -> Option<i32> {
    dam_cli(args).status.code()
}

#[test]
fn global_dispatch_follows_the_contract() {
    assert_eq!(code(&[]), Some(2), "no subcommand is a usage error");
    assert_eq!(code(&["frobnicate"]), Some(2), "an unknown subcommand is a usage error");
}

#[test]
fn match_follows_the_contract() {
    let g = graph_file();
    assert_eq!(code(&["match", &g]), Some(0), "a plain match succeeds");
    assert_eq!(code(&["match", &g, "ii", "--json"]), Some(0), "JSON output succeeds");
    assert_eq!(code(&["match"]), Some(2), "a missing graph is a usage error");
    assert_eq!(code(&["match", &g, "no-such-algo"]), Some(2), "an unknown algo is a usage error");
    assert_eq!(code(&["match", "/no/such/file.txt"]), Some(1), "an unreadable graph is an error");
}

#[test]
fn run_follows_the_contract() {
    let g = graph_file();
    assert_eq!(code(&["run", &g]), Some(0), "a bare runtime run succeeds");
    assert_eq!(
        code(&["run", &g, "--loss", "0.05", "--repair", "--maintain", "--json"]),
        Some(0),
        "composed layers without corruption succeed"
    );
    assert_eq!(
        code(&["run", &g, "--liars", "1,3", "--certify", "--repair"]),
        Some(3),
        "a detected-and-repaired run exits 3"
    );
    assert_eq!(
        code(&["run", &g, "--backend", "async", "--delay", "skew:4", "--patience", "8"]),
        Some(0),
        "the asynchronous backend under an adversarial delay model succeeds"
    );
    assert_eq!(
        code(&[
            "run",
            &g,
            "--backend",
            "async",
            "--delay",
            "straggler:3:9",
            "--loss",
            "0.05",
            "--repair"
        ]),
        Some(0),
        "async composes with the fault and repair layers"
    );
    assert_eq!(code(&["run"]), Some(2), "a missing graph is a usage error");
    assert_eq!(code(&["run", &g, "--backend", "warp"]), Some(2), "a bad backend is a usage error");
    assert_eq!(
        code(&["run", &g, "--delay", "bogus:1"]),
        Some(2),
        "a bad delay model is a usage error"
    );
    assert_eq!(
        code(&["run", &g, "--delay", "uniform"]),
        Some(2),
        "a delay model missing its parameter is a usage error"
    );
    assert_eq!(code(&["run", &g, "--loss", "oops"]), Some(2), "a bad probability is a usage error");
    assert_eq!(
        code(&["run", &g, "--churn", "warp:1@2"]),
        Some(2),
        "a bad churn kind is a usage error"
    );
    assert_eq!(code(&["run", "/no/such/file.txt"]), Some(1), "an unreadable graph is an error");
    assert_eq!(
        code(&["run", &g, "--liars", "1", "--certify"]),
        Some(1),
        "detection without a repair layer cannot re-certify: that is an error"
    );
}

/// The portfolio selector: every registered algorithm runs through the
/// same pipeline, a non-bipartite input to the bipartite driver is a
/// runtime error, and an unknown or malformed selector is a usage
/// error.
#[test]
fn run_algo_follows_the_contract() {
    let g = graph_file();
    assert_eq!(code(&["run", &g, "--algo", "ii"]), Some(0), "the default selector, spelled out");
    assert_eq!(code(&["run", &g, "--algo", "luby"]), Some(0), "the Luby driver runs");
    assert_eq!(code(&["run", &g, "--algo", "weighted"]), Some(0), "the weighted driver runs");
    assert_eq!(
        code(&["run", &g, "--algo", "luby", "--loss", "0.05", "--repair", "--maintain"]),
        Some(0),
        "a portfolio algorithm composes with the hardening layers"
    );
    assert_eq!(
        code(&["run", &g, "--algo", "bipartite:2"]),
        Some(1),
        "the bipartite driver on a non-bipartite graph is a runtime error"
    );
    assert_eq!(code(&["run", &g, "--algo", "warp"]), Some(2), "an unknown algo is a usage error");
    assert_eq!(
        code(&["run", &g, "--algo", "bipartite:zero"]),
        Some(2),
        "a malformed k is a usage error"
    );
    assert_eq!(code(&["run", &g, "--algo", "bipartite:1"]), Some(2), "k < 2 is a usage error");

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("exit_codes_bipartite.txt");
    let gen = dam_cli(&["gen", "bipartite", "20", "0.3", "--seed", "5"]);
    assert!(gen.status.success(), "bipartite gen must succeed");
    std::fs::write(&path, &gen.stdout).expect("write bipartite graph");
    let b = path.to_string_lossy().into_owned();
    assert_eq!(
        code(&["run", &b, "--algo", "bipartite:2"]),
        Some(0),
        "the bipartite driver runs on a bipartite graph"
    );
    assert_eq!(
        code(&["run", &b, "--algo", "bipartite:3", "--certify", "--repair", "--liars", "1"]),
        Some(3),
        "the bipartite driver supports the certification round-trip"
    );
}

#[test]
fn adaptive_and_stats_out_follow_the_contract() {
    let g = graph_file();
    assert_eq!(
        code(&["run", &g, "--adaptive", "--loss", "0.1", "--repair"]),
        Some(0),
        "the adaptive transport composes with the fault and repair layers"
    );
    assert_eq!(
        code(&["run", &g, "--adaptive", "--no-transport"]),
        Some(2),
        "the controller without a transport layer to tune is a usage error"
    );

    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let csv = dir.join("exit_codes_stats.csv");
    let json = dir.join("exit_codes_stats.json");
    assert_eq!(
        code(&["run", &g, "--stats-out", &csv.to_string_lossy()]),
        Some(0),
        "a run exporting telemetry succeeds"
    );
    let body = std::fs::read_to_string(&csv).expect("stats CSV written");
    assert!(
        body.starts_with("run,round,messages,"),
        "the export is the telemetry CSV schema, got: {}",
        body.lines().next().unwrap_or_default()
    );
    assert!(body.lines().count() > 2, "one sample row per engine round");
    assert_eq!(
        code(&["run", &g, "--stats-out", &json.to_string_lossy()]),
        Some(0),
        "a .json extension exports JSON"
    );
    let body = std::fs::read_to_string(&json).expect("stats JSON written");
    assert!(body.trim_start().starts_with('['), "JSON export is an array of samples");
    assert_eq!(
        code(&["run", &g, "--stats-out", "/no/such/dir/stats.csv"]),
        Some(1),
        "an unwritable stats path is a runtime error, after the run"
    );
}

/// The checkpoint/restore leg of the exit contract: `0` a clean
/// resume, `3` damage detected but degraded-recovered, `1`
/// unrecoverable (nothing to restore, or a foreign snapshot), `2` a
/// checkpoint flag that cannot do anything.
#[test]
fn checkpoint_restore_follows_the_contract() {
    let g = graph_file();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exit_codes_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_string_lossy().into_owned();

    assert_eq!(
        code(&["run", &g, "--repair", "--maintain", "--checkpoint-out", &d]),
        Some(0),
        "a checkpointing run succeeds like a plain one"
    );
    assert_eq!(
        code(&["run", &g, "--repair", "--maintain", "--restore", &d]),
        Some(0),
        "a clean restore resumes and exits 0"
    );
    assert_eq!(
        code(&["run", &g, "--repair", "--maintain", "--restore", &d, "--seed", "999"]),
        Some(1),
        "a snapshot from a different seed is unrecoverable: exit 1"
    );

    inject(&dir, Damage::Truncate { keep: 9 }).expect("damage the newest snapshot");
    assert_eq!(
        code(&["run", &g, "--repair", "--maintain", "--restore", &d]),
        Some(3),
        "a torn newest snapshot degrades to an older generation: exit 3"
    );

    let empty = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exit_codes_ckpt_empty");
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(&empty).expect("mk empty dir");
    assert_eq!(
        code(&["run", &g, "--restore", &empty.to_string_lossy()]),
        Some(1),
        "an empty checkpoint directory is unrecoverable: exit 1"
    );

    assert_eq!(
        code(&["run", &g, "--checkpoint-every", "5"]),
        Some(2),
        "--checkpoint-every without --checkpoint-out is a usage error"
    );
    assert_eq!(
        code(&["run", &g, "--checkpoint-out"]),
        Some(2),
        "--checkpoint-out without its directory is a usage error"
    );
}

#[test]
fn certify_follows_the_contract() {
    let g = graph_file();
    assert_eq!(code(&["certify", &g, "--seed", "7"]), Some(0), "an honest run certifies");
    assert_eq!(code(&["certify", &g, "--seed", "7", "--liars", "3"]), Some(3), "a lie exits 3");
    assert_eq!(code(&["certify"]), Some(2), "a missing graph is a usage error");
    assert_eq!(code(&["certify", &g, "--corrupt", "2.0"]), Some(2), "a bad rate is a usage error");
    assert_eq!(code(&["certify", "/no/such/file.txt"]), Some(1), "an unreadable graph errors");
}

#[test]
fn gen_follows_the_contract() {
    assert_eq!(code(&["gen", "gnp", "24", "0.2", "--seed", "5"]), Some(0), "gen succeeds");
    assert_eq!(code(&["gen"]), Some(2), "missing family/size is a usage error");
    assert_eq!(code(&["gen", "no-such-family", "24"]), Some(2), "unknown family is a usage error");
    assert_eq!(code(&["gen", "gnp", "many"]), Some(2), "a non-numeric size is a usage error");
}

#[test]
fn info_follows_the_contract() {
    let g = graph_file();
    assert_eq!(code(&["info", &g]), Some(0), "info succeeds");
    assert_eq!(code(&["info"]), Some(2), "a missing graph is a usage error");
    assert_eq!(code(&["info", "/no/such/file.txt"]), Some(1), "an unreadable graph is an error");
}

#[test]
fn dot_follows_the_contract() {
    let g = graph_file();
    assert_eq!(code(&["dot", &g]), Some(0), "dot succeeds");
    assert_eq!(code(&["dot", &g, "blossom"]), Some(0), "dot with a matching overlay succeeds");
    assert_eq!(code(&["dot"]), Some(2), "a missing graph is a usage error");
    assert_eq!(code(&["dot", &g, "no-such-algo"]), Some(2), "an unknown algo is a usage error");
    assert_eq!(code(&["dot", "/no/such/file.txt"]), Some(1), "an unreadable graph is an error");
}

/// The implicit-topology leg of the contract: `run --graph SPEC` runs
/// the pipeline with no graph file at all (the topology stays
/// implicit), a malformed or degenerate spec is a usage error, and
/// mixing both input forms is a usage error.
#[test]
fn graph_spec_follows_the_contract() {
    assert_eq!(code(&["run", "--graph", "ring:24"]), Some(0), "an implicit ring runs");
    assert_eq!(
        code(&["run", "--graph", "gnp:32:0.2:7", "--repair", "--maintain", "--json"]),
        Some(0),
        "implicit topologies compose with the hardening layers"
    );
    assert_eq!(
        code(&["run", "--graph", "torus:4x6", "--algo", "bipartite:2"]),
        Some(0),
        "an even-by-even torus is bipartite"
    );
    assert_eq!(
        code(&["run", "--graph", "ring:25", "--algo", "bipartite:2"]),
        Some(1),
        "an odd ring is not bipartite: that is a runtime error, not usage"
    );
    assert_eq!(code(&["run", "--graph"]), Some(2), "--graph without a spec is a usage error");
    assert_eq!(code(&["run", "--graph", "ring:2"]), Some(2), "a degenerate ring is a usage error");
    assert_eq!(
        code(&["run", "--graph", "mobius:9"]),
        Some(2),
        "an unknown family is a usage error"
    );
    assert_eq!(
        code(&["run", "--graph", "torus:4x"]),
        Some(2),
        "a malformed torus spec is a usage error"
    );
    assert_eq!(
        code(&["run", "--graph", "gnp:10:1.5:0"]),
        Some(2),
        "a G(n,p) probability outside [0, 1] is a usage error"
    );
    for spec in ["gnp:999999999:0:0", "gnp:100000:0.5:1"] {
        assert_eq!(
            code(&["run", "--graph", spec]),
            Some(2),
            "{spec}: a G(n,p) over the size cap is a usage error, not a panic or an OOM"
        );
    }
    let g = graph_file();
    assert_eq!(
        code(&["run", &g, "--graph", "ring:24"]),
        Some(2),
        "a graph file and --graph together are a usage error"
    );

    // The chaos searcher shares the same spec grammar and the same
    // usage-error mapping.
    let chaos = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--graph", "mobius:9"])
        .output()
        .expect("chaos runs");
    assert_eq!(chaos.status.code(), Some(2), "a bad chaos --graph spec is a usage error");
}

/// The CLI leg of the config-drift guard (the runtime leg — every
/// `RuntimeConfig` field has a `KNOBS` entry — lives in `dam-core`'s
/// unit tests): each declared flag must appear in the usage text, so
/// the advertised surface and the real one cannot drift apart.
#[test]
fn every_runtime_knob_is_spelled_out_in_usage() {
    let out = dam_cli(&[]);
    assert_eq!(out.status.code(), Some(2), "bare invocation prints usage and exits 2");
    let usage = String::from_utf8_lossy(&out.stderr);
    for (knob, flag) in RuntimeConfig::KNOBS {
        assert!(
            usage.contains(flag),
            "runtime knob `{knob}` is declared reachable via `{flag}`, \
             but that flag is missing from the usage text"
        );
    }
}
