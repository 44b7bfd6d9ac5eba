//! Scale-regression smoke against the committed `results/BENCH_e22.json`
//! (million-node implicit-topology baseline).
//!
//! Plain `cargo test` checks the committed artifact's *shape* and its
//! internal consistency (specs parse, node/edge counts match, twins
//! were bit-identical, the memory claim is recorded) but never wall
//! clock. With `CI_SMOKE=1` (CI's `scale-smoke` job, release build) a
//! fresh smoke collection re-runs the n = 10⁵ sweep and the twin
//! checks, asserts the peak-RSS budget, and pins the deterministic
//! counters (rounds, messages, matching size) against the committed
//! figures bit-exactly.

use std::fs;
use std::path::PathBuf;

use dam_bench::scale::{ScaleBaseline, RSS_BUDGET_KB, SCALE_WORKLOAD, SPECS_1E6};
use dam_graph::{ImplicitTopology, Topology};

fn committed() -> ScaleBaseline {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_e22.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    ScaleBaseline::from_json(&text).expect("committed scale baseline must parse")
}

/// Always runs: the committed artifact must parse, describe this
/// workload, and be internally consistent — every record's spec parses
/// and agrees with the recorded node/edge counts, every run made
/// progress, and the twin check held when the artifact was collected.
#[test]
fn committed_scale_baseline_is_well_formed() {
    let b = committed();
    assert_eq!(b.workload, SCALE_WORKLOAD);
    assert!(!b.ci_smoke, "the committed artifact must be a full (n = 1e6) collection");
    assert_eq!(b.rss_budget_kb, RSS_BUDGET_KB, "artifact and code disagree on the budget");
    assert!(b.twins_identical, "implicit topologies diverged from their CSR twins");
    assert!(!b.records.is_empty() && !b.sweep.is_empty());
    for r in b.records.iter().chain(&b.sweep) {
        let topo = ImplicitTopology::parse(&r.spec)
            .unwrap_or_else(|e| panic!("record spec {:?} must parse: {e}", r.spec));
        assert_eq!(topo.node_count(), r.n, "{}: node count drifted", r.spec);
        assert_eq!(topo.edge_count(), r.m, "{}: edge count drifted", r.spec);
        assert!(r.rounds > 0 && r.messages > 0 && r.matched > 0, "{}: no progress", r.spec);
        assert!(r.wall_ms > 0.0, "{}: timing must be positive", r.spec);
    }
}

/// Always runs: the headline claim — Israeli–Itai completed at
/// n = 10⁶ on every implicit family, inside container memory (under
/// 2 GB peak RSS for the whole collection).
#[test]
fn committed_baseline_covers_a_million_nodes_in_memory() {
    let b = committed();
    for spec in SPECS_1E6 {
        let r = b
            .records
            .iter()
            .find(|r| r.spec == *spec)
            .unwrap_or_else(|| panic!("committed artifact is missing the {spec} record"));
        assert_eq!(r.n, 1_000_000);
        assert!(r.matched > 400_000, "{spec}: a maximal matching on n = 1e6 is large");
    }
    assert!(b.peak_rss_kb > 0, "peak RSS must have been measured");
    assert!(
        b.peak_rss_kb < 2_000_000,
        "the full collection must fit container memory, peaked at {} kB",
        b.peak_rss_kb
    );
}

/// `CI_SMOKE=1` only: a fresh smoke collection stays under the RSS
/// budget, keeps the twins bit-identical, and reproduces the committed
/// deterministic counters of every n = 10⁵ record bit-exactly.
#[test]
fn smoke_collection_reproduces_committed_counters_under_budget() {
    if std::env::var_os("CI_SMOKE").is_none() {
        eprintln!("skipped: set CI_SMOKE=1 to enable the scale smoke collection");
        return;
    }
    let b = committed();
    let now = ScaleBaseline::collect(true);
    assert!(now.twins_identical, "implicit topologies diverged from their CSR twins");
    assert!(
        now.peak_rss_kb <= now.rss_budget_kb,
        "smoke collection peaked at {} kB, budget {} kB",
        now.peak_rss_kb,
        now.rss_budget_kb
    );
    for r in &now.records {
        let committed_r = b
            .records
            .iter()
            .find(|c| c.spec == r.spec && c.threads == r.threads)
            .unwrap_or_else(|| panic!("committed artifact is missing the {} record", r.spec));
        assert_eq!(r.rounds, committed_r.rounds, "{}: round count drifted", r.spec);
        assert_eq!(r.messages, committed_r.messages, "{}: message count drifted", r.spec);
        assert_eq!(r.matched, committed_r.matched, "{}: matching size drifted", r.spec);
    }
}
