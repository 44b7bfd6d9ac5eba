//! What closing a transport port on its peer's final slot must not move.
//!
//! `Resilient` stops sending empty slots and heartbeats to a peer whose
//! program has halted, and a finished node halts without waiting for its
//! neighbours. On a fault-free network that may only remove bookkeeping
//! frames: every run below must keep the matching and the payload
//! `messages` of the transport that kept talking to finished peers, and
//! must send no more frames than it did. The pinned rows were computed
//! by that transport: fault-free `run_configured` with the default
//! `TransportCfg`, on G(1500, 8/n) and the 40×40 torus, seeds 0–3, for
//! every driver that runs on the graph (`bipartite:3` needs a bipartite
//! input, so it runs on the torus only).
//!
//! A mismatch prints the fresh table. Replacing a row is a deliberate,
//! reviewed change of behaviour.

use dam_congest::{SimConfig, TransportCfg};
use dam_core::runtime::{run_configured, AlgoSpec, RuntimeConfig};
use dam_graph::ImplicitTopology;

const GRAPHS: [&str; 2] = ["gnp:1500:0.00533:7", "torus:40x40"];
const ALGOS: [&str; 4] = ["ii", "bipartite:3", "weighted", "luby"];
const SEEDS: u64 = 4;

/// `graph algo seed matching-digest messages frames`, one run a line.
const PINNED: &str = "\
gnp:1500:0.00533:7 ii 0 ca5cbc85d8147c3d 13400 145659
gnp:1500:0.00533:7 ii 1 2b17e591b9d163cd 13538 145025
gnp:1500:0.00533:7 ii 2 86247cba12e73767 13718 151995
gnp:1500:0.00533:7 ii 3 bb9488821b70b3d5 13598 148803
gnp:1500:0.00533:7 weighted 0 b4d7c193cb3fabab 131051 1148312
gnp:1500:0.00533:7 weighted 1 b4d7c193cb3fabab 131051 1148312
gnp:1500:0.00533:7 weighted 2 b4d7c193cb3fabab 131051 1148312
gnp:1500:0.00533:7 weighted 3 b4d7c193cb3fabab 131051 1148312
gnp:1500:0.00533:7 luby 0 d4652bb87d470663 16970 83069
gnp:1500:0.00533:7 luby 1 0a414560f979ddf4 16867 82924
gnp:1500:0.00533:7 luby 2 8d88ca47655e0a35 16884 83839
gnp:1500:0.00533:7 luby 3 fc200d5c939e4544 16887 83033
torus:40x40 ii 0 6d9719ed88bf83f9 8549 75817
torus:40x40 ii 1 cb1f6ab130139f13 8572 74671
torus:40x40 ii 2 0daec6415a3cc2aa 8520 73502
torus:40x40 ii 3 a7c68b3b4a559d7f 8616 73835
torus:40x40 bipartite:3 0 5e7c50422cb6dc3b 11409 672000
torus:40x40 bipartite:3 1 7410cfd51bffc7fa 12823 793600
torus:40x40 bipartite:3 2 6f6bc7cc9ee6d957 12745 793600
torus:40x40 bipartite:3 3 3b731d2b6591c12a 12158 793600
torus:40x40 weighted 0 48b661e3e79b9535 153764 1197573
torus:40x40 weighted 1 48b661e3e79b9535 153764 1197573
torus:40x40 weighted 2 48b661e3e79b9535 153764 1197573
torus:40x40 weighted 3 48b661e3e79b9535 153764 1197573
torus:40x40 luby 0 f215156f28304604 9651 40848
torus:40x40 luby 1 6e565db7dff0528e 9456 39523
torus:40x40 luby 2 b23a3d38b915cb7b 9485 39466
torus:40x40 luby 3 2c0dcb606661eb9a 9515 39241
";

/// FNV-1a over the matched edge ids, in the matching's edge order.
fn digest(edges: &[usize]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &e in edges {
        for b in (e as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One fault-free transported run: its pinned-row key and its
/// `(matching digest, payload messages, frames)`.
fn run(graph: &str, algo: &str, seed: u64) -> (String, (u64, u64, u64)) {
    let g = ImplicitTopology::parse(graph).unwrap();
    let cfg = RuntimeConfig::new()
        .sim(SimConfig::local().seed(seed))
        .transport(TransportCfg::default())
        .algo(AlgoSpec::parse(algo).unwrap());
    let rep = run_configured(&g, &cfg).unwrap();
    let stats = rep.totals.stats;
    let key = format!("{graph} {algo} {seed}");
    (key, (digest(&rep.matching.to_edge_vec()), stats.messages, stats.frames()))
}

#[test]
fn closing_on_a_final_slot_keeps_matchings_and_payload() {
    let mut fresh = Vec::new();
    for graph in GRAPHS {
        for algo in ALGOS {
            if algo.starts_with("bipartite") && graph.starts_with("gnp") {
                continue;
            }
            for seed in 0..SEEDS {
                fresh.push(run(graph, algo, seed));
            }
        }
    }
    let table: String =
        fresh.iter().map(|(key, (d, m, f))| format!("{key} {d:016x} {m} {f}\n")).collect();
    let pinned: Vec<(String, (u64, u64, u64))> = PINNED
        .lines()
        .map(|line| {
            let w: Vec<&str> = line.split_whitespace().collect();
            let key = format!("{} {} {}", w[0], w[1], w[2]);
            let row = (
                u64::from_str_radix(w[3], 16).unwrap(),
                w[4].parse().unwrap(),
                w[5].parse().unwrap(),
            );
            (key, row)
        })
        .collect();
    assert_eq!(pinned.len(), fresh.len(), "--- fresh table ---\n{table}");
    for ((key, (d, m, f)), (pkey, (pd, pm, pf))) in fresh.iter().zip(&pinned) {
        assert_eq!(key, pkey, "--- fresh table ---\n{table}");
        assert_eq!(
            (d, m),
            (pd, pm),
            "{key}: matching or payload moved\n--- fresh table ---\n{table}"
        );
        assert!(f <= pf, "{key}: {f} frames, above the pinned {pf}\n--- fresh table ---\n{table}");
    }
}
