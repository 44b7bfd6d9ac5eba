//! Moderate-scale end-to-end runs: the simulator and algorithms at
//! thousands-of-nodes sizes (each test is tuned to finish in seconds
//! under the optimized test profile).

use dam::congest::SimConfig;
use dam::core::israeli_itai::israeli_itai;
use dam::core::trees::tree_mcm;
use dam::core::weighted::local_max::local_max_mwm;
use dam::core::{run_mm, Bipartite, RuntimeConfig};
use dam::graph::weights::{randomize_weights, WeightDist};
use dam::graph::{generators, hopcroft_karp};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn israeli_itai_at_50k_nodes() {
    let mut rng = StdRng::seed_from_u64(201);
    let g = generators::random_regular(50_000, 4, &mut rng);
    let r = israeli_itai(&g, 1).unwrap();
    r.matching.validate(&g).unwrap();
    assert!(dam::graph::maximal::is_maximal(&g, &r.matching));
    assert!(
        r.stats.stats.rounds < 200,
        "50k nodes should still settle in O(log n)-ish rounds: {}",
        r.stats.stats.rounds
    );
}

#[test]
fn bipartite_at_10k_nodes() {
    let mut rng = StdRng::seed_from_u64(202);
    let g = generators::bipartite_gnp(5_000, 5_000, 8.0 / 10_000.0, &mut rng);
    let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(1));
    let r = run_mm(&Bipartite { k: 3, ..Bipartite::default() }, &g, &cfg).unwrap();
    let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
    assert!(3 * r.matching.size() >= 2 * opt);
    assert!(r.totals.stats.rounds < 1_000, "rounds: {}", r.totals.stats.rounds);
    // The widest message stays logarithmic: a few words of 14-bit ids.
    assert!(r.totals.stats.max_message_bits < 512);
}

#[test]
fn local_max_at_30k_edges() {
    let mut rng = StdRng::seed_from_u64(203);
    let base = generators::random_regular(10_000, 6, &mut rng);
    let g = randomize_weights(&base, WeightDist::Exponential { lambda: 1.0 }, &mut rng);
    let r = local_max_mwm(&g, 2).unwrap();
    r.matching.validate(&g).unwrap();
    // Identical to the sequential fixpoint even at scale.
    let seq = dam::graph::maximal::local_max_mwm(&g);
    assert_eq!(r.matching.size(), seq.size());
    assert!((r.matching.weight(&g) - seq.weight(&g)).abs() < 1e-6);
}

#[test]
fn tree_mcm_on_deep_tree() {
    // A path of 4k nodes: diameter-bound algorithms really pay it.
    let g = generators::path(4_000);
    let r = tree_mcm(&g, 3).unwrap();
    assert_eq!(r.matching.size(), 2_000);
    assert!(r.stats.stats.rounds >= 4_000, "the diameter must show up in rounds");
}

#[test]
fn parallel_engine_agrees_at_scale() {
    use dam::congest::{Network, RunSpec, SimConfig};
    use dam::core::israeli_itai::IiNode;
    let mut rng = StdRng::seed_from_u64(204);
    let g = generators::random_regular(20_000, 4, &mut rng);
    let cfg = SimConfig::congest_for(g.node_count(), 4).seed(5);
    let seq = Network::new(&g, cfg).run(|v, graph| IiNode::new(graph.degree(v))).unwrap();
    let par = Network::new(&g, cfg.threads(8))
        .execute(|v, graph| IiNode::new(graph.degree(v)), &RunSpec::default())
        .unwrap();
    assert_eq!(seq.outputs, par.outputs);
    assert_eq!(seq.stats, par.stats);
}
