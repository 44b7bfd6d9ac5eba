//! Integration tests for the extension modules: the §4-Remark
//! `(1−ε)`-MWM, distributed `b`-matching, the matching LCA, and the
//! König certificates tying them to the oracles.

use dam::core::hv::{hv_mwm, HvMwmConfig};
use dam::core::lca::MatchingLca;
use dam::core::weighted::b_local_max::b_local_max;
use dam::core::{run_mm, Bipartite, RuntimeConfig, Weighted};
use dam::graph::bmatching::brute_force_b_matching;
use dam::graph::cover::certify_maximum_bipartite;
use dam::graph::weights::{randomize_weights, WeightDist};
use dam::graph::{generators, hopcroft_karp, karp_sipser, mwm};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The §4-Remark algorithm dominates the Theorem 4.5 floor and, run to
/// exhaustion on small graphs, reaches the exact optimum.
#[test]
fn hv_exceeds_half_and_exhausts_to_optimum() {
    let mut rng = StdRng::seed_from_u64(91);
    for trial in 0..4u64 {
        let base = generators::gnp(12, 0.3, &mut rng);
        let g = randomize_weights(&base, WeightDist::Integer { max: 20 }, &mut rng);
        let opt = mwm::maximum_weight(&g);
        let hv = hv_mwm(&g, &HvMwmConfig { max_len: Some(13), seed: trial, ..Default::default() })
            .unwrap();
        assert!((hv.matching.weight(&g) - opt).abs() < 1e-9, "trial {trial}");
        let sim = dam::congest::SimConfig::congest_for(g.node_count(), 8).seed(trial);
        let a5 = run_mm(&Weighted::default(), &g, &RuntimeConfig::new().sim(sim)).unwrap();
        assert!(hv.matching.weight(&g) >= a5.matching.weight(&g) - 1e-9);
    }
}

/// Distributed b-matching at capacity 1 equals the plain distributed
/// matching; at higher capacities it stays ½-approximate.
#[test]
fn b_matching_integration() {
    let mut rng = StdRng::seed_from_u64(92);
    for trial in 0..5u64 {
        let base = generators::gnp(10, 0.4, &mut rng);
        let g = randomize_weights(&base, WeightDist::Integer { max: 8 }, &mut rng);
        let caps: Vec<usize> = (0..g.node_count()).map(|_| rng.random_range(1..=3)).collect();
        let dist = b_local_max(&g, &caps, trial).unwrap();
        let opt = brute_force_b_matching(&g, &caps);
        assert!(dist.b_matching.weight(&g) >= 0.5 * opt.weight(&g) - 1e-9, "trial {trial}");
    }
}

/// The LCA's implicit matching is a real maximal matching, consistent
/// across arbitrary query patterns.
#[test]
fn lca_integration() {
    let mut rng = StdRng::seed_from_u64(93);
    let g = generators::power_law(60, 2.5, 3.0, &mut rng);
    let lca = MatchingLca::new(&g, 17);
    // Scatter queries, then materialize: answers must be stable.
    let mut spot: Vec<(usize, bool)> = Vec::new();
    for _ in 0..30 {
        let e = rng.random_range(0..g.edge_count().max(1));
        spot.push((e, lca.edge_in_matching(e)));
    }
    let m = lca.materialize();
    m.validate(&g).unwrap();
    assert!(dam::graph::maximal::is_maximal(&g, &m));
    for (e, ans) in spot {
        assert_eq!(m.contains(e), ans, "query/materialize disagreement at {e}");
    }
}

/// König certificates close the oracle loop: HK's matchings carry an
/// independently verified optimality proof, and our distributed
/// bipartite matchings never exceed a certified optimum.
#[test]
fn koenig_certificates_bound_distributed_results() {
    let mut rng = StdRng::seed_from_u64(94);
    for trial in 0..5u64 {
        let g = generators::bipartite_gnp(18, 18, 0.15, &mut rng);
        let hk = hopcroft_karp::maximum_bipartite_matching(&g);
        assert!(certify_maximum_bipartite(&g, &hk), "HK certificate failed");
        let sim = dam::congest::SimConfig::congest_for(g.node_count(), 4).seed(trial);
        let algo = Bipartite { k: 4, ..Bipartite::default() };
        let dist = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).unwrap();
        assert!(dist.matching.size() <= hk.size(), "distributed exceeded a certified optimum");
        assert!(4 * dist.matching.size() >= 3 * hk.size());
    }
}

/// Karp–Sipser slots into the baseline family: maximal, near-optimal on
/// sparse inputs, and never better than the certified optimum.
#[test]
fn karp_sipser_baseline() {
    let mut rng = StdRng::seed_from_u64(95);
    let g = generators::bipartite_gnp(25, 25, 0.08, &mut rng);
    let ks = karp_sipser::karp_sipser(&g, &mut rng);
    let hk = hopcroft_karp::maximum_bipartite_matching(&g);
    assert!(ks.size() <= hk.size());
    assert!(2 * ks.size() >= hk.size());
}
