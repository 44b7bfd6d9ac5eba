//! End-to-end validation of the paper's four theorems, across graph
//! families and seeds, against exact oracles.

use dam::congest::SimConfig;
use dam::core::general::{general_mcm, GeneralMcmConfig};
use dam::core::generic::{generic_mcm, GenericMcmConfig};
use dam::core::{run_mm, Bipartite, RunReport, RuntimeConfig, Weighted};
use dam::graph::weights::{randomize_weights, WeightDist};
use dam::graph::{blossom, generators, hopcroft_karp, mwm, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bipartite driver bare on CONGEST(`4 log n`).
fn bipartite(g: &Graph, k: usize, seed: u64) -> RunReport {
    let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
    run_mm(&Bipartite { k, ..Bipartite::default() }, g, &RuntimeConfig::new().sim(sim)).unwrap()
}

/// Theorem 3.10: `(1−1/k)`-MCM in bipartite graphs.
#[test]
fn theorem_3_10_bipartite_ratio() {
    let mut rng = StdRng::seed_from_u64(1);
    let families: Vec<Graph> = vec![
        generators::bipartite_gnp(40, 40, 0.06, &mut rng),
        generators::bipartite_gnp(30, 50, 0.12, &mut rng),
        generators::bipartite_regular_out(36, 36, 3, &mut rng),
        generators::disjoint_paths(8, 7),
        generators::grid(6, 7),
        generators::complete_bipartite(12, 9),
    ];
    for (gi, g) in families.iter().enumerate() {
        let opt = hopcroft_karp::maximum_bipartite_matching_size(g);
        for k in [2usize, 3, 4] {
            for seed in 0..3u64 {
                let r = bipartite(g, k, seed);
                r.matching.validate(g).unwrap();
                assert!(
                    r.matching.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
                    "family {gi}, k={k}, seed={seed}: {} < (1-1/{k})·{opt}",
                    r.matching.size()
                );
            }
        }
    }
}

/// Theorem 3.10 read as a `(1−ε)`-MCM: `k = ⌈1/ε⌉`.
#[test]
fn theorem_3_10_eps_api() {
    let mut rng = StdRng::seed_from_u64(2);
    let g = generators::bipartite_gnp(30, 30, 0.1, &mut rng);
    let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
    let eps = 0.25_f64;
    let r = bipartite(&g, (1.0 / eps).ceil() as usize, 7);
    assert!(r.matching.size() as f64 >= 0.75 * opt as f64 - 1e-9);
}

/// Theorem 3.15: `(1−1/k)`-MCM in general graphs (Algorithm 4).
#[test]
fn theorem_3_15_general_ratio() {
    let mut rng = StdRng::seed_from_u64(3);
    let families: Vec<Graph> = vec![
        generators::gnp(40, 0.1, &mut rng),
        generators::random_regular(40, 3, &mut rng),
        generators::cycle(31),
        generators::flower(4),
        generators::power_law(40, 2.5, 3.0, &mut rng),
        generators::random_tree(45, &mut rng),
    ];
    for (gi, g) in families.iter().enumerate() {
        let opt = blossom::maximum_matching_size(g);
        for k in [2usize, 3] {
            let r = general_mcm(g, &GeneralMcmConfig { k, seed: gi as u64, ..Default::default() })
                .unwrap();
            r.matching.validate(g).unwrap();
            assert!(
                r.matching.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
                "family {gi}, k={k}: {} < (1-1/{k})·{opt}",
                r.matching.size()
            );
        }
    }
}

/// Theorem 3.7: the generic LOCAL algorithm achieves `(1−1/(k+1))` with
/// `k` phases.
#[test]
fn theorem_3_7_generic_ratio() {
    let mut rng = StdRng::seed_from_u64(4);
    for (i, g) in
        [generators::gnp(20, 0.15, &mut rng), generators::cycle(15), generators::flower(3)]
            .iter()
            .enumerate()
    {
        let opt = blossom::maximum_matching_size(g);
        let k = 2;
        let r =
            generic_mcm(g, &GenericMcmConfig { k, seed: i as u64, ..Default::default() }).unwrap();
        assert!(
            (k + 1) * r.matching.size() >= k * opt,
            "family {i}: {} < (1-1/{})·{opt}",
            r.matching.size(),
            k + 1
        );
    }
}

/// Theorem 4.5: `(½−ε)`-MWM.
#[test]
fn theorem_4_5_weighted_ratio() {
    let mut rng = StdRng::seed_from_u64(5);
    for trial in 0..4u64 {
        let base = generators::gnp(30, 0.12, &mut rng);
        for dist in [
            WeightDist::Uniform { lo: 0.1, hi: 4.0 },
            WeightDist::Integer { max: 50 },
            WeightDist::PowersOfTwo { classes: 8 },
        ] {
            let g = randomize_weights(&base, dist, &mut rng);
            let opt = mwm::maximum_weight(&g);
            for eps in [0.25, 0.05] {
                let sim = SimConfig::congest_for(g.node_count(), 8).seed(trial);
                let algo = Weighted { eps, ..Weighted::default() };
                let r = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).unwrap();
                r.matching.validate(&g).unwrap();
                assert!(
                    r.matching.weight(&g) >= (0.5 - eps) * opt - 1e-9,
                    "trial {trial}, {dist:?}, eps={eps}: {} < {}",
                    r.matching.weight(&g),
                    (0.5 - eps) * opt
                );
            }
        }
    }
}

/// Lemma 3.2 materialized: after the k-th phase no augmenting path of
/// length `≤ 2k−1` survives.
#[test]
fn post_condition_no_short_augmenting_paths() {
    let mut rng = StdRng::seed_from_u64(6);
    for seed in 0..4u64 {
        let g = generators::bipartite_gnp(25, 25, 0.1, &mut rng);
        let k = 3;
        let r = bipartite(&g, k, seed);
        let paths = dam::graph::paths::enumerate_augmenting_paths(&g, &r.matching, 2 * k - 1);
        assert!(
            paths.is_empty(),
            "seed {seed}: {} augmenting paths of length <= {} survived",
            paths.len(),
            2 * k - 1
        );
    }
}

/// Larger-scale smoke: the machinery holds up at n = 2000 and the round
/// count stays logarithmic-ish (far below n).
#[test]
fn large_scale_round_sanity() {
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::bipartite_gnp(1000, 1000, 8.0 / 2000.0, &mut rng);
    let r = bipartite(&g, 3, 1);
    let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
    assert!(3 * r.matching.size() >= 2 * opt);
    assert!(
        r.totals.stats.rounds < 2000,
        "rounds {} should be far below n = 2000",
        r.totals.stats.rounds
    );
}
