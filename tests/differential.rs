//! Differential tests: independent implementations must agree.

use dam::congest::{Network, RunSpec, SimConfig};
use dam::core::israeli_itai::IiNode;
use dam::core::weighted::local_max::local_max_mwm;
use dam::graph::weights::{randomize_weights, WeightDist};
use dam::graph::{blossom, brute, generators, hopcroft_karp, hungarian, maximal, mwm};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// All four exact solvers agree on weighted bipartite instances.
#[test]
fn exact_solvers_agree_bipartite() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..25 {
        let base = generators::bipartite_gnp(6, 7, 0.4, &mut rng);
        let g = randomize_weights(&base, WeightDist::Integer { max: 15 }, &mut rng);
        let brute_w = brute::maximum_weight(&g);
        let hung = hungarian::maximum_weight_bipartite(&g);
        let gen = mwm::maximum_weight(&g);
        assert!((brute_w - hung).abs() < 1e-9, "brute {brute_w} vs hungarian {hung}");
        assert!((brute_w - gen).abs() < 1e-9, "brute {brute_w} vs mwm {gen}");
        // Cardinality: HK vs blossom vs brute.
        assert_eq!(
            hopcroft_karp::maximum_bipartite_matching_size(&base),
            blossom::maximum_matching_size(&base)
        );
        assert_eq!(blossom::maximum_matching_size(&base), brute::maximum_matching_size(&base));
    }
}

/// The distributed local-max equals the sequential local-max (identical
/// deterministic fixpoint), which in turn is a maximal matching.
#[test]
fn distributed_local_max_equals_sequential() {
    let mut rng = StdRng::seed_from_u64(12);
    for trial in 0..10 {
        let base = generators::gnp(30, 0.15, &mut rng);
        let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.1, hi: 9.0 }, &mut rng);
        let dist = local_max_mwm(&g, trial).unwrap().matching;
        let seq = maximal::local_max_mwm(&g);
        assert_eq!(dist.to_edge_vec(), seq.to_edge_vec(), "trial {trial}");
        assert!(maximal::is_maximal(&g, &dist));
    }
}

/// The parallel engine reproduces the sequential engine on a *real*
/// protocol (Israeli–Itai), bit for bit.
#[test]
fn parallel_engine_matches_sequential_on_israeli_itai() {
    let mut rng = StdRng::seed_from_u64(13);
    for trial in 0..5u64 {
        let g = generators::gnp(60, 0.08, &mut rng);
        let cfg = SimConfig::congest_for(g.node_count(), 4).seed(trial);
        let seq = Network::new(&g, cfg).run(|v, graph| IiNode::new(graph.degree(v))).unwrap();
        for threads in [2usize, 5] {
            let par = Network::new(&g, cfg.threads(threads))
                .execute(|v, graph| IiNode::new(graph.degree(v)), &RunSpec::default())
                .unwrap();
            assert_eq!(seq.outputs, par.outputs, "trial {trial}, {threads} threads");
            assert_eq!(seq.stats, par.stats, "trial {trial}, {threads} threads");
        }
    }
}

/// The sequential `Aug` reference (maximal disjoint shortest paths) and
/// the distributed bipartite machinery leave matchings of the same size
/// when run phase by phase — both implement Hopcroft–Karp phases.
#[test]
fn distributed_phases_match_sequential_hk_phases() {
    use dam::congest::SimConfig;
    use dam::core::{run_mm, Bipartite, RuntimeConfig};
    use dam::graph::paths::{augment_all, maximal_disjoint_paths, shortest_augmenting_path_len};
    use dam::graph::Matching;

    let mut rng = StdRng::seed_from_u64(14);
    for seed in 0..5u64 {
        let g = generators::bipartite_gnp(20, 20, 0.12, &mut rng);
        let k = 3usize;
        // Sequential: repeat maximal-shortest-augmentation while the
        // shortest path length is <= 2k-1.
        let mut m = Matching::new(&g);
        while let Some(l) = shortest_augmenting_path_len(&g, &m).unwrap() {
            if l > 2 * k - 1 {
                break;
            }
            let ps = maximal_disjoint_paths(&g, &m, l, Some(l));
            augment_all(&g, &mut m, &ps).unwrap();
        }
        let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        let algo = Bipartite { k, ..Bipartite::default() };
        let dist = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).unwrap().matching;
        // Both satisfy the same postcondition, hence the same Lemma 3.3
        // floor; sizes may differ by the randomness but both must be
        // >= (1-1/k)·OPT and neither can exceed OPT.
        let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
        for (name, size) in [("sequential", m.size()), ("distributed", dist.size())] {
            assert!(
                size as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9 && size <= opt,
                "seed {seed} {name}: size {size} vs opt {opt}"
            );
        }
    }
}

/// Footnote 2 end-to-end: Israeli–Itai — a real randomized matching
/// protocol — run on the *asynchronous* backend (α-synchronizer,
/// adversarially skewed link delays) computes exactly the matching the
/// synchronous engine computes, with the same stats but for the
/// synchronizer's markers.
#[test]
fn israeli_itai_is_asynchrony_proof() {
    use dam::congest::{Backend, DelayModel};
    let make = |v: usize, graph: &dyn dam::graph::Topology| IiNode::new(graph.degree(v));
    let mut rng = StdRng::seed_from_u64(16);
    for trial in 0..5u64 {
        let g = generators::gnp(30, 0.15, &mut rng);
        let cfg = SimConfig::local().seed(trial);
        let sync = Network::new(&g, cfg).run(make).unwrap();
        for delays in [DelayModel::UniformRandom { max: 25 }, DelayModel::LinkSkew { spread: 11 }] {
            let async_cfg = cfg.backend(Backend::Async).delay(delays);
            let out = Network::new(&g, async_cfg).execute(make, &RunSpec::default()).unwrap();
            assert_eq!(out.outputs, sync.outputs, "trial {trial}, {delays:?}");
            assert!(out.stats.markers > 0, "the synchronizer must pay its overhead");
            let mut stats = out.stats;
            stats.markers = 0;
            assert_eq!(stats, sync.stats, "trial {trial}, {delays:?}");
        }
    }
}

/// Maximal matchings from every implementation are within 2x of each
/// other (they all 2-approximate the same optimum).
#[test]
fn maximal_matchings_mutually_2_approximate() {
    let mut rng = StdRng::seed_from_u64(15);
    for trial in 0..10 {
        let g = generators::gnp(40, 0.1, &mut rng);
        let a = dam::core::israeli_itai::israeli_itai(&g, trial).unwrap().matching.size();
        let b = maximal::random_maximal_matching(&g, &mut rng).size();
        let c = maximal::greedy_mwm(&g).size();
        let lo = a.min(b).min(c).max(1);
        let hi = a.max(b).max(c);
        assert!(hi <= 2 * lo, "trial {trial}: sizes {a},{b},{c}");
    }
}
