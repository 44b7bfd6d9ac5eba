//! Property-based tests (proptest) over random graphs, matchings and
//! weight functions.

use dam::graph::{
    blossom, brute, conflict::ConflictGraph, generators, hopcroft_karp, maximal, mwm, paths, Graph,
    Matching,
};
use proptest::prelude::*;

/// Strategy: a random simple graph on `2..=max_n` nodes given a list of
/// candidate edges chosen by index.
fn arb_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let all: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        let m = all.len();
        proptest::collection::vec(0..m, 0..max_edges.min(m)).prop_map(move |picks| {
            let mut b = Graph::builder(n);
            let mut seen = std::collections::HashSet::new();
            for i in picks {
                if seen.insert(i) {
                    b.edge(all[i].0, all[i].1);
                }
            }
            b.build().expect("simple graphs are valid")
        })
    })
}

/// Strategy: the same with random positive weights.
fn arb_weighted_graph(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    arb_graph(max_n, max_edges).prop_flat_map(|g| {
        let m = g.edge_count();
        proptest::collection::vec(1u32..100, m..=m).prop_map(move |ws| {
            g.with_weights(ws.iter().map(|&w| f64::from(w)).collect()).expect("positive weights")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Toggling an augmenting path twice restores the matching exactly.
    #[test]
    fn toggle_is_an_involution(g in arb_graph(10, 20)) {
        let m0 = maximal::greedy_mwm(&g);
        // Remove one edge to re-open augmenting paths.
        let mut m = m0.clone();
        if let Some(e) = m.to_edge_vec().first().copied() {
            m.remove(&g, e);
        }
        let before = m.to_edge_vec();
        for p in paths::enumerate_augmenting_paths(&g, &m, 5).into_iter().take(3) {
            let mut m2 = m.clone();
            m2.toggle(&g, p.edges()).unwrap();
            prop_assert!(m2.validate(&g).is_ok());
            prop_assert_eq!(m2.size(), m.size() + 1);
            m2.toggle(&g, p.edges()).unwrap();
            prop_assert_eq!(m2.to_edge_vec(), before.clone());
        }
    }

    /// Blossom agrees with brute force on arbitrary graphs.
    #[test]
    fn blossom_is_exact(g in arb_graph(9, 16)) {
        prop_assert_eq!(blossom::maximum_matching_size(&g), brute::maximum_matching_size(&g));
    }

    /// Exact MWM agrees with brute force on arbitrary weighted graphs.
    #[test]
    fn mwm_is_exact(g in arb_weighted_graph(8, 13)) {
        let a = mwm::maximum_weight(&g);
        let b = brute::maximum_weight(&g);
        prop_assert!((a - b).abs() < 1e-6, "mwm {} vs brute {}", a, b);
    }

    /// Every ½-baseline really achieves ½ of the exact optimum.
    #[test]
    fn half_baselines_hold(g in arb_weighted_graph(9, 14)) {
        let opt = brute::maximum_weight(&g);
        prop_assert!(maximal::greedy_mwm(&g).weight(&g) >= 0.5 * opt - 1e-9);
        prop_assert!(maximal::path_growing_mwm(&g).weight(&g) >= 0.5 * opt - 1e-9);
        prop_assert!(maximal::local_max_mwm(&g).weight(&g) >= 0.5 * opt - 1e-9);
    }

    /// Lemma 3.3 (Hopcroft–Karp): if the shortest augmenting path has
    /// length 2k-1, the matching is a (1-1/k) approximation.
    #[test]
    fn lemma_3_3_bound(g in arb_graph(10, 18)) {
        let mut m = Matching::new(&g);
        // Build some matching by augmenting along length-1 paths only.
        let ps = paths::maximal_disjoint_paths(&g, &m, 1, Some(1));
        paths::augment_all(&g, &mut m, &ps).unwrap();
        // Shortest augmenting path is now >= 3 (k = 2).
        let all1 = paths::enumerate_augmenting_paths(&g, &m, 1);
        prop_assert!(all1.is_empty(), "maximality failed");
        let opt = brute::maximum_matching_size(&g);
        prop_assert!(2 * m.size() >= opt, "Lemma 3.3 k=2 violated: {} vs {}", m.size(), opt);
    }

    /// Conflict-graph MIS selection always yields disjoint, applicable
    /// augmentations (Definition 3.1 / Algorithm 1 step 7).
    #[test]
    fn conflict_mis_augments_cleanly(g in arb_graph(9, 14)) {
        let mut m = Matching::new(&g);
        for l in [1usize, 3] {
            let c = ConflictGraph::build(&g, &m, l);
            let mis = c.greedy_mis();
            prop_assert!(c.is_maximal_independent(&mis));
            let chosen = c.select(&mis);
            let before = m.size();
            paths::augment_all(&g, &mut m, &chosen).unwrap();
            prop_assert!(m.validate(&g).is_ok());
            prop_assert_eq!(m.size(), before + chosen.len());
        }
    }

    /// matching_from_registers accepts exactly the consistent register
    /// assignments.
    #[test]
    fn registers_consistency(g in arb_graph(8, 12), corrupt in any::<bool>()) {
        let m = maximal::greedy_mwm(&g);
        let mut regs: Vec<Option<usize>> = (0..g.node_count()).map(|v| m.matched_edge(v)).collect();
        if corrupt && m.size() > 0 {
            // Point one endpoint somewhere else.
            let v = regs.iter().position(|r| r.is_some()).unwrap();
            regs[v] = None;
            let res = dam::core::report::matching_from_registers(&g, &regs);
            prop_assert!(res.is_err());
        } else {
            let rebuilt = dam::core::report::matching_from_registers(&g, &regs).unwrap();
            prop_assert_eq!(rebuilt.to_edge_vec(), m.to_edge_vec());
        }
    }

    /// Hopcroft–Karp equals blossom on bipartite instances.
    #[test]
    fn hk_equals_blossom_on_bipartite(seed in 0u64..500) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::bipartite_gnp(7, 8, 0.3, &mut rng);
        prop_assert_eq!(
            hopcroft_karp::maximum_bipartite_matching_size(&g),
            blossom::maximum_matching_size(&g)
        );
    }

    /// The distributed weighted algorithm never violates its floor, for
    /// arbitrary weighted graphs (not just the generators).
    #[test]
    fn weighted_floor_on_arbitrary_graphs(g in arb_weighted_graph(8, 12), seed in 0u64..50) {
        use dam::core::{run_mm, RuntimeConfig, Weighted};
        let sim = dam::congest::SimConfig::congest_for(g.node_count(), 8).seed(seed);
        let r = run_mm(&Weighted::default(), &g, &RuntimeConfig::new().sim(sim)).unwrap();
        prop_assert!(r.matching.validate(&g).is_ok());
        let opt = brute::maximum_weight(&g);
        prop_assert!(r.matching.weight(&g) >= (0.5 - 0.1) * opt - 1e-9);
    }

    /// Israeli–Itai always terminates with a maximal matching, for
    /// arbitrary graphs and seeds.
    #[test]
    fn israeli_itai_always_maximal(g in arb_graph(12, 24), seed in 0u64..100) {
        let r = dam::core::israeli_itai::israeli_itai(&g, seed).unwrap();
        prop_assert!(r.matching.validate(&g).is_ok());
        prop_assert!(maximal::is_maximal(&g, &r.matching));
    }
}
