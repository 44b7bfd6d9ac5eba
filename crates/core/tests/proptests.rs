//! Property-based tests for the distributed algorithms.

use dam_congest::{
    BitSize, CorruptKind, FaultPlan, RecordingSink, SimConfig, SinkHandle, TransportCfg,
    TransportMode,
};
use dam_core::auction::{auction_mwm, AuctionConfig};
use dam_core::bipartite::Bipartite;
use dam_core::certify::{certify, check_registers};
use dam_core::hv::{hv_mwm, HvMwmConfig};
use dam_core::israeli_itai::IiMsg;
use dam_core::luby::{is_mis, luby_mis};
use dam_core::repair::{is_maximal_on_residual, sanitize_registers};
use dam_core::runtime::{repair_registers, run_mm, IsraeliItai, RuntimeConfig};
use dam_core::trees::tree_mcm;
use dam_core::weighted::local_max::local_max_mwm;
use dam_core::Weighted;
use dam_graph::{blossom, brute, hopcroft_karp, BitSet, Graph, GraphBuilder, Matching, Side};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Random bipartite graph with recorded bipartition.
fn arb_bipartite(max_half: usize) -> impl Strategy<Value = Graph> {
    (1usize..=max_half, 1usize..=max_half).prop_flat_map(|(a, b)| {
        let pairs: Vec<(usize, usize)> =
            (0..a).flat_map(|u| (a..a + b).map(move |v| (u, v))).collect();
        let m = pairs.len();
        proptest::collection::vec(0..m, 0..(2 * (a + b)).min(m)).prop_map(move |picks| {
            let mut builder = GraphBuilder::new(a + b);
            let mut seen = std::collections::HashSet::new();
            for i in picks {
                if seen.insert(i) {
                    builder.edge(pairs[i].0, pairs[i].1);
                }
            }
            builder
                .bipartition((0..a + b).map(|v| if v < a { Side::X } else { Side::Y }).collect());
            builder.build().expect("bipartite graph")
        })
    })
}

/// Random forest: a union of random trees over a node permutation.
fn arb_forest(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            // With probability 1/4 start a new component.
            if !rng.random_bool(0.25) {
                let parent = rng.random_range(0..v);
                b.edge(parent, v);
            }
        }
        b.build().expect("forest")
    })
}

/// Random small weighted graph (integer weights, exact arithmetic).
fn arb_weighted(max_n: usize, max_edges: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(move |n| {
        let all: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        let m = all.len();
        (
            proptest::collection::vec(0..m, 0..max_edges.min(m)),
            proptest::collection::vec(1u32..32, max_edges.min(m)),
        )
            .prop_map(move |(picks, ws)| {
                let mut b = GraphBuilder::new(n);
                let mut seen = std::collections::HashSet::new();
                for (idx, i) in picks.into_iter().enumerate() {
                    if seen.insert(i) {
                        b.weighted_edge(all[i].0, all[i].1, f64::from(ws[idx % ws.len()]));
                    }
                }
                b.force_weighted();
                b.build().expect("weighted graph")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 3.10 floor on arbitrary bipartite graphs.
    #[test]
    fn bipartite_ratio_floor(g in arb_bipartite(8), k in 2usize..5, seed in 0u64..100) {
        let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        let r = run_mm(&Bipartite { k, ..Bipartite::default() }, &g, &RuntimeConfig::new().sim(sim))
            .unwrap();
        prop_assert!(r.matching.validate(&g).is_ok());
        let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
        prop_assert!(
            r.matching.size() as f64 >= (1.0 - 1.0 / k as f64) * opt as f64 - 1e-9,
            "size {} vs bound (1-1/{})·{}", r.matching.size(), k, opt
        );
    }

    /// The auction's `n·ε` optimality bound on arbitrary bipartite
    /// weighted graphs.
    #[test]
    fn auction_eps_bound(g in arb_bipartite(6), seed in 0u64..100) {
        // Give the bipartite graph integer weights deterministically.
        let weights: Vec<f64> = g.edge_ids().map(|e| ((e * 7 + 3) % 10 + 1) as f64).collect();
        let g = if g.edge_count() > 0 { g.with_weights(weights).unwrap() } else { g };
        let eps = 0.05;
        let r = auction_mwm(&g, &AuctionConfig { eps, seed, ..Default::default() }).unwrap();
        prop_assert!(r.matching.validate(&g).is_ok());
        let opt = brute::maximum_weight(&g);
        let slack = g.node_count() as f64 * eps;
        prop_assert!(
            r.matching.weight(&g) >= opt - slack - 1e-9,
            "auction {} vs opt {} (slack {})",
            r.matching.weight(&g), opt, slack
        );
    }

    /// The tree protocol is exactly optimal on arbitrary forests.
    #[test]
    fn trees_exact_on_forests(g in arb_forest(24), seed in 0u64..100) {
        let r = tree_mcm(&g, seed).unwrap();
        prop_assert!(r.matching.validate(&g).is_ok());
        prop_assert_eq!(r.matching.size(), blossom::maximum_matching_size(&g));
    }

    /// Luby's MIS output is a maximal independent set on arbitrary
    /// graphs and seeds.
    #[test]
    fn luby_is_mis_everywhere(g in arb_weighted(14, 28), seed in 0u64..100) {
        let mis = luby_mis(&g, seed).unwrap();
        prop_assert!(is_mis(&g, &mis.in_mis));
    }

    /// Lemma 4.1 directly: for any matching `M` and any disjoint
    /// matching `M'` of positive-gain edges, applying all wraps yields a
    /// matching of weight at least `w(M) + w_M(M')`.
    #[test]
    fn lemma_4_1_gain_inequality(g in arb_weighted(10, 20), pick_seed in 0u64..1000) {
        use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
        let mut rng = StdRng::seed_from_u64(pick_seed);
        // M: greedy over a random order.
        let mut order: Vec<usize> = g.edge_ids().collect();
        order.shuffle(&mut rng);
        let mut m = Matching::new(&g);
        for &e in &order {
            let (u, v) = g.endpoints(e);
            if m.is_free(u) && m.is_free(v) {
                let _ = m.add(&g, e);
            }
        }
        // Drop half of M so gains exist.
        for e in m.to_edge_vec().into_iter().step_by(2) {
            m.remove(&g, e);
        }
        // Gains w_M.
        let gain = |e: usize| -> f64 {
            let (u, v) = g.endpoints(e);
            let mu = m.matched_edge(u).map_or(0.0, |f| g.weight(f));
            let mv = m.matched_edge(v).map_or(0.0, |f| g.weight(f));
            g.weight(e) - mu - mv
        };
        // M': greedy matching over positive-gain non-M edges.
        let mut mp: Vec<usize> = Vec::new();
        let mut used = vec![false; g.node_count()];
        order.shuffle(&mut rng);
        for &e in &order {
            if m.contains(e) || gain(e) <= 0.0 {
                continue;
            }
            let (u, v) = g.endpoints(e);
            if !used[u] && !used[v] {
                used[u] = true;
                used[v] = true;
                mp.push(e);
            }
        }
        let gain_sum: f64 = mp.iter().map(|&e| gain(e)).sum();
        // Apply all wraps.
        let mut m2 = m.clone();
        for &e in &mp {
            let (u, v) = g.endpoints(e);
            if let Some(f) = m2.matched_edge(u) {
                m2.remove(&g, f);
            }
            if let Some(f) = m2.matched_edge(v) {
                m2.remove(&g, f);
            }
            prop_assert!(m2.add(&g, e).is_ok(), "Lemma 4.1: M'' must be a matching");
        }
        prop_assert!(m2.validate(&g).is_ok());
        prop_assert!(
            m2.weight(&g) >= m.weight(&g) + gain_sum - 1e-9,
            "w(M'') = {} < w(M) + w_M(M') = {}",
            m2.weight(&g),
            m.weight(&g) + gain_sum
        );
    }

    /// Algorithm 5 over the local-max black box, from empty registers:
    /// iteration 1 sees gains equal to the weights, so it returns the
    /// local-max (greedy) matching of the true weights, and no later
    /// iteration changes it (`M′ = ∅`: greedy leaves no positive-gain
    /// wrap). With `ties`, the weights take three values only. A stats
    /// sink makes every iteration execute, so this checks the fact the
    /// driver's charged iterations rest on, not the charge.
    #[test]
    fn local_max_alg5_is_fixed_after_iteration_one(
        g in arb_weighted(12, 30),
        ties in any::<bool>(),
        seed in 0u64..100,
    ) {
        let g = if ties {
            let mut b = GraphBuilder::new(g.node_count());
            for e in g.edge_ids() {
                let (u, v) = g.endpoints(e);
                b.weighted_edge(u, v, 1.0 + g.weight(e) % 3.0);
            }
            b.force_weighted();
            b.build().expect("weighted graph")
        } else {
            g
        };
        let greedy = local_max_mwm(&g, seed).unwrap().matching.to_edge_vec();
        let sim = SimConfig::congest_for(g.node_count(), 8).seed(seed);
        let sink = SinkHandle::new(Arc::new(RecordingSink::new()));
        let cfg = RuntimeConfig::new().sim(sim).stats_sink(sink);
        // Two iterations at ε = δ = 1, nine at the defaults.
        for algo in [Weighted { eps: 1.0, delta: 1.0, ..Weighted::default() }, Weighted::default()] {
            let r = run_mm(&algo, &g, &cfg).unwrap();
            prop_assert_eq!(r.matching.to_edge_vec(), greedy.clone(), "{} iterations", r.iterations);
        }
    }
}

/// Random sparse `G(n, c/n)` graph, sized for fault-injection runs.
fn arb_gnp(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..=max_n, 0u64..1000).prop_map(|(n, seed)| {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        dam_graph::generators::gnp(n, 3.0 / n as f64, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `is_maximal_on_residual` agrees with brute force — try to extend
    /// the matching by every edge whose endpoints are both alive — on
    /// random graphs up to 12 nodes, including the all-dead and no-dead
    /// corners (forced by `mode` 0/1 so proptest cannot skip them).
    #[test]
    fn residual_maximality_matches_brute_force(
        n in 1usize..=12,
        edge_seed in 0u64..1000,
        pick_seed in 0u64..1000,
        mode in 0u8..3,
    ) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(edge_seed);
        let g = dam_graph::generators::gnp(n, 0.35, &mut rng);
        let mut rng = StdRng::seed_from_u64(pick_seed);
        // A random valid (not necessarily maximal) matching.
        let mut m = Matching::new(&g);
        for e in g.edge_ids() {
            if rng.random_bool(0.4) {
                let _ = m.add(&g, e);
            }
        }
        let alive: Vec<bool> = match mode {
            0 => vec![true; n],  // no-dead corner
            1 => vec![false; n], // all-dead corner
            _ => (0..n).map(|_| rng.random_bool(0.6)).collect(),
        };
        let brute_extendable = g.edge_ids().any(|e| {
            let (a, b) = g.endpoints(e);
            alive[a] && alive[b] && {
                let mut m2 = m.clone();
                m2.add(&g, e).is_ok()
            }
        });
        prop_assert_eq!(is_maximal_on_residual(&g, &m, &alive), !brute_extendable);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The self-healing pipeline on arbitrary graphs under arbitrary
    /// link faults and crash/recovery schedules: the repaired output is
    /// always a valid matching, never smaller than the surviving
    /// consistent matching, maximal on the residual graph, and leaves
    /// every dead node free.
    #[test]
    fn self_healing_always_valid_and_monotone(
        g in arb_gnp(20),
        loss in 0.0..0.25f64,
        dup in 0.0..0.1f64,
        reorder in 0.0..0.3f64,
        crash_seed in 0u64..1000,
        seed in 0u64..100,
    ) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let n = g.node_count();
        let mut rng = StdRng::seed_from_u64(crash_seed);
        let mut crashes = Vec::new();
        let mut recoveries = Vec::new();
        for v in 0..n {
            if rng.random_bool(0.15) {
                crashes.push((v, 1 + rng.random_range(0..15)));
                // Some crashed nodes reboot (with wiped state) later.
                if rng.random_bool(0.3) {
                    recoveries.push((v, 40 + rng.random_range(0..20)));
                }
            }
        }
        let plan = FaultPlan { crashes, recoveries, loss, dup, reorder, ..FaultPlan::default() };
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(seed).max_rounds(500_000))
            .transport(TransportCfg::default())
            .faults(plan)
            .repair(true);
        let rep = run_mm(&IsraeliItai, &g, &cfg).unwrap();

        prop_assert!(rep.matching.validate(&g).is_ok());
        prop_assert!(
            rep.matching.size() >= rep.surviving,
            "repair must keep the surviving matching: {} < {}",
            rep.matching.size(), rep.surviving
        );
        let mut alive = vec![true; n];
        for &v in &rep.excluded {
            alive[v] = false;
        }
        prop_assert!(is_maximal_on_residual(&g, &rep.matching, &alive));
        for &v in &rep.excluded {
            prop_assert!(rep.matching.is_free(v), "dead node {v} must end free");
        }
    }

    /// Register sanitation + repair from *arbitrary garbage registers*
    /// (dangling, asymmetric, out-of-range, non-incident): the surviving
    /// consistent matching is exactly what sanitation reports, every
    /// surviving edge is kept, and the result is maximal on the
    /// residual graph.
    #[test]
    fn repair_heals_arbitrary_registers(
        g in arb_gnp(16),
        reg_seed in 0u64..1000,
        alive_seed in 0u64..1000,
        loss in 0.0..0.2f64,
        seed in 0u64..100,
    ) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let n = g.node_count();
        let m = g.edge_count();
        let mut rng = StdRng::seed_from_u64(reg_seed);
        // Registers with all failure modes: None, valid edges, dangling
        // claims, and out-of-range ids (m..m+3).
        let registers: Vec<Option<usize>> = (0..n)
            .map(|_| rng.random_bool(0.5).then(|| rng.random_range(0..m + 3)))
            .collect();
        let mut rng = StdRng::seed_from_u64(alive_seed);
        let alive: Vec<bool> = (0..n).map(|_| rng.random_bool(0.85)).collect();

        let plan = FaultPlan { loss, ..FaultPlan::default() };
        let san = sanitize_registers(&g, &registers, &alive);
        let rep = repair_registers(
            &IsraeliItai,
            &g,
            &registers,
            &BitSet::from_bools(&alive),
            &plan,
            Some(TransportMode::Fixed(TransportCfg::default())),
            SimConfig::local().seed(seed).max_rounds(500_000),
        )
        .unwrap();

        prop_assert!(rep.matching.validate(&g).is_ok());
        prop_assert_eq!(rep.surviving, san.surviving);
        for (v, (&reg, &al)) in san.registers.iter().zip(&alive).enumerate() {
            if let Some(e) = reg {
                prop_assert!(rep.matching.contains(e), "surviving edge {e} was dropped");
            }
            if !al {
                prop_assert!(rep.matching.is_free(v), "dead node {v} must end free");
            }
        }
        prop_assert!(is_maximal_on_residual(&g, &rep.matching, &alive));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The HV algorithm run to exhaustion with unbounded length equals
    /// the exact maximum weight matching (local optimality ⇔ global
    /// optimality for matchings).
    #[test]
    fn hv_exhaustion_is_optimal(g in arb_weighted(7, 12), seed in 0u64..50) {
        let n = g.node_count();
        let cfg = HvMwmConfig { max_len: Some(2 * n + 1), seed, ..Default::default() };
        let r = hv_mwm(&g, &cfg).unwrap();
        prop_assert!(r.matching.validate(&g).is_ok());
        let opt = brute::maximum_weight(&g);
        prop_assert!(
            (r.matching.weight(&g) - opt).abs() < 1e-9,
            "HV exhaustion {} vs optimum {}",
            r.matching.weight(&g),
            opt
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Decode robustness: the 2-bit Israeli–Itai codewords survive
    /// arbitrary corruption chains without panicking, and the structured
    /// kinds decode exactly as documented (replays are identities,
    /// truncation destroys the codeword, forgeries read as acceptances).
    #[test]
    fn ii_codewords_decode_defensively(
        seed in any::<u64>(),
        picks in proptest::collection::vec(0usize..CorruptKind::ALL.len(), 1..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for start in [IiMsg::Propose, IiMsg::Accept, IiMsg::Dead] {
            let mut cur = Some(start);
            for &i in &picks {
                let kind = CorruptKind::ALL[i];
                let Some(msg) = cur else { break };
                let next = msg.corrupted(kind, &mut rng);
                match kind {
                    CorruptKind::Replay => prop_assert_eq!(next, Some(msg)),
                    CorruptKind::Truncate => prop_assert_eq!(next, None),
                    CorruptKind::Forge => prop_assert_eq!(next, Some(IiMsg::Accept)),
                    // BitFlip and Garbage land on any codeword, or on
                    // the unused `11` point and are dropped: any result
                    // is in the message's value space by construction.
                    CorruptKind::BitFlip | CorruptKind::Garbage => {}
                }
                cur = next;
            }
        }
    }

    /// The distributed proof-labeling checker and its centralized twin
    /// agree verdict-for-verdict on arbitrarily damaged register arrays
    /// (out-of-range edges, asymmetric claims, absences), never panic,
    /// and always finish in the constant detection window.
    #[test]
    fn certification_agrees_with_centralized_checker(
        n in 2usize..14,
        p in 0.05f64..0.5,
        seed in any::<u64>(),
    ) {
        use rand::RngExt;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = dam_graph::generators::gnp(n, p, &mut rng);
        let m = g.edge_count();
        let registers: Vec<Option<dam_graph::EdgeId>> = (0..n)
            .map(|v| match rng.random_range(0..4u8) {
                0 => None,
                // A claim on some edge of the graph (often not incident).
                1 => Some(rng.random_range(0..m.max(1))),
                // A claim on an edge that does not exist at all.
                2 => Some(m + rng.random_range(0..3)),
                // A claim on a genuinely incident edge: exercises the
                // symmetric-agreement and asymmetry paths.
                _ => {
                    let inc: Vec<_> = g.incident(v).map(|(_, _, e)| e).collect();
                    if inc.is_empty() {
                        None
                    } else {
                        Some(inc[rng.random_range(0..inc.len())])
                    }
                }
            })
            .collect();
        let present: Vec<bool> = (0..n).map(|_| rng.random_bool(0.85)).collect();
        let cert = certify(&g, &registers, &present, seed).unwrap();
        let edges = vec![true; m];
        prop_assert_eq!(&cert.verdicts, &check_registers(&g, &registers, &present, &edges));
        prop_assert!(cert.detection_rounds <= 2, "detection must stay in the constant window");
        prop_assert_eq!(cert.ok(), cert.flagged.is_empty());
    }
}
