//! Property tests for [`Algorithm::resume`] under random interruption,
//! driven by the conformance registry — every portfolio implementor is
//! exercised on every case, so a new implementor inherits these
//! properties by registration alone.
//!
//! The machine-checkable form of "interrupt + resume equals an
//! uninterrupted run on the residual graph":
//!
//! * healing a randomly killed run is valid, avoids the dead, and keeps
//!   the family's guarantee on the residual graph (maximality for the
//!   maximal and bipartite families, surviving weight for the weighted
//!   driver);
//! * the per-family progress measure is monotone across the resume
//!   (surviving edges / cardinality / weight);
//! * resume is deterministic, and a second resume of an already-healed
//!   state is a fixpoint wherever the family promises one.

use dam_congest::{FaultPlan, SimConfig};
use dam_core::repair::{is_maximal_on_residual, sanitize_registers};
use dam_core::runtime::conformance::{registry, Entry, Kind};
use dam_core::runtime::{repair_registers, run_mm, RuntimeConfig};
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{generators, BitSet, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A small corpus graph fitting the entry's input family.
fn corpus(entry: &Entry, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(0xAB5E_17ED ^ seed);
    if entry.bipartite_input {
        return generators::bipartite_gnp(5, 5, 0.3, &mut rng);
    }
    let base = generators::gnp(12, 0.25, &mut rng);
    if matches!(entry.kind, Kind::WeightedHalf { .. }) {
        randomize_weights(&base, WeightDist::Uniform { lo: 0.5, hi: 4.0 }, &mut rng)
    } else {
        base
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kill a random node subset after a completed run, resume, and
    /// check every family guarantee on the residual graph — for every
    /// registered implementor.
    #[test]
    fn resume_heals_random_interruptions_per_implementor(
        graph_seed in 0u64..1000,
        kill_seed in 0u64..1000,
        sim_seed in 0u64..100,
    ) {
        for entry in registry() {
            let algo = entry.spec.build();
            let g = corpus(&entry, graph_seed);
            let n = g.node_count();
            let sim = SimConfig::congest_for(n, 8).seed(sim_seed);
            let rep = run_mm(&*algo, &g, &RuntimeConfig::new().sim(sim)).unwrap();

            let mut rng = StdRng::seed_from_u64(kill_seed);
            let alive: Vec<bool> = (0..n).map(|_| rng.random_bool(0.75)).collect();
            let alive_mask = BitSet::from_bools(&alive);
            let sane = sanitize_registers(&g, &rep.registers, &alive);
            let surviving_weight: f64 = sane
                .registers
                .iter()
                .flatten()
                .map(|&e| g.weight(e))
                .sum::<f64>()
                / 2.0; // each surviving edge is claimed by both endpoints

            let rr = repair_registers(
                &*algo, &g, &rep.registers, &alive_mask, &FaultPlan::default(), None, sim,
            )
            .unwrap();
            prop_assert!(rr.matching.validate(&g).is_ok(), "{}: invalid heal", entry.name);
            for e in rr.matching.to_edge_vec() {
                let (a, b) = g.endpoints(e);
                prop_assert!(alive[a] && alive[b], "{}: matched a dead node", entry.name);
            }
            match entry.kind {
                Kind::Maximal => {
                    // Surviving edges are kept verbatim, and the heal is
                    // maximal on the residual graph.
                    for e in sane.registers.iter().flatten() {
                        prop_assert!(
                            rr.matching.contains(*e),
                            "{}: surviving edge {e} dropped", entry.name
                        );
                    }
                    prop_assert!(
                        is_maximal_on_residual(&g, &rr.matching, &alive),
                        "{}: heal not maximal on residual", entry.name
                    );
                }
                Kind::BipartiteApprox { .. } => {
                    // Augmentation may flip surviving edges but never
                    // shrinks the matching; length-1 exhaustion implies
                    // residual maximality.
                    prop_assert!(
                        rr.matching.size() >= sane.surviving,
                        "{}: heal shrank the matching", entry.name
                    );
                    prop_assert!(
                        is_maximal_on_residual(&g, &rr.matching, &alive),
                        "{}: heal not maximal on residual", entry.name
                    );
                }
                Kind::WeightedHalf { .. } => {
                    prop_assert!(
                        rr.matching.weight(&g) + 1e-9 >= surviving_weight,
                        "{}: heal lost weight ({} < {})",
                        entry.name, rr.matching.weight(&g), surviving_weight
                    );
                }
            }

            // Resume is deterministic.
            let again = repair_registers(
                &*algo, &g, &rep.registers, &alive_mask, &FaultPlan::default(), None, sim,
            )
            .unwrap();
            prop_assert_eq!(
                rr.matching.to_edge_vec(), again.matching.to_edge_vec(),
                "{}: nondeterministic resume", entry.name
            );
        }
    }

    /// A second resume of an already-healed state is a fixpoint for the
    /// maximal and bipartite families, and weight-monotone for the
    /// weighted driver.
    #[test]
    fn healing_is_idempotent_per_implementor(
        graph_seed in 0u64..1000,
        kill_seed in 0u64..1000,
        sim_seed in 0u64..100,
    ) {
        for entry in registry() {
            let algo = entry.spec.build();
            let g = corpus(&entry, graph_seed);
            let n = g.node_count();
            let sim = SimConfig::congest_for(n, 8).seed(sim_seed);
            let rep = run_mm(&*algo, &g, &RuntimeConfig::new().sim(sim)).unwrap();

            let mut rng = StdRng::seed_from_u64(!kill_seed);
            let alive: Vec<bool> = (0..n).map(|_| rng.random_bool(0.7)).collect();
            let alive_mask = BitSet::from_bools(&alive);
            let healed = repair_registers(
                &*algo, &g, &rep.registers, &alive_mask, &FaultPlan::default(), None, sim,
            )
            .unwrap();
            // Rebuild the healed register array from its matching (the
            // heal's registers are exactly its matching's claims).
            let healed_regs: Vec<Option<usize>> = (0..n)
                .map(|v| healed.matching.matched_edge(v))
                .collect();
            let second = repair_registers(
                &*algo, &g, &healed_regs, &alive_mask, &FaultPlan::default(), None, sim,
            )
            .unwrap();
            prop_assert_eq!(second.dissolved, 0, "{}: healed state re-dissolved", entry.name);
            if entry.resume_fixpoint {
                prop_assert_eq!(
                    second.matching.to_edge_vec(), healed.matching.to_edge_vec(),
                    "{}: healed state is not a resume fixpoint", entry.name
                );
                prop_assert_eq!(second.added, 0, "{}: fixpoint resume added edges", entry.name);
            } else {
                prop_assert!(second.matching.validate(&g).is_ok());
                prop_assert!(
                    second.matching.weight(&g) + 1e-9 >= healed.matching.weight(&g),
                    "{}: idempotent resume lost weight", entry.name
                );
            }
        }
    }
}
