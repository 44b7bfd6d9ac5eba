//! Quickstart: five minutes with `dam`.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a random bipartite graph, computes matchings with the
//! baseline (Israeli–Itai), the paper's `(1−1/k)`-MCM (Theorem 3.10),
//! and the weighted `(½−ε)`-MWM (Theorem 4.5), comparing each against
//! the exact optimum.

use dam::congest::SimConfig;
use dam::core::israeli_itai::israeli_itai;
use dam::core::{run_mm, Bipartite, RuntimeConfig, Weighted};
use dam::graph::weights::{randomize_weights, WeightDist};
use dam::graph::{generators, hopcroft_karp, mwm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2026);

    // --- An unweighted bipartite instance: 60 + 60 nodes. -------------
    let g = generators::bipartite_gnp(60, 60, 0.08, &mut rng);
    let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
    println!("bipartite G(60,60,0.08): |E| = {}, OPT = {opt}", g.edge_count());

    // The classical baseline: a maximal matching (½-MCM) in O(log n).
    let ii = israeli_itai(&g, 1)?;
    println!(
        "  Israeli-Itai     : size {:>3} (ratio {:.3}) in {:>4} rounds",
        ii.matching.size(),
        ii.matching.size() as f64 / opt as f64,
        ii.stats.stats.rounds
    );

    // The paper's algorithm: (1 - 1/k)-MCM with O(log n)-bit messages,
    // run through the runtime on CONGEST(4 log n).
    let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(1));
    for k in [2, 3, 5] {
        let r = run_mm(&Bipartite { k, ..Bipartite::default() }, &g, &cfg)?;
        println!(
            "  LPP-MCM (k = {k}) : size {:>3} (ratio {:.3}) in {:>4} rounds, widest msg {} bits",
            r.matching.size(),
            r.matching.size() as f64 / opt as f64,
            r.totals.stats.rounds,
            r.totals.stats.max_message_bits,
        );
    }

    // --- A weighted instance on a general graph. -----------------------
    let base = generators::gnp(80, 0.07, &mut rng);
    let wg = randomize_weights(&base, WeightDist::Exponential { lambda: 1.0 }, &mut rng);
    let wopt = mwm::maximum_weight(&wg);
    println!("\nweighted G(80, 0.07), exponential weights: OPT = {wopt:.3}");
    // 64-bit gain messages: CONGEST(8 log n).
    let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(wg.node_count(), 8).seed(2));
    for eps in [0.2, 0.05] {
        let r = run_mm(&Weighted { eps, ..Weighted::default() }, &wg, &cfg)?;
        println!(
            "  Algorithm 5 (eps = {eps:.2}): weight {:.3} (ratio {:.3} >= {:.3}) in {} rounds",
            r.matching.weight(&wg),
            r.matching.weight(&wg) / wopt,
            0.5 - eps,
            r.totals.stats.rounds,
        );
    }
    Ok(())
}
