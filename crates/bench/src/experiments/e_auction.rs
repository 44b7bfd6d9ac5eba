//! E13: price-based vs augmenting-path-based weighted matching — the
//! Bertsekas auction against Algorithm 5 and the exact oracle.

use dam_congest::SimConfig;
use dam_core::auction::{auction_mwm, AuctionConfig};
use dam_core::{run_mm, RuntimeConfig, Weighted};
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{generators, hungarian};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f, f2, Table};

/// E13 — weighted bipartite assignment: auction (ratio → 1 as ε → 0,
/// pseudo-polynomial rounds) vs Algorithm 5 (`½−ε` floor, `O(log n)`
/// rounds). The trade-off the §1 job/server story implies.
pub fn e13(ctx: &ExpContext) -> Vec<Table> {
    let half = ctx.size(30, 12);
    let seeds = ctx.size(4, 2) as u64;
    let mut t = Table::new(
        "auction vs Algorithm 5 (bipartite, integer weights)",
        &["algorithm", "param", "mean ratio", "mean rounds"],
    );
    let instance = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(9500 + seed);
        let base = generators::bipartite_gnp(half, half, 0.3, &mut rng);
        randomize_weights(&base, WeightDist::Integer { max: 20 }, &mut rng)
    };
    // Auction at three ε levels.
    for eps in [2.0, 0.5, 0.05] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let g = instance(seed);
            let opt = hungarian::maximum_weight_bipartite(&g).max(f64::MIN_POSITIVE);
            let r = auction_mwm(&g, &AuctionConfig { eps, seed, ..Default::default() })
                .expect("auction");
            ratios.push(r.matching.weight(&g) / opt);
            rounds.push(r.stats.stats.rounds as f64);
        }
        t.row(vec![
            "auction".to_string(),
            format!("eps={eps}"),
            f(mean(&ratios)),
            f2(mean(&rounds)),
        ]);
    }
    // Algorithm 5 for contrast.
    for eps in [0.2, 0.05] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let g = instance(seed);
            let opt = hungarian::maximum_weight_bipartite(&g).max(f64::MIN_POSITIVE);
            let cfg =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(seed));
            let r = run_mm(&Weighted { eps, ..Weighted::default() }, &g, &cfg).expect("alg5");
            ratios.push(r.matching.weight(&g) / opt);
            rounds.push(r.totals.stats.rounds as f64);
        }
        t.row(vec![
            "Algorithm 5".to_string(),
            format!("eps={eps}"),
            f(mean(&ratios)),
            f2(mean(&rounds)),
        ]);
    }

    // Auction round growth with the weight scale (pseudo-polynomial).
    let mut t2 = Table::new(
        "auction rounds vs weight scale (eps=0.5)",
        &["w_max", "mean rounds", "mean ratio"],
    );
    for w_max in [5u64, 20, 80, 320] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(9600 + seed);
            let base = generators::bipartite_gnp(half, half, 0.3, &mut rng);
            let g = randomize_weights(&base, WeightDist::Integer { max: w_max }, &mut rng);
            let opt = hungarian::maximum_weight_bipartite(&g).max(f64::MIN_POSITIVE);
            let r = auction_mwm(&g, &AuctionConfig { eps: 0.5, seed, ..Default::default() })
                .expect("auction");
            ratios.push(r.matching.weight(&g) / opt);
            rounds.push(r.stats.stats.rounds as f64);
        }
        t2.row(vec![w_max.to_string(), f2(mean(&rounds)), f(mean(&ratios))]);
    }
    vec![t, t2]
}
