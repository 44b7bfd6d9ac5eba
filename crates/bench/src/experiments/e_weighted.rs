//! E4 and E7: the weighted matching theorem and its baselines.

use dam_congest::SimConfig;
use dam_core::weighted::local_max::local_max_mwm;
use dam_core::{run_mm, RuntimeConfig, Weighted};
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{generators, maximal, mwm, pettie_sanders, Graph, Matching};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f, f2, Table};

fn weighted_instance(n: usize, dist: WeightDist, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(4000 + seed);
    let base = generators::gnp(n, 6.0 / n as f64, &mut rng);
    randomize_weights(&base, dist, &mut rng)
}

/// E4 — Theorem 4.5: `(½−ε)`-MWM ratio and `O(log ε⁻¹ log n)` rounds.
pub fn e4(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(80, 24);
    let seeds = ctx.size(4, 2) as u64;
    let mut t = Table::new(
        "weighted ratio vs eps",
        &["eps", "bound 1/2-eps", "iters", "min ratio", "mean ratio", "mean rounds"],
    );
    for eps in [0.5, 0.2, 0.1, 0.05, 0.02] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        let mut iters = 0usize;
        for seed in 0..seeds {
            let g = weighted_instance(n, WeightDist::Exponential { lambda: 1.0 }, seed);
            let cfg =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(seed));
            let r =
                run_mm(&Weighted { eps, ..Weighted::default() }, &g, &cfg).expect("weighted mwm");
            iters = r.iterations;
            let opt = mwm::maximum_weight(&g);
            ratios.push(if opt == 0.0 { 1.0 } else { r.matching.weight(&g) / opt });
            rounds.push(r.totals.stats.rounds as f64);
        }
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        t.row(vec![
            f(eps),
            f(0.5 - eps),
            iters.to_string(),
            f(min),
            f(mean(&ratios)),
            f2(mean(&rounds)),
        ]);
    }

    // Round scaling vs n at fixed eps.
    let sizes: Vec<usize> = if ctx.quick { vec![32, 64] } else { vec![64, 128, 256, 512, 1024] };
    let mut t2 = Table::new("weighted rounds vs n (eps=0.1)", &["n", "mean rounds"]);
    for &nn in &sizes {
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let g = weighted_instance(nn, WeightDist::Uniform { lo: 0.1, hi: 2.0 }, 50 + seed);
            let cfg =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(seed));
            let r = run_mm(&Weighted::default(), &g, &cfg).expect("weighted mwm");
            rounds.push(r.totals.stats.rounds as f64);
        }
        t2.row(vec![nn.to_string(), f2(mean(&rounds))]);
    }
    vec![t, t2]
}

/// E7 — weighted baselines: the `½` family (sequential greedy,
/// path-growing, distributed local-max) against Algorithm 5, including
/// the adversarial greedy trap.
pub fn e7(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(60, 20);
    let seeds = ctx.size(5, 2) as u64;
    let mut t = Table::new(
        "weighted baselines mean ratio",
        &["family", "greedy", "path-grow", "local-max(dist)", "alg5 eps=.05", "pettie-sanders"],
    );
    let families: super::SeedFamilies = vec![
        (
            "gnp uniform w",
            Box::new(move |s| weighted_instance(n, WeightDist::Uniform { lo: 0.1, hi: 3.0 }, s)),
        ),
        (
            "gnp powers-of-2",
            Box::new(move |s| weighted_instance(n, WeightDist::PowersOfTwo { classes: 12 }, s)),
        ),
        ("greedy trap", Box::new(move |_| generators::greedy_trap(n / 4, 0.2))),
        ("3-edge series", Box::new(move |_| generators::three_edge_series())),
    ];
    for (name, make) in &families {
        let mut sums = [0.0f64; 5];
        for seed in 0..seeds {
            let g = make(seed);
            let opt = mwm::maximum_weight(&g).max(f64::MIN_POSITIVE);
            sums[0] += maximal::greedy_mwm(&g).weight(&g) / opt;
            sums[1] += maximal::path_growing_mwm(&g).weight(&g) / opt;
            sums[2] += local_max_mwm(&g, seed).expect("local max").matching.weight(&g) / opt;
            let cfg =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(seed));
            let alg5 = Weighted { eps: 0.05, ..Weighted::default() };
            sums[3] += run_mm(&alg5, &g, &cfg).expect("alg5").matching.weight(&g) / opt;
            let mut rng = StdRng::seed_from_u64(4600 + seed);
            let ps = pettie_sanders::pettie_sanders_mwm(&g, Matching::new(&g), 10, &mut rng);
            sums[4] += ps.weight(&g) / opt;
        }
        let k = seeds as f64;
        t.row(vec![
            (*name).to_string(),
            f(sums[0] / k),
            f(sums[1] / k),
            f(sums[2] / k),
            f(sums[3] / k),
            f(sums[4] / k),
        ]);
    }
    vec![t]
}
