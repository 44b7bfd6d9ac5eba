//! E10: ablations over the design choices called out in `DESIGN.md`.

use dam_congest::{CostModel, SimConfig};
use dam_core::general::{general_mcm, paper_iteration_bound, GeneralMcmConfig};
use dam_core::report::IterationPolicy;
use dam_core::weighted::BlackBox;
use dam_core::{run_mm, Bipartite, RuntimeConfig, Weighted};
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{blossom, generators, mwm};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f, f2, Table};

/// E10 — four ablations:
/// (a) Algorithm 5's black box: local-max vs the proposal heuristic;
/// (b) round accounting: unit vs pipelined cost for the bipartite
///     machinery (the Lemma 3.9 chunking charge);
/// (c) Algorithm 4: adaptive termination vs the paper's fixed bound;
/// (d) bipartite machinery: cold start vs Israeli–Itai warm start.
pub fn e10(ctx: &ExpContext) -> Vec<Table> {
    let seeds = ctx.size(4, 2) as u64;

    // (a) black-box choice.
    let n = ctx.size(50, 20);
    let mut a = Table::new(
        "ablation a: Algorithm 5 black box",
        &["black box", "mean ratio", "mean rounds"],
    );
    for (name, bb) in [
        ("local-max (delta=1/2)", BlackBox::LocalMax),
        ("proposal x8", BlackBox::Proposal { iterations: 8 }),
        ("proposal x2", BlackBox::Proposal { iterations: 2 }),
    ] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(8000 + seed);
            let base = generators::gnp(n, 6.0 / n as f64, &mut rng);
            let g = randomize_weights(&base, WeightDist::Uniform { lo: 0.1, hi: 3.0 }, &mut rng);
            let cfg =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(seed));
            let alg5 = Weighted { eps: 0.05, black_box: bb, ..Weighted::default() };
            let r = run_mm(&alg5, &g, &cfg).expect("alg5");
            let opt = mwm::maximum_weight(&g).max(f64::MIN_POSITIVE);
            ratios.push(r.matching.weight(&g) / opt);
            rounds.push(r.totals.stats.rounds as f64);
        }
        a.row(vec![name.to_string(), f(mean(&ratios)), f2(mean(&rounds))]);
    }

    // (b) cost model.
    let mut b = Table::new(
        "ablation b: unit vs pipelined rounds (bipartite)",
        &["k", "unit rounds", "pipelined charged", "inflation"],
    );
    let half = ctx.size(100, 24);
    for k in [2usize, 3, 4] {
        let mut unit = Vec::new();
        let mut charged = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(8100 + seed);
            let g = generators::bipartite_gnp(half, half, 8.0 / (2.0 * half as f64), &mut rng);
            let sim =
                SimConfig::congest_for(g.node_count(), 4).seed(seed).cost(CostModel::Pipelined);
            let algo = Bipartite { k, ..Bipartite::default() };
            let r = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).expect("bipartite");
            unit.push(r.totals.stats.rounds as f64);
            charged.push(r.totals.stats.charged_rounds as f64);
        }
        b.row(vec![
            k.to_string(),
            f2(mean(&unit)),
            f2(mean(&charged)),
            f2(mean(&charged) / mean(&unit)),
        ]);
    }

    // (c) Algorithm 4 iteration policy.
    let mut c = Table::new(
        "ablation c: Algorithm 4 iteration policy (k=2)",
        &["policy", "iterations", "mean ratio", "mean rounds"],
    );
    let gn = ctx.size(40, 18);
    for (name, policy) in [
        ("adaptive p=4", IterationPolicy::Adaptive { patience: 4, cap: 100_000 }),
        ("adaptive p=12", IterationPolicy::Adaptive { patience: 12, cap: 100_000 }),
        ("paper-fixed (67)", IterationPolicy::Fixed(paper_iteration_bound(2))),
    ] {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        let mut iters = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(8200 + seed);
            let g = generators::gnp(gn, 5.0 / gn as f64, &mut rng);
            let cfg = GeneralMcmConfig { k: 2, seed, policy, ..Default::default() };
            let r = general_mcm(&g, &cfg).expect("general");
            let opt = blossom::maximum_matching_size(&g).max(1);
            ratios.push(r.matching.size() as f64 / opt as f64);
            rounds.push(r.stats.stats.rounds as f64);
            iters.push(r.iterations as f64);
        }
        c.row(vec![name.to_string(), f2(mean(&iters)), f(mean(&ratios)), f2(mean(&rounds))]);
    }

    // (d) bipartite warm start.
    let mut d = Table::new(
        "ablation d: bipartite warm start (k=3)",
        &["variant", "mean passes", "mean rounds", "mean ratio"],
    );
    for (name, warm) in [("cold", false), ("II warm start", true)] {
        let mut passes = Vec::new();
        let mut rounds = Vec::new();
        let mut ratios = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(8300 + seed);
            let g = generators::bipartite_gnp(half, half, 8.0 / (2.0 * half as f64), &mut rng);
            let cfg =
                RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(seed));
            let algo = Bipartite { k: 3, warm_start: warm, ..Bipartite::default() };
            let r = run_mm(&algo, &g, &cfg).expect("bipartite");
            let opt = dam_graph::hopcroft_karp::maximum_bipartite_matching_size(&g).max(1);
            passes.push(r.iterations as f64);
            rounds.push(r.totals.stats.rounds as f64);
            ratios.push(r.matching.size() as f64 / opt as f64);
        }
        d.row(vec![name.to_string(), f2(mean(&passes)), f2(mean(&rounds)), f(mean(&ratios))]);
    }

    vec![a, b, c, d]
}
