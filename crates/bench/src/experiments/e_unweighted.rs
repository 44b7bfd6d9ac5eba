//! E1–E3: the unweighted approximation theorems.

use dam_congest::{CostModel, SimConfig};
use dam_core::general::{general_mcm, paper_iteration_bound, GeneralMcmConfig};
use dam_core::report::IterationPolicy;
use dam_core::{run_mm, Bipartite, RuntimeConfig};
use dam_graph::{blossom, generators, hopcroft_karp};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::{log_fit, mean};
use crate::table::{f, f2, Table};

/// E1 — Theorem 3.10: measured ratio vs the `(1−1/k)` bound on random
/// and adversarial bipartite graphs.
pub fn e1(ctx: &ExpContext) -> Vec<Table> {
    let half = ctx.size(100, 24);
    let seeds = ctx.size(5, 2) as u64;
    let mut t = Table::new(
        "bipartite ratio vs k",
        &["family", "k", "bound 1-1/k", "min ratio", "mean ratio", "mean rounds"],
    );
    let families: super::RngFamilies = vec![
        (
            "gnp(n/2,n/2,8/n)",
            Box::new(move |rng| {
                generators::bipartite_gnp(half, half, 8.0 / (2.0 * half as f64), rng)
            }),
        ),
        (
            "regular-out d=4",
            Box::new(move |rng| generators::bipartite_regular_out(half, half, 4, rng)),
        ),
        ("P6 components", Box::new(move |_| generators::disjoint_paths(half / 3, 5))),
    ];
    for (name, make) in &families {
        for k in [2usize, 3, 4, 5] {
            let mut ratios = Vec::new();
            let mut rounds = Vec::new();
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(1000 + seed);
                let g = make(&mut rng);
                let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
                let algo = Bipartite { k, ..Bipartite::default() };
                let r = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).expect("bipartite mcm");
                let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
                ratios.push(if opt == 0 { 1.0 } else { r.matching.size() as f64 / opt as f64 });
                rounds.push(r.totals.stats.rounds as f64);
            }
            let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
            t.row(vec![
                (*name).to_string(),
                k.to_string(),
                f(1.0 - 1.0 / k as f64),
                f(min),
                f(mean(&ratios)),
                f2(mean(&rounds)),
            ]);
        }
    }
    vec![t]
}

/// E2 — Theorem 3.10: rounds vs `n` at fixed `k` (should fit
/// `a·log₂ n + b`).
pub fn e2(ctx: &ExpContext) -> Vec<Table> {
    let sizes: Vec<usize> =
        if ctx.quick { vec![64, 128, 256] } else { vec![64, 128, 256, 512, 1024, 2048, 4096] };
    let seeds = ctx.size(3, 2) as u64;
    let k = 3usize;
    let mut t = Table::new(
        "bipartite rounds vs n (k=3)",
        &["n", "mean rounds", "mean charged rounds", "mean passes", "max msg bits"],
    );
    let mut ns = Vec::new();
    let mut ys = Vec::new();
    for &n in &sizes {
        let half = n / 2;
        let mut rounds = Vec::new();
        let mut charged = Vec::new();
        let mut passes = Vec::new();
        let mut maxbits = 0usize;
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(2000 + seed);
            let g = generators::bipartite_gnp(half, half, 8.0 / n as f64, &mut rng);
            let sim =
                SimConfig::congest_for(g.node_count(), 4).seed(seed).cost(CostModel::Pipelined);
            let algo = Bipartite { k, ..Bipartite::default() };
            let r = run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).expect("bipartite mcm");
            rounds.push(r.totals.stats.rounds as f64);
            charged.push(r.totals.stats.charged_rounds as f64);
            passes.push(r.iterations as f64);
            maxbits = maxbits.max(r.totals.stats.max_message_bits);
        }
        ns.push(n);
        ys.push(mean(&rounds));
        t.row(vec![
            n.to_string(),
            f2(mean(&rounds)),
            f2(mean(&charged)),
            f2(mean(&passes)),
            maxbits.to_string(),
        ]);
    }
    let (a, b, r2) = log_fit(&ns, &ys);
    let mut fit = Table::new("rounds = a*log2(n)+b fit", &["a", "b", "r^2"]);
    fit.row(vec![f2(a), f2(b), f(r2)]);
    vec![t, fit]
}

/// E3 — Theorem 3.15: Algorithm 4 on general graphs; adaptive vs the
/// paper's fixed iteration bound.
pub fn e3(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(60, 24);
    let seeds = ctx.size(4, 2) as u64;
    let mut t = Table::new(
        "general (1-1/k)-MCM",
        &["family", "k", "policy", "bound", "min ratio", "mean ratio", "mean iters", "mean rounds"],
    );
    let families: super::RngFamilies = vec![
        ("gnp(n,6/n)", Box::new(move |rng| generators::gnp(n, 6.0 / n as f64, rng))),
        ("4-regular", Box::new(move |rng| generators::random_regular(n, 4, rng))),
        ("C_n odd", Box::new(move |_| generators::cycle(n | 1))),
    ];
    for (name, make) in &families {
        for k in [2usize, 3] {
            for (policy_name, policy) in [
                ("adaptive", IterationPolicy::Adaptive { patience: 12, cap: 100_000 }),
                ("paper-fixed", IterationPolicy::Fixed(paper_iteration_bound(k))),
            ] {
                if policy_name == "paper-fixed" && k > 2 && ctx.quick {
                    continue; // 563 iterations is long for a smoke run
                }
                let mut ratios = Vec::new();
                let mut iters = Vec::new();
                let mut rounds = Vec::new();
                for seed in 0..seeds {
                    let mut rng = StdRng::seed_from_u64(3000 + seed);
                    let g = make(&mut rng);
                    let cfg = GeneralMcmConfig { k, seed, policy, ..Default::default() };
                    let r = general_mcm(&g, &cfg).expect("general mcm");
                    let opt = blossom::maximum_matching_size(&g);
                    ratios.push(if opt == 0 { 1.0 } else { r.matching.size() as f64 / opt as f64 });
                    iters.push(r.iterations as f64);
                    rounds.push(r.stats.stats.rounds as f64);
                }
                let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
                t.row(vec![
                    (*name).to_string(),
                    k.to_string(),
                    policy_name.to_string(),
                    f(1.0 - 1.0 / k as f64),
                    f(min),
                    f(mean(&ratios)),
                    f2(mean(&iters)),
                    f2(mean(&rounds)),
                ]);
            }
        }
    }
    vec![t]
}
