//! E11: the implemented extensions — the §4-Remark `(1−ε)`-MWM, the
//! `b`-matching generalization, and the matching LCA.

use dam_core::hv::{hv_mwm, HvMwmConfig};
use dam_core::lca::MatchingLca;
use dam_core::weighted::b_local_max::b_local_max;
use dam_core::{run_mm, RuntimeConfig, Weighted};
use dam_graph::bmatching::greedy_b_matching;
use dam_graph::weights::{randomize_weights, WeightDist};
use dam_graph::{generators, mwm};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f, f2, Table};

/// E11 — extensions.
pub fn e11(ctx: &ExpContext) -> Vec<Table> {
    let seeds = ctx.size(4, 2) as u64;

    // (a) HV (1−ε)-MWM vs Algorithm 5 across the trap and random inputs.
    let n = ctx.size(30, 14);
    let mut a = Table::new(
        "HV (1-eps)-MWM vs Algorithm 5",
        &["family", "alg5 eps=.05", "hv eps=.33", "hv eps=.2", "hv passes"],
    );
    let families: super::SeedFamilies = vec![
        ("greedy trap", Box::new(move |_| generators::greedy_trap(n / 4, 0.2))),
        (
            "gnp uniform w",
            Box::new(move |s| {
                let mut rng = StdRng::seed_from_u64(9000 + s);
                let base = generators::gnp(n, 6.0 / n as f64, &mut rng);
                randomize_weights(&base, WeightDist::Uniform { lo: 0.1, hi: 3.0 }, &mut rng)
            }),
        ),
        (
            "gnp powers-of-2",
            Box::new(move |s| {
                let mut rng = StdRng::seed_from_u64(9100 + s);
                let base = generators::gnp(n, 6.0 / n as f64, &mut rng);
                randomize_weights(&base, WeightDist::PowersOfTwo { classes: 10 }, &mut rng)
            }),
        ),
    ];
    for (name, make) in &families {
        let mut a5 = Vec::new();
        let mut hv33 = Vec::new();
        let mut hv20 = Vec::new();
        let mut passes = Vec::new();
        for seed in 0..seeds {
            let g = make(seed);
            let opt = mwm::maximum_weight(&g).max(f64::MIN_POSITIVE);
            let sim = dam_congest::SimConfig::congest_for(g.node_count(), 8).seed(seed);
            let alg5 = Weighted { eps: 0.05, ..Weighted::default() };
            let r5 = run_mm(&alg5, &g, &RuntimeConfig::new().sim(sim)).expect("alg5");
            a5.push(r5.matching.weight(&g) / opt);
            let r33 =
                hv_mwm(&g, &HvMwmConfig { eps: 0.34, seed, ..Default::default() }).expect("hv");
            hv33.push(r33.matching.weight(&g) / opt);
            let r20 =
                hv_mwm(&g, &HvMwmConfig { eps: 0.2, seed, ..Default::default() }).expect("hv");
            hv20.push(r20.matching.weight(&g) / opt);
            passes.push(r20.iterations as f64);
        }
        a.row(vec![
            (*name).to_string(),
            f(mean(&a5)),
            f(mean(&hv33)),
            f(mean(&hv20)),
            f2(mean(&passes)),
        ]);
    }

    // (b) distributed b-matching: ratio vs capacity, matched to greedy.
    let bn = ctx.size(40, 16);
    let mut b = Table::new(
        "distributed b-matching (local-max)",
        &["capacity b", "mean weight / greedy", "mean rounds", "mean size"],
    );
    for cap in [1usize, 2, 4] {
        let mut rel = Vec::new();
        let mut rounds = Vec::new();
        let mut size = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(9200 + seed);
            let base = generators::gnp(bn, 8.0 / bn as f64, &mut rng);
            let g = randomize_weights(&base, WeightDist::Exponential { lambda: 1.0 }, &mut rng);
            let caps = vec![cap; g.node_count()];
            let dist = b_local_max(&g, &caps, seed).expect("b matching");
            let greedy = greedy_b_matching(&g, &caps);
            rel.push(dist.b_matching.weight(&g) / greedy.weight(&g).max(f64::MIN_POSITIVE));
            rounds.push(dist.stats.rounds as f64);
            size.push(dist.b_matching.size() as f64);
        }
        b.row(vec![cap.to_string(), f(mean(&rel)), f2(mean(&rounds)), f2(mean(&size))]);
    }

    // (c) LCA: probes per query vs graph size (sublinearity).
    let mut c = Table::new(
        "matching LCA probes per query (4-regular)",
        &["n", "edges", "mean probes", "max probes", "probes / edges"],
    );
    let sizes: Vec<usize> = if ctx.quick { vec![256, 1024] } else { vec![256, 1024, 4096, 16384] };
    for &nn in &sizes {
        let mut rng = StdRng::seed_from_u64(9300 + nn as u64);
        let g = generators::random_regular(nn, 4, &mut rng);
        let mut probes = Vec::new();
        let mut worst = 0u64;
        for q in 0..ctx.size(40, 10) {
            let lca = MatchingLca::new(&g, q as u64);
            let e = rng.random_range(0..g.edge_count());
            let _ = lca.edge_in_matching(e);
            probes.push(lca.probes() as f64);
            worst = worst.max(lca.probes());
        }
        c.row(vec![
            nn.to_string(),
            g.edge_count().to_string(),
            f2(mean(&probes)),
            worst.to_string(),
            f(mean(&probes) / g.edge_count() as f64),
        ]);
    }

    vec![a, b, c]
}
