//! Criterion micro-benchmarks for the distributed algorithms (simulation
//! wall-clock, not round counts — rounds are measured by E2/E4).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_congest::SimConfig;
use dam_core::auction::{auction_mwm, AuctionConfig};
use dam_core::general::{general_mcm, GeneralMcmConfig};
use dam_core::hv::{hv_mwm, HvMwmConfig};
use dam_core::israeli_itai::israeli_itai;
use dam_core::trees::tree_mcm;
use dam_core::weighted::local_max::local_max_mwm;
use dam_core::{run_mm, Bipartite, RuntimeConfig, Weighted};
use dam_graph::generators;
use dam_graph::weights::{randomize_weights, WeightDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_distributed(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_algorithms");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let mut rng = StdRng::seed_from_u64(3);
        let bip = generators::bipartite_gnp(n / 2, n / 2, 8.0 / n as f64, &mut rng);
        let gen = generators::gnp(n, 6.0 / n as f64, &mut rng);
        let wgen = randomize_weights(&gen, WeightDist::Uniform { lo: 0.1, hi: 2.0 }, &mut rng);

        group.bench_with_input(BenchmarkId::new("israeli_itai", n), &gen, |b, g| {
            b.iter(|| black_box(israeli_itai(g, 1).unwrap().matching.size()));
        });
        group.bench_with_input(BenchmarkId::new("local_max_mwm", n), &wgen, |b, g| {
            b.iter(|| black_box(local_max_mwm(g, 1).unwrap().matching.size()));
        });
        group.bench_with_input(BenchmarkId::new("bipartite_k3", n), &bip, |b, g| {
            let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(1));
            let algo = Bipartite { k: 3, ..Bipartite::default() };
            b.iter(|| black_box(run_mm(&algo, g, &cfg).unwrap().matching.size()));
        });
        group.bench_with_input(BenchmarkId::new("general_mcm_k2", n), &gen, |b, g| {
            b.iter(|| {
                let cfg = GeneralMcmConfig { k: 2, seed: 1, ..Default::default() };
                black_box(general_mcm(g, &cfg).unwrap().matching.size())
            });
        });
        group.bench_with_input(BenchmarkId::new("weighted_eps0.1", n), &wgen, |b, g| {
            let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(1));
            let algo = Weighted { eps: 0.1, ..Weighted::default() };
            b.iter(|| black_box(run_mm(&algo, g, &cfg).unwrap().matching.size()));
        });
        let wbip = randomize_weights(&bip, WeightDist::Integer { max: 50 }, &mut rng);
        group.bench_with_input(BenchmarkId::new("auction_mwm", n), &wbip, |b, g| {
            b.iter(|| {
                let cfg = AuctionConfig { eps: 0.5, seed: 1, ..Default::default() };
                black_box(auction_mwm(g, &cfg).unwrap().matching.size())
            });
        });
        let tree = generators::random_tree(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("tree_mcm", n), &tree, |b, g| {
            b.iter(|| black_box(tree_mcm(g, 1).unwrap().matching.size()));
        });
        if n <= 128 {
            group.bench_with_input(BenchmarkId::new("hv_mwm_eps0.33", n), &wgen, |b, g| {
                b.iter(|| {
                    let cfg = HvMwmConfig { eps: 0.34, seed: 1, ..Default::default() };
                    black_box(hv_mwm(g, &cfg).unwrap().matching.size())
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_distributed);
criterion_main!(benches);
