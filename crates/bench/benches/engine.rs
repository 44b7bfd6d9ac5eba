//! Criterion micro-benchmarks for the CONGEST engine itself.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_congest::{Context, Network, Port, Protocol, RunSpec, SimConfig};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A light gossip protocol: every node broadcasts a counter for a fixed
/// number of rounds — measures raw engine round/message throughput.
struct Gossip {
    rounds: usize,
    acc: u64,
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(ctx.id() as u64);
    }
    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
        for &(_, x) in inbox {
            self.acc = self.acc.wrapping_add(x);
        }
        if ctx.round() >= self.rounds {
            ctx.halt();
        } else {
            ctx.broadcast(self.acc);
        }
    }
    fn into_output(self) -> u64 {
        self.acc
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_gossip_20_rounds");
    for &n in &[256usize, 1024, 4096] {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::random_regular(n, 4, &mut rng);
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| {
                let mut net = Network::new(g, SimConfig::local().seed(7));
                let out = net.run(|_, _| Gossip { rounds: 20, acc: 0 }).unwrap();
                black_box(out.stats.messages)
            });
        });
        for &threads in &[2usize, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel{threads}"), n),
                &g,
                |b, g| {
                    b.iter(|| {
                        let cfg = SimConfig::local().seed(7).threads(threads);
                        let out = Network::new(g, cfg)
                            .execute(|_, _| Gossip { rounds: 20, acc: 0 }, &RunSpec::default())
                            .unwrap();
                        black_box(out.stats.messages)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
