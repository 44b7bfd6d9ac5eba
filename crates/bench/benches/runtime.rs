//! Criterion micro-benchmarks for the runtime extensions: the resilient
//! transport under message faults, and the churn-maintenance loop —
//! complements `engine.rs` (raw engine) and `distributed.rs`
//! (algorithms).

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dam_congest::{ChurnKind, FaultPlan, Network, Resilient, RunSpec, SimConfig, TransportCfg};
use dam_core::israeli_itai::IiNode;
use dam_core::maintain::{MaintainConfig, Maintainer};
use dam_core::runtime::{run_mm, IsraeliItai, RuntimeConfig};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Israeli–Itai over the resilient transport while the engine drops,
/// duplicates and reorders frames: measures the retransmission
/// machinery, not the matching.
fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("resilient_transport_ii");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
        for &loss in &[0.0f64, 0.1] {
            let faults = FaultPlan { loss, dup: loss / 2.0, reorder: loss, ..FaultPlan::default() };
            let label = format!("n{n}_loss{loss}");
            group.bench_with_input(BenchmarkId::new("execute_faulty", label), &g, |b, g| {
                b.iter(|| {
                    let mut net = Network::new(g, SimConfig::local().seed(5).max_rounds(100_000));
                    let out = net
                        .execute(
                            |v, graph| {
                                Resilient::new(
                                    IiNode::new(graph.degree(v)),
                                    TransportCfg::default(),
                                )
                            },
                            &RunSpec { faults: &faults, ..RunSpec::default() },
                        )
                        .unwrap();
                    black_box(out.stats.rounds)
                });
            });
        }
    }
    group.finish();
}

/// Maintenance batches: bootstrap a maintained matching, then apply a
/// stream of single-event batches — measures steady-state repair cost.
fn bench_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("maintenance_batches");
    group.sample_size(10);
    for &n in &[128usize, 512] {
        let mut rng = StdRng::seed_from_u64(13);
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
        // Each random edge flaps down then back up — every event is
        // valid against the presence state it meets.
        let events: Vec<ChurnKind> = (0..8)
            .flat_map(|_| {
                let e = rng.random_range(0..g.edge_count());
                [ChurnKind::EdgeDown { edge: e }, ChurnKind::EdgeUp { edge: e }]
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("apply_16_events", n), &g, |b, g| {
            b.iter(|| {
                let mut mt = Maintainer::bootstrap(g, &MaintainConfig::default()).unwrap();
                for ev in &events {
                    mt.apply(std::slice::from_ref(ev)).unwrap();
                }
                black_box(mt.matching().size())
            });
        });
        group.bench_with_input(BenchmarkId::new("runtime_maintain_mm", n), &g, |b, g| {
            b.iter(|| {
                let faults =
                    FaultPlan { loss: 0.05, dup: 0.02, reorder: 0.05, ..FaultPlan::default() };
                let churn = dam_congest::ChurnPlan::default()
                    .with_event(2, ChurnKind::EdgeDown { edge: 0 })
                    .with_event(4, ChurnKind::EdgeUp { edge: 0 });
                let cfg = RuntimeConfig::new()
                    .sim(SimConfig::local().seed(0).max_rounds(500_000))
                    .transport(TransportCfg::default())
                    .faults(faults)
                    .churn(churn)
                    .maintain(true);
                let report = run_mm(&IsraeliItai, g, &cfg).unwrap();
                black_box(report.matching.size())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_transport, bench_maintenance);
criterion_main!(benches);
