//! E14: the α-synchronizer's price (footnote 2 made quantitative).

use dam_congest::{Backend, DelayModel, Network, RunSpec, SimConfig};
use dam_core::israeli_itai::IiNode;
use dam_graph::{generators, NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f2, Table};

/// E14 — running Israeli–Itai on the asynchronous backend: marker
/// overhead and makespan under increasingly hostile delay models, with
/// the outputs and every `RunStats` field but `markers` checked equal
/// to the synchronous run's.
pub fn e14(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(200, 40);
    let seeds = ctx.size(4, 2) as u64;
    let make = |v: NodeId, graph: &dyn Topology| IiNode::new(graph.degree(v));
    let mut t = Table::new(
        "alpha-synchronizer overhead (Israeli-Itai)",
        &["delay model", "sync rounds", "payload msgs", "marker msgs", "overhead x", "makespan"],
    );
    for (name, delays) in [
        ("unit", DelayModel::Unit),
        ("uniform<=5", DelayModel::UniformRandom { max: 5 }),
        ("uniform<=25", DelayModel::UniformRandom { max: 25 }),
        ("link-skew 9", DelayModel::LinkSkew { spread: 9 }),
    ] {
        let mut sync_rounds = Vec::new();
        let mut payload = Vec::new();
        let mut marker = Vec::new();
        let mut makespan = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(9700 + seed);
            let g = generators::gnp(n, 6.0 / n as f64, &mut rng);
            let sync = Network::new(&g, SimConfig::local().seed(seed)).run(make).expect("sync run");
            let cfg = SimConfig::local().seed(seed).backend(Backend::Async).delay(delays);
            let mut net = Network::new(&g, cfg);
            let out = net.execute(make, &RunSpec::default()).expect("async run");
            // Equivalence is part of the experiment: same outputs, and
            // the same stats but for the synchronizer's own markers.
            assert_eq!(out.outputs, sync.outputs, "{name}, seed {seed}: outputs");
            let mut stats = out.stats;
            stats.markers = 0;
            assert_eq!(stats, sync.stats, "{name}, seed {seed}: stats");
            sync_rounds.push(sync.stats.rounds as f64);
            payload.push(out.stats.messages as f64);
            marker.push(out.stats.markers as f64);
            makespan.push(net.async_info().expect("async run records its timing").makespan as f64);
        }
        let overhead = (mean(&payload) + mean(&marker)) / mean(&payload).max(1.0);
        t.row(vec![
            name.to_string(),
            f2(mean(&sync_rounds)),
            f2(mean(&payload)),
            f2(mean(&marker)),
            f2(overhead),
            f2(mean(&makespan)),
        ]);
    }
    vec![t]
}
