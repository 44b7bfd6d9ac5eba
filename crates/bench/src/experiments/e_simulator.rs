//! E12: the simulator itself — wall-clock throughput of the sequential
//! and multi-threaded engines (complements the Criterion micro-benches
//! with a one-shot table).

use std::time::Instant;

use dam_congest::{Context, Network, Port, Protocol, RunSpec, SimConfig};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::table::{f2, Table};

/// Fixed-round gossip used as the engine workload.
struct Load {
    rounds: usize,
    acc: u64,
}

impl Protocol for Load {
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

/// E12 — engine throughput: messages per second, sequential vs 4
/// threads, across network sizes.
pub fn e12(ctx: &ExpContext) -> Vec<Table> {
    let sizes: Vec<usize> =
        if ctx.quick { vec![1_000, 4_000] } else { vec![1_000, 10_000, 50_000, 200_000] };
    let rounds = 20usize;
    let mut t = Table::new(
        "engine throughput (gossip, 20 rounds, 4-regular)",
        &["n", "messages", "seq ms", "seq Mmsg/s", "par4 ms", "par4 Mmsg/s", "speedup"],
    );
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::random_regular(n, 4, &mut rng);
        let run_seq = {
            let mut net = Network::new(&g, SimConfig::local().seed(1));
            let t0 = Instant::now();
            let out = net.run(|_, _| Load { rounds, acc: 0 }).unwrap();
            (t0.elapsed().as_secs_f64(), out.stats.messages)
        };
        let run_par = {
            let mut net = Network::new(&g, SimConfig::local().seed(1).threads(4));
            let t0 = Instant::now();
            let out = net.execute(|_, _| Load { rounds, acc: 0 }, &RunSpec::default()).unwrap();
            (t0.elapsed().as_secs_f64(), out.stats.messages)
        };
        assert_eq!(run_seq.1, run_par.1, "identical executions");
        let msgs = run_seq.1 as f64;
        t.row(vec![
            n.to_string(),
            run_seq.1.to_string(),
            f2(run_seq.0 * 1e3),
            f2(msgs / run_seq.0 / 1e6),
            f2(run_par.0 * 1e3),
            f2(msgs / run_par.0 / 1e6),
            f2(run_seq.0 / run_par.0),
        ]);
    }
    vec![t]
}
