//! E12: the simulator itself — wall-clock throughput of the sequential
//! and multi-threaded engines (complements the Criterion micro-benches
//! with a one-shot table).

use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::baseline::{measure, DEGREE, GRAPH_SEED, ROUNDS};
use crate::table::{f2, Table};

/// E12 — engine throughput: messages per second, sequential vs 4
/// threads, across network sizes.
pub fn e12(ctx: &ExpContext) -> Vec<Table> {
    let sizes: Vec<usize> =
        if ctx.quick { vec![1_000, 4_000] } else { vec![1_000, 10_000, 50_000, 200_000] };
    let mut t = Table::new(
        &format!("engine throughput (gossip, {ROUNDS} rounds, {DEGREE}-regular)"),
        &["n", "messages", "seq ms", "seq Mmsg/s", "par4 ms", "par4 Mmsg/s", "speedup"],
    );
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
        let g = generators::random_regular(n, DEGREE, &mut rng);
        let run_seq = measure(&g, 1, 1);
        let run_par = measure(&g, 4, 1);
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
