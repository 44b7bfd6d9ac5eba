//! E5: message widths — the LOCAL generic algorithm (Lemma 3.4) against
//! the CONGEST bipartite machinery (Lemma 3.9).

use dam_congest::SimConfig;
use dam_core::generic::{generic_mcm, GenericMcmConfig};
use dam_core::{run_mm, Bipartite, RuntimeConfig};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::table::{f2, Table};

/// E5 — maximum message width (bits) vs `n` for both algorithms on the
/// same bipartite inputs. The LOCAL flood grows roughly with the graph
/// description size; the CONGEST widths grow with `log n`.
pub fn e5(ctx: &ExpContext) -> Vec<Table> {
    let sizes: Vec<usize> = if ctx.quick { vec![16, 32] } else { vec![16, 32, 64, 128, 256] };
    let mut t = Table::new(
        "max message bits: LOCAL generic vs CONGEST bipartite (k=2)",
        &["n", "edges", "LOCAL max bits", "CONGEST max bits", "ratio", "CONGEST budget 4log n"],
    );
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(5000 + n as u64);
        let g = generators::bipartite_gnp(n / 2, n / 2, 6.0 / n as f64, &mut rng);
        let gen = generic_mcm(&g, &GenericMcmConfig { k: 2, seed: 1, ..Default::default() })
            .expect("generic");
        let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(1));
        let bip = run_mm(&Bipartite { k: 2, ..Bipartite::default() }, &g, &cfg).expect("bipartite");
        let lb = gen.stats.stats.max_message_bits;
        let cb = bip.totals.stats.max_message_bits;
        t.row(vec![
            n.to_string(),
            g.edge_count().to_string(),
            lb.to_string(),
            cb.to_string(),
            f2(lb as f64 / cb.max(1) as f64),
            (4 * dam_congest::message::id_bits(n)).to_string(),
        ]);
    }

    // Density sweep at fixed n: LOCAL width tracks |E|, CONGEST does not.
    let n = ctx.size(64, 24);
    let mut t2 = Table::new(
        "max message bits vs density (fixed n)",
        &["p", "edges", "LOCAL max bits", "CONGEST max bits"],
    );
    for p in [0.05, 0.1, 0.2, 0.4] {
        let mut rng = StdRng::seed_from_u64(6000 + (p * 100.0) as u64);
        let g = generators::bipartite_gnp(n / 2, n / 2, p, &mut rng);
        let gen = generic_mcm(&g, &GenericMcmConfig { k: 2, seed: 1, ..Default::default() })
            .expect("generic");
        let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(1));
        let bip = run_mm(&Bipartite { k: 2, ..Bipartite::default() }, &g, &cfg).expect("bipartite");
        t2.row(vec![
            f2(p),
            g.edge_count().to_string(),
            gen.stats.stats.max_message_bits.to_string(),
            bip.totals.stats.max_message_bits.to_string(),
        ]);
    }
    vec![t, t2]
}
