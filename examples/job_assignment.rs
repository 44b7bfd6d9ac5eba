//! The paper's §1 weighted example: servers and jobs.
//!
//! ```text
//! cargo run --release --example job_assignment
//! ```
//!
//! "There is a set of different servers and a set of jobs, and for each
//! job there is some benefit to be gained if the job is executed on one
//! of a given subset of the servers. Assuming that each server can
//! execute at most one job, maximizing the total gain is equivalent to
//! computing a maximal weight matching."
//!
//! We build a random benefit structure, let the *distributed* `(½−ε)`-MWM
//! negotiate an assignment (each server/job is a network node talking
//! only to its candidates), and compare against the exact optimum and the
//! classical greedy.

use dam::congest::SimConfig;
use dam::core::auction::{auction_mwm, AuctionConfig};
use dam::core::{run_mm, RuntimeConfig, Weighted};
use dam::graph::{hungarian, maximal, Graph, Side};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let servers = 40;
    let jobs = 60;
    let mut rng = StdRng::seed_from_u64(7);

    // Each job can run on 2-5 random servers with benefit 1..100.
    let mut b = Graph::builder(servers + jobs);
    for j in 0..jobs {
        let candidates = rng.random_range(2..=5);
        for _ in 0..candidates {
            let s = rng.random_range(0..servers);
            let benefit = rng.random_range(1..=100) as f64;
            b.weighted_edge(s, servers + j, benefit);
        }
    }
    b.bipartition(
        (0..servers + jobs).map(|v| if v < servers { Side::X } else { Side::Y }).collect(),
    );
    let g = b.build()?;

    let opt = hungarian::maximum_weight_bipartite(&g);
    let greedy = maximal::greedy_mwm(&g);
    println!("{jobs} jobs on {servers} servers, {} candidate pairs", g.edge_count());
    println!("  exact optimum (Hungarian)     : {opt:>8.1}");
    println!(
        "  centralized greedy (1/2-MWM)  : {:>8.1}  (ratio {:.3})",
        greedy.weight(&g),
        greedy.weight(&g) / opt
    );

    let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(3));
    for eps in [0.25, 0.05] {
        let r = run_mm(&Weighted { eps, ..Weighted::default() }, &g, &cfg)?;
        println!(
            "  distributed Alg 5 (eps={eps:.2})  : {:>8.1}  (ratio {:.3}, {} CONGEST rounds, {} assigned)",
            r.matching.weight(&g),
            r.matching.weight(&g) / opt,
            r.totals.stats.rounds,
            r.matching.size(),
        );
    }
    // The price-based alternative: near-optimal, but rounds grow with
    // the weight scale.
    let a = auction_mwm(&g, &AuctionConfig { eps: 0.5, seed: 3, ..Default::default() })?;
    println!(
        "  distributed auction (eps=0.5) : {:>8.1}  (ratio {:.3}, {} CONGEST rounds, {} assigned)",
        a.matching.weight(&g),
        a.matching.weight(&g) / opt,
        a.stats.stats.rounds,
        a.matching.size(),
    );
    Ok(())
}
