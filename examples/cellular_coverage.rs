//! Mobile-to-base-station assignment — the 4G application the paper
//! mentions (§1: "our matching algorithm serves as a key component in a
//! distributed procedure that finds an assignment of mobile nodes to
//! base stations", Patt-Shamir, Rawitz & Scalosub 2012).
//!
//! ```text
//! cargo run --release --example cellular_coverage
//! ```
//!
//! Mobiles and base stations are placed uniformly in the unit square;
//! a mobile can associate to a station within radio range, with utility
//! decaying with distance. Each station serves one mobile per frame
//! (matching), and the association is negotiated *distributively* — no
//! central controller — by the paper's bipartite `(1−1/k)`-MCM (coverage
//! count) and the `(½−ε)`-MWM (utility).

use dam::congest::SimConfig;
use dam::core::{run_mm, Bipartite, RuntimeConfig, Weighted};
use dam::graph::{hopcroft_karp, hungarian, Graph, Side};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stations = 50;
    let mobiles = 80;
    let range = 0.22;
    let mut rng = StdRng::seed_from_u64(4);

    let pos = |rng: &mut StdRng| (rng.random_range(0.0..1.0f64), rng.random_range(0.0..1.0f64));
    let sp: Vec<(f64, f64)> = (0..stations).map(|_| pos(&mut rng)).collect();
    let mp: Vec<(f64, f64)> = (0..mobiles).map(|_| pos(&mut rng)).collect();

    let mut b = Graph::builder(stations + mobiles);
    let mut links = 0;
    for (s, &(sx, sy)) in sp.iter().enumerate() {
        for (m, &(mx, my)) in mp.iter().enumerate() {
            let d2 = (sx - mx).powi(2) + (sy - my).powi(2);
            if d2 <= range * range {
                // Utility: inverse-square signal strength, clamped.
                let utility = (1.0 / (d2 + 1e-3)).min(500.0);
                b.weighted_edge(s, stations + m, utility);
                links += 1;
            }
        }
    }
    b.bipartition(
        (0..stations + mobiles).map(|v| if v < stations { Side::X } else { Side::Y }).collect(),
    );
    let g = b.build()?;
    println!("{stations} stations, {mobiles} mobiles, {links} feasible links (range {range})");

    // Coverage objective: associate as many mobiles as possible.
    let cover_opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
    let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(6));
    let r = run_mm(&Bipartite { k: 4, ..Bipartite::default() }, &g, &cfg)?;
    println!(
        "coverage : distributed (k=4) serves {} of {} possible ({} CONGEST rounds)",
        r.matching.size(),
        cover_opt,
        r.totals.stats.rounds
    );

    // Utility objective: maximize total signal quality.
    let util_opt = hungarian::maximum_weight_bipartite(&g);
    let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 8).seed(6));
    let w = run_mm(&Weighted { eps: 0.05, ..Weighted::default() }, &g, &cfg)?;
    println!(
        "utility  : distributed (eps=0.05) achieves {:.1} of {:.1} ({:.1}%, {} rounds)",
        w.matching.weight(&g),
        util_opt,
        100.0 * w.matching.weight(&g) / util_opt,
        w.totals.stats.rounds
    );
    Ok(())
}
