//! Message-width guarantees: the CONGEST algorithms must fit their
//! declared budgets, and the LOCAL algorithm must visibly not.

use dam::congest::message::id_bits;
use dam::congest::{CostModel, SimConfig};
use dam::core::bipartite::PhaseParams;
use dam::core::general::{general_mcm, GeneralMcmConfig};
use dam::core::generic::{generic_mcm, GenericMcmConfig};
use dam::core::israeli_itai::israeli_itai;
use dam::core::luby::luby_mis;
use dam::core::weighted::local_max::local_max_mwm;
use dam::core::{run_mm, Bipartite, RunReport, RuntimeConfig};
use dam::graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bipartite driver bare at `sim`.
fn bipartite(g: &dam::graph::Graph, k: usize, sim: SimConfig) -> RunReport {
    run_mm(&Bipartite { k, ..Bipartite::default() }, g, &RuntimeConfig::new().sim(sim)).unwrap()
}

/// Constant-width protocols never violate CONGEST(4 log n).
#[test]
fn constant_width_protocols_fit() {
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..5 {
        let g = generators::gnp(80, 0.08, &mut rng);
        let ii = israeli_itai(&g, 3).unwrap();
        assert_eq!(ii.stats.stats.violations, 0);
        assert!(ii.stats.stats.max_message_bits <= 2);

        let lm = local_max_mwm(&g, 3).unwrap();
        assert_eq!(lm.stats.stats.violations, 0);
        assert!(lm.stats.stats.max_message_bits <= 1);

        let mis = luby_mis(&g, 3).unwrap();
        assert_eq!(mis.stats.violations, 0);
        assert!(mis.stats.max_message_bits <= 4 * id_bits(g.node_count()));
    }
}

/// The bipartite machinery's widest message respects the analytical
/// token bound `4(log n + ⌈ℓ/2⌉ log Δ)` of §3.2.
#[test]
fn bipartite_messages_respect_token_bound() {
    let mut rng = StdRng::seed_from_u64(22);
    let g = generators::bipartite_gnp(60, 60, 0.07, &mut rng);
    let k = 3;
    let r = bipartite(&g, k, SimConfig::congest_for(g.node_count(), 4).seed(1));
    let params = PhaseParams { l: 2 * k - 1, n: g.node_count(), delta: g.max_degree() };
    assert!(
        r.totals.stats.max_message_bits <= params.token_bits() as usize,
        "widest {} exceeds the ℓ = 2k−1 token bound {}",
        r.totals.stats.max_message_bits,
        params.token_bits()
    );
    // And the width is Θ(ℓ log Δ), i.e. a small multiple of log n — far
    // below the LOCAL blow-up.
    assert!(r.totals.stats.max_message_bits <= 20 * id_bits(g.node_count()));
}

/// Algorithm 4 inherits the bounded widths (its extra colouring messages
/// are 2 bits).
#[test]
fn general_mcm_messages_bounded() {
    let mut rng = StdRng::seed_from_u64(23);
    let g = generators::gnp(50, 0.1, &mut rng);
    let r = general_mcm(&g, &GeneralMcmConfig { k: 2, seed: 2, ..Default::default() }).unwrap();
    let params = PhaseParams { l: 3, n: g.node_count(), delta: g.max_degree() };
    assert!(r.stats.stats.max_message_bits <= params.token_bits() as usize);
}

/// The LOCAL generic algorithm's messages exceed any `O(log n)` budget —
/// Lemma 3.4's blow-up is real and measurable.
#[test]
fn generic_local_messages_blow_up() {
    let mut rng = StdRng::seed_from_u64(24);
    let g = generators::gnp(40, 0.25, &mut rng);
    let r = generic_mcm(&g, &GenericMcmConfig { k: 2, seed: 2, ..Default::default() }).unwrap();
    let congest_budget = 4 * id_bits(g.node_count());
    assert!(
        r.stats.stats.max_message_bits > 10 * congest_budget,
        "LOCAL widest message {} should dwarf the CONGEST budget {}",
        r.stats.stats.max_message_bits,
        congest_budget
    );
}

/// Pipelined cost accounting only ever increases charged rounds, and
/// only when messages exceed the link budget.
#[test]
fn pipelined_cost_monotonicity() {
    let mut rng = StdRng::seed_from_u64(25);
    let g = generators::bipartite_gnp(40, 40, 0.08, &mut rng);
    let sim = SimConfig::congest_for(g.node_count(), 4).seed(4);
    let unit = bipartite(&g, 3, sim);
    let piped = bipartite(&g, 3, sim.cost(CostModel::Pipelined));
    assert_eq!(unit.totals.stats.rounds, piped.totals.stats.rounds, "same execution");
    assert!(piped.totals.stats.charged_rounds >= piped.totals.stats.rounds);
    assert_eq!(unit.totals.stats.charged_rounds, unit.totals.stats.rounds);
}
