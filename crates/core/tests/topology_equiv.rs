//! Differential proptests for the implicit-topology layer: every
//! [`ImplicitTopology`] family must be **bit-identical** to its
//! materialized CSR twin through the whole stack. The engine only ever
//! sees a `&dyn Topology`, so a correct implicit implementor — same
//! degrees, same port order, same endpoints — must produce the same
//! port wiring, hence byte-equal runs:
//!
//! * the structural view itself (degrees, ports, endpoints, neighbor
//!   order) agrees with [`materialize`]'s CSR graph;
//! * [`run_mm`] reports agree — matching, registers, presence masks,
//!   and per-phase [`RunStats`] — across the sequential, sharded, and
//!   async backends;
//! * the full middleware pipeline (faults + repair + maintenance)
//!   agrees, masks included;
//! * engine traces are event-for-event equal.
//!
//! [`materialize`]: dam_graph::materialize
//! [`RunStats`]: dam_congest::RunStats

use dam_congest::{
    Backend, ChurnKind, ChurnPlan, FaultPlan, Network, Resilient, RunSpec, SimConfig, TransportCfg,
};
use dam_core::israeli_itai::IiNode;
use dam_core::runtime::{run_mm, IsraeliItai, RunReport, RuntimeConfig};
use dam_graph::{materialize, ImplicitTopology, NodeId, Topology};
use proptest::prelude::*;

/// Every implicit family at arbitrary (small) sizes: rings, tori,
/// circulants with even and odd degree, and keyed-hash G(n, p).
fn topo_strategy() -> impl Strategy<Value = ImplicitTopology> {
    let params = (
        (0usize..4, 4usize..48, any::<u64>()),
        (3usize..8, 3usize..8),
        // n = 2·half keeps n even, so both parities of d are legal.
        (3usize..16, 1usize..5),
        10u32..80,
    );
    params.prop_map(|((kind, n, s), (w, h), (half, d), p)| {
        let spec = match kind {
            0 => format!("ring:{n}"),
            1 => format!("torus:{w}x{h}"),
            2 => format!("reg:{}:{d}", 2 * half),
            _ => format!("gnp:{n}:0.{p}:{s}"),
        };
        ImplicitTopology::parse(&spec).expect("generated specs are well-formed")
    })
}

/// The three engine backends under test, configured for `seed`.
fn backends(seed: u64) -> [SimConfig; 3] {
    [
        SimConfig::local().seed(seed),
        SimConfig::local().seed(seed).backend(Backend::Sharded).threads(4),
        SimConfig::local().seed(seed).backend(Backend::Async),
    ]
}

/// A small seed-derived fault + churn schedule that exercises the
/// repair and maintenance masks without killing the whole graph.
fn schedule(seed: u64, topo: &dyn Topology) -> (FaultPlan, ChurnPlan) {
    let n = topo.node_count();
    let m = topo.edge_count();
    let v = seed as usize;
    let faults = FaultPlan { loss: 0.05, crashes: vec![(v % n, 2)], ..FaultPlan::default() };
    // A sparse G(n, p) draw can come out edgeless; churn only applies
    // when there is an edge to flap.
    let churn = if m == 0 {
        ChurnPlan::default()
    } else {
        ChurnPlan::default()
            .with_event(2, ChurnKind::EdgeDown { edge: v % m })
            .with_event(5, ChurnKind::EdgeUp { edge: v % m })
    };
    (faults, churn)
}

fn assert_reports_eq(a: &RunReport, b: &RunReport, ctx: &str) {
    assert_eq!(a.matching.to_edge_vec(), b.matching.to_edge_vec(), "{ctx}: edges");
    assert_eq!(a.registers, b.registers, "{ctx}: registers");
    assert_eq!(a.node_present, b.node_present, "{ctx}: node presence mask");
    assert_eq!(a.edge_present, b.edge_present, "{ctx}: edge presence mask");
    assert_eq!(a.excluded, b.excluded, "{ctx}: excluded");
    assert_eq!(a.phase1, b.phase1, "{ctx}: phase-1 stats");
    assert_eq!(a.repair, b.repair, "{ctx}: repair stats");
    assert_eq!(a.maintain, b.maintain, "{ctx}: maintenance stats");
    assert_eq!(
        (a.surviving, a.dissolved, a.added, a.iterations),
        (b.surviving, b.dissolved, b.added, b.iterations),
        "{ctx}: counters"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The structural contract: an implicit topology and its CSR twin
    /// present the same graph — node for node, port for port.
    #[test]
    fn implicit_structure_matches_the_csr_twin(topo in topo_strategy()) {
        let g = materialize(&topo).expect("small topologies materialize");
        prop_assert_eq!(g.node_count(), topo.node_count());
        prop_assert_eq!(g.edge_count(), topo.edge_count());
        prop_assert_eq!(g.max_degree(), topo.max_degree());
        prop_assert_eq!(g.is_weighted(), topo.is_weighted());
        for v in 0..topo.node_count() {
            prop_assert_eq!(g.degree(v), topo.degree(v), "degree of {}", v);
            prop_assert_eq!(g.side_of(v), topo.side_of(v), "side of {}", v);
            let csr: Vec<_> = g.incident(v).collect();
            let imp: Vec<_> = (&topo as &dyn Topology).incident(v).collect();
            prop_assert_eq!(csr, imp, "incident list of {}", v);
        }
        for e in 0..topo.edge_count() {
            prop_assert_eq!(g.endpoints(e), topo.endpoints(e), "endpoints of {}", e);
            prop_assert!((g.weight(e) - topo.weight(e)).abs() < 1e-12, "weight of {}", e);
        }
    }

    /// The bare pipeline is bit-identical on all three backends: same
    /// matching, registers, masks, and stats from the implicit view as
    /// from its materialized twin.
    #[test]
    fn run_mm_is_bit_identical_on_every_backend(
        topo in topo_strategy(),
        seed in any::<u64>(),
    ) {
        let g = materialize(&topo).expect("small topologies materialize");
        for sim in backends(seed) {
            let cfg = RuntimeConfig::new().sim(sim);
            let imp = run_mm(&IsraeliItai, &topo, &cfg).expect("implicit run");
            let csr = run_mm(&IsraeliItai, &g, &cfg).expect("csr run");
            assert_reports_eq(&imp, &csr, &format!("{:?} seed {seed}", sim.backend));
        }
    }

    /// The full middleware stack — faults, transport hardening, repair,
    /// churn maintenance — agrees too, presence masks included.
    #[test]
    fn middleware_stack_is_bit_identical(
        topo in topo_strategy(),
        seed in any::<u64>(),
    ) {
        let g = materialize(&topo).expect("small topologies materialize");
        let (faults, churn) = schedule(seed, &topo);
        let cfg = RuntimeConfig::new()
            .sim(SimConfig::local().seed(seed))
            .transport(TransportCfg::default())
            .faults(faults)
            .churn(churn)
            .repair(true)
            .maintain(true);
        let imp = run_mm(&IsraeliItai, &topo, &cfg).expect("implicit run");
        let csr = run_mm(&IsraeliItai, &g, &cfg).expect("csr run");
        assert_reports_eq(&imp, &csr, &format!("middleware seed {seed}"));
    }

    /// Engine traces are event-for-event equal: the implicit view wires
    /// the same ports in the same order, so even the message-level
    /// transcript of a run cannot tell the two apart.
    #[test]
    fn engine_traces_are_event_for_event_equal(
        topo in topo_strategy(),
        seed in any::<u64>(),
    ) {
        let g = materialize(&topo).expect("small topologies materialize");
        let (faults, churn) = schedule(seed, &topo);
        let make = |v: NodeId, graph: &dyn Topology| {
            Resilient::new(IiNode::new(graph.degree(v)), TransportCfg::default())
        };
        let spec = RunSpec { faults: &faults, churn: &churn, trace: true };
        let mut imp_out = Network::new(&topo, SimConfig::local().seed(seed))
            .execute(make, &spec)
            .expect("implicit run");
        let imp_trace = imp_out.trace.take().unwrap();
        let mut csr_out =
            Network::new(&g, SimConfig::local().seed(seed)).execute(make, &spec).expect("csr run");
        let csr_trace = csr_out.trace.take().unwrap();
        prop_assert_eq!(imp_out.outputs, csr_out.outputs, "outputs");
        prop_assert_eq!(imp_out.stats, csr_out.stats, "stats");
        prop_assert_eq!(imp_trace.events(), csr_trace.events(), "trace events");
    }
}
