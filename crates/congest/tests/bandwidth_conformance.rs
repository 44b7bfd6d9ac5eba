//! Bandwidth conformance: every message of the CONGEST algorithms must
//! fit the Lemma 3.9 `O(log n)`-bit budget, as re-derived from the trace
//! by [`Trace::check_bandwidth`] — not just trusted from the engine's
//! violation counter. LOCAL-model runs are flagged *exempt*, never
//! silently passed. Property-tested over random graphs and seeds.

use dam_congest::{
    Bandwidth, BitSize, Context, Network, Port, Protocol, RunSpec, SimConfig, Trace, TraceEvent,
};
use dam_core::israeli_itai::IiNode;
use dam_core::luby::LubyNode;
use dam_graph::{generators, Graph, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Traces one sequential run and returns it with its configured model.
fn traced_run<P, F>(g: &Graph, config: SimConfig, make: F) -> Trace
where
    P: Protocol + Send,
    F: Fn(usize, &dyn Topology) -> P + Sync,
{
    let mut net = Network::new(g, config);
    let spec = RunSpec { trace: true, ..RunSpec::default() };
    net.execute(make, &spec).expect("run failed").trace.expect("traced run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Israeli–Itai's handshake fits CONGEST(4 log n) on arbitrary
    /// random graphs — the width claim behind its Theorem 1 round bound.
    #[test]
    fn israeli_itai_fits_congest_budget(n in 4usize..48, p in 0.05f64..0.4, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let g = generators::gnp(n, p, &mut rng);
        let config = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        let trace = traced_run(&g, config, |v, graph| IiNode::new(graph.degree(v)));
        let verdict = trace.check_bandwidth(config.model);
        prop_assert!(verdict.conforms(), "II exceeded its budget: {verdict}");
    }

    /// Luby's MIS exchanges (priority, status) pairs that likewise fit
    /// CONGEST(4 log n).
    #[test]
    fn luby_fits_congest_budget(n in 4usize..48, p in 0.05f64..0.4, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let g = generators::gnp(n, p, &mut rng);
        let config = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        let trace = traced_run(&g, config, |v, graph| LubyNode::new(graph.degree(v)));
        let verdict = trace.check_bandwidth(config.model);
        prop_assert!(verdict.conforms(), "Luby exceeded its budget: {verdict}");
    }

    /// The parallel engine's trace validates exactly like the
    /// sequential one (it is byte-equal, so this must hold — checked
    /// end-to-end anyway).
    #[test]
    fn parallel_trace_validates_identically(n in 4usize..40, seed in 0u64..500, threads in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5);
        let g = generators::gnp(n, 0.2, &mut rng);
        let config = SimConfig::congest_for(g.node_count(), 4).seed(seed);
        let seq = traced_run(&g, config, |v, graph| IiNode::new(graph.degree(v)));
        let par = traced_run(&g, config.threads(threads), |v, graph| IiNode::new(graph.degree(v)));
        prop_assert_eq!(seq.check_bandwidth(config.model), par.check_bandwidth(config.model));
    }

    /// LOCAL runs must come back exempt — a LOCAL trace passing for
    /// "conformant" would let unbounded-width algorithms masquerade as
    /// CONGEST results.
    #[test]
    fn local_runs_are_exempt(n in 4usize..40, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x10CA);
        let g = generators::gnp(n, 0.2, &mut rng);
        let config = SimConfig::local().seed(seed);
        let trace = traced_run(&g, config, |v, graph| IiNode::new(graph.degree(v)));
        let verdict = trace.check_bandwidth(config.model);
        prop_assert!(verdict.is_exempt() && !verdict.conforms());
        let exempt = matches!(verdict, Bandwidth::Exempt { .. });
        prop_assert!(exempt);
    }
}

/// A protocol sending mixed-width messages, some deliberately oversize.
struct Mixed {
    rounds: usize,
}

#[derive(Debug, Clone, PartialEq)]
struct WideMsg(usize);

impl BitSize for WideMsg {
    fn bit_size(&self) -> usize {
        self.0
    }
}

impl Protocol for Mixed {
    type Msg = WideMsg;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Context<'_, WideMsg>) {
        for p in ctx.ports() {
            ctx.send(p, WideMsg(8));
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, WideMsg>, _inbox: &[(Port, WideMsg)]) {
        if ctx.round() >= self.rounds {
            ctx.halt();
            return;
        }
        for p in ctx.ports() {
            let wide = ctx.rng().random_bool(0.3);
            ctx.send(p, WideMsg(if wide { 128 } else { 8 }));
        }
    }

    fn into_output(self) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The validator's violation count equals the engine's own `oversize`
    /// stamps and the `violations` statistic — three independently
    /// derived counts of the same events.
    #[test]
    fn validator_agrees_with_engine_accounting(n in 3usize..30, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let g = generators::gnp(n, 0.25, &mut rng);
        let config = SimConfig::congest(16).seed(seed);
        let mut net = Network::new(&g, config);
        let mut out = net
            .execute(|_, _| Mixed { rounds: 4 }, &RunSpec { trace: true, ..RunSpec::default() })
            .expect("run failed");
        let trace = out.trace.take().unwrap();
        let verdict = trace.check_bandwidth(config.model);
        let Bandwidth::Checked { sends, widest, ref violations, .. } = verdict else {
            panic!("CONGEST run must be checked");
        };
        let stamped = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { oversize: true, .. }))
            .count();
        prop_assert_eq!(violations.len(), stamped);
        prop_assert_eq!(violations.len() as u64, out.stats.violations);
        prop_assert_eq!(sends as u64, out.stats.messages);
        prop_assert_eq!(widest, out.stats.max_message_bits);
    }
}
