//! Property tests for the engine: determinism, sequential/parallel
//! equivalence, accounting invariants under randomized protocols, and
//! decode robustness of the transport wire format under arbitrary
//! corruption chains.

use dam_congest::{
    Backend, BitSize, Context, CorruptKind, DelayModel, FaultPlan, Frame, FrameKind, Network, Port,
    Protocol, Resilient, RunSpec, SimConfig, SimError, TraceEvent, TransportCfg,
};
use dam_graph::{Graph, GraphBuilder, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A protocol with data-dependent randomized behaviour: each round every
/// live node sends a random subset of ports a mixed-width message and
/// halts with some probability after a minimum number of rounds.
struct Chaos {
    min_rounds: usize,
    halt_prob: f64,
    acc: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum ChaosMsg {
    Small(u8),
    Big(Vec<u64>),
}

impl dam_congest::BitSize for ChaosMsg {
    fn bit_size(&self) -> usize {
        match self {
            ChaosMsg::Small(_) => 8,
            ChaosMsg::Big(v) => 64 * v.len(),
        }
    }
}

impl Protocol for Chaos {
    type Msg = ChaosMsg;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, ChaosMsg>) {
        for p in ctx.ports() {
            if ctx.rng().random_bool(0.5) {
                ctx.send(p, ChaosMsg::Small(p as u8));
            }
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, ChaosMsg>, inbox: &[(Port, ChaosMsg)]) {
        for (_, msg) in inbox {
            match msg {
                ChaosMsg::Small(x) => self.acc = self.acc.wrapping_add(u64::from(*x)),
                ChaosMsg::Big(v) => {
                    self.acc = v.iter().fold(self.acc, |a, &x| a.wrapping_add(x));
                }
            }
        }
        if ctx.round() >= self.min_rounds && ctx.rng().random_bool(self.halt_prob) {
            ctx.halt();
            return;
        }
        for p in ctx.ports() {
            if ctx.rng().random_bool(0.3) {
                let msg = if ctx.rng().random_bool(0.2) {
                    ChaosMsg::Big(vec![ctx.rng().random(); 3])
                } else {
                    ChaosMsg::Small(1)
                };
                ctx.send(p, msg);
            }
        }
    }

    fn into_output(self) -> u64 {
        self.acc
    }
}

/// An arbitrary sealed transport frame (`u64` payloads).
fn arb_frame() -> impl Strategy<Value = Frame<u64>> {
    let kind = (
        (any::<bool>(), any::<u32>()),
        (any::<bool>(), any::<u64>()),
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(|((control, seq), (has_payload, pv), (last, retx))| {
            if control {
                FrameKind::Control
            } else {
                FrameKind::Data { seq, payload: has_payload.then_some(pv), last, retx }
            }
        });
    ((any::<u16>(), any::<bool>(), any::<u16>()), any::<u32>(), kind).prop_map(
        |((boot, has_dst, dst), ack, kind)| Frame::sealed(boot, has_dst.then_some(dst), ack, kind),
    )
}

fn arb_corrupt_kind() -> impl Strategy<Value = CorruptKind> {
    (0usize..CorruptKind::ALL.len()).prop_map(|i| CorruptKind::ALL[i])
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..20).prop_flat_map(|n| {
        let all: Vec<(usize, usize)> =
            (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v))).collect();
        let m = all.len();
        proptest::collection::vec(0..m, 0..40.min(m)).prop_map(move |picks| {
            let mut b = GraphBuilder::new(n);
            let mut seen = std::collections::HashSet::new();
            for i in picks {
                if seen.insert(i) {
                    b.edge(all[i].0, all[i].1);
                }
            }
            b.build().expect("simple graph")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel and sequential engines produce identical outputs and
    /// statistics for arbitrary topologies, seeds, and thread counts.
    #[test]
    fn parallel_equals_sequential(g in arb_graph(), seed in 0u64..1000, threads in 1usize..6) {
        let make = |_: usize, _: &dyn Topology| Chaos { min_rounds: 3, halt_prob: 0.4, acc: 0 };
        let seq = Network::new(&g, SimConfig::local().seed(seed)).run(make).unwrap();
        let par = Network::new(&g, SimConfig::local().seed(seed).threads(threads))
            .execute(make, &RunSpec::default())
            .unwrap();
        prop_assert_eq!(&seq.outputs, &par.outputs);
        prop_assert_eq!(seq.stats, par.stats);
    }

    /// Accounting invariants: bit totals bracket message counts; the
    /// trace agrees with the statistics; charged rounds >= rounds under
    /// pipelining and == rounds under unit cost.
    #[test]
    fn accounting_invariants(g in arb_graph(), seed in 0u64..1000) {
        let make = |_: usize, _: &dyn Topology| Chaos { min_rounds: 2, halt_prob: 0.5, acc: 0 };
        let mut net = Network::new(&g, SimConfig::congest(16).seed(seed));
        let mut out = net.execute(make, &RunSpec { trace: true, ..RunSpec::default() }).unwrap();
        let trace = out.trace.take().unwrap();
        let s = out.stats;
        prop_assert!(s.rounds >= 1);
        prop_assert_eq!(s.charged_rounds, s.rounds, "unit cost charges 1:1");
        prop_assert!(s.total_bits >= 8 * s.messages || s.messages == 0);
        prop_assert!(u64::from(s.max_message_bits as u32) <= s.total_bits || s.messages == 0);
        let traced_sends = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { .. }))
            .count() as u64;
        prop_assert_eq!(traced_sends, s.messages);
        let traced_oversize = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { oversize: true, .. }))
            .count() as u64;
        prop_assert_eq!(traced_oversize, s.violations);
        // Every node halted and the trace knows it.
        for v in g.nodes() {
            prop_assert!(trace.halt_round(v).is_some());
        }
    }

    /// Replaying the same seed gives identical traces; different seeds
    /// (generally) differ.
    #[test]
    fn determinism_of_traces(g in arb_graph(), seed in 0u64..1000) {
        let make = |_: usize, _: &dyn Topology| Chaos { min_rounds: 2, halt_prob: 0.5, acc: 0 };
        let t1 = Network::new(&g, SimConfig::local().seed(seed)).execute(make, &RunSpec { trace: true, ..RunSpec::default() }).unwrap().trace.unwrap();
        let t2 = Network::new(&g, SimConfig::local().seed(seed)).execute(make, &RunSpec { trace: true, ..RunSpec::default() }).unwrap().trace.unwrap();
        prop_assert_eq!(t1.events(), t2.events());
    }

    /// Footnote 2 materialized: the asynchronous backend with an
    /// α-synchronizer matches the synchronous engine bit for bit —
    /// outputs, and every stat but its own markers — for arbitrary
    /// topologies, seeds, and delay models.
    #[test]
    fn alpha_synchronizer_equivalence(
        g in arb_graph(),
        seed in 0u64..1000,
        max_delay in 1u64..30,
    ) {
        let make = |_: usize, _: &dyn Topology| Chaos { min_rounds: 3, halt_prob: 0.4, acc: 0 };
        let sync = Network::new(&g, SimConfig::local().seed(seed)).run(make).unwrap();
        for delays in [
            DelayModel::Unit,
            DelayModel::UniformRandom { max: max_delay },
            DelayModel::LinkSkew { spread: max_delay },
        ] {
            let cfg = SimConfig::local().seed(seed).backend(Backend::Async).delay(delays);
            let out = Network::new(&g, cfg).execute(make, &RunSpec::default()).unwrap();
            prop_assert_eq!(&out.outputs, &sync.outputs, "{:?}", delays);
            let mut stats = out.stats;
            stats.markers = 0;
            prop_assert_eq!(stats, sync.stats, "{:?}", delays);
        }
    }

    /// Decode robustness: applying an arbitrary chain of corruption
    /// kinds to an arbitrary sealed frame never panics, and each step
    /// damages the frame exactly as the wire model documents — header
    /// damage leaves the checksum stale, replays and forgeries reseal,
    /// and only control-frame truncation destroys a frame outright.
    #[test]
    fn frame_corruption_chains_never_panic_and_are_classified(
        frame in arb_frame(),
        chain in proptest::collection::vec(arb_corrupt_kind(), 1..6),
        rng_seed in any::<u64>(),
    ) {
        prop_assert!(frame.valid(), "sealed frames must carry a matching checksum");
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let mut cur = frame;
        for kind in chain {
            let was_data = matches!(cur.kind, FrameKind::Data { .. });
            let Some(next) = cur.corrupted(kind, &mut rng) else {
                // Only truncating an all-header control frame destroys
                // the frame before it reaches the receiver.
                prop_assert_eq!(kind, CorruptKind::Truncate);
                prop_assert!(!was_data);
                break;
            };
            match kind {
                CorruptKind::BitFlip => {
                    // Exactly one header field changes; the payload part
                    // is untouched, so validation can expose the damage.
                    let changed = usize::from(next.boot != cur.boot)
                        + usize::from(next.ack != cur.ack)
                        + usize::from(next.sum != cur.sum);
                    prop_assert_eq!(changed, 1);
                    prop_assert_eq!(&next.kind, &cur.kind);
                }
                CorruptKind::Truncate => {
                    prop_assert!(was_data);
                    prop_assert!(
                        matches!(next.kind, FrameKind::Data { payload: None, .. }),
                        "truncation strips the payload, keeping the data framing"
                    );
                }
                CorruptKind::Garbage => {
                    prop_assert!(
                        matches!(next.kind, FrameKind::Control),
                        "noise carries no coherent payload slot"
                    );
                }
                CorruptKind::Replay => {
                    prop_assert!(next.valid(), "replays are internally consistent");
                    if was_data {
                        prop_assert!(
                            matches!(next.kind, FrameKind::Data { retx: true, .. }),
                            "a replayed data frame reads as a retransmission"
                        );
                    }
                }
                CorruptKind::Forge => {
                    prop_assert!(next.valid(), "forgeries are internally consistent");
                    prop_assert!(
                        matches!(next.kind, FrameKind::Control),
                        "forgeries are all-header control frames"
                    );
                    prop_assert_eq!(next.dst, None, "a forger knows no session nonce");
                }
            }
            cur = next;
        }
    }

    /// A resilient run over an arbitrarily corrupted (and possibly
    /// equivocating) channel never panics: it either completes or hits
    /// the round guard cleanly. With the integrity faults switched off,
    /// a merely lossy channel is fully masked — outputs match the
    /// fault-free run and no frame is ever rejected.
    #[test]
    fn corrupted_runs_never_panic(
        g in arb_graph(),
        seed in 0u64..1000,
        corrupt in (any::<bool>(), 0.01f64..0.4).prop_map(|(z, c)| if z { 0.0 } else { c }),
        loss in 0.0f64..0.2,
        equivocate in any::<bool>(),
    ) {
        let make = |_: usize, _: &dyn Topology| {
            Resilient::new(Chaos { min_rounds: 2, halt_prob: 0.5, acc: 0 }, TransportCfg::default())
        };
        let cfg = SimConfig::local().seed(seed).max_rounds(20_000);
        let base = Network::new(&g, cfg).run(make).unwrap();
        let equivocators = if equivocate { vec![1 % g.node_count()] } else { vec![] };
        let plan =
            FaultPlan::lossy(loss).with_corrupt(corrupt).with_equivocators(equivocators.clone());
        match Network::new(&g, cfg).execute(make, &RunSpec { faults: &plan, ..RunSpec::default() }) {
            Ok(out) => {
                if corrupt == 0.0 && equivocators.is_empty() {
                    prop_assert_eq!(&out.outputs, &base.outputs, "loss alone must be masked");
                    prop_assert_eq!(out.stats.corruptions, 0);
                    prop_assert_eq!(out.stats.rejected, 0);
                    prop_assert_eq!(out.stats.quarantined, 0);
                }
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, SimError::RoundLimitExceeded { .. }),
                    "only the round guard may end a corrupted run: {e:?}"
                );
            }
        }
    }
}
