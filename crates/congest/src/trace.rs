//! Execution tracing: a per-event record of a protocol run.
//!
//! Traces are for debugging protocols and for teaching: they show who
//! sent what, how wide it was, and when each node left the computation.
//! Collected by [`crate::Network::execute`] when [`crate::RunSpec::trace`]
//! is set; rendering is plain text.

use std::fmt;

use dam_graph::NodeId;

use crate::message::CorruptKind;
use crate::model::Model;
use crate::node::Port;

/// One traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message crossed an edge.
    Send {
        /// The round in which it was sent.
        round: usize,
        /// Sender.
        from: NodeId,
        /// Sender's port.
        port: Port,
        /// Receiver.
        to: NodeId,
        /// Width in bits.
        bits: usize,
        /// Whether it exceeded the CONGEST budget.
        oversize: bool,
    },
    /// A node halted.
    Halt {
        /// The round of the halt.
        round: usize,
        /// The node.
        node: NodeId,
    },
    /// The engine injected a fault (only under a non-empty
    /// [`crate::FaultPlan`]).
    Fault {
        /// The round of the injection.
        round: usize,
        /// What was injected.
        kind: FaultKind,
        /// The affected node (the sender, for message-level faults).
        node: NodeId,
        /// The intended receiver, for message-level faults.
        peer: Option<NodeId>,
    },
    /// The engine applied a topology event (only under a non-empty
    /// [`crate::ChurnPlan`]).
    Churn {
        /// The round at whose start the event was applied.
        round: usize,
        /// What changed.
        kind: ChurnKind,
    },
}

/// The kind of an applied topology event (see [`TraceEvent::Churn`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// An edge of the universe graph came up (insert / link restore).
    EdgeUp {
        /// The edge id in the universe graph.
        edge: usize,
    },
    /// An edge went down (delete / link cut).
    EdgeDown {
        /// The edge id in the universe graph.
        edge: usize,
    },
    /// An absent node joined with fresh ports and empty registers.
    Join {
        /// The joining node.
        node: NodeId,
    },
    /// A node left permanently (never returns this run).
    Leave {
        /// The leaving node.
        node: NodeId,
    },
}

/// The kind of an injected fault (see [`TraceEvent::Fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A message was dropped by the lossy channel.
    Loss,
    /// A message was delivered twice (the extra copy one round late).
    Duplicate,
    /// A message was delayed by `delay` extra rounds.
    Reorder {
        /// Extra rounds of delay beyond normal delivery.
        delay: usize,
    },
    /// A message was dropped because it crossed an active partition.
    Partition,
    /// A node crash-stopped.
    Crash,
    /// A crashed node rebooted with wiped state.
    Recover,
    /// A message was corrupted in transit by the lossy channel; the
    /// receiver sees the damaged value (or nothing, if the damage made
    /// the frame undecodable).
    Corrupt {
        /// The shape of the damage.
        kind: CorruptKind,
    },
    /// A Byzantine sender tampered with its own outgoing message —
    /// equivocation: different ports see mutually inconsistent traffic.
    Equivocate {
        /// The shape of the tampering.
        kind: CorruptKind,
    },
}

impl TraceEvent {
    /// The round the event belongs to.
    #[must_use]
    pub fn round(&self) -> usize {
        match *self {
            TraceEvent::Send { round, .. }
            | TraceEvent::Halt { round, .. }
            | TraceEvent::Fault { round, .. }
            | TraceEvent::Churn { round, .. } => round,
        }
    }
}

/// One message that exceeded the CONGEST bit budget, as located by
/// [`Trace::check_bandwidth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthViolation {
    /// The round of the offending send.
    pub round: usize,
    /// The sender.
    pub from: NodeId,
    /// The sender's port.
    pub port: Port,
    /// The receiver.
    pub to: NodeId,
    /// The offending width in bits.
    pub bits: usize,
}

/// The verdict of [`Trace::check_bandwidth`]: did every traced message
/// fit the model's per-edge bit budget (Lemma 3.9's `O(log n)` width for
/// CONGEST runs)?
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bandwidth {
    /// The run used the LOCAL model — message width is unbounded by
    /// definition, so there is nothing to check. The run is *exempt*,
    /// not conformant; CI reporting keeps the two apart.
    Exempt {
        /// Sends observed (none of them checked).
        sends: usize,
    },
    /// The run used CONGEST(`budget`); every traced send was checked.
    Checked {
        /// The per-message bit budget.
        budget: usize,
        /// Sends checked.
        sends: usize,
        /// Widest message observed (0 if none).
        widest: usize,
        /// Every send wider than the budget, in trace order.
        violations: Vec<BandwidthViolation>,
    },
}

impl Bandwidth {
    /// `true` iff the trace was checked and every message fit the
    /// budget. Exempt (LOCAL) runs return `false` — use
    /// [`Bandwidth::is_exempt`] to tell them apart from failures.
    #[must_use]
    pub fn conforms(&self) -> bool {
        match self {
            Bandwidth::Exempt { .. } => false,
            Bandwidth::Checked { violations, .. } => violations.is_empty(),
        }
    }

    /// `true` iff the run was LOCAL and therefore exempt from the check.
    #[must_use]
    pub fn is_exempt(&self) -> bool {
        matches!(self, Bandwidth::Exempt { .. })
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bandwidth::Exempt { sends } => {
                write!(f, "exempt (LOCAL model, {sends} sends unchecked)")
            }
            Bandwidth::Checked { budget, sends, widest, violations } => write!(
                f,
                "{} ({sends} sends vs budget {budget}, widest {widest}, {} violations)",
                if violations.is_empty() { "conformant" } else { "VIOLATED" },
                violations.len()
            ),
        }
    }
}

/// A full execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Trace {
        Trace::default()
    }

    pub(crate) fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// All events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of traced events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was traced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events of one round.
    pub fn round(&self, round: usize) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| e.round() == round)
    }

    /// All sends originating at `node`.
    pub fn sends_of(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events
            .iter()
            .filter(move |e| matches!(e, TraceEvent::Send { from, .. } if *from == node))
    }

    /// All injected-fault events, in order.
    pub fn faults(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Fault { .. }))
    }

    /// All applied topology events, in order.
    pub fn churns(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(|e| matches!(e, TraceEvent::Churn { .. }))
    }

    /// The round in which `node` halted, if traced.
    #[must_use]
    pub fn halt_round(&self, node: NodeId) -> Option<usize> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Halt { round, node: n } if *n == node => Some(*round),
            _ => None,
        })
    }

    /// Audits every traced send against `model`'s per-message bit
    /// budget — the conformance check behind the paper's CONGEST claims
    /// (Lemma 3.9 charges `⌈b/B⌉` rounds precisely because each frame is
    /// at most `B` bits wide). LOCAL runs are flagged
    /// [`Bandwidth::Exempt`] rather than silently passed.
    ///
    /// The engine already stamps each send's `oversize` bit against the
    /// *configured* model; this validator re-derives the verdict from
    /// widths alone, so it can also audit a trace against a model other
    /// than the one it ran under (e.g. "would this LOCAL run have fit
    /// CONGEST(4 log n)?").
    #[must_use]
    pub fn check_bandwidth(&self, model: Model) -> Bandwidth {
        let mut sends = 0usize;
        let mut widest = 0usize;
        let mut violations = Vec::new();
        for e in &self.events {
            if let TraceEvent::Send { round, from, port, to, bits, .. } = *e {
                sends += 1;
                widest = widest.max(bits);
                if let Model::Congest { bits: budget } = model {
                    if bits > budget {
                        violations.push(BandwidthViolation { round, from, port, to, bits });
                    }
                }
            }
        }
        match model {
            Model::Local => Bandwidth::Exempt { sends },
            Model::Congest { bits: budget } => {
                Bandwidth::Checked { budget, sends, widest, violations }
            }
        }
    }

    /// A compact per-round summary.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let last_round = self.events.iter().map(TraceEvent::round).max().unwrap_or(0);
        for r in 0..=last_round {
            let sends: Vec<&TraceEvent> =
                self.round(r).filter(|e| matches!(e, TraceEvent::Send { .. })).collect();
            let halts = self.round(r).filter(|e| matches!(e, TraceEvent::Halt { .. })).count();
            let faults = self.round(r).filter(|e| matches!(e, TraceEvent::Fault { .. })).count();
            let churns = self.round(r).filter(|e| matches!(e, TraceEvent::Churn { .. })).count();
            let bits: usize = sends
                .iter()
                .map(|e| if let TraceEvent::Send { bits, .. } = e { *bits } else { 0 })
                .sum();
            let _ = writeln!(
                out,
                "round {r:>4}: {:>5} msgs, {:>8} bits, {halts:>4} halts, {faults:>4} faults, {churns:>4} churns",
                sends.len(),
                bits
            );
        }
        out
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_and_summary() {
        let mut t = Trace::new();
        t.record(TraceEvent::Send { round: 0, from: 0, port: 0, to: 1, bits: 8, oversize: false });
        t.record(TraceEvent::Send { round: 1, from: 1, port: 1, to: 2, bits: 16, oversize: true });
        t.record(TraceEvent::Halt { round: 1, node: 0 });
        assert_eq!(t.len(), 3);
        assert_eq!(t.round(1).count(), 2);
        assert_eq!(t.sends_of(1).count(), 1);
        assert_eq!(t.halt_round(0), Some(1));
        assert_eq!(t.halt_round(2), None);
        let s = t.summary();
        assert!(s.contains("round    0:     1 msgs"));
        assert!(!format!("{t}").is_empty());
    }

    #[test]
    fn bandwidth_check_flags_each_oversize_send() {
        let mut t = Trace::new();
        t.record(TraceEvent::Send { round: 0, from: 0, port: 0, to: 1, bits: 8, oversize: false });
        t.record(TraceEvent::Send { round: 1, from: 1, port: 1, to: 2, bits: 40, oversize: false });
        t.record(TraceEvent::Halt { round: 1, node: 0 });
        let ok = t.check_bandwidth(Model::Congest { bits: 64 });
        assert!(ok.conforms() && !ok.is_exempt());
        assert_eq!(ok, Bandwidth::Checked { budget: 64, sends: 2, widest: 40, violations: vec![] });
        let bad = t.check_bandwidth(Model::Congest { bits: 16 });
        assert!(!bad.conforms());
        assert_eq!(
            bad,
            Bandwidth::Checked {
                budget: 16,
                sends: 2,
                widest: 40,
                violations: vec![BandwidthViolation {
                    round: 1,
                    from: 1,
                    port: 1,
                    to: 2,
                    bits: 40
                }],
            }
        );
        assert!(format!("{bad}").contains("VIOLATED"));
    }

    #[test]
    fn local_runs_are_exempt_not_conformant() {
        let mut t = Trace::new();
        t.record(TraceEvent::Send {
            round: 0,
            from: 0,
            port: 0,
            to: 1,
            bits: 9999,
            oversize: false,
        });
        let v = t.check_bandwidth(Model::Local);
        assert!(v.is_exempt() && !v.conforms());
        assert_eq!(v, Bandwidth::Exempt { sends: 1 });
        assert!(format!("{v}").contains("exempt"));
    }
}
