//! The [`Protocol`] trait and the per-round [`Context`] handed to nodes.

use dam_graph::{EdgeId, NodeId, Topology};
use rand::rngs::StdRng;

use crate::error::SimError;
use crate::message::BitSize;
use crate::stats::Integrity;

/// A port: the index of an incident edge at a node (`0..degree`).
///
/// CONGEST nodes address neighbours by port; the mapping to edge/neighbour
/// ids is exposed because the model grants nodes knowledge of their
/// neighbours' `O(log n)`-bit identifiers.
pub type Port = usize;

/// A per-node state machine executed by a [`crate::Network`].
///
/// The engine drives each node through [`Protocol::on_start`] (round 0,
/// before any delivery) and then [`Protocol::on_round`] once per
/// synchronous round with the messages sent to it in the *previous* round.
/// A node leaves the computation by calling [`Context::halt`]; when every
/// node has halted the run ends and [`Protocol::into_output`] collects the
/// per-node outputs (the paper's "output registers").
pub trait Protocol {
    /// The message type exchanged over edges.
    type Msg: BitSize + Clone + Send + std::fmt::Debug + 'static;
    /// The node's final output.
    type Output;

    /// Round 0: send initial messages. Default: do nothing.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// One synchronous round: `inbox` holds `(port, message)` pairs sorted
    /// by port — exactly the messages sent to this node in the previous
    /// round. Called once per round (possibly with an empty inbox) until
    /// the node halts.
    ///
    /// **The sleep contract.** A node that calls
    /// [`Context::sleep_until`]`(w)` in a step promises that every call
    /// of this method before round `w` with an *empty* inbox would be a
    /// no-op: no send, no halt, no RNG draw and no change of state. An
    /// engine may therefore skip those calls, and a node must give the
    /// same outputs whether they are skipped or not. Mail wakes the node
    /// early, and the hint lapses with the step that receives it. The
    /// sequential engine honours the hint; the sharded engine and the
    /// asynchronous backend (whose synchronizer needs every live node's
    /// step) ignore it, and all three stay bit-identical.
    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]);

    /// Notification that the neighbour behind `port` is suspected
    /// crashed. Delivered by failure-detecting wrappers (the
    /// [`crate::transport::Resilient`] transport); the plain synchronous
    /// engine never calls it. Protocols that wait on neighbours should
    /// override this to stop waiting on the dead port. The transport
    /// also reports a port down, once, when this node consumes the
    /// peer's final slot: the peer's program has halted and will send
    /// nothing more (it left; it did not fail, so no
    /// [`Protocol::on_peer_up`] follows unless it reboots). A protocol
    /// that keeps a neighbour in play until it hears from it must drop
    /// the port here, or it waits forever. Default: ignore.
    fn on_peer_down(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        let _ = (ctx, port);
    }

    /// Notification that the neighbour behind `port`, previously reported
    /// [`Protocol::on_peer_down`], is reachable again (it rebooted as a
    /// new incarnation, or the link came back). Delivered by
    /// failure-detecting wrappers; the plain synchronous engine never
    /// calls it. Default: ignore.
    fn on_peer_up(&mut self, ctx: &mut Context<'_, Self::Msg>, port: Port) {
        let _ = (ctx, port);
    }

    /// Consumes the node state into its output after the run.
    fn into_output(self) -> Self::Output;

    /// Exports this node's transport-session state, if the protocol
    /// maintains one. The engines sample it once per run, at the very
    /// end (after the last round, before [`Protocol::into_output`]) —
    /// so for a run that terminated by quiescence the export describes
    /// a drained transport. Checkpointing consumes it
    /// ([`crate::RunOutcome::sessions`]); sampling is read-only, so a
    /// protocol's behaviour is identical whether or not anyone looks.
    /// Default: `None` (plain protocols carry no session).
    fn session(&self) -> Option<SessionState> {
        None
    }
}

/// A transport wrapper's session state at the end of a run, exported
/// through [`Protocol::session`] for checkpointing.
///
/// This is a *summary*, not a resumable image: a restored process never
/// imports boot nonces — it draws fresh ones, so surviving peers treat
/// the restart as the incarnation change the transport already
/// supports. The checkpoint layer records the summary to *validate*
/// quiescence (every `outstanding` must be zero) and to preserve the
/// forensic record (who was dead, which incarnations were live, how
/// aggressive the adaptive ladder had become).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    /// This incarnation's boot nonce (drawn at `on_start`).
    pub boot: u16,
    /// The adaptive ladder's aggression level at export (always 1 for a
    /// static transport).
    pub level: u64,
    /// Per-port session summaries, indexed by port.
    pub ports: Vec<PortSession>,
}

impl SessionState {
    /// Outstanding (queued, unacknowledged) slots summed over all
    /// ports. Zero iff the transport is fully drained — the quiescence
    /// criterion a checkpoint validates before trusting the registers.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.ports.iter().map(|p| u64::from(p.outstanding)).sum()
    }
}

/// One port's session summary inside a [`SessionState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSession {
    /// The peer incarnation's boot nonce, if any of its frames arrived.
    pub peer_boot: Option<u16>,
    /// Queued, unacknowledged outgoing slots at export. Zero at
    /// quiescence; nonzero means the run was cut mid-flight.
    pub outstanding: u32,
    /// Session slots the peer has acknowledged.
    pub acked_out: u32,
    /// The cumulative receive acknowledgement advertised to the peer.
    pub recv_ack: u32,
    /// The peer's final (`last`) slot has been consumed.
    pub done: bool,
    /// The peer is considered crashed or rebooted.
    pub dead: bool,
}

/// The engine-provided view a node has during one of its rounds.
///
/// Grants exactly the model's powers: the node's own id, its port list
/// (with neighbour/edge ids), a private RNG, the current round number, and
/// message transmission over incident edges. It also carries one hint
/// from the node back to the engine, [`Context::sleep_until`], under the
/// sleep contract of [`Protocol::on_round`].
pub struct Context<'a, M> {
    pub(crate) node: NodeId,
    pub(crate) round: usize,
    pub(crate) graph: &'a dyn Topology,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) outbox: &'a mut Vec<(Port, M)>,
    pub(crate) sent: &'a mut [bool],
    pub(crate) halted: &'a mut bool,
    pub(crate) fault: &'a mut Option<SimError>,
    pub(crate) integrity: &'a mut Integrity,
    /// The round named by this step's [`Context::sleep_until`], or 0.
    pub(crate) wake: usize,
}

impl<M> Context<'_, M> {
    /// This node's identifier.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// The current round (0 during [`Protocol::on_start`]).
    #[must_use]
    pub fn round(&self) -> usize {
        self.round
    }

    /// Number of nodes in the network.
    ///
    /// The paper assumes nodes know a common polynomial upper bound on `n`
    /// (via `W_max`); we expose `n` itself.
    #[must_use]
    pub fn network_size(&self) -> usize {
        self.graph.node_count()
    }

    /// This node's degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// The neighbour reachable through `port`.
    #[must_use]
    pub fn neighbor(&self, port: Port) -> NodeId {
        self.graph.port(self.node, port).0
    }

    /// The edge id behind `port`.
    #[must_use]
    pub fn edge(&self, port: Port) -> EdgeId {
        self.graph.port(self.node, port).1
    }

    /// The weight of the edge behind `port` (§2: "every node knows the
    /// weights of all its incident edges").
    #[must_use]
    pub fn edge_weight(&self, port: Port) -> f64 {
        self.graph.weight(self.edge(port))
    }

    /// Iterator over this node's ports.
    pub fn ports(&self) -> std::ops::Range<Port> {
        0..self.degree()
    }

    /// This node's private RNG (deterministic per `(seed, run, node)`).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` over `port`, to be delivered next round.
    ///
    /// At most one message per port per round (the model allows one
    /// message per edge per direction per round); a second send is a
    /// protocol bug and fails the run with [`SimError::DuplicateSend`].
    pub fn send(&mut self, port: Port, msg: M) {
        if self.sent[port] {
            if self.fault.is_none() {
                *self.fault =
                    Some(SimError::DuplicateSend { node: self.node, port, round: self.round });
            }
            return;
        }
        self.sent[port] = true;
        self.outbox.push((port, msg));
    }

    /// Sends a copy of `msg` over every port.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for port in self.ports() {
            self.send(port, msg.clone());
        }
    }

    /// Leaves the computation: `on_round` will not be called again for
    /// this node. Messages already placed in the outbox this round are
    /// still delivered.
    pub fn halt(&mut self) {
        *self.halted = true;
    }

    /// Hints that this node has nothing to do before round `round`
    /// unless mail arrives: with an empty inbox, every
    /// [`Protocol::on_round`] before `round` would be a no-op (the sleep
    /// contract stated there), so the engine may skip those calls. The
    /// node is stepped again at the first round in which it has mail,
    /// and at `round` at the latest.
    ///
    /// The hint covers the rounds after this step and lapses with the
    /// node's next step, so a node that wants to keep sleeping calls it
    /// again; the last call of a step counts. A halt overrides it, a
    /// reboot clears it, and a wrapper that drives an inner protocol
    /// (such as the [`crate::transport::Resilient`] transport) drops
    /// the inner protocol's hint.
    pub fn sleep_until(&mut self, round: usize) {
        self.wake = round;
    }

    /// Records that this node rejected an incoming frame on integrity
    /// grounds (failed checksum, wrong incarnation nonce, malformed
    /// payload). Accounted in [`crate::RunStats::rejected`]; identical
    /// totals on both engines because rejection is a per-message
    /// deterministic decision.
    pub fn note_rejected(&mut self) {
        self.integrity.rejected = self.integrity.rejected.saturating_add(1);
    }

    /// Records that this node quarantined the neighbour behind a port
    /// after repeated integrity failures. Accounted in
    /// [`crate::RunStats::quarantined`].
    pub fn note_quarantined(&mut self) {
        self.integrity.quarantined = self.integrity.quarantined.saturating_add(1);
    }

    /// Records that this node's silence-based failure detector declared
    /// the peer behind a port dead (no progress for the suspicion
    /// window). Accounted in [`crate::RunStats::suspected`]; under an
    /// adversarial timing model a nonzero count against live peers is
    /// the false-suspicion signal experiment E18 hunts.
    pub fn note_suspected(&mut self) {
        self.integrity.suspected = self.integrity.suspected.saturating_add(1);
    }

    /// Reports how many transport window slots this node holds
    /// outstanding (queued, unacknowledged) this round. A telemetry
    /// gauge: the per-round series stream
    /// ([`crate::telemetry::RoundSample::outstanding`]) integrates it,
    /// but it is **not** folded into [`crate::RunStats`] — calling or
    /// not calling it never changes a run's observable statistics.
    pub fn note_outstanding(&mut self, slots: u64) {
        self.integrity.outstanding = self.integrity.outstanding.saturating_add(slots);
    }
}
