//! A resilient transport: reliable lock-step execution over faulty links.
//!
//! [`Resilient`] wraps any [`Protocol`] and re-creates the synchronous
//! abstraction the wrapped protocol was written for — every logical round's
//! messages are delivered exactly once, in order — on top of a network that
//! loses, duplicates and reorders frames and whose nodes crash (and even
//! reboot). It is the fault-tolerant sibling of the α-synchronizer in
//! [`crate::asynchrony`], built from classic mechanisms:
//!
//! - **Ack/retransmit with exponential backoff**: each inner round is one
//!   *slot*; an unacknowledged slot is retransmitted (backoff doubling
//!   from [`TransportCfg::backoff_base`] up to
//!   [`TransportCfg::backoff_max`]) until the peer's cumulative ack covers
//!   it. Fault-free, a slot is acknowledged before its first retransmit
//!   timer fires, so no duplicate traffic is generated.
//! - **Sequence numbers**: frames carry their slot index; receivers buffer
//!   out-of-order slots and drop duplicates, so duplication and reordering
//!   are absorbed exactly.
//! - **Heartbeat failure detection**: a node expecting progress on a port
//!   that sees none for [`TransportCfg::suspicion`] consecutive engine
//!   rounds declares the peer dead and tells the wrapped protocol via
//!   [`Protocol::on_peer_down`]. Ack-only control frames double as
//!   heartbeats, sent at least every [`TransportCfg::hb_interval`] rounds
//!   while there is outstanding work, so silence means death rather than
//!   congestion. (Liveness suffices as the suspicion signal because
//!   reboots are unmasked separately, by the nonce below.)
//! - **Incarnation detection and revival**: every boot draws a random
//!   nonce carried in every frame, and every frame also echoes the boot
//!   nonce of the incarnation it is addressed to (when known). A
//!   crash-*recovered* node reboots with a fresh nonce, so surviving
//!   peers recognise the new incarnation, report the port down
//!   ([`Protocol::on_peer_down`]) — and then *revive* it: the port's
//!   session state is reset, slot numbering restarts from zero, and the
//!   wrapped protocol is told the (new) peer is reachable via
//!   [`Protocol::on_peer_up`]. A port already declared dead by suspicion
//!   is likewise revived when a *fresh-session* frame (slot 0, ack 0)
//!   from a new incarnation arrives; suspicion of a peer that never
//!   reboots is permanent within its incarnation. A revived session
//!   opens with an immediate *empty catch-up slot*: the fresh
//!   incarnation's first consume is served without waiting on our own
//!   inner advancement, which can transitively depend (through other
//!   blocked neighbours) on the fresh node itself — a cyclic pipeline
//!   deadlock otherwise. Revival only happens
//!   while our own inner protocol is still running: a node that has
//!   finished quarantines fresh incarnations (drops their frames
//!   unacknowledged), so the newcomer suspects it and stops waiting —
//!   the termination guarantee below depends on this. The echoed
//!   destination nonce shuts out the classic half-open hazard: frames
//!   addressed to a previous incarnation of us are dropped before they
//!   can pollute the fresh session's sequence space.
//! - **Integrity validation and quarantine**: every frame carries a
//!   [checksum](Frame::sealed) over its header, verified *before* the
//!   frame can count as peer progress or touch session state. A frame
//!   that fails validation is rejected (counted in
//!   [`crate::RunStats::rejected`]) and strikes the link; after
//!   [`TransportCfg::max_strikes`] consecutive failures the port is
//!   *quarantined* — declared dead exactly like a suspected crash
//!   ([`crate::RunStats::quarantined`], [`Protocol::on_peer_down`]),
//!   because a link that keeps delivering garbage is indistinguishable
//!   from a Byzantine sender. Frames that pass the checksum but carry
//!   an impossible session claim (a reboot nonce without a fresh
//!   session opener, a destination nonce addressed to a previous
//!   incarnation of us) are likewise rejected, without striking: a
//!   single forged frame must not assassinate a live link. The checksum
//!   is a CRC stand-in — messages here are in-memory values, not byte
//!   strings, so it folds the header fields and the payload *width*
//!   rather than real wire bytes; semantic payload damage that keeps
//!   the envelope intact is deliberately out of transport scope and is
//!   caught end-to-end by certification (`dam_core::certify`) instead.
//!
//! Overhead accounting is explicit: first transmissions of payload-bearing
//! slots count as ordinary protocol messages, retransmissions count into
//! [`crate::RunStats::retransmissions`], and empty slot markers plus
//! control frames count into [`crate::RunStats::heartbeats`]
//! (via [`crate::MsgClass`]).
//!
//! Termination: a wrapped protocol that halts, halts here too — once its
//! final slot is acknowledged and each peer's final slot has been
//! consumed, plus a short [`TransportCfg::linger`] so trailing acks
//! drain. Message-driven protocols that never halt and rely on engine
//! quiescence instead are covered by [`TransportCfg::idle_after`]: a node
//! whose inner protocol neither sent nor received anything for that many
//! inner rounds declares itself finished. Idle detection is local, so
//! pick a margin comfortably above the protocol's quiet period (as with
//! engine quiescence itself). Either way every node eventually halts — a
//! stalled or already-halted peer is eventually declared dead by
//! suspicion, which unblocks anyone still waiting on it.

use std::collections::VecDeque;

use rand::rngs::StdRng;

use crate::adaptive::{AdaptivePolicy, EpochObservation};
use crate::error::SimError;
use crate::message::{BitSize, CorruptKind, MsgClass};
use crate::node::{Context, Port, PortSession, Protocol, SessionState};
use crate::rng;

/// Tuning knobs for [`Resilient`]. The defaults suit the fault rates used
/// in the experiments (per-message loss up to ~30%, a few percent of
/// nodes crashing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportCfg {
    /// How many inner slots may be in flight (unacknowledged) per port.
    /// 1 is strict stop-and-wait; the default 2 lets a node pipeline the
    /// next slot behind the (in-flight) ack of the previous one, which
    /// restores one engine round per inner round when fault-free.
    pub window: usize,
    /// Engine rounds before the first retransmission of a slot. Must
    /// exceed the ack round-trip (2 rounds: deliver, ack back) or
    /// fault-free runs retransmit spuriously.
    pub backoff_base: usize,
    /// Retransmission interval cap (the backoff doubles until here).
    /// Keep below `suspicion / 2` so a live-but-unlucky peer is not
    /// declared dead between retries.
    pub backoff_max: usize,
    /// Send a control frame on a port at least this often while there is
    /// outstanding work, so silence means death rather than idleness.
    pub hb_interval: usize,
    /// Engine rounds of silence on a port (no frame at all, while the
    /// peer still owes us traffic) before its peer is declared dead.
    /// Raise it to trade detection latency for false-positive margin:
    /// a false positive needs `suspicion / hb_interval` consecutive
    /// losses.
    pub suspicion: usize,
    /// Engine rounds to stay responsive (acking peer retransmissions)
    /// after finishing, before halting.
    pub linger: usize,
    /// If set, an inner protocol that neither sends nor receives for
    /// this many consecutive inner rounds is declared finished — the
    /// transport equivalent of quiescence detection
    /// ([`crate::SimConfig`]) for message-driven protocols that never
    /// call halt.
    pub idle_after: Option<usize>,
    /// Consecutive checksum failures on a port before its peer is
    /// quarantined (declared dead, [`Protocol::on_peer_down`]). Any
    /// valid frame resets the count, so honest links under random
    /// channel corruption survive: quarantine needs `max_strikes`
    /// failures *in a row*, evidence of a Byzantine sender or a
    /// hopeless link rather than bad luck.
    pub max_strikes: usize,
}

impl Default for TransportCfg {
    fn default() -> TransportCfg {
        TransportCfg {
            window: 2,
            backoff_base: 3,
            backoff_max: 6,
            hb_interval: 2,
            suspicion: 15,
            linger: 4,
            idle_after: None,
            max_strikes: 8,
        }
    }
}

impl TransportCfg {
    /// A configuration derived from a declared per-hop delay bound (in
    /// engine rounds / virtual time units) — the graceful-degradation
    /// rule for running the transport over the asynchronous backend
    /// ([`crate::Backend::Async`]).
    ///
    /// The default timers assume lockstep rounds: a frame is either
    /// delivered next round or lost. Under an adversarial timing model
    /// ([`crate::DelayModel`]) a slow-but-correct peer can stay silent
    /// for up to `bound` rounds of the receiver's clock, so every timer
    /// that converts silence into action scales with the bound:
    ///
    /// * `backoff_base` ≥ one ack round-trip at worst-case delay
    ///   (`2·bound + 1`), or fault-free runs retransmit spuriously;
    /// * `backoff_max` doubles that headroom;
    /// * `suspicion` and `hb_interval` both scale by `bound`, keeping
    ///   the false-positive margin `suspicion / hb_interval ≈ 7.5`
    ///   missed heartbeats constant at the stretched period;
    /// * `linger` covers one full retransmission interval so a finished
    ///   node still acks a straggling peer's last retries.
    ///
    /// `bound = 1` reproduces the defaults exactly. Pair it with
    /// [`crate::SimConfig::patience`] ≥ `2·bound` so the synchronizer
    /// itself never drops frames; then a slow-but-correct node is never
    /// suspected, let alone quarantined (experiment E18 measures this).
    #[must_use]
    pub fn for_delay_bound(bound: u64) -> TransportCfg {
        let b = usize::try_from(bound.max(1)).unwrap_or(usize::MAX / 64);
        let d = TransportCfg::default();
        TransportCfg {
            window: d.window,
            backoff_base: 2 * b + 1,
            backoff_max: 2 * (2 * b + 1),
            hb_interval: d.hb_interval * b,
            suspicion: d.suspicion * b,
            linger: d.linger * b,
            idle_after: None,
            max_strikes: d.max_strikes,
        }
    }

    /// Sets the suspicion threshold (builder style).
    #[must_use]
    pub fn suspicion(mut self, rounds: usize) -> TransportCfg {
        self.suspicion = rounds;
        self
    }

    /// Enables idle-based termination (builder style).
    #[must_use]
    pub fn idle_after(mut self, rounds: usize) -> TransportCfg {
        self.idle_after = Some(rounds);
        self
    }

    /// Sets the quarantine threshold (builder style).
    #[must_use]
    pub fn max_strikes(mut self, strikes: usize) -> TransportCfg {
        self.max_strikes = strikes;
        self
    }

    /// Rejects configurations whose timers cannot work, with a typed
    /// error naming the violation instead of the silent misbehavior they
    /// would cause at runtime:
    ///
    /// * `window == 0` — no slot may ever be in flight, so the very
    ///   first inner round deadlocks;
    /// * `backoff_base == 0` — a retransmission timer that is always
    ///   due floods every unacked slot every round;
    /// * `backoff_max < backoff_base` — the doubling schedule caps
    ///   *below* its own first interval, silently shortening retries;
    /// * `suspicion <= 2 * hb_interval` — fewer than two heartbeat
    ///   periods of margin, so one unlucky loss (or an ack consumed by
    ///   a single reorder) convicts a live peer.
    ///
    /// The default configuration and every [`for_delay_bound`]
    /// derivation pass. Drivers validate at the configuration boundary
    /// (`dam_core::runtime`, `dam-cli`); the transport itself keeps its
    /// construction-time assertions for direct embedders.
    ///
    /// [`for_delay_bound`]: TransportCfg::for_delay_bound
    ///
    /// # Errors
    /// Returns [`SimError::InvalidTransportCfg`] naming the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidTransportCfg { reason });
        if self.window == 0 {
            return fail("window must be at least 1 slot".to_string());
        }
        if self.backoff_base == 0 {
            return fail("backoff_base must be at least 1 round".to_string());
        }
        if self.backoff_max < self.backoff_base {
            return fail(format!(
                "backoff_max ({}) must be at least backoff_base ({})",
                self.backoff_max, self.backoff_base
            ));
        }
        if self.suspicion <= 2 * self.hb_interval {
            return fail(format!(
                "suspicion ({}) must exceed two heartbeat intervals (2 * {})",
                self.suspicion, self.hb_interval
            ));
        }
        Ok(())
    }
}

/// How a node program is hardened with [`Resilient`]: under one fixed
/// timer configuration, or under the closed-loop adaptive controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// [`Resilient::new`] with this configuration.
    Fixed(TransportCfg),
    /// [`Resilient::with_policy`] with this policy.
    Adaptive(AdaptivePolicy),
}

impl TransportMode {
    /// The configuration the transport starts from: the fixed one, or
    /// the policy's floor.
    #[must_use]
    pub fn floor(self) -> TransportCfg {
        match self {
            TransportMode::Fixed(cfg) => cfg,
            TransportMode::Adaptive(policy) => policy.floor,
        }
    }

    /// Wraps `inner` with the transport of this mode.
    ///
    /// # Panics
    /// As [`Resilient::new`], if the starting configuration has a zero
    /// window or backoff base.
    pub fn wrap<P: Protocol>(self, inner: P) -> Resilient<P> {
        match self {
            TransportMode::Fixed(cfg) => Resilient::new(inner, cfg),
            TransportMode::Adaptive(policy) => Resilient::with_policy(inner, policy),
        }
    }
}

/// What a [`Frame`] carries besides its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameKind<M> {
    /// Slot `seq` of the sender's inner protocol: the message its inner
    /// protocol addressed to this port in inner round `seq` (or `None`
    /// if it sent nothing), plus whether this is the sender's final slot.
    Data {
        /// Slot index (the sender's inner round).
        seq: u32,
        /// The inner message, if one was sent this slot.
        payload: Option<M>,
        /// No slots beyond this one exist.
        last: bool,
        /// This is a retransmission (accounting only).
        retx: bool,
    },
    /// Ack/heartbeat only.
    Control,
}

/// The wire format of [`Resilient`]: a small header (boot nonce +
/// destination nonce echo + cumulative ack) plus at most one
/// inner-protocol slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<M> {
    /// Sender's per-boot random nonce; a change signals a reboot.
    pub boot: u16,
    /// The boot nonce of the peer incarnation this frame is addressed
    /// to, once learned (`None` while opening a session). Receivers drop
    /// frames addressed to a previous incarnation of themselves.
    pub dst: Option<u16>,
    /// Cumulative ack: the sender has received every session slot
    /// `< ack` from this port's peer.
    pub ack: u32,
    /// Header checksum sealed by the sender ([`Frame::sealed`]) and
    /// verified by the receiver ([`Frame::valid`]) before the frame may
    /// touch any session state. A CRC-16 stand-in: frames are in-memory
    /// values, so it folds the header fields and the payload *width*
    /// through [`crate::rng::splitmix64`] instead of hashing wire bytes.
    pub sum: u16,
    /// Payload part.
    pub kind: FrameKind<M>,
}

impl<M: BitSize> Frame<M> {
    /// The checksum a well-formed frame with these fields must carry.
    fn checksum(boot: u16, dst: Option<u16>, ack: u32, kind: &FrameKind<M>) -> u16 {
        let mut h = u64::from(boot) ^ 0xF4A3_C0DE_0000;
        h = rng::splitmix64(h ^ dst.map_or(0x1_0000, u64::from));
        h = rng::splitmix64(h ^ u64::from(ack));
        h = match kind {
            FrameKind::Control => rng::splitmix64(h ^ 0x3),
            FrameKind::Data { seq, payload, last, retx } => rng::splitmix64(
                h ^ (u64::from(*seq) << 8)
                    ^ (u64::from(*last) << 1)
                    ^ u64::from(*retx)
                    ^ ((payload.as_ref().map_or(0, BitSize::bit_size) as u64) << 40),
            ),
        };
        (h & 0xFFFF) as u16
    }

    /// Builds a frame with its checksum sealed over the given fields.
    #[must_use]
    pub fn sealed(boot: u16, dst: Option<u16>, ack: u32, kind: FrameKind<M>) -> Frame<M> {
        let sum = Frame::checksum(boot, dst, ack, &kind);
        Frame { boot, dst, ack, sum, kind }
    }

    /// Whether the carried checksum matches the frame's contents.
    #[must_use]
    pub fn valid(&self) -> bool {
        self.sum == Frame::checksum(self.boot, self.dst, self.ack, &self.kind)
    }
}

impl<M: BitSize + Clone> BitSize for Frame<M> {
    /// Header: 16-bit boot nonce + option-tagged 16-bit destination
    /// nonce + 16-bit cumulative ack (slot counts are bounded by the
    /// engine's round guard, so 16 bits are honest) + 16-bit checksum.
    /// A data frame adds a 16-bit slot number, `last`/`retx` flag bits,
    /// and the option-tagged payload.
    fn bit_size(&self) -> usize {
        let header = 16 + 17 + 16 + 16;
        match &self.kind {
            FrameKind::Data { payload, .. } => {
                header + 16 + 2 + 1 + payload.as_ref().map_or(0, BitSize::bit_size)
            }
            FrameKind::Control => header,
        }
    }

    fn class(&self) -> MsgClass {
        match &self.kind {
            FrameKind::Data { retx: true, .. } => MsgClass::Retransmission,
            FrameKind::Data { payload: Some(_), retx: false, .. } => MsgClass::Protocol,
            // Empty slot markers carry no protocol payload: accounted as
            // transport overhead together with control frames.
            FrameKind::Data { payload: None, retx: false, .. } | FrameKind::Control => {
                MsgClass::Heartbeat
            }
        }
    }

    /// Transit damage on a frame. Header damage leaves the checksum
    /// stale so receiver validation catches it; replayed and forged
    /// frames are internally consistent (valid checksum) and must be
    /// shut out by the sequence-number and incarnation checks instead.
    fn corrupted(&self, kind: CorruptKind, rng: &mut StdRng) -> Option<Self> {
        use rand::RngExt;
        match kind {
            CorruptKind::BitFlip => {
                // One header bit flips; the carried checksum goes stale.
                let mut f = self.clone();
                match rng.random_range(0..3u32) {
                    0 => f.boot ^= 1 << rng.random_range(0..16u32),
                    1 => f.ack ^= 1 << rng.random_range(0..16u32),
                    _ => f.sum ^= 1 << rng.random_range(0..16u32),
                }
                Some(f)
            }
            CorruptKind::Truncate => match &self.kind {
                // A truncated data frame loses its payload but keeps the
                // (now stale) checksum; a control frame is all header,
                // so truncation destroys it outright.
                FrameKind::Data { seq, last, retx, .. } => {
                    let mut f = self.clone();
                    f.kind = FrameKind::Data { seq: *seq, payload: None, last: *last, retx: *retx };
                    Some(f)
                }
                FrameKind::Control => None,
            },
            CorruptKind::Garbage => Some(Frame {
                boot: rng.random(),
                dst: if rng.random_bool(0.5) { Some(rng.random()) } else { None },
                ack: u32::from(rng.random::<u16>()),
                sum: rng.random(),
                kind: FrameKind::Control,
            }),
            // An old frame injected again: internally consistent, marked
            // as a retransmission where the wire format allows it. The
            // receiver's cumulative ack and slot dedup absorb it.
            CorruptKind::Replay => {
                let mut f = self.clone();
                if let FrameKind::Data { retx, .. } = &mut f.kind {
                    *retx = true;
                }
                Some(Frame::sealed(f.boot, f.dst, f.ack, f.kind))
            }
            // A plausible frame from a fabricated identity: the checksum
            // seals honestly, so only the incarnation checks stand
            // between the forgery and the session state.
            CorruptKind::Forge => {
                Some(Frame::sealed(rng.random(), None, self.ack, FrameKind::Control))
            }
        }
    }
}

/// One inner-protocol slot queued on a port until acknowledged.
#[derive(Debug, Clone)]
struct OutSlot<M> {
    seq: u32,
    payload: Option<M>,
    last: bool,
    /// Transmissions so far (0 = not yet sent).
    attempts: u32,
    /// Engine round at which this slot may be retransmitted.
    next_retx: usize,
}

/// One received, not-yet-consumed slot: the inner message it carries
/// (if the sender's inner protocol sent one) and whether it is the
/// sender's final slot.
type InSlot<M> = (Option<M>, bool);

/// Per-port transport state. Sequence numbers on the wire are
/// *session-relative*: wire slot `s` is inner slot `seq_base + s`, so a
/// revived session restarts numbering from zero on both sides.
///
/// Received slots wait in `recv_buf`, a ring indexed from
/// `consume_next`: entry `i` holds session slot `consume_next + i`, or
/// `None` while that slot has not arrived. A legitimate slot lies in
/// `[consume_next, recv_ack + window)`, every slot below `recv_ack` is
/// present, and consuming a slot pops the ring's front, so each lookup
/// is an index check. The ring grows to the widest span a run sees and
/// is then reused, so buffering a slot allocates nothing.
#[derive(Debug)]
struct PortState<M> {
    /// Unacknowledged outgoing slots (wire-numbered), oldest first
    /// (≤ `cfg.window`).
    queue: VecDeque<OutSlot<M>>,
    /// The peer has acknowledged every session slot `< acked_out`.
    acked_out: u32,
    /// Received slots from `consume_next` on (see the type docs).
    recv_buf: VecDeque<Option<InSlot<M>>>,
    /// Every slot `< recv_ack` has been received (the ack we advertise).
    recv_ack: u32,
    /// Next incoming slot the inner protocol will consume.
    consume_next: u32,
    /// The `ack` value of the last frame we sent on this port.
    ack_sent: u32,
    /// Inner slot index at which this session's wire numbering starts.
    seq_base: u32,
    /// The peer's boot nonce, learned from its first frame.
    peer_boot: Option<u16>,
    /// The previous incarnation's nonce after a session reset; its stale
    /// frames are silently dropped.
    prev_boot: Option<u16>,
    /// The peer's final slot has been consumed (it sent `last`).
    done: bool,
    /// The peer is considered crashed or rebooted.
    dead: bool,
    /// Consecutive checksum failures; any valid frame resets it. At
    /// [`TransportCfg::max_strikes`] the port is quarantined.
    strikes: usize,
    /// Engine round of the last observed progress on this port.
    last_progress: usize,
    /// Engine round we last transmitted on this port, if ever.
    last_sent: Option<usize>,
}

impl<M> PortState<M> {
    fn new(now: usize) -> PortState<M> {
        PortState {
            queue: VecDeque::new(),
            acked_out: 0,
            recv_buf: VecDeque::new(),
            recv_ack: 0,
            consume_next: 0,
            ack_sent: 0,
            seq_base: 0,
            peer_boot: None,
            prev_boot: None,
            done: false,
            dead: false,
            strikes: 0,
            last_progress: now,
            last_sent: None,
        }
    }

    /// Restarts the session for a new peer incarnation: wire numbering
    /// rebases at `seq_base` (the next inner slot), all buffers clear,
    /// and the port comes back to life. Only called while our own inner
    /// protocol is still running — a finished node quarantines fresh
    /// incarnations instead (see [`Resilient::receive`]).
    fn reset_session(&mut self, now: usize, new_boot: u16, seq_base: u32) {
        self.prev_boot = self.peer_boot;
        self.peer_boot = Some(new_boot);
        // Wire slot 0 of the new session is an immediate empty catch-up
        // slot, so `seq_base - 1`: our next *produced* inner slot maps
        // to wire slot 1. Without the catch-up, the fresh incarnation
        // would wait for a slot we can only produce by advancing — and
        // our advancement can transitively wait on the fresh node
        // itself (its other neighbours block on *its* next slot), a
        // cyclic pipeline deadlock. The empty slot is truthful: while
        // the port was down (or the peer absent) the inner protocol
        // sent nothing on it.
        self.seq_base = seq_base.wrapping_sub(1);
        self.queue.clear();
        self.queue.push_back(OutSlot {
            seq: 0,
            payload: None,
            last: false,
            attempts: 0,
            next_retx: 0,
        });
        self.acked_out = 0;
        self.recv_buf.clear();
        self.recv_ack = 0;
        self.consume_next = 0;
        self.ack_sent = 0;
        self.done = false;
        self.dead = false;
        self.strikes = 0;
        self.last_progress = now;
        self.last_sent = None;
    }

    /// Slots this port adds to the outstanding gauge: its queue while
    /// the peer is alive, nothing once it is dead.
    fn live_slots(&self) -> u64 {
        if self.dead {
            0
        } else {
            self.queue.len() as u64
        }
    }

    /// Whether session slot `seq` (at least `consume_next`) is buffered.
    fn has(&self, seq: u32) -> bool {
        self.recv_buf.get((seq - self.consume_next) as usize).is_some_and(Option::is_some)
    }

    /// Buffers slot `seq` if it lies in `[consume_next, recv_ack +
    /// window)` and is not buffered yet (the first copy wins), then
    /// advances `recv_ack` over every slot now present.
    fn buffer(&mut self, seq: u32, payload: &Option<M>, last: bool, window: u32)
    where
        M: Clone,
    {
        // A legitimate sender is at most `window` slots past our
        // cumulative ack; reject anything further so stale frames
        // cannot squat on slot numbers the new session will reuse.
        if seq >= self.consume_next && seq < self.recv_ack + window {
            let i = (seq - self.consume_next) as usize;
            if i >= self.recv_buf.len() {
                self.recv_buf.resize_with(i + 1, || None);
            }
            self.recv_buf[i].get_or_insert_with(|| (payload.clone(), last));
        }
        while self.has(self.recv_ack) {
            self.recv_ack += 1;
        }
    }

    /// Consumes slot `consume_next` if it has arrived.
    fn take_next(&mut self) -> Option<InSlot<M>> {
        if !self.recv_buf.front().is_some_and(Option::is_some) {
            return None;
        }
        self.consume_next += 1;
        self.recv_buf.pop_front().flatten()
    }
}

/// What [`Resilient::receive`] observed about the port's peer.
enum Rx {
    /// Nothing new (or the frame was stale and dropped).
    Ok,
    /// The peer was just declared dead (reboot evidence arrived out of
    /// order; the session opener will revive it).
    Down,
    /// A dead port came back: a new incarnation opened a fresh session.
    Up,
    /// A live port's peer rebooted: down and immediately up again as the
    /// new incarnation.
    DownUp,
}

/// A protocol wrapper adding reliable delivery, failure detection and
/// reboot isolation — see the [module docs](self) for the full design.
///
/// One engine round of a transported node touches each port a constant
/// number of times and allocates nothing once the run has warmed up:
/// received slots wait in a per-port ring (`PortState`), inbox frames
/// are read by reference (a payload is cloned only when its slot is
/// buffered), the payload row, the inner inbox and outbox and the peer
/// transitions live in buffers reused from round to round, the
/// outstanding-slot gauge is a running count, and the suspicion scan
/// over every port runs only when the earliest deadline can be due.
///
/// Use it as the protocol handed to the engine:
///
/// ```
/// use dam_congest::transport::{Resilient, TransportCfg};
/// use dam_congest::{Context, FaultPlan, Network, Port, Protocol, RunSpec, SimConfig};
///
/// struct Once;
/// impl Protocol for Once {
///     type Msg = u64;
///     type Output = usize;
///     fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
///         ctx.broadcast(7);
///     }
///     fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
///         assert_eq!(inbox.len(), ctx.degree()); // loss was repaired
///         ctx.halt();
///     }
///     fn into_output(self) -> usize {
///         0
///     }
/// }
///
/// let g = dam_graph::generators::cycle(4);
/// let mut net = Network::new(&g, SimConfig::local().seed(1));
/// let out = net
///     .execute(
///         |_, _| Resilient::new(Once, TransportCfg::default()),
///         &RunSpec { faults: &FaultPlan::lossy(0.2), ..RunSpec::default() },
///     )
///     .unwrap();
/// assert!(out.stats.rounds >= 2);
/// ```
pub struct Resilient<P: Protocol> {
    inner: P,
    cfg: TransportCfg,
    /// This boot's random nonce (drawn in `on_start`).
    boot: u16,
    /// Inner slots produced so far; also the inner round counter.
    slots_out: u32,
    /// The inner protocol called halt.
    inner_halted: bool,
    /// A final (`last`) slot has been produced: the inner protocol
    /// halted, idled out, or lost every neighbour.
    inner_done: bool,
    /// Consecutive inner rounds with no traffic in or out.
    idle_rounds: usize,
    /// Messages the inner protocol sent outside a round (from
    /// `on_peer_down`), folded into the next slot.
    extra_out: Vec<(Port, P::Msg)>,
    /// Scratch send-guard for the inner context.
    inner_sent: Vec<bool>,
    /// Countdown of responsive rounds after finishing.
    linger_left: Option<usize>,
    ports: Vec<PortState<P::Msg>>,
    /// Queued slots on live ports, kept as a running count: the value
    /// reported to the telemetry gauge ([`Context::note_outstanding`]).
    outstanding: u64,
    /// A lower bound on `last_progress` over the ports that expect
    /// progress (`usize::MAX` when none does). The suspicion scan over
    /// every port runs only once this bound's deadline has passed.
    progress_floor: usize,
    /// The payload row of the slot being produced, one entry per port.
    payloads: Vec<Option<P::Msg>>,
    /// The inner protocol's inbox for its next round.
    inner_inbox: Vec<(Port, P::Msg)>,
    /// What the inner protocol sent in its current callback.
    inner_outbox: Vec<(Port, P::Msg)>,
    /// This round's `(port, came_up)` transitions, in observation order.
    peer_events: Vec<(Port, bool)>,
    /// Closed-loop controller, if this transport is adaptive
    /// ([`Resilient::with_policy`]). `None` runs the fixed `cfg` forever.
    policy: Option<AdaptivePolicy>,
    /// Current aggression level of the adaptive ladder (1 = floor).
    level: u64,
    /// Counters accumulated since the last epoch boundary, consumed by
    /// the policy to pick the next epoch's configuration.
    epoch_obs: EpochObservation,
}

impl<P: Protocol> Resilient<P> {
    /// Wraps `inner` with the resilient transport.
    ///
    /// # Panics
    /// Panics if `cfg.window` or `cfg.backoff_base` is zero.
    pub fn new(inner: P, cfg: TransportCfg) -> Resilient<P> {
        assert!(cfg.window >= 1, "transport window must be at least 1");
        assert!(cfg.backoff_base >= 1, "backoff base must be at least 1");
        Resilient {
            inner,
            cfg,
            boot: 0,
            slots_out: 0,
            inner_halted: false,
            inner_done: false,
            idle_rounds: 0,
            extra_out: Vec::new(),
            inner_sent: Vec::new(),
            linger_left: None,
            ports: Vec::new(),
            outstanding: 0,
            progress_floor: usize::MAX,
            payloads: Vec::new(),
            inner_inbox: Vec::new(),
            inner_outbox: Vec::new(),
            peer_events: Vec::new(),
            policy: None,
            level: 1,
            epoch_obs: EpochObservation::default(),
        }
    }

    /// Wraps `inner` with an **adaptive** resilient transport: the
    /// timer/quarantine configuration starts at the policy's floor
    /// (level 1) and is re-derived from observed retransmissions,
    /// suspicions and integrity rejections at every epoch boundary
    /// (engine rounds divisible by [`AdaptivePolicy::epoch`]).
    ///
    /// The controller is pure and seed-free ([`AdaptivePolicy`]), and
    /// reconfiguration happens at the *start* of the boundary round,
    /// before any receive/suspect/transmit decision — so a run is a
    /// deterministic function of `(seed, plan, policy)` on every
    /// backend, exactly as a static configuration is of `(seed, plan,
    /// cfg)`.
    ///
    /// # Panics
    /// Panics if the policy's floor has a zero window or backoff base
    /// (same contract as [`Resilient::new`]).
    pub fn with_policy(inner: P, policy: AdaptivePolicy) -> Resilient<P> {
        let mut wrapped = Resilient::new(inner, policy.cfg_at(1, policy.floor.max_strikes));
        wrapped.policy = Some(policy);
        wrapped
    }

    /// The adaptive ladder's current aggression level (1 = floor).
    /// Always 1 for a transport built with [`Resilient::new`].
    #[must_use]
    pub fn level(&self) -> u64 {
        self.level
    }

    /// The configuration currently in force (the constructor's `cfg`
    /// for a static transport; the latest epoch's derivation for an
    /// adaptive one).
    #[must_use]
    pub fn current_cfg(&self) -> TransportCfg {
        self.cfg
    }

    /// Ports whose peers were declared dead (by suspicion or reboot).
    #[must_use]
    pub fn dead_ports(&self) -> Vec<Port> {
        (0..self.ports.len()).filter(|&p| self.ports[p].dead).collect()
    }

    /// Queues slot `slots_out` on every live port — wire-numbered
    /// relative to the port's session — and advances the slot counter.
    /// The slot carries the `on_peer_down` extras and the inner outbox
    /// (a later message on a port replaces an earlier one); both are
    /// drained, and the inner send guard is reset.
    fn produce_slot(&mut self, last: bool) {
        for (p, m) in self.extra_out.drain(..).chain(self.inner_outbox.drain(..)) {
            self.payloads[p] = Some(m);
        }
        self.inner_sent.fill(false);
        let seq = self.slots_out;
        self.slots_out += 1;
        for (port, payload) in self.ports.iter_mut().zip(&mut self.payloads) {
            let payload = payload.take();
            if port.dead {
                continue;
            }
            // A settled port (peer done, nothing queued) starts expecting
            // acks again, so its progress deadline counts once more.
            if port.done && port.queue.is_empty() {
                self.progress_floor = self.progress_floor.min(port.last_progress);
            }
            port.queue.push_back(OutSlot {
                seq: seq - port.seq_base,
                payload,
                last,
                attempts: 0,
                next_retx: 0,
            });
            self.outstanding += 1;
        }
        if last {
            self.inner_done = true;
        }
    }

    /// Processes one received frame on `port`, reporting any peer
    /// down/up transition it reveals.
    fn receive(
        &mut self,
        now: usize,
        port: Port,
        frame: &Frame<P::Msg>,
        ctx: &mut Context<'_, Frame<P::Msg>>,
    ) -> Rx {
        // Integrity validation comes before everything else: a frame
        // that fails its checksum is tampered wire noise and must not
        // count as peer progress, advance acks, or touch the session.
        // Consecutive failures quarantine the link — a channel that
        // only ever delivers garbage is indistinguishable from a
        // Byzantine sender, and waiting it out would stall everyone
        // behind the suspicion timer instead.
        if !frame.valid() {
            ctx.note_rejected();
            self.epoch_obs.rejected += 1;
            let ps = &mut self.ports[port];
            if !ps.dead {
                ps.strikes += 1;
                if ps.strikes >= self.cfg.max_strikes {
                    ps.dead = true;
                    ctx.note_quarantined();
                    return Rx::Down;
                }
            }
            return Rx::Ok;
        }
        self.ports[port].strikes = 0;
        // Frames addressed to a previous incarnation of *us* are relics
        // of a session that died with that incarnation: drop them before
        // they can pollute the fresh session's sequence space (the
        // half-open-connection hazard).
        if let Some(dst) = frame.dst {
            if dst != self.boot {
                ctx.note_rejected();
                self.epoch_obs.rejected += 1;
                return Rx::Ok;
            }
        }
        let window = self.cfg.window as u32;
        let seq_base = self.slots_out;
        let inner_done = self.inner_done;
        let ps = &mut self.ports[port];
        // Only a brand-new session opens with slot 0 / ack 0 — the
        // unambiguous signature of a fresh incarnation (a live mid-run
        // peer is always past it).
        let fresh_session = frame.ack == 0 && matches!(frame.kind, FrameKind::Data { seq: 0, .. });
        let mut event = Rx::Ok;
        if ps.dead {
            // Within one incarnation, suspicion is permanent: only a new
            // incarnation opening a fresh session revives the port — and
            // only while our own inner protocol is still running. A
            // finished node has nothing to say and nothing to learn, so
            // it quarantines fresh incarnations; starved of acks, they
            // suspect us and stop waiting, which is what guarantees
            // termination. (A 1-in-2^16 nonce collision would keep the
            // port dead — accepted.)
            let new_nonce = ps.peer_boot != Some(frame.boot) && ps.prev_boot != Some(frame.boot);
            if !(new_nonce && fresh_session && !inner_done) {
                return Rx::Ok;
            }
            ps.reset_session(now, frame.boot, seq_base);
            self.progress_floor = self.progress_floor.min(now);
            event = Rx::Up;
        } else {
            match ps.peer_boot {
                None => {
                    // Only sequence-carrying frames may *bind* the
                    // session nonce. A control frame still services the
                    // link (liveness, acks) but cannot open a session:
                    // a forged control frame arriving first would
                    // otherwise lock the port onto a bogus nonce and
                    // wedge it against the genuine peer forever.
                    if matches!(frame.kind, FrameKind::Data { .. }) {
                        ps.peer_boot = Some(frame.boot);
                    }
                }
                Some(b) if b != frame.boot => {
                    if ps.prev_boot == Some(frame.boot) {
                        // A reordered leftover of the previous
                        // incarnation: ignore.
                        return Rx::Ok;
                    }
                    if fresh_session && !inner_done {
                        // The peer rebooted: its old transport state and
                        // registers are gone. Restart the session for
                        // the new incarnation.
                        ps.reset_session(now, frame.boot, seq_base);
                        self.progress_floor = self.progress_floor.min(now);
                        event = Rx::DownUp;
                    } else {
                        // An unknown nonce without a fresh session
                        // opener. It may be reboot evidence reordered
                        // past its opener — but it is equally the shape
                        // of a forged frame, and acting on a bare nonce
                        // would let one forgery assassinate a live
                        // link. Reject it instead: a genuine new
                        // incarnation retransmits its opener (slot 0,
                        // ack 0) until it lands and revives the session
                        // above, while a node that has already finished
                        // starves the newcomer of acks until its own
                        // suspicion timer fires — which is what
                        // guarantees termination.
                        ctx.note_rejected();
                        self.epoch_obs.rejected += 1;
                        return Rx::Ok;
                    }
                }
                Some(_) => {}
            }
        }
        // Any authentic frame is a liveness signal. (Reboots are caught
        // above by the nonce, so liveness suffices: an alive-but-stalled
        // peer must be *waited for*, not suspected — its own suspicion
        // timers guarantee it eventually unblocks or halts, and a halted
        // peer goes silent.)
        ps.last_progress = now;
        // A legitimate ack never exceeds what we actually sent this
        // session; anything larger is stale pre-reset traffic.
        let ack_bound = ps.queue.back().map_or(ps.acked_out, |s| s.seq + 1);
        if frame.ack > ps.acked_out && frame.ack <= ack_bound {
            ps.acked_out = frame.ack;
            while ps.queue.front().is_some_and(|s| s.seq < ps.acked_out) {
                ps.queue.pop_front();
            }
        }
        if let FrameKind::Data { seq, payload, last, .. } = &frame.kind {
            ps.buffer(*seq, payload, *last, window);
        }
        event
    }

    /// Whether the inner protocol can execute its next round now: every
    /// live, unfinished port has its next slot buffered, and no port's
    /// send window is exhausted.
    fn can_advance(&self) -> bool {
        if self.inner_done {
            return false;
        }
        self.ports.iter().all(|ps| {
            if ps.dead {
                return true;
            }
            if ps.queue.len() >= self.cfg.window {
                return false;
            }
            ps.done || ps.has(ps.consume_next)
        })
    }

    /// Consumes one slot per live port into the inner inbox.
    fn consume_inbox(&mut self) {
        for (p, ps) in self.ports.iter_mut().enumerate() {
            if ps.dead || ps.done {
                continue;
            }
            if let Some((payload, last)) = ps.take_next() {
                if let Some(m) = payload {
                    self.inner_inbox.push((p, m));
                }
                if last {
                    ps.done = true;
                }
            }
        }
    }

    /// After the inner protocol has finished, keep draining incoming
    /// slots (discarding payloads, as the engine does for halted nodes)
    /// so a peer that halts *later* than us still gets its final slot
    /// consumed and acknowledged — otherwise two nodes halting at
    /// different inner rounds would deadlock waiting on each other.
    fn drain_after_done(&mut self) {
        for ps in &mut self.ports {
            // A done port has consumed its peer's final slot, and no
            // slot of the session lies beyond that one.
            if ps.dead || ps.done {
                continue;
            }
            while let Some((_, last)) = ps.take_next() {
                if last {
                    ps.done = true;
                    break;
                }
            }
        }
    }

    /// Whether every port is settled enough to stop running.
    fn finished(&self) -> bool {
        self.inner_done && self.ports.iter().all(|ps| ps.dead || (ps.done && ps.queue.is_empty()))
    }

    /// Emits at most one frame per port for this engine round: a
    /// never-sent slot if one exists, else the oldest unacked slot when
    /// its retransmit timer fires, else a control frame when an ack is
    /// owed or a heartbeat is due.
    fn transmit(&mut self, now: usize, ctx: &mut Context<'_, Frame<P::Msg>>) {
        let cfg = self.cfg;
        let boot = self.boot;
        let inner_done = self.inner_done;
        let mut retx_sent: u64 = 0;
        for (p, ps) in self.ports.iter_mut().enumerate() {
            if ps.dead {
                continue;
            }
            let due =
                ps.queue.front().is_some_and(|head| head.attempts > 0 && now >= head.next_retx);
            let slot = match ps.queue.iter_mut().find(|s| s.attempts == 0) {
                Some(fresh) => Some(fresh),
                None if due => ps.queue.front_mut(),
                None => None,
            };
            if let Some(slot) = slot {
                let retx = slot.attempts > 0;
                retx_sent += u64::from(retx);
                let frame = Frame::sealed(
                    boot,
                    ps.peer_boot,
                    ps.recv_ack,
                    FrameKind::Data {
                        seq: slot.seq,
                        payload: slot.payload.clone(),
                        last: slot.last,
                        retx,
                    },
                );
                let backoff = (cfg.backoff_base << slot.attempts.min(16)).min(cfg.backoff_max);
                slot.attempts += 1;
                slot.next_retx = now + backoff.max(cfg.backoff_base);
                ps.ack_sent = ps.recv_ack;
                ps.last_sent = Some(now);
                ctx.send(p, frame);
                continue;
            }
            let owe_ack = ps.recv_ack > ps.ack_sent;
            let active = !(inner_done && ps.done);
            let hb_due =
                active && ps.last_sent.is_none_or(|ls| now.saturating_sub(ls) >= cfg.hb_interval);
            if owe_ack || hb_due {
                ps.ack_sent = ps.recv_ack;
                ps.last_sent = Some(now);
                ctx.send(p, Frame::sealed(boot, ps.peer_boot, ps.recv_ack, FrameKind::Control));
            }
        }
        self.epoch_obs.retransmissions += retx_sent;
    }

    /// Reports the outstanding-slot gauge (queued, unacked slots across
    /// live ports) to the telemetry stream. Observation only: the value
    /// feeds [`Context::note_outstanding`], which never alters
    /// [`crate::RunStats`] or any protocol decision.
    fn report_outstanding(&self, ctx: &mut Context<'_, Frame<P::Msg>>) {
        debug_assert_eq!(
            self.outstanding,
            self.ports.iter().map(PortState::live_slots).sum::<u64>(),
            "running outstanding count drifted from the ports' queues"
        );
        ctx.note_outstanding(self.outstanding);
    }

    /// Declares dead every port whose peer owes progress and has been
    /// silent for more than [`TransportCfg::suspicion`] rounds, in port
    /// order, and re-derives the progress floor from the ports still
    /// expecting progress.
    fn suspect_silent_peers(&mut self, now: usize, ctx: &mut Context<'_, Frame<P::Msg>>) {
        let mut floor = usize::MAX;
        for (p, ps) in self.ports.iter_mut().enumerate() {
            let expecting = !ps.dead && (!ps.done || !ps.queue.is_empty());
            if !expecting {
                continue;
            }
            if now.saturating_sub(ps.last_progress) > self.cfg.suspicion {
                self.outstanding -= ps.queue.len() as u64;
                ps.dead = true;
                ctx.note_suspected();
                self.epoch_obs.suspected += 1;
                self.peer_events.push((p, false));
            } else {
                floor = floor.min(ps.last_progress);
            }
        }
        self.progress_floor = floor;
    }

    /// Runs one inner callback with a context that borrows this node's
    /// engine-level identity but transport-level round/outbox state;
    /// what the callback sends lands in `inner_outbox`.
    fn with_inner_ctx(
        &mut self,
        ctx: &mut Context<'_, Frame<P::Msg>>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        let mut ictx = Context {
            node: ctx.node,
            round: self.slots_out as usize,
            graph: ctx.graph,
            rng: &mut *ctx.rng,
            outbox: &mut self.inner_outbox,
            sent: &mut self.inner_sent,
            halted: &mut self.inner_halted,
            fault: &mut *ctx.fault,
            integrity: &mut *ctx.integrity,
            wake: 0,
        };
        f(&mut self.inner, &mut ictx);
    }
}

impl<P: Protocol> Protocol for Resilient<P> {
    type Msg = Frame<P::Msg>;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        use rand::RngExt;
        // `round` is 0 on a normal boot but the recovery round when the
        // engine reboots a crashed node.
        let now = ctx.round;
        let degree = ctx.degree();
        self.boot = ctx.rng().random();
        self.inner_sent = vec![false; degree];
        self.ports = (0..degree).map(|_| PortState::new(now)).collect();
        self.payloads = (0..degree).map(|_| None).collect();
        self.outstanding = 0;
        self.progress_floor = now;

        self.with_inner_ctx(ctx, |inner, ictx| inner.on_start(ictx));
        self.produce_slot(self.inner_halted);
        self.transmit(now, ctx);
        self.report_outstanding(ctx);
        if self.finished() {
            ctx.halt();
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>, inbox: &[(Port, Self::Msg)]) {
        let now = ctx.round;

        // 0. Epoch boundary (adaptive transports only): re-derive the
        //    configuration from last epoch's observations *before* any
        //    receive/suspect/transmit decision this round, so the same
        //    deterministic inputs always see the same timers.
        if let Some(policy) = self.policy {
            if now > 0 && (now as u64).is_multiple_of(policy.epoch) {
                let obs = std::mem::take(&mut self.epoch_obs);
                self.level = policy.next_level(self.level, &obs);
                let strikes = policy.next_max_strikes(self.cfg.max_strikes, &obs);
                self.cfg = policy.cfg_at(self.level, strikes);
            }
        }

        // 1. Receive: acks, slots, incarnation changes and revivals,
        //    recorded as `(port, came_up)` transitions in observation
        //    order. A frame may pop acked slots, kill or revive its
        //    port; the gauge follows the port's live queue.
        for (p, frame) in inbox {
            let before = self.ports[*p].live_slots();
            let event = self.receive(now, *p, frame, ctx);
            self.outstanding = self.outstanding + self.ports[*p].live_slots() - before;
            match event {
                Rx::Ok => {}
                Rx::Down => self.peer_events.push((*p, false)),
                Rx::Up => self.peer_events.push((*p, true)),
                Rx::DownUp => {
                    self.peer_events.push((*p, false));
                    self.peer_events.push((*p, true));
                }
            }
        }

        // 2. Failure detection: no progress while expecting some. No
        //    port can be due before the progress floor's deadline.
        if now.saturating_sub(self.progress_floor) > self.cfg.suspicion {
            self.suspect_silent_peers(now, ctx);
        }

        // 3. Tell the inner protocol about peer transitions, in order
        //    (it may send or halt in response; sends fold into the next
        //    slot).
        let mut events = std::mem::take(&mut self.peer_events);
        if !self.inner_done && !events.is_empty() {
            for &(p, up) in &events {
                self.with_inner_ctx(ctx, |inner, ictx| {
                    if up {
                        inner.on_peer_up(ictx, p);
                    } else {
                        inner.on_peer_down(ictx, p);
                    }
                });
                self.extra_out.append(&mut self.inner_outbox);
            }
            if self.inner_halted {
                // Halted outside a round: flush the extras as the final
                // slot immediately.
                self.produce_slot(true);
            }
        }
        events.clear();
        self.peer_events = events;

        // 4. Advance the inner protocol if every port's next slot is in;
        //    once it has finished, keep draining (and acking) peers that
        //    finish later.
        if self.inner_done {
            self.drain_after_done();
        } else if self.can_advance() {
            self.consume_inbox();
            let inner_inbox = std::mem::take(&mut self.inner_inbox);
            self.with_inner_ctx(ctx, |inner, ictx| inner.on_round(ictx, &inner_inbox));
            let quiet =
                inner_inbox.is_empty() && self.inner_outbox.is_empty() && self.extra_out.is_empty();
            self.inner_inbox = inner_inbox;
            self.inner_inbox.clear();
            let mut last = self.inner_halted;
            if let Some(k) = self.cfg.idle_after {
                self.idle_rounds = if quiet { self.idle_rounds + 1 } else { 0 };
                if self.idle_rounds >= k {
                    last = true; // idled out: declare this slot final
                }
            }
            self.produce_slot(last);
        }

        // 5. Finished? Linger a little so trailing acks still flow.
        if self.finished() {
            let left = self.linger_left.get_or_insert(self.cfg.linger);
            if *left == 0 {
                ctx.halt();
            } else {
                *left -= 1;
            }
        } else {
            self.linger_left = None;
        }

        // 6. Transmit at most one frame per port.
        if !*ctx.halted {
            self.transmit(now, ctx);
        }
        self.report_outstanding(ctx);
    }

    fn into_output(self) -> P::Output {
        self.inner.into_output()
    }

    fn session(&self) -> Option<SessionState> {
        Some(SessionState {
            boot: self.boot,
            level: self.level,
            ports: self
                .ports
                .iter()
                .map(|p| PortSession {
                    peer_boot: p.peer_boot,
                    outstanding: p.queue.len() as u32,
                    acked_out: p.acked_out,
                    recv_ack: p.recv_ack,
                    done: p.done,
                    dead: p.dead,
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{FaultPlan, Network, RunSpec};
    use crate::model::SimConfig;
    use dam_graph::{generators, Graph, NodeId, Topology};

    #[test]
    fn delay_bound_derivation_scales_every_silence_timer() {
        // bound = 1 is the lockstep regime: exactly the defaults.
        assert_eq!(TransportCfg::for_delay_bound(1), TransportCfg::default());
        assert_eq!(TransportCfg::for_delay_bound(0), TransportCfg::default());
        let d = TransportCfg::default();
        for bound in [2u64, 5, 13] {
            let c = TransportCfg::for_delay_bound(bound);
            let b = bound as usize;
            assert_eq!(c.backoff_base, 2 * b + 1, "retry only after a worst-case RTT");
            assert_eq!(c.backoff_max, 2 * c.backoff_base);
            assert!(c.backoff_max < c.suspicion / 2, "retries must precede suspicion");
            assert_eq!(
                c.suspicion * d.hb_interval,
                d.suspicion * c.hb_interval,
                "missed-heartbeat margin is invariant in the bound"
            );
            assert_eq!(c.linger, d.linger * b);
            assert_eq!(c.max_strikes, d.max_strikes, "integrity thresholds are not timers");
        }
    }

    fn reason_of(err: SimError) -> String {
        match err {
            SimError::InvalidTransportCfg { reason } => reason,
            other => panic!("expected InvalidTransportCfg, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_defaults_and_every_delay_bound_derivation() {
        TransportCfg::default().validate().unwrap();
        for bound in [0u64, 1, 2, 5, 13, 64] {
            TransportCfg::for_delay_bound(bound).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_zero_window() {
        let cfg = TransportCfg { window: 0, ..TransportCfg::default() };
        let reason = reason_of(cfg.validate().unwrap_err());
        assert!(reason.contains("window"), "reason names the field: {reason}");
    }

    #[test]
    fn validate_rejects_zero_backoff_base() {
        let cfg = TransportCfg { backoff_base: 0, ..TransportCfg::default() };
        let reason = reason_of(cfg.validate().unwrap_err());
        assert!(reason.contains("backoff_base"), "reason names the field: {reason}");
    }

    #[test]
    fn validate_rejects_backoff_cap_below_base() {
        let cfg = TransportCfg { backoff_base: 5, backoff_max: 4, ..TransportCfg::default() };
        let reason = reason_of(cfg.validate().unwrap_err());
        assert!(reason.contains("backoff_max"), "reason names the cap: {reason}");
        // Equality is fine: a constant retransmission interval.
        TransportCfg { backoff_base: 5, backoff_max: 5, ..TransportCfg::default() }
            .validate()
            .unwrap();
    }

    #[test]
    fn validate_rejects_suspicion_inside_heartbeat_margin() {
        let d = TransportCfg::default();
        let cfg = TransportCfg { suspicion: 2 * d.hb_interval, ..d };
        let reason = reason_of(cfg.validate().unwrap_err());
        assert!(reason.contains("suspicion"), "reason names the timer: {reason}");
        // One round past the margin is the minimum legal window.
        TransportCfg { suspicion: 2 * d.hb_interval + 1, ..d }.validate().unwrap();
    }

    #[test]
    fn validation_error_display_names_the_violation() {
        let cfg = TransportCfg { window: 0, ..TransportCfg::default() };
        let msg = cfg.validate().unwrap_err().to_string();
        assert!(msg.starts_with("invalid transport config:"), "{msg}");
    }

    /// Fixed-schedule protocol: broadcast a value for `rounds` rounds,
    /// accumulate everything heard (order-sensitively, per port).
    struct Gossip {
        rounds: usize,
        acc: u64,
    }

    impl Protocol for Gossip {
        type Msg = u64;
        type Output = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(ctx.id() as u64 + 1);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
            for &(p, m) in inbox {
                self.acc = self.acc.wrapping_mul(31).wrapping_add(p as u64 ^ m);
            }
            if ctx.round() >= self.rounds {
                ctx.halt();
            } else {
                ctx.broadcast(ctx.id() as u64 + self.acc % 97);
            }
        }

        fn into_output(self) -> u64 {
            self.acc
        }
    }

    fn gossip_make(_: NodeId, _: &dyn Topology) -> Resilient<Gossip> {
        Resilient::new(Gossip { rounds: 6, acc: 0 }, TransportCfg::default())
    }

    fn gossip_baseline(g: &Graph, seed: u64) -> Vec<u64> {
        let mut net = Network::new(g, SimConfig::local().seed(seed));
        net.run(|_, _| Gossip { rounds: 6, acc: 0 }).unwrap().outputs
    }

    #[test]
    fn fault_free_transport_preserves_outputs() {
        let g = generators::cycle(6);
        let base = gossip_baseline(&g, 3);
        let mut wrapped = Network::new(&g, SimConfig::local().seed(3));
        let out = wrapped.run(gossip_make).unwrap();
        assert_eq!(out.outputs, base);
        // No faults: nothing to retransmit; the final empty slot and the
        // trailing acks are bookkeeping frames.
        assert_eq!(out.stats.retransmissions, 0);
        assert!(out.stats.heartbeats > 0);
    }

    #[test]
    fn reliable_under_heavy_loss() {
        let g = generators::cycle(6);
        let base = gossip_baseline(&g, 3);
        let mut net = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
        let out = net
            .execute(gossip_make, &RunSpec { faults: &FaultPlan::lossy(0.3), ..RunSpec::default() })
            .unwrap();
        // Reliable delivery: byte-for-byte the fault-free outputs.
        assert_eq!(out.outputs, base);
        assert!(out.stats.retransmissions > 0, "loss must force retransmissions");
    }

    #[test]
    fn survives_duplication_and_reordering() {
        let g = generators::cycle(6);
        let base = gossip_baseline(&g, 4);
        let plan = FaultPlan::lossy(0.1).with_dup(0.2).with_reorder(0.2);
        let mut net = Network::new(&g, SimConfig::local().seed(4).max_rounds(5_000));
        let out =
            net.execute(gossip_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        assert_eq!(out.outputs, base);
    }

    #[test]
    fn adaptive_transport_fault_free_is_bit_identical_to_its_floor() {
        // Quiet epochs never leave level 1, and level 1 *is* the floor
        // configuration — so without faults the controller is
        // observationally absent: same outputs, same stats, frame for
        // frame.
        let g = generators::cycle(6);
        let mut fixed = Network::new(&g, SimConfig::local().seed(3));
        let static_out = fixed.run(gossip_make).unwrap();
        let mut net = Network::new(&g, SimConfig::local().seed(3));
        let adaptive_out = net
            .run(|_, _| {
                Resilient::with_policy(Gossip { rounds: 6, acc: 0 }, AdaptivePolicy::default())
            })
            .unwrap();
        assert_eq!(adaptive_out.outputs, static_out.outputs);
        assert_eq!(adaptive_out.stats, static_out.stats);
    }

    #[test]
    fn adaptive_transport_is_reliable_and_deterministic_under_loss() {
        let g = generators::cycle(6);
        let base = gossip_baseline(&g, 3);
        let run = || {
            let mut net = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
            net.execute(
                |_, _| {
                    Resilient::with_policy(Gossip { rounds: 6, acc: 0 }, AdaptivePolicy::default())
                },
                &RunSpec { faults: &FaultPlan::lossy(0.3), ..RunSpec::default() },
            )
            .unwrap()
        };
        let first = run();
        let second = run();
        // Reliable delivery survives the moving timer configuration…
        assert_eq!(first.outputs, base);
        // …and the closed loop is a pure function of (seed, plan,
        // policy): replaying the run reproduces it bit for bit.
        assert_eq!(first.outputs, second.outputs);
        assert_eq!(first.stats, second.stats);
    }

    /// Counts inner rounds survived and records which peers died.
    struct DeathWatch {
        downs: Vec<Port>,
        rounds: usize,
    }

    impl Protocol for DeathWatch {
        type Msg = u8;
        type Output = Vec<Port>;

        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.broadcast(0);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
            self.rounds += 1;
            if self.rounds >= 40 {
                ctx.halt();
            } else {
                ctx.broadcast(0);
            }
        }

        fn on_peer_down(&mut self, _: &mut Context<'_, u8>, port: Port) {
            self.downs.push(port);
        }

        fn into_output(self) -> Vec<Port> {
            self.downs
        }
    }

    fn watch_make(_: NodeId, _: &dyn Topology) -> Resilient<DeathWatch> {
        Resilient::new(DeathWatch { downs: Vec::new(), rounds: 0 }, TransportCfg::default())
    }

    #[test]
    fn crashes_are_detected_and_reported() {
        // Star centred at node 0: the centre crashes early; every leaf
        // must eventually learn that its only peer is gone (and still
        // terminate rather than wait forever).
        let g = generators::star(5);
        let plan = FaultPlan::crashes(vec![(0, 4)]);
        let mut net = Network::new(&g, SimConfig::local().seed(7).max_rounds(10_000));
        let out =
            net.execute(watch_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        for v in 1..5 {
            assert_eq!(out.outputs[v], vec![0], "leaf {v} did not detect the crash");
        }
    }

    #[test]
    fn rebooted_peer_is_a_new_incarnation() {
        let g = generators::cycle(4);
        let plan = FaultPlan::crashes(vec![(1, 3)]).with_recoveries(vec![(1, 10)]);
        let mut net = Network::new(&g, SimConfig::local().seed(5).max_rounds(10_000));
        let out =
            net.execute(watch_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        // Node 1's neighbours (0 and 2) each see exactly one peer die —
        // by its reboot nonce or, failing that, by suspicion.
        assert_eq!(out.outputs[0].len(), 1, "node 0 missed the crash/reboot");
        assert_eq!(out.outputs[2].len(), 1, "node 2 missed the crash/reboot");
        // Node 3 is not adjacent to node 1: it must see no deaths.
        assert!(out.outputs[3].is_empty());
    }

    /// Records the full `(port, came_up)` transition history.
    struct UpDownWatch {
        events: Vec<(Port, bool)>,
        rounds: usize,
    }

    impl Protocol for UpDownWatch {
        type Msg = u8;
        type Output = Vec<(Port, bool)>;

        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            ctx.broadcast(0);
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
            self.rounds += 1;
            if self.rounds >= 60 {
                ctx.halt();
            } else {
                ctx.broadcast(0);
            }
        }

        fn on_peer_down(&mut self, _: &mut Context<'_, u8>, port: Port) {
            self.events.push((port, false));
        }

        fn on_peer_up(&mut self, _: &mut Context<'_, u8>, port: Port) {
            self.events.push((port, true));
        }

        fn into_output(self) -> Vec<(Port, bool)> {
            self.events
        }
    }

    fn updown_make(_: NodeId, _: &dyn Topology) -> Resilient<UpDownWatch> {
        Resilient::new(UpDownWatch { events: Vec::new(), rounds: 0 }, TransportCfg::default())
    }

    #[test]
    fn recovered_peer_is_unsuspected_before_suspicion_fires() {
        // Node 1 crashes and reboots while its neighbours are still
        // within the suspicion window: the new boot nonce is detected as
        // a fresh incarnation and the port comes straight back up
        // (down immediately followed by up), without ever being written
        // off for the rest of the run.
        let g = generators::cycle(4);
        let plan = FaultPlan::crashes(vec![(1, 3)]).with_recoveries(vec![(1, 6)]);
        let mut net = Network::new(&g, SimConfig::local().seed(11).max_rounds(10_000));
        let out =
            net.execute(updown_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        for v in [0usize, 2] {
            let port = (0..g.degree(v)).find(|&p| g.port(v, p).0 == 1).unwrap();
            assert_eq!(
                out.outputs[v],
                vec![(port, false), (port, true)],
                "node {v} kept stale suspicion of the rebooted peer"
            );
        }
        assert!(out.outputs[3].is_empty(), "node 3 is not adjacent to the churned node");
    }

    #[test]
    fn recovered_peer_is_unsuspected_after_suspicion_fires() {
        // Here the reboot happens long after the neighbours' failure
        // detectors declared node 1 dead: the fresh incarnation's
        // session opener must revive the suspected port (down by
        // timeout, later up by new nonce).
        let g = generators::cycle(4);
        let plan = FaultPlan::crashes(vec![(1, 3)]).with_recoveries(vec![(1, 30)]);
        let mut net = Network::new(&g, SimConfig::local().seed(11).max_rounds(10_000));
        let out =
            net.execute(updown_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        for v in [0usize, 2] {
            let port = (0..g.degree(v)).find(|&p| g.port(v, p).0 == 1).unwrap();
            assert_eq!(
                out.outputs[v],
                vec![(port, false), (port, true)],
                "node {v} did not un-suspect the recovered peer"
            );
        }
        assert!(out.outputs[3].is_empty());
    }

    /// Message-driven flooder that never halts: relies on quiescence.
    struct Flood {
        seen: bool,
    }

    impl Protocol for Flood {
        type Msg = u8;
        type Output = bool;

        fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
            if ctx.id() == 0 {
                self.seen = true;
                ctx.broadcast(1);
            }
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u8>, inbox: &[(Port, u8)]) {
            if !inbox.is_empty() && !self.seen {
                self.seen = true;
                ctx.broadcast(1);
            }
        }

        fn into_output(self) -> bool {
            self.seen
        }
    }

    #[test]
    fn quiescent_protocols_terminate_via_idle_detection() {
        let g = generators::path(5);
        let cfg = TransportCfg::default().idle_after(8);
        let mut net = Network::new(&g, SimConfig::local().seed(2).max_rounds(5_000));
        let out = net
            .execute(
                |_, _| Resilient::new(Flood { seen: false }, cfg),
                &RunSpec { faults: &FaultPlan::lossy(0.2), ..RunSpec::default() },
            )
            .unwrap();
        assert!(out.outputs.iter().all(|&s| s), "flood did not reach everyone");
    }

    #[test]
    fn stats_classes_are_separated() {
        let g = generators::cycle(6);
        let mut net = Network::new(&g, SimConfig::local().seed(3).max_rounds(5_000));
        let out = net
            .execute(
                gossip_make,
                &RunSpec { faults: &FaultPlan::lossy(0.25), ..RunSpec::default() },
            )
            .unwrap();
        // First transmissions of real payloads, retransmissions forced
        // by loss, and bookkeeping frames are all tallied separately.
        assert!(out.stats.messages > 0);
        assert!(out.stats.retransmissions > 0);
        assert!(out.stats.heartbeats > 0);
        assert_eq!(
            out.stats.frames(),
            out.stats.messages + out.stats.retransmissions + out.stats.heartbeats
        );
    }

    #[test]
    fn transport_runs_are_deterministic() {
        let g = generators::cycle(6);
        let plan = FaultPlan::lossy(0.2).with_dup(0.1).with_reorder(0.1);
        let run = |seed: u64| {
            let mut net = Network::new(&g, SimConfig::local().seed(seed).max_rounds(5_000));
            net.execute(gossip_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap()
        };
        let (a, b) = (run(11), run(11));
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn checksums_expose_header_and_payload_damage() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);

        let data = Frame::sealed(
            9,
            Some(4),
            17,
            FrameKind::Data { seq: 3, payload: Some(0xABCDu64), last: false, retx: false },
        );
        let control = Frame::<u64>::sealed(9, Some(4), 17, FrameKind::Control);
        assert!(data.valid() && control.valid(), "sealed frames carry a matching checksum");

        // Header damage: a flipped bit in boot/ack/sum never validates.
        for _ in 0..64 {
            let flipped = data.corrupted(CorruptKind::BitFlip, &mut rng).unwrap();
            assert!(!flipped.valid(), "a single flipped header bit must fail the checksum");
        }
        // Payload damage: truncation leaves the original checksum stale.
        let truncated = data.corrupted(CorruptKind::Truncate, &mut rng).unwrap();
        assert!(
            matches!(truncated.kind, FrameKind::Data { payload: None, .. }) && !truncated.valid(),
            "a truncated payload must fail the original checksum"
        );
        // A truncated bare control frame is destroyed outright.
        assert!(control.corrupted(CorruptKind::Truncate, &mut rng).is_none());

        // Replays and forgeries are *resealed* adversarially: they pass
        // the checksum by design, so the sequence/incarnation layer —
        // not the checksum — must shut them out.
        let replayed = data.corrupted(CorruptKind::Replay, &mut rng).unwrap();
        assert!(replayed.valid());
        assert!(matches!(replayed.kind, FrameKind::Data { retx: true, .. }));
        let forged = data.corrupted(CorruptKind::Forge, &mut rng).unwrap();
        assert!(forged.valid());
        assert!(matches!(forged.kind, FrameKind::Control));
    }

    #[test]
    fn transport_survives_channel_corruption() {
        // End-to-end: with per-message corruption active the transport
        // must still deliver byte-for-byte the fault-free outputs —
        // damaged frames fail validation, are counted as rejected, and
        // retransmission recovers the payloads.
        let g = generators::cycle(6);
        let base = gossip_baseline(&g, 3);
        let plan = FaultPlan::lossy(0.1).with_corrupt(0.15);
        let mut net = Network::new(&g, SimConfig::local().seed(3).max_rounds(10_000));
        let out =
            net.execute(gossip_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        assert_eq!(out.outputs, base, "corruption must not change delivered payloads");
        assert!(out.stats.corruptions > 0, "the plan must actually corrupt frames");
        assert!(out.stats.rejected > 0, "damaged frames must be rejected by validation");
        // Integrity counters annotate frames already billed in their
        // class; quiescence accounting is untouched.
        assert_eq!(
            out.stats.frames(),
            out.stats.messages + out.stats.retransmissions + out.stats.heartbeats
        );
    }

    #[test]
    fn random_corruption_never_quarantines_honest_links() {
        // Strikes reset on every valid frame, so independent channel
        // noise (even heavy) must not amputate a live link — quarantine
        // is reserved for persistently damaged traffic.
        let g = generators::cycle(6);
        let plan = FaultPlan::default().with_corrupt(0.25);
        let mut net = Network::new(&g, SimConfig::local().seed(9).max_rounds(10_000));
        let out =
            net.execute(gossip_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        assert_eq!(out.outputs, gossip_baseline(&g, 9));
        assert_eq!(out.stats.quarantined, 0, "honest links must survive random noise");
    }

    #[test]
    fn equivocator_traffic_is_rejected_and_the_run_terminates() {
        // A Byzantine equivocator tampers every outgoing frame. Its
        // neighbours must reject the damage (or shrug off resealed
        // replays) and the network must still terminate.
        let g = generators::cycle(6);
        let plan = FaultPlan::default().with_equivocators(vec![2]);
        let mut net = Network::new(&g, SimConfig::local().seed(5).max_rounds(20_000));
        let out =
            net.execute(gossip_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        assert!(out.stats.equivocations > 0, "the equivocator must actually tamper");
        assert!(out.stats.rejected > 0, "tampered frames must be rejected");
        // Honest nodes not adjacent to the equivocator interact only
        // with honest peers; their transport sessions stay clean.
        assert_eq!(out.outputs.len(), 6);
    }

    #[test]
    fn forged_session_claims_do_not_assassinate_live_links() {
        // Forged control frames carry a *valid* checksum but a random
        // boot nonce. A single such frame must be rejected without
        // killing the session (the old behaviour declared the port dead
        // on any conflicting non-fresh nonce, handing an attacker a
        // one-frame link-assassination primitive).
        let g = generators::cycle(6);
        let base = gossip_baseline(&g, 13);
        let plan = FaultPlan::default().with_corrupt(0.2);
        let mut net = Network::new(&g, SimConfig::local().seed(13).max_rounds(10_000));
        let out =
            net.execute(gossip_make, &RunSpec { faults: &plan, ..RunSpec::default() }).unwrap();
        // Forgeries were injected (corrupt draws cover all kinds) yet
        // every payload still arrives and no honest link goes down.
        assert_eq!(out.outputs, base);
        assert_eq!(out.stats.quarantined, 0);
    }

    #[test]
    fn telemetry_gauge_series_is_pinned() {
        // The per-round `outstanding`, `rejected` and `suspected` series
        // a sink sees on a lossy, corrupting run with a crash, reduced to
        // an FNV-1a digest. The gauge is observation only, so no other
        // test notices if its value drifts; this one does.
        use crate::telemetry::{RecordingSink, SinkHandle};
        use std::sync::Arc;
        let g = generators::grid(4, 5);
        let plan =
            FaultPlan { loss: 0.2, corrupt: 0.05, crashes: vec![(7, 6)], ..FaultPlan::default() };
        let sink = Arc::new(RecordingSink::new());
        let mut net = Network::new(&g, SimConfig::local().seed(17).max_rounds(5_000));
        net.set_stats_sink(Some(SinkHandle::from(Arc::clone(&sink))));
        net.execute(
            |_, _| Resilient::new(Gossip { rounds: 12, acc: 0 }, TransportCfg::default()),
            &RunSpec { faults: &plan, ..RunSpec::default() },
        )
        .unwrap();
        let deltas = sink.deltas();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for d in &deltas {
            for x in [d.round, d.outstanding, d.rejected, d.suspected] {
                for b in x.to_le_bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        let total =
            |f: fn(&crate::telemetry::RoundSample) -> u64| deltas.iter().map(f).sum::<u64>();
        assert!(total(|d| d.outstanding) > 0 && total(|d| d.rejected) > 0);
        assert!(total(|d| d.suspected) > 0, "the crash must be suspected");
        assert_eq!((deltas.len(), digest), (125, 0xc393_bd7d_12b7_6b4e), "gauge series changed");
    }
}
