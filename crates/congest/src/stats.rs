//! Round, message and bit accounting.
//!
//! The paper's two complexity measures are **rounds** and **message
//! width**; these are what the statistics track. `charged_rounds`
//! additionally applies the configured [`crate::CostModel`] (Lemma 3.9's
//! pipelining) so wide-message protocols are billed honestly.

use std::fmt;

/// Statistics of a single protocol run.
///
/// All counters are 64-bit and accumulate with *saturating* arithmetic:
/// a chaos run that executes for days must degrade to a pinned counter,
/// never wrap around (a wrapped `total_bits` silently corrupts every
/// downstream ratio). Saturation is also what makes [`RunStats::absorb`]
/// safe to fold over unboundedly many phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Synchronous rounds executed (including round 0).
    pub rounds: u64,
    /// Rounds charged under the configured cost model.
    pub charged_rounds: u64,
    /// Protocol messages sent (excludes retransmissions and heartbeats,
    /// which fault-tolerant transports account separately below).
    pub messages: u64,
    /// Retransmitted frames sent by a resilient transport (see
    /// [`crate::MsgClass::Retransmission`]). Zero for plain protocols.
    pub retransmissions: u64,
    /// Failure-detector heartbeats sent by a resilient transport (see
    /// [`crate::MsgClass::Heartbeat`]). Zero for plain protocols.
    pub heartbeats: u64,
    /// Maintenance frames sent by matching-repair traffic after churn
    /// (see [`crate::MsgClass::Maintenance`]). Zero outside maintenance
    /// runs.
    pub maintenance: u64,
    /// Empty-round markers sent by the α-synchronizer of the
    /// asynchronous backend ([`crate::Backend::Async`]): one per
    /// (active node, port, round) with no payload. Zero under the
    /// synchronous engines. Markers are control plane, not protocol
    /// traffic — they are excluded from [`RunStats::frames`] so
    /// quiescence detection and differential suites see identical
    /// frame counts across backends.
    pub markers: u64,
    /// Topology events applied by a [`crate::ChurnPlan`] during the run.
    pub churn_events: u64,
    /// Messages dropped because their edge (or an endpoint) was absent
    /// when they were sent.
    pub churn_drops: u64,
    /// Total bits sent (all classes combined).
    pub total_bits: u64,
    /// Widest single message observed.
    pub max_message_bits: usize,
    /// Messages exceeding the CONGEST budget (0 under LOCAL).
    pub violations: u64,
    /// Messages corrupted in transit by the fault plan's `corrupt`
    /// channel (delivered damaged, or dropped when undecodable).
    pub corruptions: u64,
    /// Outgoing messages tampered with by Byzantine equivocators
    /// ([`crate::FaultPlan::equivocators`]).
    pub equivocations: u64,
    /// Frames rejected by receiver-side integrity validation (failed
    /// checksum, wrong incarnation nonce) — reported via
    /// [`crate::Context::note_rejected`].
    pub rejected: u64,
    /// Neighbour links quarantined after repeated integrity failures —
    /// reported via [`crate::Context::note_quarantined`].
    pub quarantined: u64,
    /// Live peers declared dead by a transport's *silence-based* failure
    /// detector (no progress for [`crate::TransportCfg::suspicion`]
    /// rounds) — reported via [`crate::Context::note_suspected`]. Under
    /// an adversarial timing model every suspicion of a slow-but-correct
    /// node is a *false* suspicion; experiment E18 drives this to zero
    /// by deriving the timers from the declared delay bound.
    pub suspected: u64,
    /// Process restarts this run resumed from a durable checkpoint
    /// (`dam_core::checkpoint`). Zero for a fresh run; set by the
    /// restore path, never by the engines. Like the integrity
    /// counters, restores annotate the run rather than its traffic, so
    /// they stay out of [`RunStats::frames`].
    pub restores: u64,
    /// Restores that could **not** use the newest snapshot verbatim:
    /// damage was detected (checksum, truncation, generation rollback)
    /// and the run degraded to a previous generation or to cold-start
    /// repair. Always `<= restores`.
    pub restores_degraded: u64,
}

impl RunStats {
    /// Merges `other` into `self` (used by the parallel engine's
    /// per-shard partials and by multi-phase drivers). Saturating, so
    /// folding arbitrarily many runs can pin counters but never wrap.
    pub fn absorb(&mut self, other: &RunStats) {
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.charged_rounds = self.charged_rounds.saturating_add(other.charged_rounds);
        self.messages = self.messages.saturating_add(other.messages);
        self.retransmissions = self.retransmissions.saturating_add(other.retransmissions);
        self.heartbeats = self.heartbeats.saturating_add(other.heartbeats);
        self.maintenance = self.maintenance.saturating_add(other.maintenance);
        self.markers = self.markers.saturating_add(other.markers);
        self.churn_events = self.churn_events.saturating_add(other.churn_events);
        self.churn_drops = self.churn_drops.saturating_add(other.churn_drops);
        self.total_bits = self.total_bits.saturating_add(other.total_bits);
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.violations = self.violations.saturating_add(other.violations);
        self.corruptions = self.corruptions.saturating_add(other.corruptions);
        self.equivocations = self.equivocations.saturating_add(other.equivocations);
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.quarantined = self.quarantined.saturating_add(other.quarantined);
        self.suspected = self.suspected.saturating_add(other.suspected);
        self.restores = self.restores.saturating_add(other.restores);
        self.restores_degraded = self.restores_degraded.saturating_add(other.restores_degraded);
    }

    /// Frames of every class: protocol + retransmitted + heartbeat +
    /// maintenance. Integrity counters (`corruptions`, `rejected`, …)
    /// are *not* frames: they annotate frames already counted in one of
    /// the four classes, and quiescence detection relies on `frames()`
    /// counting exactly the messages in flight.
    #[must_use]
    pub fn frames(&self) -> u64 {
        self.messages
            .saturating_add(self.retransmissions)
            .saturating_add(self.heartbeats)
            .saturating_add(self.maintenance)
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds = {} (charged {}), messages = {} (+{} retx, +{} hb, +{} maint, +{} markers), bits = {}, widest = {} bits, violations = {}, churn = {} events ({} drops), integrity = {} corrupt / {} equiv / {} rejected / {} quarantined / {} suspected, restores = {} ({} degraded)",
            self.rounds,
            self.charged_rounds,
            self.messages,
            self.retransmissions,
            self.heartbeats,
            self.maintenance,
            self.markers,
            self.total_bits,
            self.max_message_bits,
            self.violations,
            self.churn_events,
            self.churn_drops,
            self.corruptions,
            self.equivocations,
            self.rejected,
            self.quarantined,
            self.suspected,
            self.restores,
            self.restores_degraded
        )
    }
}

/// Receiver-side integrity accounting, filled in by protocols through
/// [`crate::Context::note_rejected`] / [`crate::Context::note_quarantined`]
/// and folded into [`RunStats`] by the engines. Plain sums, so the
/// sequential engine's single accumulator and the parallel engine's
/// per-worker partials merge to identical totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Integrity {
    /// Frames rejected by validation.
    pub rejected: u64,
    /// Neighbour links quarantined.
    pub quarantined: u64,
    /// Live peers declared dead by silence-based suspicion.
    pub suspected: u64,
    /// Occupied transport window slots, summed over nodes and rounds —
    /// reported via [`crate::Context::note_outstanding`]. A telemetry
    /// gauge for the per-round sample stream
    /// ([`crate::telemetry::RoundSample::outstanding`]); deliberately
    /// **not** folded into [`RunStats`], which counts events, not
    /// round-integrated occupancy.
    pub outstanding: u64,
}

impl Integrity {
    /// Adds another part of the network's reports (a sharded worker's).
    pub(crate) fn absorb(&mut self, other: &Integrity) {
        self.rejected = self.rejected.saturating_add(other.rejected);
        self.quarantined = self.quarantined.saturating_add(other.quarantined);
        self.suspected = self.suspected.saturating_add(other.suspected);
        self.outstanding = self.outstanding.saturating_add(other.outstanding);
    }

    /// Folds the accumulated counters into `stats` (the `outstanding`
    /// gauge stays telemetry-only).
    pub fn fold_into(self, stats: &mut RunStats) {
        stats.rejected = stats.rejected.saturating_add(self.rejected);
        stats.quarantined = stats.quarantined.saturating_add(self.quarantined);
        stats.suspected = stats.suspected.saturating_add(self.suspected);
    }
}

/// Cumulative statistics across every run executed by one
/// [`crate::Network`] — the cost of a complete multi-phase algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TotalStats {
    /// Number of protocol runs (phases) executed.
    pub runs: usize,
    /// Aggregated per-run statistics.
    pub stats: RunStats,
}

impl TotalStats {
    /// Records one finished run.
    pub fn record(&mut self, run: &RunStats) {
        self.runs += 1;
        self.stats.absorb(run);
    }
}

impl fmt::Display for TotalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} runs: {}", self.runs, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = RunStats {
            rounds: 3,
            charged_rounds: 5,
            messages: 10,
            retransmissions: 2,
            heartbeats: 7,
            maintenance: 5,
            markers: 8,
            churn_events: 2,
            churn_drops: 1,
            total_bits: 100,
            max_message_bits: 12,
            violations: 1,
            corruptions: 4,
            equivocations: 1,
            rejected: 3,
            quarantined: 1,
            suspected: 2,
            restores: 1,
            restores_degraded: 1,
        };
        let b = RunStats {
            rounds: 2,
            charged_rounds: 2,
            messages: 4,
            retransmissions: 1,
            heartbeats: 3,
            maintenance: 6,
            markers: 4,
            churn_events: 3,
            churn_drops: 2,
            total_bits: 40,
            max_message_bits: 30,
            violations: 0,
            corruptions: 2,
            equivocations: 2,
            rejected: 1,
            quarantined: 0,
            suspected: 3,
            restores: 1,
            restores_degraded: 0,
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.charged_rounds, 7);
        assert_eq!(a.messages, 14);
        assert_eq!(a.retransmissions, 3);
        assert_eq!(a.heartbeats, 10);
        assert_eq!(a.maintenance, 11);
        assert_eq!(a.markers, 12);
        assert_eq!(a.churn_events, 5);
        assert_eq!(a.churn_drops, 3);
        assert_eq!(a.frames(), 38);
        assert_eq!(a.total_bits, 140);
        assert_eq!(a.max_message_bits, 30);
        assert_eq!(a.violations, 1);
        assert_eq!(a.corruptions, 6);
        assert_eq!(a.equivocations, 3);
        assert_eq!(a.rejected, 4);
        assert_eq!(a.quarantined, 1);
        assert_eq!(a.suspected, 5);
        assert_eq!(a.restores, 2);
        assert_eq!(a.restores_degraded, 1);
    }

    #[test]
    fn restore_counters_are_not_frames() {
        // Restores annotate the run, not its traffic: a resumed run's
        // quiescence detection must see exactly the frames in flight.
        let s = RunStats { restores: 3, restores_degraded: 2, ..RunStats::default() };
        assert_eq!(s.frames(), 0);
    }

    #[test]
    fn integrity_counters_are_not_frames() {
        // Quiescence detection counts frames in flight; integrity
        // counters annotate frames already classed, so they must never
        // contribute to `frames()`.
        let s = RunStats {
            corruptions: 5,
            rejected: 7,
            quarantined: 2,
            suspected: 3,
            ..RunStats::default()
        };
        assert_eq!(s.frames(), 0);
    }

    #[test]
    fn markers_are_control_plane_not_frames() {
        // Synchronizer markers announce "no payload this round"; counting
        // them as frames would defeat quiescence detection and make the
        // async backend's frame totals diverge from sequential.
        let s = RunStats { markers: 1_000, ..RunStats::default() };
        assert_eq!(s.frames(), 0);
        let mut a = RunStats { markers: u64::MAX, ..RunStats::default() };
        a.absorb(&RunStats { markers: 10, ..RunStats::default() });
        assert_eq!(a.markers, u64::MAX, "markers saturate like every counter");
    }

    #[test]
    fn integrity_accumulator_folds() {
        let mut s = RunStats { rejected: 1, ..RunStats::default() };
        Integrity { rejected: 4, quarantined: 2, suspected: 1, outstanding: 99 }.fold_into(&mut s);
        assert_eq!(s.rejected, 5);
        assert_eq!(s.quarantined, 2);
        assert_eq!(s.suspected, 1);
    }

    #[test]
    fn absorb_saturates_instead_of_wrapping() {
        let mut a = RunStats {
            rounds: u64::MAX - 1,
            messages: u64::MAX,
            total_bits: u64::MAX - 5,
            ..RunStats::default()
        };
        let b = RunStats { rounds: 7, messages: 9, total_bits: 100, ..RunStats::default() };
        a.absorb(&b);
        assert_eq!(a.rounds, u64::MAX);
        assert_eq!(a.messages, u64::MAX);
        assert_eq!(a.total_bits, u64::MAX);
        // frames() over pinned counters must not wrap either.
        let pinned = RunStats { messages: u64::MAX, heartbeats: 3, ..RunStats::default() };
        assert_eq!(pinned.frames(), u64::MAX);
    }

    #[test]
    fn totals_count_runs() {
        let mut t = TotalStats::default();
        t.record(&RunStats { rounds: 1, ..RunStats::default() });
        t.record(&RunStats { rounds: 2, ..RunStats::default() });
        assert_eq!(t.runs, 2);
        assert_eq!(t.stats.rounds, 3);
        assert!(!format!("{t}").is_empty());
    }
}
