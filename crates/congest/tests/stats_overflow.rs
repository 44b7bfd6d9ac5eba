//! Regression for the counter-overflow audit: the hot [`RunStats`]
//! counters are 64-bit and saturating, so marathon runs (chaos
//! campaigns, churn soaks) accumulate correctly instead of wrapping.
//! Exercises a real 10⁵-round engine run plus fold-in of near-`u64::MAX`
//! partials, on both engines.

use dam_congest::{
    Backend, BitSize, Context, Network, Port, Protocol, RunSpec, RunStats, SimConfig, TotalStats,
};
use dam_graph::generators;

/// Broadcasts a 32-bit beacon every round until a fixed horizon.
struct Beacon {
    horizon: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Tick(u32);

impl BitSize for Tick {
    fn bit_size(&self) -> usize {
        32
    }
}

impl Protocol for Beacon {
    type Msg = Tick;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
        ctx.broadcast(Tick(0));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Tick>, _inbox: &[(Port, Tick)]) {
        if ctx.round() >= self.horizon {
            ctx.halt();
        } else {
            ctx.broadcast(Tick(ctx.round() as u32));
        }
    }

    fn into_output(self) -> u64 {
        0
    }
}

/// Broadcasts on even rounds only; every odd round is silent, so on
/// the asynchronous backend the α-synchronizer must cover each
/// (node, port) of those rounds with an empty marker.
struct HalfBeacon {
    horizon: usize,
}

impl Protocol for HalfBeacon {
    type Msg = Tick;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
        ctx.broadcast(Tick(0));
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Tick>, _inbox: &[(Port, Tick)]) {
        if ctx.round() >= self.horizon {
            ctx.halt();
        } else if ctx.round() % 2 == 0 {
            ctx.broadcast(Tick(ctx.round() as u32));
        }
    }

    fn into_output(self) -> u64 {
        0
    }
}

const HORIZON: usize = 100_000;

fn expected(rounds: u64) -> (u64, u64) {
    // path(2): each node has 1 port; both broadcast every non-final
    // round (round 0 through HORIZON-1), so 2 messages and 64 bits per
    // sending round.
    let sending_rounds = rounds - 1;
    (2 * sending_rounds, 64 * sending_rounds)
}

#[test]
fn hundred_thousand_round_run_accumulates_exactly() {
    let g = generators::path(2);
    let mut net = Network::new(&g, SimConfig::local().max_rounds(200_000));
    let out = net.run(|_, _| Beacon { horizon: HORIZON }).unwrap();
    let s = out.stats;
    assert_eq!(s.rounds, HORIZON as u64 + 1, "round 0 through the halt round");
    let (messages, bits) = expected(s.rounds);
    assert_eq!(s.messages, messages);
    assert_eq!(s.total_bits, bits);
    assert_eq!(s.charged_rounds, s.rounds);
    assert_eq!(s.max_message_bits, 32);
    assert_eq!(s.violations, 0);
}

#[test]
fn parallel_engine_accumulates_identically() {
    let g = generators::path(2);
    let seq = {
        let mut net = Network::new(&g, SimConfig::local().max_rounds(200_000));
        net.run(|_, _| Beacon { horizon: HORIZON }).unwrap()
    };
    let mut net = Network::new(&g, SimConfig::local().max_rounds(200_000).threads(2));
    let par = net.execute(|_, _| Beacon { horizon: HORIZON }, &RunSpec::default()).unwrap();
    assert_eq!(seq.stats, par.stats);
    assert_eq!(seq.outputs, par.outputs);
}

/// A 10⁵-round marathon on the asynchronous backend accumulates the
/// synchronizer's marker counter exactly: one marker per (node, port)
/// of every silent round, while the payload counters match the
/// synchronous run bit for bit.
#[test]
fn async_marathon_counts_markers_exactly() {
    let g = generators::path(2);
    let seq = {
        let mut net = Network::new(&g, SimConfig::local().max_rounds(200_000));
        net.run(|_, _| HalfBeacon { horizon: HORIZON }).unwrap()
    };
    let mut net = Network::new(&g, SimConfig::local().max_rounds(200_000).backend(Backend::Async));
    let asy = net.execute(|_, _| HalfBeacon { horizon: HORIZON }, &RunSpec::default()).unwrap();
    assert_eq!(asy.outputs, seq.outputs);
    // Odd rounds 1, 3, …, HORIZON−1 are silent, and so is the final
    // halt round: HORIZON/2 + 1 rounds, two nodes, one port each.
    assert_eq!(asy.stats.markers, 2 * (HORIZON as u64 / 2 + 1));
    let info = net.async_info().expect("async run records its timing");
    assert_eq!(info.markers, asy.stats.markers);
    // Markers are control plane: zeroing them recovers the synchronous
    // ledger exactly (frames, bits, rounds — everything).
    let mut scrubbed = asy.stats;
    scrubbed.markers = 0;
    assert_eq!(scrubbed, seq.stats);
}

/// The control-plane counters (`markers`, `suspected`) saturate like
/// the hot ones and never leak into `frames()`.
#[test]
fn control_plane_counters_saturate_and_stay_out_of_frames() {
    let mut totals = TotalStats::default();
    totals.record(&RunStats {
        markers: u64::MAX - 10,
        suspected: u64::MAX - 10,
        ..RunStats::default()
    });
    totals.record(&RunStats { markers: 1_000, suspected: 1_000, ..RunStats::default() });
    assert_eq!(totals.stats.markers, u64::MAX);
    assert_eq!(totals.stats.suspected, u64::MAX);
    assert_eq!(totals.stats.frames(), 0);
}

/// Folding a marathon run's stats into near-saturated totals must pin
/// at `u64::MAX`, not wrap — a wrapped `total_bits` silently corrupts
/// every downstream ratio in the experiment tables.
#[test]
fn totals_saturate_when_folding_marathon_partials() {
    let g = generators::path(2);
    let mut net = Network::new(&g, SimConfig::local().max_rounds(200_000));
    let out = net.run(|_, _| Beacon { horizon: HORIZON }).unwrap();

    let mut totals = TotalStats::default();
    totals.record(&RunStats {
        rounds: u64::MAX - 10,
        messages: u64::MAX - 10,
        total_bits: u64::MAX - 10,
        ..RunStats::default()
    });
    totals.record(&out.stats);
    assert_eq!(totals.runs, 2);
    assert_eq!(totals.stats.rounds, u64::MAX);
    assert_eq!(totals.stats.messages, u64::MAX);
    assert_eq!(totals.stats.total_bits, u64::MAX);
    // frames() over pinned counters stays pinned.
    assert_eq!(totals.stats.frames(), u64::MAX);
}
