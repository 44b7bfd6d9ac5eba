//! Committed performance baselines for the engine workloads.
//!
//! `results/BENCH_e12.json` records a timed run of the fixed E12 gossip
//! workload (4-regular graph, `n = 4096`, 20 rounds) on the sequential
//! and the sharded parallel engine, together with the **host
//! parallelism** it was measured on. `results/BENCH_e18.json` records
//! the same workload on the **asynchronous backend** ([`AsyncBaseline`])
//! — its wall clock pays for virtual-time tracking and synchronizer
//! markers, and the committed marker count pins the control-plane
//! overhead bit-exactly. `results/BENCH_e19.json` records it behind the
//! resilient transport, static floor against the adaptive controller
//! ([`AdaptiveBaseline`]). The smoke test
//! (`crates/bench/tests/bench_smoke.rs`, gated on `CI_SMOKE=1`)
//! re-measures all three and fails if throughput fell below half of the
//! committed figure (for E19: if the controller's overhead ratio more
//! than doubled). `cargo run --release -p dam-bench --bin bench -- e12
//! e18 e19` rewrites the files.
//!
//! Honesty note: on a single-hardware-thread host the parallel engine
//! cannot beat the sequential one — the `host_threads` field exists so
//! a baseline measured on such a machine is never misread as a speedup
//! claim. Regression checks therefore compare parallel throughput
//! against the *committed parallel* throughput, never against serial.
//!
//! The JSON text is written and read by [`crate::json`].

use std::time::Instant;

use dam_congest::{
    AdaptivePolicy, Backend, Context, Network, Port, Protocol, Resilient, RunSpec, RunStats,
    SimConfig, TransportCfg,
};
use dam_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json::artifact;

/// Gossip rounds per run — matches E12's table workload.
pub const ROUNDS: usize = 20;
/// Node count of the baseline graph.
pub const N: usize = 4096;
/// Degree of the baseline graph.
pub const DEGREE: usize = 4;
/// Seed of the baseline graph generator.
pub const GRAPH_SEED: u64 = 7;
/// Simulator seed of every timed run.
pub const SIM_SEED: u64 = 1;
/// Timed repeats of every baseline measurement (wall clocks are
/// best-of-`REPEATS`).
pub const REPEATS: usize = 3;
/// Worker threads of the E12 parallel measurement.
pub const PARALLEL_THREADS: usize = 4;
/// Identifies the workload so a stale file is never compared against a
/// different experiment.
pub const WORKLOAD: &str = "e12-gossip-4regular";
/// Workload id of the committed async-overhead baseline.
pub const ASYNC_WORKLOAD: &str = "e18-gossip-4regular-async";
/// Workload id of the committed adaptive-controller-overhead baseline.
pub const ADAPTIVE_WORKLOAD: &str = "e19-gossip-4regular-adaptive";

/// The fixed-round gossip protocol of every engine-throughput workload:
/// the committed baselines, E12's table and the Criterion engine
/// benchmarks. Each node broadcasts a running sum for [`ROUNDS`] rounds.
pub struct Gossip {
    rounds: usize,
    acc: u64,
}

impl Gossip {
    /// A fresh gossip node running for the baseline round count.
    #[must_use]
    pub fn new() -> Gossip {
        Gossip { rounds: ROUNDS, acc: 0 }
    }
}

impl Default for Gossip {
    fn default() -> Gossip {
        Gossip::new()
    }
}

impl Protocol for Gossip {
    type Msg = u64;
    type Output = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(ctx.id() as u64);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, inbox: &[(Port, u64)]) {
        for &(_, x) in inbox {
            self.acc = self.acc.wrapping_add(x);
        }
        if ctx.round() >= self.rounds {
            ctx.halt();
        } else {
            ctx.broadcast(self.acc);
        }
    }

    fn into_output(self) -> u64 {
        self.acc
    }
}

/// Builds the canonical baseline graph.
#[must_use]
pub fn workload_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
    generators::random_regular(N, DEGREE, &mut rng)
}

/// `std::thread::available_parallelism()` of this host (1 if unknown).
#[must_use]
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The one best-of-N timing loop: `repeats` times (at least once), runs
/// `setup` untimed and then `run` on its result under the clock. The
/// state is dropped after the clock stops. Returns the fastest `run` in
/// seconds and the last run's output.
pub fn best_of<S, T>(
    repeats: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> T,
) -> (f64, T) {
    let mut timed = || {
        let mut state = setup();
        let t0 = Instant::now();
        let out = run(&mut state);
        (t0.elapsed().as_secs_f64(), out)
    };
    let (mut best, mut out) = timed();
    for _ in 1..repeats {
        let (secs, next) = timed();
        best = best.min(secs);
        out = next;
    }
    (best, out)
}

/// Best-of-`repeats` wall clock of one fault-free run of `make`'s
/// protocol on a fresh `Network` under `cfg` (built untimed), with the
/// last run's statistics.
fn time_run<P: Protocol + Send>(
    g: &Graph,
    cfg: SimConfig,
    repeats: usize,
    make: impl Fn() -> P + Sync,
) -> (f64, RunStats) {
    let (secs, out) = best_of(
        repeats,
        || Network::new(g, cfg),
        |net| {
            net.execute(|_, _| make(), &RunSpec::default()).expect("fault-free gossip cannot fail")
        },
    );
    (secs, out.stats)
}

/// Times the workload at the given thread count (1 = sequential engine)
/// and returns the best-of-`repeats` wall-clock seconds plus the exact
/// message count (which is deterministic and identical on both engines).
///
/// # Panics
/// Panics if the simulation itself fails — the workload is fault-free,
/// so that is a bug.
#[must_use]
pub fn measure(g: &Graph, threads: usize, repeats: usize) -> (f64, u64) {
    let cfg = SimConfig::local().seed(SIM_SEED).threads(threads);
    let (secs, stats) = time_run(g, cfg, repeats, Gossip::new);
    (secs, stats.messages)
}

/// Times the workload on the asynchronous backend (lockstep delays, no
/// patience budget — the bit-identical regime) and returns the
/// best-of-`repeats` wall-clock seconds plus the exact message and
/// synchronizer-marker counts, both deterministic.
///
/// # Panics
/// Panics if the simulation itself fails — the workload is fault-free,
/// so that is a bug.
#[must_use]
pub fn measure_async(g: &Graph, repeats: usize) -> (f64, u64, u64) {
    let cfg = SimConfig::local().seed(SIM_SEED).backend(Backend::Async);
    let (secs, stats) = time_run(g, cfg, repeats, Gossip::new);
    (secs, stats.messages, stats.markers)
}

/// Times the gossip workload behind the resilient transport, once with
/// the static floor configuration and once with the closed-loop
/// controller over the same floor. The run is fault-free, so the
/// controller never leaves level 1 and both runs are message-for-message
/// identical — the wall-clock gap is pure controller overhead (epoch
/// bookkeeping plus the boundary re-derivations). Returns
/// `(static_s, adaptive_s, messages)` with each wall clock
/// best-of-`repeats`.
///
/// # Panics
/// Panics if the simulation itself fails — the workload is fault-free,
/// so that is a bug.
#[must_use]
pub fn measure_adaptive(g: &Graph, repeats: usize) -> (f64, f64, u64) {
    let floor = TransportCfg::default();
    let policy = AdaptivePolicy::for_floor(floor);
    let cfg = SimConfig::local().seed(SIM_SEED);
    let (static_s, fixed) = time_run(g, cfg, repeats, || Resilient::new(Gossip::new(), floor));
    let (adaptive_s, adaptive) =
        time_run(g, cfg, repeats, || Resilient::with_policy(Gossip::new(), policy));
    assert_eq!(
        fixed.messages, adaptive.messages,
        "a fault-free controller must stay at its floor (identical traffic)"
    );
    (static_s, adaptive_s, fixed.messages)
}

artifact! {
    /// One committed measurement of the E12 workload.
    pub struct Baseline {
        /// Workload identifier — must equal [`WORKLOAD`].
        pub workload: String,
        /// Node count.
        pub n: usize,
        /// Gossip rounds.
        pub rounds: usize,
        /// Total messages of one run (engine-independent, deterministic).
        pub messages: u64,
        /// Best-of-N sequential wall clock, milliseconds.
        pub serial_ms: f64,
        /// Best-of-N parallel wall clock, milliseconds.
        pub parallel_ms: f64,
        /// Worker threads of the parallel measurement.
        pub parallel_threads: usize,
        /// `std::thread::available_parallelism()` of the measuring host.
        /// A baseline with `host_threads == 1` carries no speedup claim.
        pub host_threads: usize,
    }
}

impl Baseline {
    /// Parallel throughput in million messages per second.
    #[must_use]
    pub fn parallel_mmsg_per_s(&self) -> f64 {
        self.messages as f64 / (self.parallel_ms / 1e3) / 1e6
    }

    /// Wall-clock speedup of the parallel engine over the sequential
    /// one. Only meaningful when `host_threads > 1`.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms
    }

    /// Measures a fresh baseline on this host, the parallel engine at
    /// [`PARALLEL_THREADS`] workers.
    #[must_use]
    pub fn collect() -> Baseline {
        let g = workload_graph();
        let (serial_s, messages) = measure(&g, 1, REPEATS);
        let (parallel_s, par_messages) = measure(&g, PARALLEL_THREADS, REPEATS);
        assert_eq!(messages, par_messages, "engines must agree on the message count");
        Baseline {
            workload: WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages,
            serial_ms: serial_s * 1e3,
            parallel_ms: parallel_s * 1e3,
            parallel_threads: PARALLEL_THREADS,
            host_threads: host_threads(),
        }
    }
}

artifact! {
    /// One committed measurement of the E18 async-overhead workload: the
    /// E12 gossip run on the asynchronous backend, against the sequential
    /// engine on the same host.
    pub struct AsyncBaseline {
        /// Workload identifier — must equal [`ASYNC_WORKLOAD`].
        pub workload: String,
        /// Node count.
        pub n: usize,
        /// Gossip rounds.
        pub rounds: usize,
        /// Total payload messages of one run (backend-independent,
        /// deterministic).
        pub messages: u64,
        /// Synchronizer markers of one async run (deterministic — the
        /// committed figure pins the control-plane overhead bit-exactly).
        pub markers: u64,
        /// Best-of-N sequential wall clock, milliseconds.
        pub serial_ms: f64,
        /// Best-of-N asynchronous-backend wall clock, milliseconds.
        pub async_ms: f64,
        /// `std::thread::available_parallelism()` of the measuring host.
        pub host_threads: usize,
    }
}

impl AsyncBaseline {
    /// Wall-clock overhead of the asynchronous backend over the
    /// sequential engine (> 1 — virtual time and markers are not free).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.async_ms / self.serial_ms
    }

    /// Measures a fresh async baseline on this host.
    #[must_use]
    pub fn collect() -> AsyncBaseline {
        let g = workload_graph();
        let (serial_s, messages) = measure(&g, 1, REPEATS);
        let (async_s, async_messages, markers) = measure_async(&g, REPEATS);
        assert_eq!(messages, async_messages, "backends must agree on the payload count");
        AsyncBaseline {
            workload: ASYNC_WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages,
            markers,
            serial_ms: serial_s * 1e3,
            async_ms: async_s * 1e3,
            host_threads: host_threads(),
        }
    }
}

artifact! {
    /// One committed measurement of the E19 controller-overhead workload:
    /// the E12 gossip run behind the resilient transport, static floor vs
    /// the closed-loop controller over the same floor, on the same host.
    pub struct AdaptiveBaseline {
        /// Workload identifier — must equal [`ADAPTIVE_WORKLOAD`].
        pub workload: String,
        /// Node count.
        pub n: usize,
        /// Gossip rounds.
        pub rounds: usize,
        /// Total frames of one run (identical for both arms — the
        /// fault-free controller never leaves its floor, and the committed
        /// figure pins that bit-exactly).
        pub messages: u64,
        /// Best-of-N static-transport wall clock, milliseconds.
        pub static_ms: f64,
        /// Best-of-N adaptive-transport wall clock, milliseconds.
        pub adaptive_ms: f64,
        /// `std::thread::available_parallelism()` of the measuring host.
        pub host_threads: usize,
    }
}

impl AdaptiveBaseline {
    /// Wall-clock overhead of the controller over the static transport
    /// (≈ 1 — the control law runs once per epoch per node).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.adaptive_ms / self.static_ms
    }

    /// Measures a fresh adaptive baseline on this host.
    #[must_use]
    pub fn collect() -> AdaptiveBaseline {
        let g = workload_graph();
        let (static_s, adaptive_s, messages) = measure_adaptive(&g, REPEATS);
        AdaptiveBaseline {
            workload: ADAPTIVE_WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages,
            static_ms: static_s * 1e3,
            adaptive_ms: adaptive_s * 1e3,
            host_threads: host_threads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips() {
        let b = Baseline {
            workload: WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages: 327_680,
            serial_ms: 41.5,
            parallel_ms: 55.25,
            parallel_threads: 4,
            host_threads: 1,
        };
        let back = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Baseline::from_json("not json").is_err());
        assert!(Baseline::from_json("{\"workload\": \"x\"}").is_err());
        assert!(AsyncBaseline::from_json("not json").is_err());
        assert!(AsyncBaseline::from_json("{\"workload\": \"x\"}").is_err());
    }

    #[test]
    fn async_json_roundtrips() {
        let b = AsyncBaseline {
            workload: ASYNC_WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages: 327_680,
            markers: 12_345,
            serial_ms: 41.5,
            async_ms: 77.25,
            host_threads: 1,
        };
        let back = AsyncBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn adaptive_json_roundtrips() {
        let b = AdaptiveBaseline {
            workload: ADAPTIVE_WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages: 500_000,
            static_ms: 60.5,
            adaptive_ms: 61.75,
            host_threads: 1,
        };
        let back = AdaptiveBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, back);
        assert!(AdaptiveBaseline::from_json("not json").is_err());
        assert!(AdaptiveBaseline::from_json("{\"workload\": \"x\"}").is_err());
    }

    #[test]
    fn adaptive_measurement_matches_static_traffic() {
        // Scaled down like the other engine unit tests; the full
        // n = 4096 run is exercised by `bench e19` and the CI_SMOKE
        // regression test. The equality assert lives inside
        // `measure_adaptive`.
        let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
        let g = generators::random_regular(64, DEGREE, &mut rng);
        let (_, _, messages) = measure_adaptive(&g, 1);
        let (_, _, again) = measure_adaptive(&g, 1);
        assert!(messages > 0, "the resilient workload sends frames");
        assert_eq!(messages, again, "frame count must be deterministic");
    }

    #[test]
    fn async_measurement_matches_sequential_payload() {
        let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
        let g = generators::random_regular(64, DEGREE, &mut rng);
        let (_, seq) = measure(&g, 1, 1);
        let (_, asy, markers) = measure_async(&g, 1);
        assert_eq!(seq, asy, "payload counts must agree across backends");
        let (_, asy2, markers2) = measure_async(&g, 1);
        assert_eq!((asy, markers), (asy2, markers2), "marker count must be deterministic");
    }

    #[test]
    fn measurement_is_deterministic_across_engines() {
        // A scaled-down workload keeps the unit test fast; the full
        // n = 4096 run is exercised by `bench e12` and the
        // CI_SMOKE regression test.
        let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
        let g = generators::random_regular(64, DEGREE, &mut rng);
        let (_, seq) = measure(&g, 1, 1);
        let (_, par) = measure(&g, 4, 1);
        assert_eq!(seq, par);
    }
}
