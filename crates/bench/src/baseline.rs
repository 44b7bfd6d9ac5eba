//! Committed performance baselines for the engine workloads.
//!
//! `results/BENCH_e12.json` records a timed run of the fixed E12 gossip
//! workload (4-regular graph, `n = 4096`, 20 rounds) on the sequential
//! and the sharded parallel engine, together with the **host
//! parallelism** it was measured on. `results/BENCH_e18.json` records
//! the same workload on the **asynchronous backend** ([`AsyncBaseline`])
//! — its wall clock pays for virtual-time tracking and synchronizer
//! markers, and the committed marker count pins the control-plane
//! overhead bit-exactly. The smoke test
//! (`crates/bench/tests/bench_smoke.rs`, gated on `CI_SMOKE=1`)
//! re-measures both and fails if throughput fell below half of the
//! committed figure.
//!
//! Honesty note: on a single-hardware-thread host the parallel engine
//! cannot beat the sequential one — the `host_threads` field exists so
//! a baseline measured on such a machine is never misread as a speedup
//! claim. Regression checks therefore compare parallel throughput
//! against the *committed parallel* throughput, never against serial.
//!
//! The workspace is fully vendored and has no serde, so the JSON here
//! is emitted and parsed by hand: one flat object, string and numeric
//! values only.

use std::time::Instant;

use dam_congest::{
    AdaptivePolicy, Backend, Context, Network, Port, Protocol, Resilient, RunSpec, SimConfig,
    TransportCfg,
};
use dam_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
/// Identifies the workload so a stale file is never compared against a
/// different experiment.
pub const WORKLOAD: &str = "e12-gossip-4regular";
/// Workload id of the committed async-overhead baseline.
pub const ASYNC_WORKLOAD: &str = "e18-gossip-4regular-async";
/// Workload id of the committed adaptive-controller-overhead baseline.
pub const ADAPTIVE_WORKLOAD: &str = "e19-gossip-4regular-adaptive";

/// The fixed-round gossip protocol used by E12 and the Criterion
/// engine benchmarks: broadcast a running sum for [`ROUNDS`] rounds.
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

/// Times the workload at the given thread count (1 = sequential engine)
/// and returns the best-of-`repeats` wall-clock seconds plus the exact
/// message count (which is deterministic and identical on both engines).
///
/// # Panics
/// Panics if the simulation itself fails — the workload is fault-free,
/// so that is a bug.
#[must_use]
pub fn measure(g: &Graph, threads: usize, repeats: usize) -> (f64, u64) {
    assert!(repeats > 0, "need at least one timed repeat");
    let mut best = f64::INFINITY;
    let mut messages = 0u64;
    for _ in 0..repeats {
        let mut net = Network::new(g, SimConfig::local().seed(SIM_SEED).threads(threads));
        let t0 = Instant::now();
        let out = net
            .execute(|_, _| Gossip::new(), &RunSpec::default())
            .expect("fault-free gossip cannot fail");
        let dt = t0.elapsed().as_secs_f64();
        messages = out.stats.messages;
        if dt < best {
            best = dt;
        }
    }
    (best, messages)
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
    assert!(repeats > 0, "need at least one timed repeat");
    let mut best = f64::INFINITY;
    let mut messages = 0u64;
    let mut markers = 0u64;
    for _ in 0..repeats {
        let mut net = Network::new(g, SimConfig::local().seed(SIM_SEED).backend(Backend::Async));
        let t0 = Instant::now();
        let out = net
            .execute(|_, _| Gossip::new(), &RunSpec::default())
            .expect("fault-free gossip cannot fail");
        let dt = t0.elapsed().as_secs_f64();
        messages = out.stats.messages;
        markers = out.stats.markers;
        if dt < best {
            best = dt;
        }
    }
    (best, messages, markers)
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
    assert!(repeats > 0, "need at least one timed repeat");
    let floor = TransportCfg::default();
    let policy = AdaptivePolicy::for_floor(floor);
    let mut static_best = f64::INFINITY;
    let mut adaptive_best = f64::INFINITY;
    let mut static_messages = 0u64;
    let mut adaptive_messages = 0u64;
    for _ in 0..repeats {
        let mut net = Network::new(g, SimConfig::local().seed(SIM_SEED));
        let t0 = Instant::now();
        let out = net
            .execute(|_, _| Resilient::new(Gossip::new(), floor), &RunSpec::default())
            .expect("fault-free gossip cannot fail");
        let dt = t0.elapsed().as_secs_f64();
        static_messages = out.stats.messages;
        if dt < static_best {
            static_best = dt;
        }

        let mut net = Network::new(g, SimConfig::local().seed(SIM_SEED));
        let t0 = Instant::now();
        let out = net
            .execute(|_, _| Resilient::with_policy(Gossip::new(), policy), &RunSpec::default())
            .expect("fault-free gossip cannot fail");
        let dt = t0.elapsed().as_secs_f64();
        adaptive_messages = out.stats.messages;
        if dt < adaptive_best {
            adaptive_best = dt;
        }
    }
    assert_eq!(
        static_messages, adaptive_messages,
        "a fault-free controller must stay at its floor (identical traffic)"
    );
    (static_best, adaptive_best, static_messages)
}

/// One committed measurement of the E12 workload.
#[derive(Debug, Clone, PartialEq)]
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

impl Baseline {
    /// Sequential throughput in million messages per second.
    #[must_use]
    pub fn serial_mmsg_per_s(&self) -> f64 {
        self.messages as f64 / (self.serial_ms / 1e3) / 1e6
    }

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

    /// Measures a fresh baseline on this host.
    #[must_use]
    pub fn collect(parallel_threads: usize, repeats: usize) -> Baseline {
        let g = workload_graph();
        let (serial_s, messages) = measure(&g, 1, repeats);
        let (parallel_s, par_messages) = measure(&g, parallel_threads, repeats);
        assert_eq!(messages, par_messages, "engines must agree on the message count");
        Baseline {
            workload: WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages,
            serial_ms: serial_s * 1e3,
            parallel_ms: parallel_s * 1e3,
            parallel_threads,
            host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }

    /// Serializes to the committed JSON format (hand-rolled; the
    /// workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"n\": {},\n  \"rounds\": {},\n  \
             \"messages\": {},\n  \"serial_ms\": {:.3},\n  \"parallel_ms\": {:.3},\n  \
             \"parallel_threads\": {},\n  \"host_threads\": {}\n}}\n",
            self.workload,
            self.n,
            self.rounds,
            self.messages,
            self.serial_ms,
            self.parallel_ms,
            self.parallel_threads,
            self.host_threads,
        )
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("baseline JSON must be a single object")?;
        let mut workload = None;
        let mut fields: Vec<(String, String)> = Vec::new();
        for entry in body.split(',') {
            let (key, value) =
                entry.split_once(':').ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().to_string();
            if key == "workload" {
                workload = Some(value.trim_matches('"').to_string());
            } else {
                fields.push((key, value));
            }
        }
        let lookup = |name: &str| -> Result<f64, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .ok_or_else(|| format!("missing field {name:?}"))?
                .1
                .parse::<f64>()
                .map_err(|e| format!("field {name:?}: {e}"))
        };
        Ok(Baseline {
            workload: workload.ok_or("missing field \"workload\"")?,
            n: lookup("n")? as usize,
            rounds: lookup("rounds")? as usize,
            messages: lookup("messages")? as u64,
            serial_ms: lookup("serial_ms")?,
            parallel_ms: lookup("parallel_ms")?,
            parallel_threads: lookup("parallel_threads")? as usize,
            host_threads: lookup("host_threads")? as usize,
        })
    }
}

/// One committed measurement of the E18 async-overhead workload: the
/// E12 gossip run on the asynchronous backend, against the sequential
/// engine on the same host.
#[derive(Debug, Clone, PartialEq)]
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

impl AsyncBaseline {
    /// Asynchronous-backend throughput in million payload messages per
    /// second.
    #[must_use]
    pub fn async_mmsg_per_s(&self) -> f64 {
        self.messages as f64 / (self.async_ms / 1e3) / 1e6
    }

    /// Wall-clock overhead of the asynchronous backend over the
    /// sequential engine (> 1 — virtual time and markers are not free).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.async_ms / self.serial_ms
    }

    /// Measures a fresh async baseline on this host.
    #[must_use]
    pub fn collect(repeats: usize) -> AsyncBaseline {
        let g = workload_graph();
        let (serial_s, messages) = measure(&g, 1, repeats);
        let (async_s, async_messages, markers) = measure_async(&g, repeats);
        assert_eq!(messages, async_messages, "backends must agree on the payload count");
        AsyncBaseline {
            workload: ASYNC_WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages,
            markers,
            serial_ms: serial_s * 1e3,
            async_ms: async_s * 1e3,
            host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }

    /// Serializes to the committed JSON format (hand-rolled; the
    /// workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"n\": {},\n  \"rounds\": {},\n  \
             \"messages\": {},\n  \"markers\": {},\n  \"serial_ms\": {:.3},\n  \
             \"async_ms\": {:.3},\n  \"host_threads\": {}\n}}\n",
            self.workload,
            self.n,
            self.rounds,
            self.messages,
            self.markers,
            self.serial_ms,
            self.async_ms,
            self.host_threads,
        )
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<AsyncBaseline, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("baseline JSON must be a single object")?;
        let mut workload = None;
        let mut fields: Vec<(String, String)> = Vec::new();
        for entry in body.split(',') {
            let (key, value) =
                entry.split_once(':').ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().to_string();
            if key == "workload" {
                workload = Some(value.trim_matches('"').to_string());
            } else {
                fields.push((key, value));
            }
        }
        let lookup = |name: &str| -> Result<f64, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .ok_or_else(|| format!("missing field {name:?}"))?
                .1
                .parse::<f64>()
                .map_err(|e| format!("field {name:?}: {e}"))
        };
        Ok(AsyncBaseline {
            workload: workload.ok_or("missing field \"workload\"")?,
            n: lookup("n")? as usize,
            rounds: lookup("rounds")? as usize,
            messages: lookup("messages")? as u64,
            markers: lookup("markers")? as u64,
            serial_ms: lookup("serial_ms")?,
            async_ms: lookup("async_ms")?,
            host_threads: lookup("host_threads")? as usize,
        })
    }
}

/// One committed measurement of the E19 controller-overhead workload:
/// the E12 gossip run behind the resilient transport, static floor vs
/// the closed-loop controller over the same floor, on the same host.
#[derive(Debug, Clone, PartialEq)]
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

impl AdaptiveBaseline {
    /// Adaptive-transport throughput in million frames per second.
    #[must_use]
    pub fn adaptive_mmsg_per_s(&self) -> f64 {
        self.messages as f64 / (self.adaptive_ms / 1e3) / 1e6
    }

    /// Wall-clock overhead of the controller over the static transport
    /// (≈ 1 — the control law runs once per epoch per node).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.adaptive_ms / self.static_ms
    }

    /// Measures a fresh adaptive baseline on this host.
    #[must_use]
    pub fn collect(repeats: usize) -> AdaptiveBaseline {
        let g = workload_graph();
        let (static_s, adaptive_s, messages) = measure_adaptive(&g, repeats);
        AdaptiveBaseline {
            workload: ADAPTIVE_WORKLOAD.to_string(),
            n: N,
            rounds: ROUNDS,
            messages,
            static_ms: static_s * 1e3,
            adaptive_ms: adaptive_s * 1e3,
            host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }

    /// Serializes to the committed JSON format (hand-rolled; the
    /// workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"n\": {},\n  \"rounds\": {},\n  \
             \"messages\": {},\n  \"static_ms\": {:.3},\n  \"adaptive_ms\": {:.3},\n  \
             \"host_threads\": {}\n}}\n",
            self.workload,
            self.n,
            self.rounds,
            self.messages,
            self.static_ms,
            self.adaptive_ms,
            self.host_threads,
        )
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<AdaptiveBaseline, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("baseline JSON must be a single object")?;
        let mut workload = None;
        let mut fields: Vec<(String, String)> = Vec::new();
        for entry in body.split(',') {
            let (key, value) =
                entry.split_once(':').ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().to_string();
            if key == "workload" {
                workload = Some(value.trim_matches('"').to_string());
            } else {
                fields.push((key, value));
            }
        }
        let lookup = |name: &str| -> Result<f64, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .ok_or_else(|| format!("missing field {name:?}"))?
                .1
                .parse::<f64>()
                .map_err(|e| format!("field {name:?}: {e}"))
        };
        Ok(AdaptiveBaseline {
            workload: workload.ok_or("missing field \"workload\"")?,
            n: lookup("n")? as usize,
            rounds: lookup("rounds")? as usize,
            messages: lookup("messages")? as u64,
            static_ms: lookup("static_ms")?,
            adaptive_ms: lookup("adaptive_ms")?,
            host_threads: lookup("host_threads")? as usize,
        })
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
        // n = 4096 run is exercised by bench-e19 and the CI_SMOKE
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
        // n = 4096 run is exercised by the bench-e12 binary and the
        // CI_SMOKE regression test.
        let mut rng = StdRng::seed_from_u64(GRAPH_SEED);
        let g = generators::random_regular(64, DEGREE, &mut rng);
        let (_, seq) = measure(&g, 1, 1);
        let (_, par) = measure(&g, 4, 1);
        assert_eq!(seq, par);
    }
}
