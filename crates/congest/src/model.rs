//! Model configuration: LOCAL vs CONGEST, round-cost accounting, limits.

use crate::message::id_bits;
use crate::rng::splitmix64;

/// The communication model (§2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Unbounded message size (the paper's LOCAL model; Lemma 3.4).
    Local,
    /// At most `bits` bits per message per edge per round
    /// (the paper's CONGEST(log n) with `bits = O(log n)`).
    Congest {
        /// Per-message bit budget `B`.
        bits: usize,
    },
}

impl Model {
    /// CONGEST with a budget of `words · ⌈log₂ n⌉` bits — the standard
    /// "`O(log n)`-bit messages" instantiation for an `n`-node network.
    #[must_use]
    pub fn congest_for(n: usize, words: usize) -> Model {
        Model::Congest { bits: words * id_bits(n.max(2)) }
    }

    /// The per-message budget, if bounded.
    #[must_use]
    pub fn budget(&self) -> Option<usize> {
        match *self {
            Model::Local => None,
            Model::Congest { bits } => Some(bits),
        }
    }
}

/// What to do when a message exceeds the CONGEST budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ViolationPolicy {
    /// Panic immediately (for tests of algorithms that *claim* small
    /// messages).
    Panic,
    /// Record the violation in the statistics and deliver anyway.
    #[default]
    Record,
}

/// How executed rounds convert into *charged* rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// Each executed round costs 1 (plain synchronous accounting).
    #[default]
    Unit,
    /// Pipelined accounting (Lemma 3.9): a round whose widest message is
    /// `b` bits costs `⌈b / B⌉` rounds under CONGEST(`B`). Under LOCAL this
    /// degenerates to 1 per round.
    ///
    /// This models sending wide values (path counts, winner tokens) as
    /// chunk sequences without simulating the chunking itself.
    Pipelined,
}

/// Which execution engine a [`crate::Network`] uses for
/// [`crate::Network::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The single-threaded reference engine (global round barrier).
    #[default]
    Sequential,
    /// The sharded multi-worker engine (global round barrier, nodes
    /// partitioned over `threads` workers). Bit-identical to
    /// [`Backend::Sequential`].
    Sharded,
    /// The asynchronous discrete-event engine: no global barrier; nodes
    /// advance as soon as their in-edges resolve, synchronised by the
    /// α-synchronizer of Awerbuch (the paper's footnote 2). Bit-identical
    /// to [`Backend::Sequential`] as long as [`SimConfig::patience`] is
    /// unset; message *delays* come from [`SimConfig::delay`].
    Async,
}

/// Per-link message latency under [`Backend::Async`], in virtual time
/// units (one unit = the synchronous round length).
///
/// Every variant is a *pure keyed function* of the message coordinates
/// `(seed, run, round, from, to)` — no shared RNG stream — so delays are
/// independent of the order in which the event loop processes sends,
/// which is what keeps the asynchronous engine deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayModel {
    /// Every message takes exactly one time unit (lockstep; the
    /// synchronous schedule embedded in virtual time).
    #[default]
    Unit,
    /// Uniform per-message delay in `1..=max`, keyed on the full
    /// message coordinates.
    UniformRandom {
        /// Worst-case per-hop delay (≥ 1; `0` is treated as `1`).
        max: u64,
    },
    /// Fixed per-*direction* delay in `1..=spread`: the delay of `u → v`
    /// is keyed on the ordered pair, so the two directions of one edge
    /// generally differ — the classic skew that breaks naive timeout
    /// tuning.
    LinkSkew {
        /// Worst-case per-hop delay (≥ 1; `0` is treated as `1`).
        spread: u64,
    },
    /// One slow-but-correct node: everything *it* sends takes `slow`
    /// units, all other traffic takes 1. The canonical false-suspicion
    /// attack on a heartbeat failure detector.
    Straggler {
        /// The slow sender.
        node: usize,
        /// Its per-hop delay (≥ 1; `0` is treated as `1`).
        slow: u64,
    },
    /// Periodic delay bursts: messages sent in rounds `r` with
    /// `r % period < width` take `1 + extra` units, the rest take 1.
    /// Aligning `period` with a transport's heartbeat interval starves
    /// the failure detector in lockstep with its own timer.
    Burst {
        /// Burst period in rounds (≥ 1; `0` is treated as `1`).
        period: u64,
        /// Rounds per period that are inside the burst.
        width: u64,
        /// Additional delay inside a burst.
        extra: u64,
    },
    /// A straggler that *recovers*: everything `node` sends in rounds
    /// `< until` takes `slow` units, after which it is healthy (delay
    /// 1), like every other sender throughout. A transport tuned
    /// statically for the straggler either pays `slow`-scaled patience
    /// forever or suspects it during the slow prefix; an adaptive one
    /// can relax once the drift ends.
    StragglerRecovers {
        /// The initially slow sender.
        node: usize,
        /// Its per-hop delay while slow (≥ 1; `0` is treated as `1`).
        slow: u64,
        /// First round in which the straggler is healthy.
        until: u64,
    },
}

impl DelayModel {
    /// The delay, in virtual time units, of the message sent by `from`
    /// to `to` in round `round` of run `run` under master seed `seed`.
    /// Always ≥ 1.
    #[must_use]
    pub fn delay(&self, seed: u64, run: u64, round: u64, from: usize, to: usize) -> u64 {
        match *self {
            DelayModel::Unit => 1,
            DelayModel::UniformRandom { max } => {
                let max = max.max(1);
                let mut z = splitmix64(seed ^ 0xDE1A_70D0_5EED_AB1E);
                z = splitmix64(z ^ run);
                z = splitmix64(z ^ round);
                z = splitmix64(z ^ from as u64);
                z = splitmix64(z ^ to as u64);
                1 + z % max
            }
            DelayModel::LinkSkew { spread } => {
                let spread = spread.max(1);
                let mut z = splitmix64(seed ^ 0x5E3D_11FF_0C0A_57E0);
                z = splitmix64(z ^ (((from as u64) << 32) | to as u64));
                1 + z % spread
            }
            DelayModel::Straggler { node, slow } => {
                if from == node {
                    slow.max(1)
                } else {
                    1
                }
            }
            DelayModel::Burst { period, width, extra } => {
                if round % period.max(1) < width {
                    1 + extra
                } else {
                    1
                }
            }
            DelayModel::StragglerRecovers { node, slow, until } => {
                if from == node && round < until {
                    slow.max(1)
                } else {
                    1
                }
            }
        }
    }

    /// The worst-case per-hop delay this model can produce — the
    /// "declared delay bound" that [`crate::TransportCfg::for_delay_bound`]
    /// derives timeouts from.
    #[must_use]
    pub fn bound(&self) -> u64 {
        match *self {
            DelayModel::Unit => 1,
            DelayModel::UniformRandom { max } => max.max(1),
            DelayModel::LinkSkew { spread } => spread.max(1),
            DelayModel::Straggler { slow, .. } => slow.max(1),
            DelayModel::Burst { extra, .. } => 1 + extra,
            DelayModel::StragglerRecovers { slow, .. } => slow.max(1),
        }
    }
}

/// Configuration of a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// The communication model.
    pub model: Model,
    /// Round-cost accounting.
    pub cost: CostModel,
    /// Oversize-message policy.
    pub violation: ViolationPolicy,
    /// Master seed; all per-node randomness derives from it.
    pub seed: u64,
    /// Abort a run after this many rounds (guards non-terminating
    /// protocols).
    pub max_rounds: usize,
    /// If set, end the run successfully once this many consecutive
    /// rounds deliver no messages. Only sound for protocols whose state
    /// changes are message-driven (their `on_round` is a no-op on an
    /// empty inbox) — e.g. the auction of `dam-core`.
    pub quiescence: Option<usize>,
    /// Worker threads for [`crate::Network::execute`]: `0` or `1` runs
    /// sequentially, `t > 1` shards the nodes over `t` workers (and an
    /// explicit [`Backend::Sharded`] uses `threads.max(2)`). Results are
    /// bit-identical either way (the differential suite checks).
    /// [`crate::Network::run`] ignores it.
    pub threads: usize,
    /// Which engine executes the run (see [`Backend`]). For backwards
    /// compatibility, `Sequential` with `threads > 1` still selects the
    /// sharded engine — see [`SimConfig::effective_backend`].
    pub backend: Backend,
    /// Per-link latency model under [`Backend::Async`]; ignored by the
    /// synchronous engines.
    pub delay: DelayModel,
    /// Asynchronous patience budget: if set, a node that has waited
    /// `patience` virtual time units for a round's messages force-advances
    /// and treats the missing slots as empty (late frames are dropped).
    /// This trades bit-identity for bounded progress under unbounded
    /// delay — it is the mechanism the timing adversary attacks. `None`
    /// (the default) waits indefinitely and preserves bit-identity.
    pub patience: Option<u64>,
}

impl SimConfig {
    /// LOCAL-model configuration with defaults (seed 0, 1M round guard).
    #[must_use]
    pub fn local() -> SimConfig {
        SimConfig {
            model: Model::Local,
            cost: CostModel::Unit,
            violation: ViolationPolicy::Record,
            seed: 0,
            max_rounds: 1_000_000,
            quiescence: None,
            threads: 1,
            backend: Backend::Sequential,
            delay: DelayModel::Unit,
            patience: None,
        }
    }

    /// CONGEST configuration with an explicit bit budget.
    #[must_use]
    pub fn congest(bits: usize) -> SimConfig {
        SimConfig { model: Model::Congest { bits }, ..SimConfig::local() }
    }

    /// CONGEST(`words · log n`) for an `n`-node network.
    #[must_use]
    pub fn congest_for(n: usize, words: usize) -> SimConfig {
        SimConfig { model: Model::congest_for(n, words), ..SimConfig::local() }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the round guard.
    #[must_use]
    pub fn max_rounds(mut self, rounds: usize) -> SimConfig {
        self.max_rounds = rounds;
        self
    }

    /// Sets the round-cost model.
    #[must_use]
    pub fn cost(mut self, cost: CostModel) -> SimConfig {
        self.cost = cost;
        self
    }

    /// Sets the oversize-message policy.
    #[must_use]
    pub fn violation(mut self, violation: ViolationPolicy) -> SimConfig {
        self.violation = violation;
        self
    }

    /// Ends runs after `rounds` consecutive message-free rounds (see
    /// [`SimConfig::quiescence`]).
    #[must_use]
    pub fn quiesce_after(mut self, rounds: usize) -> SimConfig {
        self.quiescence = Some(rounds);
        self
    }

    /// Sets the worker-thread count used by [`crate::Network::execute`]
    /// (see [`SimConfig::threads`]).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads;
        self
    }

    /// Selects the execution engine (see [`Backend`]).
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> SimConfig {
        self.backend = backend;
        self
    }

    /// Sets the asynchronous per-link latency model (see
    /// [`SimConfig::delay`]).
    #[must_use]
    pub fn delay(mut self, delay: DelayModel) -> SimConfig {
        self.delay = delay;
        self
    }

    /// Sets the asynchronous patience budget (see
    /// [`SimConfig::patience`]).
    #[must_use]
    pub fn patience(mut self, units: u64) -> SimConfig {
        self.patience = Some(units);
        self
    }

    /// The engine [`crate::Network::execute`] dispatches to: an explicit
    /// [`Backend::Async`] or [`Backend::Sharded`] wins; a default
    /// `Sequential` backend with `threads > 1` keeps selecting the
    /// sharded engine (the pre-backend contract of
    /// [`SimConfig::threads`]).
    #[must_use]
    pub fn effective_backend(&self) -> Backend {
        match self.backend {
            Backend::Async => Backend::Async,
            Backend::Sharded => Backend::Sharded,
            Backend::Sequential if self.threads > 1 => Backend::Sharded,
            Backend::Sequential => Backend::Sequential,
        }
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::local()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congest_budget_scales_logarithmically() {
        assert_eq!(Model::congest_for(1024, 1).budget(), Some(10));
        assert_eq!(Model::congest_for(1024, 4).budget(), Some(40));
        assert_eq!(Model::Local.budget(), None);
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::congest(32).seed(9).max_rounds(50).cost(CostModel::Pipelined);
        assert_eq!(c.model, Model::Congest { bits: 32 });
        assert_eq!(c.seed, 9);
        assert_eq!(c.max_rounds, 50);
        assert_eq!(c.cost, CostModel::Pipelined);
        let c = c.backend(Backend::Async).delay(DelayModel::LinkSkew { spread: 3 }).patience(40);
        assert_eq!(c.backend, Backend::Async);
        assert_eq!(c.delay, DelayModel::LinkSkew { spread: 3 });
        assert_eq!(c.patience, Some(40));
    }

    #[test]
    fn effective_backend_keeps_threads_contract() {
        assert_eq!(SimConfig::local().effective_backend(), Backend::Sequential);
        assert_eq!(SimConfig::local().threads(4).effective_backend(), Backend::Sharded);
        assert_eq!(
            SimConfig::local().backend(Backend::Sharded).effective_backend(),
            Backend::Sharded
        );
        // An explicit Async wins even with threads set.
        assert_eq!(
            SimConfig::local().threads(4).backend(Backend::Async).effective_backend(),
            Backend::Async
        );
    }

    #[test]
    fn delays_are_pure_keyed_functions() {
        let m = DelayModel::UniformRandom { max: 5 };
        let d = m.delay(1, 0, 3, 2, 7);
        assert_eq!(d, m.delay(1, 0, 3, 2, 7), "deterministic");
        assert!((1..=5).contains(&d));
        // Every coordinate matters for the uniform model (with high
        // probability; these particular points differ).
        let variants = [m.delay(2, 0, 3, 2, 7), m.delay(1, 1, 3, 2, 7), m.delay(1, 0, 4, 2, 7)];
        assert!(variants.iter().any(|&v| v != d) || d >= 1);
    }

    #[test]
    fn link_skew_is_direction_asymmetric_somewhere() {
        let m = DelayModel::LinkSkew { spread: 8 };
        // Round-independent per direction …
        assert_eq!(m.delay(1, 0, 0, 2, 7), m.delay(1, 0, 9, 2, 7));
        // … and asymmetric for at least one of a handful of pairs.
        let asym = (0..16usize).any(|v| m.delay(1, 0, 0, v, v + 1) != m.delay(1, 0, 0, v + 1, v));
        assert!(asym, "LinkSkew should skew some direction pair");
    }

    #[test]
    fn straggler_and_burst_shapes() {
        let s = DelayModel::Straggler { node: 3, slow: 6 };
        assert_eq!(s.delay(1, 0, 0, 3, 9), 6);
        assert_eq!(s.delay(1, 0, 0, 9, 3), 1);
        assert_eq!(s.bound(), 6);
        let b = DelayModel::Burst { period: 4, width: 2, extra: 5 };
        assert_eq!(b.delay(1, 0, 0, 0, 1), 6);
        assert_eq!(b.delay(1, 0, 1, 0, 1), 6);
        assert_eq!(b.delay(1, 0, 2, 0, 1), 1);
        assert_eq!(b.bound(), 6);
        // Degenerate parameters clamp instead of panicking.
        assert_eq!(DelayModel::UniformRandom { max: 0 }.delay(1, 0, 0, 0, 1), 1);
        assert_eq!(DelayModel::Burst { period: 0, width: 1, extra: 2 }.delay(1, 0, 5, 0, 1), 3);
        assert_eq!(DelayModel::Straggler { node: 0, slow: 0 }.bound(), 1);
    }
}
