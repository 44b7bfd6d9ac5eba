#![warn(missing_docs)]

//! Synchronous message-passing network simulator for the LOCAL and
//! CONGEST models.
//!
//! This crate implements the computational model of §2 of *“Improved
//! Distributed Approximate Matching”*: a synchronous network whose
//! topology **is** the input graph. In each round every processor sends
//! (possibly different) messages to its neighbours, receives the messages
//! sent to it in the same round, and performs local computation.
//!
//! * A distributed algorithm is a [`Protocol`]: a per-node state machine
//!   driven by [`Protocol::on_round`].
//! * A [`Network`] executes protocols over a [`dam_graph::Graph`]
//!   topology through one entry point, [`Network::execute`], which takes
//!   the run's faults, churn and tracing as a [`RunSpec`] and runs on the
//!   engine [`SimConfig`] selects — sequential, sharded over threads, or
//!   asynchronous; all are deterministic given the configured seed and
//!   produce identical results. [`Network::run`] is the sequential
//!   shorthand for a run with nothing injected.
//! * Messages implement [`BitSize`]; the engine accounts **bits per
//!   message**, distinguishing the LOCAL model (unbounded messages,
//!   Lemma 3.4's `O((|V|+|E|) log n)` floods) from CONGEST(`B`)
//!   (`O(log n)`-bit messages, Theorem 3.10). Oversize messages under
//!   CONGEST are recorded as violations or cause a panic, per
//!   [`ViolationPolicy`].
//! * The [`CostModel`] charges rounds either 1:1 or with the paper's
//!   pipelining accounting (Lemma 3.9): a round in which some link carried
//!   a `b`-bit message costs `⌈b / B⌉` charged rounds.
//!
//! # Example: distributed flood-max
//!
//! ```
//! use dam_congest::{BitSize, Context, Network, Protocol, SimConfig};
//! use dam_graph::generators;
//!
//! /// Every node learns the maximum id in its connected component.
//! struct FloodMax { best: usize }
//!
//! impl Protocol for FloodMax {
//!     type Msg = usize;
//!     type Output = usize;
//!     fn on_start(&mut self, ctx: &mut Context<usize>) {
//!         self.best = ctx.id();
//!         ctx.broadcast(self.best);
//!     }
//!     fn on_round(&mut self, ctx: &mut Context<usize>, inbox: &[(usize, usize)]) {
//!         let incoming = inbox.iter().map(|&(_, v)| v).max();
//!         match incoming {
//!             Some(v) if v > self.best => {
//!                 self.best = v;
//!                 ctx.broadcast(self.best);
//!             }
//!             _ => ctx.halt(),
//!         }
//!     }
//!     fn into_output(self) -> usize { self.best }
//! }
//!
//! let g = generators::cycle(8);
//! let mut net = Network::new(&g, SimConfig::local().seed(1));
//! let out = net.run(|_, _| FloodMax { best: 0 }).unwrap();
//! assert!(out.outputs.iter().all(|&b| b == 7));
//! ```

pub mod adaptive;
pub mod asynchrony;
pub mod engine;
pub mod error;
pub mod maintenance;
pub mod message;
pub mod model;
pub mod node;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod transport;

pub use adaptive::{AdaptivePolicy, EpochObservation};
pub use asynchrony::AsyncInfo;
pub use engine::{
    ChurnEvent, ChurnPlan, FaultPlan, LinkFault, Network, Partition, RunOutcome, RunSpec, Squall,
};
pub use error::SimError;
pub use maintenance::{AsMaintenance, Maint};
pub use message::{BitSize, CorruptKind, MsgClass};
pub use model::{Backend, CostModel, DelayModel, Model, SimConfig, ViolationPolicy};
pub use node::{Context, Port, PortSession, Protocol, SessionState};
pub use stats::{RunStats, TotalStats};
pub use telemetry::{RecordingSink, RoundSample, SinkHandle, StatsSink};
pub use trace::{Bandwidth, BandwidthViolation, ChurnKind, FaultKind, Trace, TraceEvent};
pub use transport::{Frame, FrameKind, Resilient, TransportCfg, TransportMode};
