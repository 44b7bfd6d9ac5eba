#![warn(missing_docs)]

//! Distributed approximate matching in the CONGEST model.
//!
//! This crate implements the algorithms of *“Improved Distributed
//! Approximate Matching”* (Lotker, Patt-Shamir & Pettie; SPAA 2008 /
//! J. ACM 2015) on top of the [`dam_congest`] network simulator:
//!
//! | Module | Paper artifact | Guarantee |
//! |---|---|---|
//! | [`israeli_itai`] | Israeli & Itai (1986) baseline | maximal (`½`-MCM), `O(log n)` rounds w.h.p. |
//! | [`luby`] | Luby (1986) MIS (building block) | MIS, `O(log n)` rounds w.h.p. |
//! | [`generic`] | §3.1, Algorithms 1–2 (LOCAL model) | `(1−1/(k+1))`-MCM, large messages |
//! | [`bipartite`] | §3.2, Algorithm 3 + token lottery | `(1−1/k)`-MCM, CONGEST, `O(k³ log Δ + k² log n)` rounds |
//! | [`general`] | §3.3, Algorithm 4 | `(1−1/k)`-MCM w.h.p., CONGEST |
//! | [`weighted`] | §4, Algorithm 5 | `(½−ε)`-MWM, CONGEST, `O(log ε⁻¹ log n)` rounds |
//! | [`weighted::local_max`] | the `δ`-MWM black box (Lemma 4.4 stand-in) | `½`-MWM, `O(log n)` rounds w.h.p. |
//! | [`hv`] | §4 Remark (Hougardy–Vinkemeier adaptation) | `(1−ε)`-MWM, LOCAL model; exact at exhaustion |
//! | [`auction`] | §1 job/server example (Bertsekas) | bipartite assignment within `n·ε` of optimal |
//! | [`trees`] | related work on trees | exact MCM on forests, `O(diameter)` rounds |
//! | [`lca`] | §1 LCA pointer | query-access maximal matching, sublinear probes/query |
//! | [`weighted::b_local_max`] | §1 c-matching pointer | `½`-MWM `b`-matching with node capacities |
//! | [`repair`] | self-healing extension (not in the paper) | valid matching ⊇ surviving consistent matching after crashes |
//! | [`maintain`] | churn-maintenance extension (not in the paper) | valid + maximal on the present graph after every event batch; O(neighbourhood) repair locality |
//! | [`certify`] | self-verification extension (not in the paper) | O(1)-round proof-labeling certificate; detect → repair → re-verify pipeline ends valid + certified-maximal on the trusted domain |
//! | [`runtime`] | unified protocol runtime (not in the paper) | one composable middleware pipeline ([`runtime::run_mm`]) behind every hardened driver |
//!
//! [`paper_map`] is a rustdoc-only chapter mapping every section of the
//! paper to the code that implements it.
//!
//! The paper's drivers ([`Bipartite`], [`Weighted`]) and the
//! Israeli–Itai and Luby baselines ([`IsraeliItai`], [`LubyMatching`])
//! implement [`runtime::Algorithm`] and run through one entry point,
//! [`runtime::run_mm`], which returns a [`runtime::RunReport`]: the
//! computed [`dam_graph::Matching`] (already validated) plus the full
//! round/message/bit accounting of every stage. The LOCAL-model and
//! extension algorithms return a [`report::AlgorithmReport`].
//!
//! # Example
//!
//! ```
//! use dam_congest::SimConfig;
//! use dam_core::{run_mm, Bipartite, RuntimeConfig};
//! use dam_graph::{generators, hopcroft_karp};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g = generators::bipartite_gnp(40, 40, 0.2, &mut rng);
//! // CONGEST(4 log n) messages, seed 1.
//! let cfg = RuntimeConfig::new().sim(SimConfig::congest_for(g.node_count(), 4).seed(1));
//! let report = run_mm(&Bipartite { k: 3, ..Bipartite::default() }, &g, &cfg).unwrap();
//! let opt = hopcroft_karp::maximum_bipartite_matching_size(&g);
//! // Theorem 3.10: at least a (1 - 1/3)-approximation.
//! assert!(3 * report.matching.size() >= 2 * opt);
//! ```

pub mod auction;
pub mod bipartite;
pub mod certify;
pub mod checkpoint;
pub mod error;
pub mod general;
pub mod generic;
pub mod hv;
pub mod israeli_itai;
pub mod lca;
pub mod luby;
pub mod maintain;
pub mod paper_map;
pub mod repair;
pub mod report;
pub mod runtime;
pub mod trees;
pub mod weighted;

pub use bipartite::Bipartite;
pub use checkpoint::{
    CheckpointCfg, CheckpointStore, Damage, RestoreError, RestoreOutcome, Snapshot, SnapshotError,
    Stage,
};
pub use error::CoreError;
pub use luby::LubyMatching;
pub use report::{AlgorithmReport, IterationPolicy};
pub use runtime::{
    run_configured, run_mm, AlgoSpec, Algorithm, IsraeliItai, MainRun, RunReport, RuntimeConfig,
};
pub use weighted::Weighted;
