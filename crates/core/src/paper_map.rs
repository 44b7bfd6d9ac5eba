//! # Paper-to-code map
//!
//! A reading guide: where every artifact of *“Improved Distributed
//! Approximate Matching”* (Lotker, Patt-Shamir & Pettie; J. ACM 62(5),
//! 2015; preliminary SPAA 2008) lives in this workspace. This module
//! contains no code — it exists so `cargo doc` carries the map.
//!
//! ## Section 1 — Introduction
//!
//! | Paper artifact | Code |
//! |---|---|
//! | Switch fabric motivation (Figure 1) | `dam_switch` (VOQ crossbar, PIM, iSLIP, oracles) |
//! | Job/server weighted example | `examples/job_assignment.rs`, [`crate::auction`] |
//! | Israeli–Itai (1986) `½`-MCM baseline | [`crate::israeli_itai`] |
//! | PIM (Anderson et al.) / iSLIP (McKeown) | `dam_switch::sched::{pim, islip}` |
//! | c-matching pointer (Koufogiannakis–Young) | [`crate::weighted::b_local_max`], `dam_graph::bmatching` |
//! | 4G cell association (Patt-Shamir–Rawitz–Scalosub) | `examples/cellular_coverage.rs` |
//! | LCA pointer (Rubinfeld et al.; Mansour–Vardi; Parnas–Ron) | [`crate::lca`] |
//! | Trees (Hoepman–Kutten–Lotker) | [`crate::trees`] (exact, `O(diameter)`) |
//!
//! ## Section 2 — Preliminaries
//!
//! | Paper artifact | Code |
//! |---|---|
//! | Synchronous network, CONGEST(log n) / LOCAL | `dam_congest::{Network, Model, SimConfig}` |
//! | Message bit accounting | `dam_congest::BitSize`, `dam_congest::RunStats` |
//! | Output registers ("points to an incident edge or NULL") | `Protocol::Output = Option<EdgeId>`, [`crate::report::matching_from_registers`] |
//! | Footnote 1 (`C_{2n}` needs `Ω(n)` for exactness) | experiment E9 (`dam-bench`), `dam_graph::generators::cycle` |
//! | Footnote 2 (α-synchronizer, synchrony WLOG) | `dam_congest::asynchrony` (equivalence property-tested) |
//! | `M ⊕ P` notation | `dam_graph::Matching::toggle`, `dam_graph::paths` |
//!
//! ## Section 3 — Unweighted matchings
//!
//! | Paper artifact | Code |
//! |---|---|
//! | Algorithm 1 (abstract phases over `C_M(ℓ)`) | [`crate::generic::generic_mcm`] (driver) |
//! | Definition 3.1 (conflict graph) | `dam_graph::conflict::ConflictGraph` (sequential), [`crate::generic`] (distributed emulation) |
//! | Lemmas 3.2/3.3 (Hopcroft–Karp) | `dam_graph::paths` (+ `lemma_3_2`/`lemma_3_3` tests) |
//! | Algorithm 2 (neighbourhood flooding, leader rule) | [`crate::generic::GenericNode`] gather stage |
//! | Lemma 3.4 (LOCAL message width) | measured by experiment E5 |
//! | Lemma 3.5 / Corollary 3.6 (MIS emulation) | [`crate::generic`] bid/win floods; [`crate::luby`] standalone |
//! | Theorem 3.7 | `theorem_3_7_generic_ratio` integration test |
//! | §3.2 BFS counting (Algorithm 3, Figure 2, Lemma 3.8) | [`crate::bipartite::PhaseNode`] counting stage (+ `lemma_3_8_counts_match_enumeration` differential test) |
//! | §3.2 winner lottery (`max of n_y uniforms`) | [`crate::bipartite::PhaseNode`]'s lottery (`ln U / n_y` reparametrization) |
//! | §3.2 token walk + collision + trace-back | [`crate::bipartite::PhaseNode`] token/augment stages |
//! | Lemma 3.9 (pipelined `O(ℓ log N)` emulation) | `dam_congest::CostModel::Pipelined` + analytic token widths |
//! | Theorem 3.10 | [`crate::bipartite::Bipartite`] (run by [`crate::runtime::run_mm`]); experiments E1, E2 |
//! | Algorithm 4 (red/blue sampling, `Ĝ`) | [`crate::general::ColorNode`], [`crate::general::general_mcm`] |
//! | Observations 3.11/3.12, Lemmas 3.13/3.14 | behaviour checked by E3's ratio floors |
//! | `2^{2k+1}(k+1)·ln k` iterations | [`crate::general::paper_iteration_bound`] |
//! | Theorem 3.15 | [`crate::general::general_mcm`]; experiment E3 |
//!
//! ## Section 4 — Weighted matchings
//!
//! | Paper artifact | Code |
//! |---|---|
//! | `wrap(e)`, gain `g(P)`, re-weighting `w_M` | [`crate::weighted`] `GainExchange` |
//! | Algorithm 5 | [`crate::weighted::Weighted`] (run by [`crate::runtime::run_mm`]) |
//! | Lemma 4.1 (`w(M″) ≥ w(M) + w_M(M′)`) | `lemma_4_1_gain_inequality` property test |
//! | Lemma 4.2 (Pettie–Sanders) | `dam_graph::pettie_sanders` implements its source algorithm (`(2/3−ε)`-MWM); measured via E4 |
//! | Lemma 4.4 (`δ`-MWM black box, PODC'07) | [`crate::weighted::local_max`] (substitution, see `DESIGN.md`) |
//! | Theorem 4.5 | experiment E4; `theorem_4_5_weighted_ratio` test |
//! | `½` barrier example (three unit edges) | `dam_graph::generators::three_edge_series`; E7 |
//! | §4 Remark (`(1−ε)`-MWM, Hougardy–Vinkemeier) | [`crate::hv::hv_mwm`] |
//!
//! ## Section 5 — Open problems
//!
//! The deterministic `O(log n)` maximal matching question is still open;
//! nothing here claims otherwise.
