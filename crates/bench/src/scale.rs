//! Million-node scale-out baseline (experiment E22).
//!
//! Runs the Israeli–Itai pipeline through the unified runtime on
//! *implicit* topologies — `ring:N`, `torus:WxH`, `reg:N:D` — whose
//! adjacency is computed on the fly ([`dam_graph::ImplicitTopology`]),
//! so the instance never stores per-edge arrays, plus one skip-sampled
//! `gnp:N:P:SEED` at n = 10⁵, whose ports come from its compact row
//! arrays rather than a CSR twin. Each record carries
//! wall clock, round/message totals and the process's peak RSS
//! (`VmHWM` from `/proc/self/status`), which is how the headline claim
//! — Israeli–Itai at n = 10⁶ inside container memory — is pinned.
//!
//! The baseline also records a **twin check** (the implicit run is
//! bit-identical to the same run on the materialized CSR graph, at a
//! size where both fit) and a **thread sweep** on the sharded backend.
//!
//! `results/BENCH_e22.json` commits a full collection, written by
//! `cargo run --release -p dam-bench --bin bench -- e22`; the CI
//! `scale-smoke` job re-collects with [`ScaleBaseline::collect`] in
//! smoke mode (n = 10⁵ only) and asserts the [`RSS_BUDGET_KB`] budget.
//! The JSON text is written and read by [`crate::json`].

use dam_congest::{Backend, SimConfig};
use dam_core::runtime::{run_mm, IsraeliItai, RunReport, RuntimeConfig};
use dam_graph::{materialize, ImplicitTopology, Topology};

use crate::baseline::{best_of, host_threads};
use crate::json::artifact;

/// Workload id — a stale artifact is never compared across experiments.
pub const SCALE_WORKLOAD: &str = "e22-israeli-itai-implicit";
/// Simulator seed of every timed run.
pub const SCALE_SEED: u64 = 22;
/// Timed repeats per record (one: the n = 10⁶ runs take seconds each).
pub const SCALE_REPEATS: usize = 1;
/// Peak-RSS budget of the smoke collection (n = 10⁵ records only),
/// asserted by CI's `scale-smoke` job. Measured headroom: the n = 10⁵
/// sweep peaks around 60 MB, the budget is ~4x that.
pub const RSS_BUDGET_KB: u64 = 262_144;
/// Implicit specs measured at n = 10⁵ (both modes).
pub const SPECS_1E5: &[&str] =
    &["ring:100000", "torus:320x320", "reg:100000:4", "gnp:100000:0.00008:22"];
/// Implicit specs measured at n = 10⁶ (full mode only).
pub const SPECS_1E6: &[&str] = &["ring:1000000", "torus:1000x1000", "reg:1000000:4"];
/// Twin-checked specs: implicit vs materialized CSR, bit-identical.
pub const TWIN_SPECS: &[&str] = &["ring:10000", "torus:48x48", "reg:10000:4", "gnp:2000:0.004:42"];
/// Thread counts of the sharded-backend sweep.
pub const SWEEP_THREADS: &[usize] = &[1, 2, 4, 8];
/// Spec of the thread sweep.
pub const SWEEP_SPEC: &str = "ring:100000";

/// The process's peak resident set (`VmHWM`) in kB — 0 where
/// `/proc/self/status` is unavailable (non-Linux hosts).
#[must_use]
pub fn peak_rss_kb() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

artifact! {
    /// One timed pipeline run on one implicit topology.
    pub struct ScaleRecord {
        /// Canonical topology spec of the instance.
        pub spec: String,
        /// Node count.
        pub n: usize,
        /// Edge count.
        pub m: usize,
        /// Engine worker threads (1 = sequential backend).
        pub threads: usize,
        /// Protocol rounds of the run (deterministic).
        pub rounds: u64,
        /// Protocol messages of the run (deterministic).
        pub messages: u64,
        /// Matching size (deterministic).
        pub matched: usize,
        /// Best-of-N wall clock, milliseconds.
        pub wall_ms: f64,
        /// Process peak RSS right after the run, kB. Cumulative across a
        /// collection (a high-water mark never falls), so within one
        /// artifact only the *largest* instance's figure is a tight bound;
        /// collections order small instances first to keep early figures
        /// meaningful.
        pub peak_rss_kb: u64,
    }
}

/// Runs the pipeline once on the parsed spec (no transport — this is
/// the bare engine-scale figure) and returns the report.
fn run_spec(topo: &ImplicitTopology, threads: usize) -> RunReport {
    let backend = if threads > 1 { Backend::Sharded } else { Backend::Sequential };
    let sim = SimConfig::local().seed(SCALE_SEED).threads(threads).backend(backend);
    let cfg = RuntimeConfig::new().sim(sim);
    run_mm(&IsraeliItai, topo, &cfg).expect("fault-free scale run cannot fail")
}

/// Times `spec` at `threads` workers, best of `repeats`.
///
/// # Panics
/// Panics on an invalid spec or a failed run — both are bugs here.
#[must_use]
pub fn measure_spec(spec: &str, threads: usize, repeats: usize) -> ScaleRecord {
    let topo = ImplicitTopology::parse(spec).expect("scale specs are valid");
    let (secs, rep) = best_of(repeats, || (), |_| run_spec(&topo, threads));
    ScaleRecord {
        spec: spec.to_string(),
        n: topo.node_count(),
        m: topo.edge_count(),
        threads,
        rounds: rep.phase1.rounds,
        messages: rep.phase1.messages,
        matched: rep.matching.size(),
        wall_ms: secs * 1e3,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Whether the pipeline is bit-identical on `spec` and its materialized
/// CSR twin: same matching, same registers, same round and message
/// totals.
///
/// # Panics
/// Panics on an invalid spec or a failed run.
#[must_use]
pub fn twin_identical(spec: &str) -> bool {
    let topo = ImplicitTopology::parse(spec).expect("twin specs are valid");
    let csr = materialize(&topo).expect("implicit topologies always materialize");
    let a = run_spec(&topo, 1);
    let b = run_spec(&ImplicitTopology::parse(spec).expect("twin specs are valid"), 1);
    assert_eq!(a.registers, b.registers, "implicit runs must be deterministic");
    let sim = SimConfig::local().seed(SCALE_SEED);
    let c = run_mm(&IsraeliItai, &csr, &RuntimeConfig::new().sim(sim))
        .expect("fault-free twin run cannot fail");
    a.matching.to_edge_vec() == c.matching.to_edge_vec()
        && a.registers == c.registers
        && a.phase1.rounds == c.phase1.rounds
        && a.phase1.messages == c.phase1.messages
}

artifact! {
    /// One committed collection of the E22 scale workload.
    pub struct ScaleBaseline {
        /// Workload identifier — must equal [`SCALE_WORKLOAD`].
        pub workload: String,
        /// Whether this collection was restricted to n = 10⁵ (smoke mode).
        pub ci_smoke: bool,
        /// Timed repeats per record (wall clocks are best-of-N).
        pub repeats: usize,
        /// `std::thread::available_parallelism()` of the measuring host.
        pub host_threads: usize,
        /// `;`-joined [`TWIN_SPECS`] the twin check covered.
        pub twin_specs: String,
        /// Whether every twin pair was bit-identical.
        pub twins_identical: bool,
        /// Process peak RSS after the whole collection, kB.
        pub peak_rss_kb: u64,
        /// The smoke budget this artifact was collected under, kB.
        pub rss_budget_kb: u64,
        /// Scale records, smallest instance first.
        pub records: Vec<ScaleRecord>,
        /// Sharded-backend thread sweep on [`SWEEP_SPEC`].
        pub sweep: Vec<ScaleRecord>,
    }
}

impl ScaleBaseline {
    /// Measures a fresh collection on this host. Smoke mode keeps the
    /// sweep at n = 10⁵ so the whole collection stays under
    /// [`RSS_BUDGET_KB`] and a few seconds of wall clock.
    #[must_use]
    pub fn collect(ci_smoke: bool) -> ScaleBaseline {
        let twins_identical = TWIN_SPECS.iter().all(|s| twin_identical(s));
        let sweep: Vec<ScaleRecord> =
            SWEEP_THREADS.iter().map(|&t| measure_spec(SWEEP_SPEC, t, SCALE_REPEATS)).collect();
        let mut records: Vec<ScaleRecord> =
            SPECS_1E5.iter().map(|s| measure_spec(s, 1, SCALE_REPEATS)).collect();
        if !ci_smoke {
            // Largest instances last: peak RSS is a process-wide
            // high-water mark, so this order keeps every earlier
            // record's figure a meaningful bound.
            records.extend(SPECS_1E6.iter().map(|s| measure_spec(s, 1, SCALE_REPEATS)));
        }
        ScaleBaseline {
            workload: SCALE_WORKLOAD.to_string(),
            ci_smoke,
            repeats: SCALE_REPEATS,
            host_threads: host_threads(),
            twin_specs: TWIN_SPECS.join(";"),
            twins_identical,
            records,
            sweep,
            peak_rss_kb: peak_rss_kb(),
            rss_budget_kb: RSS_BUDGET_KB,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScaleBaseline {
        let rec = |spec: &str, n: usize, threads: usize| ScaleRecord {
            spec: spec.to_string(),
            n,
            m: n,
            threads,
            rounds: 40,
            messages: 123_456,
            matched: n / 2 - 7,
            wall_ms: 210.125,
            peak_rss_kb: 59_000,
        };
        ScaleBaseline {
            workload: SCALE_WORKLOAD.to_string(),
            ci_smoke: false,
            repeats: 1,
            host_threads: 8,
            twin_specs: TWIN_SPECS.join(";"),
            twins_identical: true,
            records: vec![rec("ring:100000", 100_000, 1), rec("ring:1000000", 1_000_000, 1)],
            sweep: vec![rec("ring:100000", 100_000, 1), rec("ring:100000", 100_000, 4)],
            peak_rss_kb: 600_000,
            rss_budget_kb: RSS_BUDGET_KB,
        }
    }

    #[test]
    fn json_roundtrips() {
        let b = sample();
        let back = ScaleBaseline::from_json(&b.to_json()).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ScaleBaseline::from_json("not json").is_err());
        assert!(ScaleBaseline::from_json("{\"workload\": \"x\"}").is_err());
        assert!(ScaleBaseline::from_json("{\"workload\": \"x\", \"records\": [], \"sweep\": []}")
            .is_err());
    }

    #[test]
    fn twin_check_holds_on_a_small_ring() {
        // The full TWIN_SPECS set runs in `bench e22` and the CI smoke;
        // one small family keeps the unit test fast.
        assert!(twin_identical("ring:64"));
        assert!(twin_identical("gnp:48:0.1:3"));
    }

    #[test]
    fn measurement_is_deterministic_across_backends() {
        let seq = measure_spec("torus:6x6", 1, 1);
        let par = measure_spec("torus:6x6", 4, 1);
        assert_eq!(seq.rounds, par.rounds);
        assert_eq!(seq.messages, par.messages);
        assert_eq!(seq.matched, par.matched);
        assert_eq!((seq.n, seq.m), (36, 72));
    }
}
