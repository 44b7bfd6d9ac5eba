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
//! `results/BENCH_e22.json` commits a full collection; the CI
//! `scale-smoke` job re-collects with [`ScaleBaseline::collect`] in
//! smoke mode (n = 10⁵ only) and asserts the [`RSS_BUDGET_KB`] budget.
//! The JSON is emitted and parsed by hand — the workspace has no serde.

use std::time::Instant;

use dam_congest::{Backend, SimConfig};
use dam_core::runtime::{run_mm, IsraeliItai, RunReport, RuntimeConfig};
use dam_graph::{materialize, ImplicitTopology, Topology};

/// Workload id — a stale artifact is never compared across experiments.
pub const SCALE_WORKLOAD: &str = "e22-israeli-itai-implicit";
/// Simulator seed of every timed run.
pub const SCALE_SEED: u64 = 22;
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

/// One timed pipeline run on one implicit topology.
#[derive(Debug, Clone, PartialEq)]
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

impl ScaleRecord {
    /// Protocol rounds per wall-clock second.
    #[must_use]
    pub fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / (self.wall_ms / 1e3)
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
    assert!(repeats > 0, "need at least one timed repeat");
    let topo = ImplicitTopology::parse(spec).expect("scale specs are valid");
    let mut best = f64::INFINITY;
    let mut rep = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let r = run_spec(&topo, threads);
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        rep = Some(r);
    }
    let rep = rep.expect("at least one repeat ran");
    ScaleRecord {
        spec: spec.to_string(),
        n: topo.node_count(),
        m: topo.edge_count(),
        threads,
        rounds: rep.phase1.rounds,
        messages: rep.phase1.messages,
        matched: rep.matching.size(),
        wall_ms: best * 1e3,
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

/// One committed collection of the E22 scale workload.
#[derive(Debug, Clone, PartialEq)]
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
    /// Scale records, smallest instance first.
    pub records: Vec<ScaleRecord>,
    /// Sharded-backend thread sweep on [`SWEEP_SPEC`].
    pub sweep: Vec<ScaleRecord>,
    /// Process peak RSS after the whole collection, kB.
    pub peak_rss_kb: u64,
    /// The smoke budget this artifact was collected under, kB.
    pub rss_budget_kb: u64,
}

impl ScaleBaseline {
    /// Measures a fresh collection on this host. Smoke mode keeps the
    /// sweep at n = 10⁵ so the whole collection stays under
    /// [`RSS_BUDGET_KB`] and a few seconds of wall clock.
    #[must_use]
    pub fn collect(ci_smoke: bool, repeats: usize) -> ScaleBaseline {
        let twins_identical = TWIN_SPECS.iter().all(|s| twin_identical(s));
        let sweep: Vec<ScaleRecord> =
            SWEEP_THREADS.iter().map(|&t| measure_spec(SWEEP_SPEC, t, repeats)).collect();
        let mut records: Vec<ScaleRecord> =
            SPECS_1E5.iter().map(|s| measure_spec(s, 1, repeats)).collect();
        if !ci_smoke {
            // Largest instances last: peak RSS is a process-wide
            // high-water mark, so this order keeps every earlier
            // record's figure a meaningful bound.
            records.extend(SPECS_1E6.iter().map(|s| measure_spec(s, 1, repeats)));
        }
        ScaleBaseline {
            workload: SCALE_WORKLOAD.to_string(),
            ci_smoke,
            repeats,
            host_threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            twin_specs: TWIN_SPECS.join(";"),
            twins_identical,
            records,
            sweep,
            peak_rss_kb: peak_rss_kb(),
            rss_budget_kb: RSS_BUDGET_KB,
        }
    }

    /// Serializes to the committed JSON format (hand-rolled; the
    /// workspace has no serde).
    #[must_use]
    pub fn to_json(&self) -> String {
        let obj = |r: &ScaleRecord| {
            format!(
                "    {{\"spec\": \"{}\", \"n\": {}, \"m\": {}, \"threads\": {}, \
                 \"rounds\": {}, \"messages\": {}, \"matched\": {}, \"wall_ms\": {:.3}, \
                 \"peak_rss_kb\": {}}}",
                r.spec,
                r.n,
                r.m,
                r.threads,
                r.rounds,
                r.messages,
                r.matched,
                r.wall_ms,
                r.peak_rss_kb,
            )
        };
        let records: Vec<String> = self.records.iter().map(&obj).collect();
        let sweep: Vec<String> = self.sweep.iter().map(&obj).collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"ci_smoke\": {},\n  \"repeats\": {},\n  \
             \"host_threads\": {},\n  \"twin_specs\": \"{}\",\n  \"twins_identical\": {},\n  \
             \"peak_rss_kb\": {},\n  \"rss_budget_kb\": {},\n  \"records\": [\n{}\n  ],\n  \
             \"sweep\": [\n{}\n  ]\n}}\n",
            self.workload,
            self.ci_smoke,
            self.repeats,
            self.host_threads,
            self.twin_specs,
            self.twins_identical,
            self.peak_rss_kb,
            self.rss_budget_kb,
            records.join(",\n"),
            sweep.join(",\n"),
        )
    }

    /// Parses the committed JSON format.
    ///
    /// # Errors
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(text: &str) -> Result<ScaleBaseline, String> {
        let mut body = text.trim().to_string();
        let records = extract_array(&mut body, "records")?;
        let sweep = extract_array(&mut body, "sweep")?;
        let body = body
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.strip_suffix('}'))
            .ok_or("baseline JSON must be a single object")?;
        let mut strings: Vec<(String, String)> = Vec::new();
        let mut fields: Vec<(String, String)> = Vec::new();
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) =
                entry.split_once(':').ok_or_else(|| format!("malformed entry {entry:?}"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().to_string();
            if value.starts_with('"') {
                strings.push((key, value.trim_matches('"').to_string()));
            } else {
                fields.push((key, value));
            }
        }
        let string = |name: &str| -> Result<String, String> {
            strings
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("missing field {name:?}"))
        };
        let num = |name: &str| -> Result<f64, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .ok_or_else(|| format!("missing field {name:?}"))?
                .1
                .parse::<f64>()
                .map_err(|e| format!("field {name:?}: {e}"))
        };
        let flag = |name: &str| -> Result<bool, String> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .ok_or_else(|| format!("missing field {name:?}"))?
                .1
                .parse::<bool>()
                .map_err(|e| format!("field {name:?}: {e}"))
        };
        Ok(ScaleBaseline {
            workload: string("workload")?,
            ci_smoke: flag("ci_smoke")?,
            repeats: num("repeats")? as usize,
            host_threads: num("host_threads")? as usize,
            twin_specs: string("twin_specs")?,
            twins_identical: flag("twins_identical")?,
            records,
            sweep,
            peak_rss_kb: num("peak_rss_kb")? as u64,
            rss_budget_kb: num("rss_budget_kb")? as u64,
        })
    }
}

/// Cuts the named `"key": [...]` array out of `body` (so the remainder
/// is a flat object) and parses its record objects.
fn extract_array(body: &mut String, key: &str) -> Result<Vec<ScaleRecord>, String> {
    let tag = format!("\"{key}\":");
    let at = body.find(&tag).ok_or_else(|| format!("missing array {key:?}"))?;
    let open = body[at..].find('[').ok_or_else(|| format!("array {key:?} has no '['"))? + at;
    let close = body[open..].find(']').ok_or_else(|| format!("array {key:?} has no ']'"))? + open;
    let inner = body[open + 1..close].to_string();
    // Drop the whole `"key": [...]` clause plus a trailing comma if one
    // follows; any comma the clause leaves dangling shows up as an
    // empty entry, which the flat-field loop skips.
    let mut end = close + 1;
    if body[end..].trim_start().starts_with(',') {
        end += body[end..].find(',').expect("just checked") + 1;
    }
    body.replace_range(at..end, "");
    inner
        .split('}')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_record(s.trim_start_matches(',').trim().trim_start_matches('{')))
        .collect()
}

/// Parses one record object's body (braces already stripped).
fn parse_record(body: &str) -> Result<ScaleRecord, String> {
    let mut spec = None;
    let mut fields: Vec<(String, String)> = Vec::new();
    for entry in body.split(',') {
        let (key, value) =
            entry.split_once(':').ok_or_else(|| format!("malformed record entry {entry:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim().to_string();
        if key == "spec" {
            spec = Some(value.trim_matches('"').to_string());
        } else {
            fields.push((key, value));
        }
    }
    let num = |name: &str| -> Result<f64, String> {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .ok_or_else(|| format!("missing record field {name:?}"))?
            .1
            .parse::<f64>()
            .map_err(|e| format!("record field {name:?}: {e}"))
    };
    Ok(ScaleRecord {
        spec: spec.ok_or("missing record field \"spec\"")?,
        n: num("n")? as usize,
        m: num("m")? as usize,
        threads: num("threads")? as usize,
        rounds: num("rounds")? as u64,
        messages: num("messages")? as u64,
        matched: num("matched")? as usize,
        wall_ms: num("wall_ms")?,
        peak_rss_kb: num("peak_rss_kb")? as u64,
    })
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
        // The full TWIN_SPECS set runs in bench-e22 and the CI smoke;
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
