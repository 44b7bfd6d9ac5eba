//! The dam benchmark: two closed-loop workloads over the matching
//! stack, each run in one process, one instance at a time, on the
//! sequential engine with one worker thread. See `README.md` beside
//! this package for why each workload exists and which layer metric
//! should move which end-to-end metric.

pub mod reference;
pub mod trace;
pub mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use dam_congest::{Network, SimConfig};
use dam_core::certify::certify_on;
use dam_core::checkpoint::CheckpointStore;
use dam_core::israeli_itai::IiNode;
use dam_core::runtime::{Algorithm, RuntimeConfig};
use dam_graph::BitSet;

use reference::Reference;
use trace::{count_allocs, CountingAlloc, CountingTopology, SpanLog, TimedAlgo};
use workload::{Costs, Input, Instance, Scale, Verdict, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// The result line of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(r#""{name}": {{"value": {}, "unit": "{unit}"}}"#, num(*v))
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 rather than invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one reference sample takes, in ms, on the host the calibrated
/// metrics are quoted for (the 2-vCPU Xeon VM the bounds were set on).
const REFERENCE_NOMINAL_MS: f64 = 6.0;

fn host_threads() -> f64 {
    std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64)
}

/// The per-process scratch directory (checkpoint stores), inside the
/// working directory and removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the input `setup_repeats` times and keeps the last; returns
/// it with the median build times (setup, topology build, materialize).
fn setup(opts: &Options, scratch: &Path) -> Result<(Input, [f64; 3]), String> {
    let mut total = Vec::new();
    let mut build = Vec::new();
    let mut mat = Vec::new();
    let mut input = None;
    for _ in 0..opts.scale.setup_repeats.max(1) {
        let t0 = Instant::now();
        let built = workload::build(opts.workload, opts.seed, &opts.scale, scratch)?;
        total.push(t0.elapsed().as_secs_f64());
        build.push(built.build_s);
        mat.push(built.materialize_s);
        input = Some(built);
    }
    let input = input.expect("at least one build");
    Ok((input, [median(&total), median(&build), median(&mat)]))
}

/// Per-instance bookkeeping shared by both modes: the checker's verdict
/// on every instance, the first-pass costs and ratios, and the
/// bit-identity check of every re-run against its first run.
struct Ledger {
    /// Instance seeds, by position in the run's rotated order.
    seeds: Vec<u64>,
    signatures: Vec<Option<u64>>,
    first_costs: Vec<Option<Costs>>,
    first_ratio: Vec<Option<f64>>,
    attempted: usize,
    failed: usize,
    first_failure: Option<String>,
}

impl Ledger {
    fn new(input: &Input) -> Ledger {
        let k = input.instances.len();
        Ledger {
            seeds: input.instances.iter().map(|i| i.seed).collect(),
            signatures: vec![None; k],
            first_costs: vec![None; k],
            first_ratio: vec![None; k],
            attempted: 0,
            failed: 0,
            first_failure: None,
        }
    }

    /// Checks one finished instance; `timed` instances count towards
    /// `attempted`/`failed`, the warm-up does not (but must pass).
    fn record(&mut self, input: &Input, i: usize, v: &Verdict, timed: bool) -> bool {
        let mut failure = v.failure.clone();
        if failure.is_none() {
            let sig = workload::signature(&v.reports);
            match self.signatures[i] {
                None => {
                    self.signatures[i] = Some(sig);
                    self.first_costs[i] = Some(Costs::of(&v.reports));
                    self.first_ratio[i] =
                        Some(workload::matching_ratio(input, &input.instances[i], &v.reports));
                }
                Some(first) if first != sig => {
                    failure =
                        Some(format!("instance {i}: re-run counters differ from its first run"));
                }
                Some(_) => {}
            }
        }
        if timed {
            self.attempted += 1;
        }
        match failure {
            None => true,
            Some(why) => {
                if timed {
                    self.failed += 1;
                }
                self.first_failure.get_or_insert(why);
                false
            }
        }
    }

    /// First-pass costs and ratios in instance-seed order, so sums over
    /// them come out bit-identical whatever the rotation.
    fn first_pass(&self) -> (Vec<Costs>, Vec<f64>) {
        let mut order: Vec<usize> = (0..self.seeds.len()).collect();
        order.sort_by_key(|&i| self.seeds[i]);
        let costs = order.iter().filter_map(|&i| self.first_costs[i]).collect();
        let ratios = order.iter().filter_map(|&i| self.first_ratio[i]).collect();
        (costs, ratios)
    }
}

fn build_algos(inst: &Instance) -> Vec<Box<dyn Algorithm>> {
    inst.runs.iter().map(|r| r.spec.build()).collect()
}

/// Runs the instance's batch as configured and checks it.
fn plain_batch(input: &Input, inst: &Instance) -> (f64, Verdict) {
    let (secs, v, _) = timed_batch(input, &input.topos(), inst, Clone::clone, true);
    (secs, v)
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Runs one workload as `opts` asks and returns its result line.
///
/// # Errors
/// A message when the input cannot be built or the scratch directory
/// cannot be created; failed instances are reported in the outcome.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let scratch = Scratch::new()?;
    let reference = Reference::new();
    let probe = median(&(0..5).map(|_| reference.sample()).collect::<Vec<_>>());
    let (input, setup_times) = setup(opts, &scratch.0)?;
    let mut ledger = Ledger::new(&input);

    // Untimed warm-up: the first instance, whose counters every later
    // run of it must reproduce.
    let (_, v) = plain_batch(&input, &input.instances[0]);
    if !ledger.record(&input, 0, &v, false) {
        return Err(format!(
            "warm-up instance failed: {}",
            ledger.first_failure.unwrap_or_default()
        ));
    }

    let (metrics, mut notes) = if opts.trace {
        traced(opts, &input, &mut ledger, setup_times, probe, &scratch.0)?
    } else {
        untraced(opts, &input, &mut ledger, setup_times, &reference)
    };
    notes.push(format!(
        "host: probe_ms={probe:.3} host_threads={} engine_threads=1 backend=sequential",
        host_threads()
    ));
    if let Some(why) = &ledger.first_failure {
        notes.push(format!("FAILED: {why}"));
    }
    Ok(Outcome {
        correct: ledger.failed == 0 && ledger.first_failure.is_none(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        notes,
    })
}

/// Full passes over the instance list every end-to-end run makes, even
/// when `seconds` runs out first, so each instance has a median.
const MIN_PASSES: usize = 3;

/// The end-to-end run: cycle through the instances for `seconds` (at
/// least [`MIN_PASSES`] full passes), timing each batch and checking
/// each output. A reference sample is taken before every batch, so the
/// calibrated metrics divide by how fast the host ran over the same
/// stretch of time.
fn untraced(
    opts: &Options,
    input: &Input,
    ledger: &mut Ledger,
    setup: [f64; 3],
    reference: &Reference,
) -> (Metrics, Vec<String>) {
    let k = input.instances.len();
    let mut times = Vec::new();
    let mut by_instance = vec![Vec::new(); k];
    let mut reference_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < k * MIN_PASSES || start.elapsed().as_secs_f64() < opts.seconds {
        reference_ms.push(reference.sample());
        let (secs, v) = plain_batch(input, &input.instances[i % k]);
        times.push(secs);
        by_instance[i % k].push(secs);
        ledger.record(input, i % k, &v, true);
        i += 1;
    }
    let (costs, ratios) = ledger.first_pass();
    let per = |f: fn(&Costs) -> u64| mean(&costs.iter().map(|c| f(c) as f64).collect::<Vec<_>>());
    let ratio_mean = mean(&ratios);
    // Each instance's median, averaged over the fixed instance list: a
    // slow stretch of the host moves no instance's median, and where the
    // run stops in the cycle does not change the mix.
    let p50_s = mean(&by_instance.iter().map(|t| median(t)).collect::<Vec<_>>());
    let reference_ms = median(&reference_ms);
    // Rescaled to a host on which a reference sample takes its nominal time.
    let cal_s = p50_s * ratio(REFERENCE_NOMINAL_MS, reference_ms);
    let metrics = vec![
        ("setup_s", "s", setup[0]),
        ("inst_p50_cal_ms", "ms", cal_s * 1e3),
        ("nodes_per_cal_s", "nodes/s", ratio(input.nodes() as f64, cal_s)),
        ("peak_rss_mb", "MB", peak_rss_mb() - reference.resident_mb()),
        ("rounds", "rounds", per(|c| c.rounds)),
        ("messages", "messages", per(|c| c.frames)),
        ("bits", "bits", per(|c| c.bits)),
        ("matching_ratio", "ratio", ratio_mean),
        (
            "ok_share",
            "ratio",
            ratio((ledger.attempted - ledger.failed) as f64, ledger.attempted as f64),
        ),
    ];
    let runs = by_instance.iter().map(Vec::len);
    let notes = vec![
        format!(
            "{}: {} instances ({} distinct, n = {}), inst_p50_ms = mean of per-instance \
             medians over {}-{} runs each, setup median of {}",
            opts.workload.name(),
            times.len(),
            k,
            input.nodes(),
            runs.clone().min().unwrap_or(0),
            runs.max().unwrap_or(0),
            opts.scale.setup_repeats.max(1)
        ),
        format!(
            "wall clock: inst_p50_ms={:.3} nodes_per_s={:.1}; reference median {:.4} ms \
             (nominal {REFERENCE_NOMINAL_MS})",
            p50_s * 1e3,
            ratio(input.nodes() as f64, p50_s),
            reference_ms
        ),
        format!(
            "instance ms in run order: {}",
            times.iter().map(|t| format!("{:.0}", t * 1e3)).collect::<Vec<_>>().join(" ")
        ),
    ];
    (metrics, notes)
}

/// Per traced instance: the layer numbers gathered around one batch.
#[derive(Default)]
struct LayerSample {
    plain_s: f64,
    traced_s: f64,
    costs: Costs,
    /// The hardened run's costs alone (zero without one).
    hardened_costs: Costs,
    port_calls: f64,
    endpoint_calls: f64,
    query_ms: f64,
    allocs: f64,
    new_ms: f64,
    engine_ms: f64,
    driver_ms: Vec<(&'static str, f64)>,
    repair_ms: f64,
    certify_ms: f64,
    transport_ms: f64,
    extra_rounds: f64,
    maintain_ms: f64,
    maintain_added: f64,
    ckpt_writes: f64,
    ckpt_bytes: f64,
    ckpt_ms: f64,
}

fn ms(ns: &std::sync::atomic::AtomicU64) -> f64 {
    ns.load(Ordering::Relaxed) as f64 / 1e6
}

/// Runs the batch on `topos` (indexed as [`workload::Run::graph`]) with
/// every driver wrapped in a [`TimedAlgo`]; returns the batch wall time,
/// the checked verdict and each run's main-run and resume time in ms.
fn timed_batch(
    input: &Input,
    topos: &[&dyn dam_graph::Topology],
    inst: &Instance,
    cfg_of: impl Fn(&RuntimeConfig) -> RuntimeConfig,
    outputs: bool,
) -> (f64, Verdict, Vec<(f64, f64)>) {
    let algos = build_algos(inst);
    let timed: Vec<TimedAlgo<'_>> = algos.iter().map(|a| TimedAlgo::new(&**a)).collect();
    let refs: Vec<&dyn Algorithm> = timed.iter().map(|a| a as &dyn Algorithm).collect();
    let (secs, results) = workload::run_batch(topos, inst, &refs, cfg_of);
    let v = workload::check(input, inst, results, outputs);
    let spans = timed.iter().map(|a| (ms(&a.run_ns), ms(&a.resume_ns))).collect();
    (secs, v, spans)
}

fn driver_key(name: &str) -> &'static str {
    match name {
        "israeli-itai" => "driver.ms.ii",
        n if n.starts_with("bipartite") => "driver.ms.bipartite",
        n if n.starts_with("luby") => "driver.ms.luby",
        _ => "driver.ms.weighted",
    }
}

/// One traced instance: a plain batch, the same batch fully
/// instrumented, direct calls into the engine, and — where the batch
/// has a hardened run — direct calls into the certifier and checkpoint
/// store and a ladder of runs of it that each drop one layer,
/// differenced against the rung above.
fn trace_instance(
    input: &Input,
    ledger: &mut Ledger,
    i: usize,
    spans: &SpanLog,
    query_ns: (f64, f64),
) -> LayerSample {
    let mut s = LayerSample::default();
    let inst_idx = i % input.instances.len();
    let inst = &input.instances[inst_idx];
    let topos = input.topos();
    let hardened = inst.runs.iter().position(workload::Run::hardened);

    // Plain: as the untraced run executes it. Bare runs give the driver
    // times; the hardened run's resumes are its repair.
    let (plain_s, v, drivers) = timed_batch(input, &topos, inst, Clone::clone, true);
    s.plain_s = plain_s;
    for ((run, r), (main_ms, resume_ms)) in inst.runs.iter().zip(&v.reports).zip(&drivers) {
        if run.hardened() {
            s.repair_ms += resume_ms;
        } else {
            s.driver_ms.push((driver_key(r.algorithm), *main_ms));
        }
    }
    let plain_ok = ledger.record(input, inst_idx, &v, true);

    // Traced: counting topologies, counting allocator, driver wrappers.
    let counting: Vec<CountingTopology<'_>> =
        topos.iter().map(|t| CountingTopology::new(*t)).collect();
    let counted: Vec<&dyn dam_graph::Topology> =
        counting.iter().map(|c| c as &dyn dam_graph::Topology).collect();
    let t_start = Instant::now();
    let ((traced_s, tv, _), allocs) =
        count_allocs(|| timed_batch(input, &counted, inst, Clone::clone, true));
    let parent = Some(spans.record("instance.traced", i, t_start, (traced_s * 1e9) as u64, None));
    s.traced_s = traced_s;
    s.allocs = allocs as f64;
    for c in &counting {
        s.port_calls += c.port_calls.load(Ordering::Relaxed) as f64;
        s.endpoint_calls += c.endpoint_calls.load(Ordering::Relaxed) as f64;
    }
    s.query_ms = (s.port_calls * query_ns.0 + s.endpoint_calls * query_ns.1) / 1e6;
    s.costs = Costs::of(&tv.reports);
    if let Some(r) = hardened.and_then(|h| tv.reports.get(h)) {
        s.hardened_costs = Costs::of(std::slice::from_ref(r));
    }
    // Tracing must not perturb the run.
    if let Some(why) = &tv.failure {
        ledger.first_failure.get_or_insert(format!("traced instance {inst_idx}: {why}"));
    } else if plain_ok && workload::signature(&tv.reports) != workload::signature(&v.reports) {
        ledger.first_failure.get_or_insert(format!("instance {inst_idx}: tracing changed the run"));
    }

    // Direct: building the engine's peer tables, and one bare
    // Israeli-Itai run on the engine alone, on the main graph.
    let topo = input.topo();
    let sim = SimConfig::local().seed(inst.seed);
    let t = Instant::now();
    let mut net = Network::new(topo, sim);
    s.new_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.record("engine.new", i, t, (s.new_ms * 1e6) as u64, parent);
    let t = Instant::now();
    let bare = net.run(|v, g| IiNode::new(g.degree(v)));
    s.engine_ms = t.elapsed().as_secs_f64() * 1e3;
    spans.record("engine.main", i, t, (s.engine_ms * 1e6) as u64, parent);
    if let Err(e) = bare {
        ledger.first_failure.get_or_insert(format!("bare engine run failed: {e}"));
    }
    drop(net);

    let Some(h) = hardened else { return s };
    let run = &inst.runs[h];
    let topo = topos[run.graph];
    if let Some(r) = tv.reports.get(h) {
        // Direct: one certification pass over the final registers.
        let present = BitSet::from_fn(r.node_present.len(), |v| r.node_present[v]);
        let t = Instant::now();
        let cert = certify_on(topo, &r.registers, &present, inst.seed);
        s.certify_ms = t.elapsed().as_secs_f64() * 1e3;
        spans.record("certify", i, t, (s.certify_ms * 1e6) as u64, parent);
        if !cert.is_ok_and(|c| c.ok()) {
            ledger
                .first_failure
                .get_or_insert("direct certification of the final registers failed".to_string());
        }
        // Direct: re-write the newest snapshot through the store.
        if let Some(ck) = run.cfg.checkpoint.as_ref() {
            let store = CheckpointStore::open(&ck.dir);
            let algo = run.spec.build();
            s.ckpt_writes = store.head().unwrap_or(0) as f64;
            match store.load(&*algo).map(|rec| rec.snapshot) {
                Ok(Some(snap)) => {
                    s.ckpt_bytes = snap.encode_with(&*algo).len() as f64;
                    let t = Instant::now();
                    if store.write(&snap, &*algo).is_err() {
                        ledger
                            .first_failure
                            .get_or_insert("checkpoint re-write failed".to_string());
                    }
                    let one = t.elapsed().as_secs_f64() * 1e3;
                    spans.record("checkpoint.write", i, t, (one * 1e6) as u64, parent);
                    s.ckpt_ms = one * s.ckpt_writes;
                }
                _ => {
                    ledger
                        .first_failure
                        .get_or_insert("no intact checkpoint after the run".to_string());
                }
            }
        }
    }

    {
        // The layer ladder, on the hardened run alone: each rung drops
        // one layer from the one above.
        let inst = &Instance { seed: inst.seed, runs: vec![run.clone()] };
        let no_ckpt = |c: &RuntimeConfig| RuntimeConfig { checkpoint: None, ..c.clone() };
        let no_maint = |c: &RuntimeConfig| RuntimeConfig { maintain: false, ..no_ckpt(c) };
        let fault_free = |c: &RuntimeConfig| RuntimeConfig {
            faults: Default::default(),
            churn: Default::default(),
            ..no_ckpt(c)
        };
        let bare = |c: &RuntimeConfig| RuntimeConfig {
            transport: None,
            certify: false,
            repair: false,
            maintain: false,
            ..fault_free(c)
        };
        let (full_s, full_v, _) = timed_batch(input, &topos, inst, no_ckpt, true);
        let (nm_s, nm_v, _) = timed_batch(input, &topos, inst, no_maint, false);
        let (_, ff_v, ff_main) = timed_batch(input, &topos, inst, fault_free, true);
        let (_, bare_v, bare_main) = timed_batch(input, &topos, inst, bare, true);
        for (name, v) in [
            ("no-checkpoint", &full_v),
            ("no-maintain", &nm_v),
            ("fault-free", &ff_v),
            ("bare", &bare_v),
        ] {
            if let Some(why) = &v.failure {
                ledger.first_failure.get_or_insert(format!("ladder rung {name}: {why}"));
            }
        }
        s.maintain_ms = (full_s - nm_s) * 1e3;
        let added = |v: &Verdict| v.reports.iter().map(|r| r.added as f64).sum::<f64>();
        s.maintain_added = added(&full_v) - added(&nm_v);
        s.extra_rounds =
            Costs::of(&full_v.reports).rounds as f64 - Costs::of(&ff_v.reports).rounds as f64;
        s.transport_ms =
            ff_main.iter().map(|x| x.0).sum::<f64>() - bare_main.iter().map(|x| x.0).sum::<f64>();
    }
    s
}

/// The traced run: alternate plain and instrumented batches for
/// `seconds` (at least one instance) and aggregate the layer numbers.
/// `topology.query_ms` is the counted calls priced at the per-call cost
/// of a direct sweep.
fn traced(
    opts: &Options,
    input: &Input,
    ledger: &mut Ledger,
    setup: [f64; 3],
    probe: f64,
    scratch: &Path,
) -> Result<(Metrics, Vec<String>), String> {
    let k = input.instances.len();
    let spans = SpanLog::default();
    let query_ns = trace::query_ns_per_call(input.topo());
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < opts.seconds {
        samples.push(trace_instance(input, ledger, i, &spans, query_ns));
        i += 1;
    }
    let col = |f: &dyn Fn(&LayerSample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let avg = |f: &dyn Fn(&LayerSample) -> f64| mean(&col(f));
    let med = |f: &dyn Fn(&LayerSample) -> f64| median(&col(f));
    let sum = |f: &dyn Fn(&Costs) -> u64| samples.iter().map(|s| f(&s.costs) as f64).sum::<f64>();
    let cost = |f: &dyn Fn(&Costs) -> u64| avg(&|s| f(&s.costs) as f64);
    // The transport and middleware metrics count the hardened run alone.
    let hsum = |f: &dyn Fn(&Costs) -> u64| {
        samples.iter().map(|s| f(&s.hardened_costs) as f64).sum::<f64>()
    };
    let hcost = |f: &dyn Fn(&Costs) -> u64| avg(&|s| f(&s.hardened_costs) as f64);
    let hframes = hsum(&|c| c.frames);
    let driver = |key: &str| {
        let xs: Vec<f64> = samples
            .iter()
            .flat_map(|s| s.driver_ms.iter().filter(|d| d.0 == key).map(|d| d.1))
            .collect();
        median(&xs)
    };
    let frames = sum(&|c| c.frames);
    let metrics = vec![
        ("topology.build_ms", "ms", setup[1] * 1e3),
        ("topology.materialize_ms", "ms", setup[2] * 1e3),
        ("topology.port_calls", "count", avg(&|s| s.port_calls)),
        ("topology.endpoint_calls", "count", avg(&|s| s.endpoint_calls)),
        ("topology.query_ms", "ms", med(&|s| s.query_ms)),
        ("engine.new_ms", "ms", med(&|s| s.new_ms)),
        ("engine.main_ms", "ms", med(&|s| s.engine_ms)),
        ("engine.msgs_per_round", "messages", ratio(frames, sum(&|c| c.rounds))),
        ("engine.runs", "count", cost(&|c| c.engine_runs)),
        ("engine.allocs", "count", avg(&|s| s.allocs)),
        (
            "engine.allocs_per_msg",
            "ratio",
            ratio(avg(&|s| s.allocs) * samples.len() as f64, frames),
        ),
        ("transport.frames", "count", hcost(&|c| c.frames)),
        ("transport.heartbeats", "count", hcost(&|c| c.heartbeats)),
        ("transport.retransmissions", "count", hcost(&|c| c.retransmissions)),
        ("transport.bits_per_frame", "bits", ratio(hsum(&|c| c.bits), hframes)),
        ("transport.ms", "ms", med(&|s| s.transport_ms)),
        ("transport.payload_share", "ratio", ratio(hsum(&|c| c.payload), hframes)),
        ("transport.rejected", "count", hcost(&|c| c.rejected)),
        ("transport.quarantined", "count", hcost(&|c| c.quarantined)),
        ("transport.suspected", "count", hcost(&|c| c.suspected)),
        ("faults.extra_rounds", "rounds", avg(&|s| s.extra_rounds)),
        ("certify.rounds", "rounds", hcost(&|c| c.certify_rounds)),
        ("certify.flagged", "count", hcost(&|c| c.flagged)),
        ("certify.ms", "ms", med(&|s| s.certify_ms)),
        ("repair.rounds", "rounds", hcost(&|c| c.repair_rounds)),
        ("repair.bits", "bits", hcost(&|c| c.repair_bits)),
        ("repair.touched", "count", hcost(&|c| c.repair_touched)),
        ("repair.ms", "ms", med(&|s| s.repair_ms)),
        ("maintain.rounds", "rounds", hcost(&|c| c.maintain_rounds)),
        ("maintain.added", "count", avg(&|s| s.maintain_added)),
        ("maintain.ms", "ms", med(&|s| s.maintain_ms)),
        ("checkpoint.writes", "count", avg(&|s| s.ckpt_writes)),
        ("checkpoint.bytes", "bytes", avg(&|s| s.ckpt_bytes)),
        ("checkpoint.ms", "ms", med(&|s| s.ckpt_ms)),
        ("driver.iterations", "count", cost(&|c| c.iterations)),
        ("driver.ms.ii", "ms", driver("driver.ms.ii")),
        ("driver.ms.bipartite", "ms", driver("driver.ms.bipartite")),
        ("driver.ms.luby", "ms", driver("driver.ms.luby")),
        ("driver.ms.weighted", "ms", driver("driver.ms.weighted")),
        ("host.probe_ms", "ms", probe),
        ("host.threads", "count", host_threads()),
        ("engine.threads", "count", 1.0),
        ("trace.overhead", "ratio", ratio(med(&|s| s.traced_s), med(&|s| s.plain_s))),
    ];
    let file = scratch.parent().unwrap_or(scratch).join(format!(
        "spans-{}-seed{}.tsv",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&file, spans.render()).map_err(|e| format!("{}: {e}", file.display()))?;
    let notes = vec![
        format!(
            "{}: {} traced instances ({} distinct, n = {})",
            opts.workload.name(),
            samples.len(),
            k,
            input.nodes()
        ),
        format!("spans written to {}", file.display()),
    ];
    Ok((metrics, notes))
}
