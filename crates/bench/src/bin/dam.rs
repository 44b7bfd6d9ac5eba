//! `dam-cli` — command-line front end for the matching library.
//!
//! ```text
//! dam-cli match <graph.txt> [algo] [--k K] [--eps E] [--seed S] [--parallel T] [--json]
//! dam-cli run <graph.txt> [runtime flags] [--json]   # unified runtime pipeline
//! dam-cli certify <graph.txt> [--seed S] [--corrupt P] [--loss P] \
//!                 [--liars a,b] [--equivocators a,b] [--json]
//! dam-cli gen <family> <params...> [--seed S]   # print a graph in dam text format
//! dam-cli info <graph.txt>                      # structural summary
//! dam-cli dot <graph.txt> [algo]                # Graphviz with matching
//! ```
//!
//! `run` drives the unified protocol runtime
//! ([`dam_core::runtime::run_mm`]): one flag per [`RuntimeConfig`] knob
//! (fault plan, churn schedule, transport, certify/repair/maintain
//! middleware toggles, threads). `certify` is the legacy spelling of
//! `run --certify --repair`.
//!
//! Every subcommand obeys the same exit-code contract:
//!
//! | code | meaning |
//! |---|---|
//! | 0 | success (including a clean checkpoint restore) |
//! | 1 | runtime error (bad input, simulator failure, unrecoverable restore) |
//! | 2 | usage error (bad flags/arguments; usage printed to stderr) |
//! | 3 | corruption detected-and-repaired, or a degraded checkpoint restore |
//!
//! `--parallel T` runs the simulator rounds on `T` worker threads;
//! results are bit-identical to the sequential engine, so the flag
//! affects wall-clock only.
//!
//! Algorithms: `ii` (Israeli–Itai), `bipartite` (Theorem 3.10),
//! `general` (Theorem 3.15), `weighted` (Theorem 4.5), `hv`
//! (§4 Remark), `tree` (exact on forests), `local-max` (δ-MWM box),
//! plus the exact oracles `hk`, `blossom`, `mwm`.

use std::process::ExitCode;
use std::sync::Arc;

use dam_congest::{
    AdaptivePolicy, Backend, ChurnEvent, ChurnKind, ChurnPlan, DelayModel, FaultPlan,
    RecordingSink, SimConfig, SinkHandle, TransportCfg,
};
use dam_core::auction::{auction_mwm, AuctionConfig};
use dam_core::checkpoint::CheckpointCfg;
use dam_core::general::{general_mcm, GeneralMcmConfig};
use dam_core::hv::{hv_mwm, HvMwmConfig};
use dam_core::runtime::{run_configured, run_mm, AlgoSpec, Algorithm, RunReport, RuntimeConfig};
use dam_core::trees::tree_mcm;
use dam_core::weighted::local_max::local_max_mwm;
use dam_core::{AlgorithmReport, Bipartite, IsraeliItai, Weighted};
use dam_graph::{
    analysis, blossom, generators, hopcroft_karp, io, mwm, Graph, ImplicitTopology, Matching,
    Topology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A classified command failure, mapped onto the exit-code contract:
/// `Usage` prints the usage text and exits 2, `Run` exits 1.
enum CliError {
    Usage(String),
    Run(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Run(msg)
    }
}

fn usage_err<T>(msg: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(msg.into()))
}

struct Args {
    positional: Vec<String>,
    graph_spec: Option<String>,
    k: usize,
    eps: f64,
    seed: u64,
    max_rounds: usize,
    parallel: usize,
    algo: AlgoSpec,
    backend: Backend,
    delay: DelayModel,
    patience: Option<u64>,
    corrupt: f64,
    loss: f64,
    dup: f64,
    reorder: f64,
    crashes: Vec<(usize, usize)>,
    recoveries: Vec<(usize, usize)>,
    liars: Vec<usize>,
    equivocators: Vec<usize>,
    churn: Vec<ChurnEvent>,
    absent_nodes: Vec<usize>,
    absent_edges: Vec<usize>,
    no_transport: bool,
    adaptive: bool,
    stats_out: Option<String>,
    certify: bool,
    repair: bool,
    maintain: bool,
    isolated_repair: bool,
    checkpoint_out: Option<String>,
    checkpoint_every: u64,
    restore: Option<String>,
    json: bool,
}

fn parse_nodes(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().map_err(|_| format!("bad node '{t}'")))
        .collect()
}

/// Parses a `node@round` list, e.g. `--crash 3@5,17@9`.
fn parse_at_list(s: &str) -> Result<Vec<(usize, usize)>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let (node, round) = t.split_once('@').ok_or(format!("bad event '{t}' (want v@r)"))?;
            let node = node.parse().map_err(|_| format!("bad node in '{t}'"))?;
            let round = round.parse().map_err(|_| format!("bad round in '{t}'"))?;
            Ok((node, round))
        })
        .collect()
}

/// Parses a churn schedule, e.g.
/// `--churn leave:4@6,edgedown:2@9,join:31@12,edgeup:2@15`.
fn parse_churn(s: &str) -> Result<Vec<ChurnEvent>, String> {
    s.split(',')
        .filter(|t| !t.is_empty())
        .map(|t| {
            let (kind, rest) =
                t.split_once(':').ok_or(format!("bad churn '{t}' (want kind:x@r)"))?;
            let (id, round) =
                rest.split_once('@').ok_or(format!("bad churn '{t}' (want kind:x@r)"))?;
            let id: usize = id.parse().map_err(|_| format!("bad id in '{t}'"))?;
            let round = round.parse().map_err(|_| format!("bad round in '{t}'"))?;
            let kind = match kind {
                "leave" => ChurnKind::Leave { node: id },
                "join" => ChurnKind::Join { node: id },
                "edgedown" => ChurnKind::EdgeDown { edge: id },
                "edgeup" => ChurnKind::EdgeUp { edge: id },
                other => {
                    return Err(format!(
                        "unknown churn kind '{other}' (leave|join|edgedown|edgeup)"
                    ))
                }
            };
            Ok(ChurnEvent { round, kind })
        })
        .collect()
}

/// Parses an engine backend name: `seq`, `sharded` or `async`.
fn parse_backend(s: &str) -> Result<Backend, String> {
    match s {
        "seq" | "sequential" => Ok(Backend::Sequential),
        "sharded" | "parallel" => Ok(Backend::Sharded),
        "async" => Ok(Backend::Async),
        other => Err(format!("unknown backend '{other}' (seq|sharded|async)")),
    }
}

/// Parses an adversarial delay model, e.g. `unit`, `uniform:7`,
/// `skew:5`, `straggler:3:9` (node:slowdown) or `burst:4:2:6`
/// (period:width:extra).
fn parse_delay(s: &str) -> Result<DelayModel, String> {
    // One parser serves the CLI and the chaos corpus, so the two spec
    // surfaces cannot drift.
    dam_bench::adversary::parse_delay(s)
}

fn parse_prob(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<f64, String> {
    let p: f64 = it
        .next()
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("bad {flag}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{flag} must be a probability in [0, 1]"));
    }
    Ok(p)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        graph_spec: None,
        k: 3,
        eps: 0.1,
        seed: 0,
        max_rounds: 500_000,
        parallel: 1,
        algo: AlgoSpec::IsraeliItai,
        backend: Backend::Sequential,
        delay: DelayModel::Unit,
        patience: None,
        corrupt: 0.0,
        loss: 0.0,
        dup: 0.0,
        reorder: 0.0,
        crashes: Vec::new(),
        recoveries: Vec::new(),
        liars: Vec::new(),
        equivocators: Vec::new(),
        churn: Vec::new(),
        absent_nodes: Vec::new(),
        absent_edges: Vec::new(),
        no_transport: false,
        adaptive: false,
        stats_out: None,
        certify: false,
        repair: false,
        maintain: false,
        isolated_repair: false,
        checkpoint_out: None,
        checkpoint_every: 0,
        restore: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--k" => {
                args.k = it.next().ok_or("--k needs a value")?.parse().map_err(|_| "bad --k")?;
            }
            "--eps" => {
                args.eps =
                    it.next().ok_or("--eps needs a value")?.parse().map_err(|_| "bad --eps")?;
            }
            "--seed" => {
                args.seed =
                    it.next().ok_or("--seed needs a value")?.parse().map_err(|_| "bad --seed")?;
            }
            "--max-rounds" => {
                args.max_rounds = it
                    .next()
                    .ok_or("--max-rounds needs a value")?
                    .parse()
                    .map_err(|_| "bad --max-rounds")?;
            }
            "--parallel" => {
                args.parallel = it
                    .next()
                    .ok_or("--parallel needs a value")?
                    .parse()
                    .map_err(|_| "bad --parallel")?;
                if args.parallel == 0 {
                    return Err("--parallel needs at least 1 thread".to_string());
                }
            }
            "--algo" => {
                args.algo = AlgoSpec::parse(&it.next().ok_or("--algo needs a value")?)?;
            }
            "--graph" => {
                let spec = it.next().ok_or("--graph needs a topology spec")?;
                // Validate eagerly so a bad spec is a usage error (exit
                // 2) before any file or simulator work starts.
                ImplicitTopology::parse(&spec)?;
                args.graph_spec = Some(spec);
            }
            "--backend" => {
                args.backend = parse_backend(&it.next().ok_or("--backend needs a value")?)?;
            }
            "--delay" => {
                args.delay = parse_delay(&it.next().ok_or("--delay needs a value")?)?;
            }
            "--patience" => {
                args.patience = Some(
                    it.next()
                        .ok_or("--patience needs a value")?
                        .parse()
                        .map_err(|_| "bad --patience")?,
                );
            }
            "--corrupt" => args.corrupt = parse_prob(&mut it, "--corrupt")?,
            "--loss" => args.loss = parse_prob(&mut it, "--loss")?,
            "--dup" => args.dup = parse_prob(&mut it, "--dup")?,
            "--reorder" => args.reorder = parse_prob(&mut it, "--reorder")?,
            "--crash" => {
                args.crashes = parse_at_list(&it.next().ok_or("--crash needs a value")?)?;
            }
            "--recover" => {
                args.recoveries = parse_at_list(&it.next().ok_or("--recover needs a value")?)?;
            }
            "--liars" => args.liars = parse_nodes(&it.next().ok_or("--liars needs a value")?)?,
            "--equivocators" => {
                args.equivocators = parse_nodes(&it.next().ok_or("--equivocators needs a value")?)?;
            }
            "--churn" => args.churn = parse_churn(&it.next().ok_or("--churn needs a value")?)?,
            "--absent" => {
                args.absent_nodes = parse_nodes(&it.next().ok_or("--absent needs a value")?)?;
            }
            "--absent-edges" => {
                args.absent_edges = parse_nodes(&it.next().ok_or("--absent-edges needs a value")?)?;
            }
            "--no-transport" => args.no_transport = true,
            "--adaptive" => args.adaptive = true,
            "--stats-out" => {
                args.stats_out = Some(it.next().ok_or("--stats-out needs a path")?);
            }
            "--certify" => args.certify = true,
            "--repair" => args.repair = true,
            "--maintain" => args.maintain = true,
            "--isolated-repair" => args.isolated_repair = true,
            "--checkpoint-out" => {
                args.checkpoint_out = Some(it.next().ok_or("--checkpoint-out needs a directory")?);
            }
            "--checkpoint-every" => {
                args.checkpoint_every = it
                    .next()
                    .ok_or("--checkpoint-every needs a round count")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every")?;
            }
            "--restore" => {
                args.restore = Some(it.next().ok_or("--restore needs a directory")?);
            }
            "--json" => args.json = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => args.positional.push(other.to_string()),
        }
    }
    Ok(args)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dam-cli match <graph.txt> [algo]  [--k K] [--eps E] [--seed S] [--parallel T] [--json]\n  \
         dam-cli run <graph.txt>|--graph SPEC [--algo A] [--seed S] [--max-rounds R] [--parallel T] [--no-transport]\n           \
         [--adaptive] [--stats-out FILE.csv|FILE.json]\n           \
         [--backend seq|sharded|async] [--delay MODEL] [--patience U]\n           \
         [--loss P] [--dup P] [--reorder P] [--corrupt P]\n           \
         [--crash v@r,..] [--recover v@r,..] [--liars a,b] [--equivocators a,b]\n           \
         [--churn kind:x@r,..] [--absent a,b] [--absent-edges e,f]\n           \
         [--certify] [--repair] [--maintain] [--isolated-repair]\n           \
         [--checkpoint-out DIR] [--checkpoint-every N] [--restore DIR] [--json]\n  \
         dam-cli certify <graph.txt> [--seed S] [--corrupt P] [--loss P] [--liars a,b] [--equivocators a,b] [--json]\n  \
         dam-cli gen <family> <n> [extra] [--seed S]\n  dam-cli info <graph.txt>\n  dam-cli dot <graph.txt> [algo]\n\n\
         exit codes: 0 ok (incl. clean restore), 1 error (incl. unrecoverable restore),\n            \
         2 usage, 3 detected-and-repaired or degraded-but-recovered restore\n\
         algos: ii bipartite general weighted hv tree auction local-max hk blossom mwm\n\
         run algos (--algo): ii bipartite[:K] weighted luby\n\
         families: gnp bipartite regular tree cycle path complete trap\n\
         --graph specs (implicit, no adjacency arrays): ring:N torus:WxH reg:N:D gnp:N:P:SEED\n\
         churn kinds: leave join edgedown edgeup\n\
         delay models: unit uniform:M skew:S straggler:V:D recovers:V:D:U burst:P:W:E"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    io::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

/// The matching as a hand-rolled JSON fragment (the workspace has no
/// serde): `"size":..,"weight":..,"edges":[[u,v],..]`. `{:?}` keeps
/// floats JSON-valid (always a digit after the point, no locale).
fn json_matching(g: &dyn Topology, m: &Matching) -> String {
    let edges: Vec<String> = m
        .edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            format!("[{u},{v}]")
        })
        .collect();
    format!(r#""size":{},"weight":{:?},"edges":[{}]"#, m.size(), m.weight(g), edges.join(","))
}

fn emit_report(name: &str, g: &Graph, report: &AlgorithmReport, json: bool) {
    if json {
        let s = &report.stats.stats;
        println!(
            r#"{{"algorithm":"{name}",{},"rounds":{},"charged_rounds":{},"messages":{},"max_message_bits":{},"retransmissions":{},"heartbeats":{}}}"#,
            json_matching(g, &report.matching),
            s.rounds,
            s.charged_rounds,
            s.messages,
            s.max_message_bits,
            s.retransmissions,
            s.heartbeats,
        );
    } else {
        print_report(name, g, report);
    }
}

fn emit_matching(name: &str, g: &Graph, m: &Matching, json: bool) {
    if json {
        println!(r#"{{"algorithm":"{name}",{}}}"#, json_matching(g, m));
    } else {
        print_matching(name, g, m);
    }
}

fn print_report(name: &str, g: &Graph, report: &AlgorithmReport) {
    print_matching(name, g, &report.matching);
    println!(
        "cost      : {} rounds ({} charged), {} messages, widest {} bits",
        report.stats.stats.rounds,
        report.stats.stats.charged_rounds,
        report.stats.stats.messages,
        report.stats.stats.max_message_bits
    );
}

fn print_matching(name: &str, g: &dyn Topology, m: &Matching) {
    println!("algorithm : {name}");
    println!("matching  : {} edges, weight {:.4}", m.size(), m.weight(g));
    let edges: Vec<String> = m
        .edges()
        .map(|e| {
            let (u, v) = g.endpoints(e);
            format!("{u}-{v}")
        })
        .collect();
    println!("edges     : {}", edges.join(" "));
}

/// A portfolio driver run bare through [`run_mm`] on
/// CONGEST(`words`·log n), reported like every other `match` algorithm.
fn run_bare(
    algo: &dyn Algorithm,
    g: &Graph,
    words: usize,
    args: &Args,
) -> Result<AlgorithmReport, CliError> {
    let sim = SimConfig::congest_for(g.node_count(), words)
        .seed(args.seed)
        .threads(args.parallel)
        .backend(args.backend);
    let rep = run_mm(algo, g, &RuntimeConfig::new().sim(sim)).map_err(|e| e.to_string())?;
    Ok(AlgorithmReport { matching: rep.matching, stats: rep.totals, iterations: rep.iterations })
}

fn cmd_match(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.positional.get(1) else {
        return usage_err("missing graph file");
    };
    let algo = args.positional.get(2).map_or("general", String::as_str);
    let mut g = load(path)?;
    match algo {
        "ii" => emit_report("israeli-itai", &g, &run_bare(&IsraeliItai, &g, 4, args)?, args.json),
        "bipartite" => {
            if g.bipartition().is_none() && g.compute_bipartition().is_none() {
                return Err(CliError::Run("graph is not bipartite".to_string()));
            }
            let algo = Bipartite { k: args.k, ..Bipartite::default() };
            emit_report("bipartite (1-1/k)-MCM", &g, &run_bare(&algo, &g, 4, args)?, args.json);
        }
        "general" => {
            let cfg = GeneralMcmConfig { k: args.k, seed: args.seed, ..Default::default() };
            emit_report(
                "general (1-1/k)-MCM",
                &g,
                &general_mcm(&g, &cfg).map_err(|e| e.to_string())?,
                args.json,
            );
        }
        "weighted" => {
            let algo = Weighted { eps: args.eps, ..Weighted::default() };
            emit_report("(1/2-eps)-MWM", &g, &run_bare(&algo, &g, 8, args)?, args.json);
        }
        "hv" => {
            let cfg = HvMwmConfig { eps: args.eps, seed: args.seed, ..Default::default() };
            emit_report(
                "(1-eps)-MWM (LOCAL)",
                &g,
                &hv_mwm(&g, &cfg).map_err(|e| e.to_string())?,
                args.json,
            );
        }
        "tree" => emit_report(
            "tree exact MCM",
            &g,
            &tree_mcm(&g, args.seed).map_err(|e| e.to_string())?,
            args.json,
        ),
        "auction" => {
            if g.bipartition().is_none() && g.compute_bipartition().is_none() {
                return Err(CliError::Run("graph is not bipartite".to_string()));
            }
            let cfg = AuctionConfig { eps: args.eps, seed: args.seed, ..Default::default() };
            emit_report(
                "auction MWM",
                &g,
                &auction_mwm(&g, &cfg).map_err(|e| e.to_string())?,
                args.json,
            );
        }
        "local-max" => {
            emit_report(
                "local-max 1/2-MWM",
                &g,
                &local_max_mwm(&g, args.seed).map_err(|e| e.to_string())?,
                args.json,
            );
        }
        "hk" => {
            if g.bipartition().is_none() && g.compute_bipartition().is_none() {
                return Err(CliError::Run("graph is not bipartite".to_string()));
            }
            emit_matching(
                "hopcroft-karp (exact)",
                &g,
                &hopcroft_karp::maximum_bipartite_matching(&g),
                args.json,
            );
        }
        "blossom" => {
            emit_matching("blossom (exact MCM)", &g, &blossom::maximum_matching(&g), args.json);
        }
        "mwm" => emit_matching(
            "blossom-with-duals (exact MWM)",
            &g,
            &mwm::maximum_weight_matching(&g),
            args.json,
        ),
        other => return usage_err(format!("unknown algorithm '{other}'")),
    }
    Ok(())
}

/// Builds the [`RuntimeConfig`] described by the command-line flags.
/// Every [`RuntimeConfig::KNOBS`] entry is plumbed here.
fn runtime_config(args: &Args) -> Result<RuntimeConfig, CliError> {
    let mut sim = SimConfig::local()
        .seed(args.seed)
        .max_rounds(args.max_rounds)
        .threads(args.parallel)
        .backend(args.backend)
        .delay(args.delay);
    if let Some(units) = args.patience {
        sim = sim.patience(units);
    }
    let mut cfg = RuntimeConfig::new()
        .sim(sim)
        .faults(FaultPlan {
            crashes: args.crashes.clone(),
            recoveries: args.recoveries.clone(),
            loss: args.loss,
            dup: args.dup,
            reorder: args.reorder,
            corrupt: args.corrupt,
            liars: args.liars.clone(),
            equivocators: args.equivocators.clone(),
            ..FaultPlan::default()
        })
        .churn(ChurnPlan {
            absent_nodes: args.absent_nodes.clone(),
            absent_edges: args.absent_edges.clone(),
            events: args.churn.clone(),
        })
        .certify(args.certify)
        .repair(args.repair)
        .maintain(args.maintain)
        .algo(args.algo);
    if args.adaptive {
        if args.no_transport {
            return usage_err("--adaptive needs the transport layer (drop --no-transport)");
        }
        // The controller's floor is the same default configuration the
        // static transport would run, so `--adaptive` can only raise
        // timers above what a plain `run` uses.
        cfg = cfg.adaptive(AdaptivePolicy::default());
    } else if !args.no_transport {
        cfg = cfg.transport(TransportCfg::default());
    }
    if args.isolated_repair {
        // Repair on a quiet network instead of inheriting the main
        // plan's link-level faults.
        cfg = cfg.repair_faults(FaultPlan::default());
    }
    if let Some(dir) = &args.checkpoint_out {
        cfg = cfg
            .checkpoint(CheckpointCfg::new(std::path::Path::new(dir)).every(args.checkpoint_every));
    } else if args.checkpoint_every != 0 {
        return usage_err("--checkpoint-every needs --checkpoint-out DIR");
    }
    if let Some(dir) = &args.restore {
        cfg = cfg.restore(std::path::Path::new(dir));
    }
    Ok(cfg)
}

fn emit_run_report(g: &dyn Topology, rep: &RunReport, certify: bool, json: bool) {
    let name = format!("runtime-{}", rep.algorithm);
    if json {
        let excluded: Vec<String> = rep.excluded.iter().map(usize::to_string).collect();
        let s = &rep.phase1;
        // The `restore` key appears only on restored runs, so every
        // pre-checkpoint consumer sees byte-identical output.
        let restore = rep.restore.map_or(String::new(), |r| {
            format!(
                r#","restore":"{}","restore_generation":{}"#,
                match r {
                    dam_core::checkpoint::RestoreOutcome::Clean { .. } => "clean",
                    dam_core::checkpoint::RestoreOutcome::Degraded { .. } => "degraded",
                    dam_core::checkpoint::RestoreOutcome::ColdStart => "cold-start",
                },
                match r {
                    dam_core::checkpoint::RestoreOutcome::Clean { generation }
                    | dam_core::checkpoint::RestoreOutcome::Degraded { generation } =>
                        generation.to_string(),
                    dam_core::checkpoint::RestoreOutcome::ColdStart => "null".to_string(),
                }
            )
        });
        println!(
            r#"{{"algorithm":"{name}",{},"detected":{},"certified":{},"surviving":{},"dissolved":{},"added":{},"repair_touched":{},"excluded":[{}],"rounds":{},"charged_rounds":{},"messages":{},"retransmissions":{},"heartbeats":{},"churn_events":{},"churn_drops":{}{restore}}}"#,
            json_matching(g, &rep.matching),
            rep.detected(),
            rep.certified(),
            rep.surviving,
            rep.dissolved,
            rep.added,
            rep.repair_touched,
            excluded.join(","),
            s.rounds,
            s.charged_rounds,
            s.messages,
            s.retransmissions,
            s.heartbeats,
            s.churn_events,
            s.churn_drops,
        );
    } else {
        print_matching(&name, g, &rep.matching);
        println!(
            "cost      : {} rounds ({} charged), {} messages",
            rep.phase1.rounds, rep.phase1.charged_rounds, rep.phase1.messages
        );
        if certify {
            println!(
                "verdict   : {} (certified {})",
                if rep.detected() { "corruption DETECTED" } else { "clean" },
                rep.certified(),
            );
        }
        if rep.repair.is_some() || rep.maintain.is_some() {
            println!(
                "healing   : {} surviving, {} dissolved, {} added, {} touched",
                rep.surviving, rep.dissolved, rep.added, rep.repair_touched
            );
        }
        if !rep.excluded.is_empty() {
            let ex: Vec<String> = rep.excluded.iter().map(usize::to_string).collect();
            println!("excluded  : {}", ex.join(" "));
        }
        if let Some(r) = &rep.restore {
            println!("restore   : {r}");
        }
    }
}

/// `run`: the unified runtime pipeline. Exit code `0` on a clean run
/// (including a clean checkpoint restore), `3` when the certification
/// layer detected corruption and the follow-up repair re-certified —
/// or when a restore had to degrade (older generation or cold start).
/// An unrecoverable restore (nothing to restore, foreign snapshot) is
/// an ordinary runtime error: exit `1`.
fn cmd_run(args: &Args) -> Result<ExitCode, CliError> {
    // The topology is either a materialized CSR file (positional path)
    // or an implicit family spec (`--graph ring:N|torus:WxH|reg:N:D|
    // gnp:N:P:SEED`) that never builds adjacency arrays — the latter is
    // how million-node runs fit in memory.
    let implicit;
    let mut loaded;
    let g: &dyn Topology = match (&args.graph_spec, args.positional.get(1)) {
        (Some(_), Some(_)) => {
            return usage_err("run takes either <graph.txt> or --graph SPEC, not both");
        }
        (Some(spec), None) => {
            implicit = ImplicitTopology::parse(spec).map_err(CliError::Usage)?;
            &implicit
        }
        (None, Some(path)) => {
            loaded = load(path)?;
            // Side information is lazy on CSR graphs; force it so the
            // unified `side_of` check below sees the cached partition.
            loaded.compute_bipartition();
            &loaded
        }
        (None, None) => return usage_err("missing graph file (or --graph SPEC)"),
    };
    if matches!(args.algo, AlgoSpec::Bipartite { .. })
        && (0..g.node_count()).any(|v| g.side_of(v).is_none())
    {
        return Err(CliError::Run("graph is not bipartite".to_string()));
    }
    let mut cfg = runtime_config(args)?;
    let sink = args.stats_out.as_ref().map(|_| Arc::new(RecordingSink::new()));
    if let Some(s) = &sink {
        cfg = cfg.stats_sink(SinkHandle::from(Arc::clone(s)));
    }
    let rep = run_configured(g, &cfg).map_err(|e| e.to_string())?;
    if let (Some(path), Some(s)) = (&args.stats_out, &sink) {
        let body = if path.ends_with(".json") { s.to_json() } else { s.to_csv() };
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
    }
    emit_run_report(g, &rep, cfg.certify, args.json);
    if cfg.certify && !rep.certified() {
        return Err(CliError::Run("verification failed and no repair re-certified".to_string()));
    }
    let degraded = rep.restore.is_some_and(|r| r.degraded());
    Ok(if rep.detected() || degraded { ExitCode::from(3) } else { ExitCode::SUCCESS })
}

/// `certify`: the certified matching pipeline. Returns the process exit
/// code on success (`0` nothing detected, `3` detected-and-repaired).
fn cmd_certify(args: &Args) -> Result<ExitCode, CliError> {
    let Some(path) = args.positional.get(1) else {
        return usage_err("missing graph file");
    };
    let g = load(path)?;
    let plan = FaultPlan {
        corrupt: args.corrupt,
        loss: args.loss,
        liars: args.liars.clone(),
        equivocators: args.equivocators.clone(),
        ..FaultPlan::default()
    };
    let cfg = RuntimeConfig::new()
        .sim(SimConfig::local().seed(args.seed).max_rounds(500_000))
        .transport(TransportCfg::default())
        .faults(plan)
        .certify(true)
        .repair(true);
    let rep = run_mm(&IsraeliItai, &g, &cfg).map_err(|e| e.to_string())?;
    let initial = rep.initial.as_ref().expect("the certify layer always verifies");
    // Fraction of trusted nodes the repair touched (0 when the first
    // pass certified): small values mean the damage stayed contained.
    let locality = rep.repair_touched as f64 / initial.checked.max(1) as f64;
    if args.json {
        let excluded: Vec<String> = rep.excluded.iter().map(usize::to_string).collect();
        let flagged: Vec<String> = initial.flagged.iter().map(usize::to_string).collect();
        println!(
            r#"{{"algorithm":"certified-ii",{},"detected":{},"certified":{},"detection_rounds":{},"repair_locality":{:?},"flagged":[{}],"excluded":[{}],"surviving":{},"dissolved":{},"added":{}}}"#,
            json_matching(&g, &rep.matching),
            rep.detected(),
            rep.certified(),
            initial.detection_rounds,
            locality,
            flagged.join(","),
            excluded.join(","),
            rep.surviving,
            rep.dissolved,
            rep.added,
        );
    } else {
        print_matching("certified israeli-itai", &g, &rep.matching);
        println!(
            "verdict   : {} ({} flagged, detection in {} rounds)",
            if rep.detected() { "corruption DETECTED" } else { "clean" },
            initial.flagged.len(),
            initial.detection_rounds,
        );
        println!(
            "certified : {} ({} surviving, {} dissolved, {} added, locality {:.3})",
            rep.certified(),
            rep.surviving,
            rep.dissolved,
            rep.added,
            locality,
        );
        if !rep.excluded.is_empty() {
            let ex: Vec<String> = rep.excluded.iter().map(usize::to_string).collect();
            println!("excluded  : {}", ex.join(" "));
        }
    }
    if !rep.certified() {
        // The pipeline's contract is detect -> repair -> re-certify; a
        // final uncertified matching is a bug, not an input problem.
        return Err(CliError::Run("re-verification failed after repair".to_string()));
    }
    Ok(if rep.detected() { ExitCode::from(3) } else { ExitCode::SUCCESS })
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let Some(family) = args.positional.get(1) else {
        return usage_err("missing family");
    };
    let Some(size) = args.positional.get(2) else {
        return usage_err("missing size");
    };
    let n: usize = match size.parse() {
        Ok(n) => n,
        Err(_) => return usage_err("bad size"),
    };
    let extra: f64 = match args.positional.get(3).map_or(Ok(0.1), |s| s.parse()) {
        Ok(x) => x,
        Err(_) => return usage_err("bad extra parameter"),
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let g = match family.as_str() {
        "gnp" => generators::gnp(n, extra, &mut rng),
        "bipartite" => generators::bipartite_gnp(n / 2, n - n / 2, extra, &mut rng),
        "regular" => generators::random_regular(n, extra.max(1.0) as usize, &mut rng),
        "tree" => generators::random_tree(n, &mut rng),
        "cycle" => generators::cycle(n),
        "path" => generators::path(n),
        "complete" => generators::complete(n),
        "trap" => generators::greedy_trap(n, extra.max(0.01)),
        other => return usage_err(format!("unknown family '{other}'")),
    };
    print!("{}", io::to_text(&g));
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.positional.get(1) else {
        return usage_err("missing graph file");
    };
    let g = load(path)?;
    let matching = match args.positional.get(2).map(String::as_str) {
        None => None,
        Some("blossom") | Some("mcm") => Some(blossom::maximum_matching(&g)),
        Some("mwm") => Some(mwm::maximum_weight_matching(&g)),
        Some("greedy") => Some(dam_graph::maximal::greedy_mwm(&g)),
        Some(other) => {
            return usage_err(format!("unknown dot matching '{other}' (blossom|mwm|greedy)"));
        }
    };
    print!("{}", io::to_dot(&g, matching.as_ref()));
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), CliError> {
    let Some(path) = args.positional.get(1) else {
        return usage_err("missing graph file");
    };
    let g = load(path)?;
    let stats = analysis::degree_stats(&g);
    let (_, components) = analysis::connected_components(&g);
    println!("nodes      : {}", g.node_count());
    println!("edges      : {}", g.edge_count());
    println!("weighted   : {}", g.is_weighted());
    println!("bipartite  : {}", g.bipartition().is_some());
    println!("components : {components}");
    println!(
        "degree     : min {} / mean {:.2} / max {} ({} isolated)",
        stats.min, stats.mean, stats.max, stats.isolated
    );
    if g.node_count() <= 2000 {
        println!("diameter   : {}", analysis::diameter(&g));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let cmd = args.positional.first().cloned().unwrap_or_default();
    let result = match cmd.as_str() {
        "match" => cmd_match(&args).map(|()| ExitCode::SUCCESS),
        "run" => cmd_run(&args),
        "certify" => cmd_certify(&args),
        "gen" => cmd_gen(&args).map(|()| ExitCode::SUCCESS),
        "info" => cmd_info(&args).map(|()| ExitCode::SUCCESS),
        "dot" => cmd_dot(&args).map(|()| ExitCode::SUCCESS),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            usage()
        }
        Err(CliError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
