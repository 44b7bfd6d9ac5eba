//! Writes the committed perf baselines `results/BENCH_<id>.json`:
//!
//! * `e12` — the E12 gossip workload on the sequential and the sharded
//!   parallel engine ([`Baseline`]);
//! * `e18` — the same workload on the asynchronous backend, with its
//!   exact synchronizer-marker count ([`AsyncBaseline`]);
//! * `e19` — the same workload behind the resilient transport, static
//!   floor against the adaptive controller ([`AdaptiveBaseline`]);
//! * `e22` — Israeli–Itai on implicit topologies at n = 10⁵ and 10⁶,
//!   with peak RSS, a thread sweep and the twin check
//!   ([`ScaleBaseline`]).
//!
//! ```text
//! cargo run --release -p dam-bench --bin bench -- e12 e18 e19 e22
//! CI_SMOKE=1 cargo run --release -p dam-bench --bin bench -- e22
//! ```
//!
//! Each file is also printed to stdout. With `CI_SMOKE=1`, `e22`
//! measures at n = 10⁵ only and fails if peak RSS exceeds the budget
//! (CI's `scale-smoke` job). Exit status: 0 when every named file was
//! written; 1 when a check failed (the file is then not written) or a
//! file could not be written; 2 on a usage error (no id, an unknown id,
//! or any flag), found before anything is measured. Run from the
//! workspace root: the output path is relative.

use std::ffi::OsString;
use std::fs;
use std::process::ExitCode;

use dam_bench::baseline::{AdaptiveBaseline, AsyncBaseline, Baseline};
use dam_bench::scale::ScaleBaseline;

/// Measures one baseline and returns its JSON text, or the check it
/// failed.
type Collect = fn() -> Result<String, String>;

const BASELINES: [(&str, Collect); 4] = [
    ("e12", || {
        let b = Baseline::collect();
        eprintln!("speedup {:.2}x on {} host threads", b.speedup(), b.host_threads);
        Ok(b.to_json())
    }),
    ("e18", || {
        let b = AsyncBaseline::collect();
        eprintln!("async backend overhead {:.2}x", b.overhead());
        Ok(b.to_json())
    }),
    ("e19", || {
        let b = AdaptiveBaseline::collect();
        eprintln!("adaptive controller overhead {:.2}x", b.overhead());
        Ok(b.to_json())
    }),
    ("e22", e22),
];

const USAGE: &str = "usage: bench ID... where ID is e12, e18, e19 or e22 \
                     (CI_SMOKE=1 limits e22 to n = 1e5 under its RSS budget)";

fn main() -> ExitCode {
    let named: Result<Vec<(&str, Collect)>, OsString> = std::env::args_os()
        .skip(1)
        .map(|arg| BASELINES.into_iter().find(|(id, _)| arg == *id).ok_or(arg))
        .collect();
    let named = match named {
        Ok(named) if !named.is_empty() => named,
        Ok(_) => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Err(bad) => {
            eprintln!("unknown argument {bad:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (id, collect) in named {
        eprintln!("measuring {id}...");
        let path = format!("results/BENCH_{id}.json");
        let written = collect().and_then(|json| {
            print!("{json}");
            fs::create_dir_all("results")
                .and_then(|()| fs::write(&path, json))
                .map_err(|e| format!("cannot write {path}: {e}"))
        });
        if let Err(e) = written {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn e22() -> Result<String, String> {
    let ci_smoke = std::env::var_os("CI_SMOKE").is_some();
    let b = ScaleBaseline::collect(ci_smoke);
    if !b.twins_identical {
        return Err("implicit topologies diverged from their materialized twins".to_string());
    }
    if ci_smoke && b.peak_rss_kb > b.rss_budget_kb {
        return Err(format!(
            "peak RSS {} kB exceeds the smoke budget of {} kB",
            b.peak_rss_kb, b.rss_budget_kb
        ));
    }
    Ok(b.to_json())
}
