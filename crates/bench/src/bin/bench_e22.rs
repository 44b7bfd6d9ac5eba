//! Emits `results/BENCH_e22.json`: the committed million-node
//! scale-out baseline (experiment E22) — Israeli–Itai through the
//! unified runtime on implicit topologies (`ring`, `torus`, `reg` at
//! n = 10⁵ and 10⁶, `gnp` at n = 10⁵) with peak RSS and round throughput per record, a
//! sharded-backend thread sweep, and the implicit-vs-CSR twin
//! bit-identity check.
//!
//! ```text
//! cargo run --release -p dam-bench --bin bench-e22 [-- --repeats R]
//! CI_SMOKE=1 cargo run --release -p dam-bench --bin bench-e22
//! ```
//!
//! With `CI_SMOKE=1` the sweep is restricted to n = 10⁵ and the run
//! fails (exit 1) if peak RSS exceeds the committed budget
//! ([`dam_bench::scale::RSS_BUDGET_KB`]) — CI's `scale-smoke` job.
//! Run from the workspace root (the output path is relative).

use std::fs;
use std::process::ExitCode;

use dam_bench::scale::ScaleBaseline;

fn main() -> ExitCode {
    let mut repeats = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--repeats" => {
                repeats = args
                    .next()
                    .and_then(|v| v.parse::<usize>().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| panic!("--repeats needs a positive integer"));
            }
            other => {
                eprintln!("unknown argument {other:?}; usage: bench-e22 [--repeats R]");
                return ExitCode::from(2);
            }
        }
    }

    let ci_smoke = std::env::var_os("CI_SMOKE").is_some();
    eprintln!(
        "measuring E22 scale baseline ({}, best of {repeats})...",
        if ci_smoke { "smoke: n = 1e5 only" } else { "full: n = 1e5 and 1e6" },
    );
    let b = ScaleBaseline::collect(ci_smoke, repeats);
    for r in &b.records {
        println!(
            "{:<16} n={:<8} m={:<8} rounds={:<3} {:>9.1} ms  {:>7.1} rounds/s  peak {:>7} kB",
            r.spec,
            r.n,
            r.m,
            r.rounds,
            r.wall_ms,
            r.rounds_per_sec(),
            r.peak_rss_kb,
        );
    }
    for r in &b.sweep {
        println!(
            "sweep {} threads={} {:>9.1} ms  {:>7.1} rounds/s",
            r.spec,
            r.threads,
            r.wall_ms,
            r.rounds_per_sec(),
        );
    }
    println!(
        "twins ({}) identical: {} | process peak RSS {} kB (budget {} kB)",
        b.twin_specs, b.twins_identical, b.peak_rss_kb, b.rss_budget_kb,
    );
    if !b.twins_identical {
        eprintln!("implicit topologies diverged from their materialized twins");
        return ExitCode::FAILURE;
    }
    if ci_smoke && b.peak_rss_kb > b.rss_budget_kb {
        eprintln!(
            "peak RSS {} kB exceeds the smoke budget of {} kB",
            b.peak_rss_kb, b.rss_budget_kb
        );
        return ExitCode::FAILURE;
    }
    if let Err(e) = fs::create_dir_all("results") {
        eprintln!("cannot create results/: {e}");
        return ExitCode::FAILURE;
    }
    match fs::write("results/BENCH_e22.json", b.to_json()) {
        Ok(()) => {
            eprintln!("wrote results/BENCH_e22.json");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write results/BENCH_e22.json: {e}");
            ExitCode::FAILURE
        }
    }
}
