//! Experiment runner: reproduces every claim of the paper (E1–E21; E22
//! is the `bench` binary's scale baseline).
//!
//! ```text
//! experiments all            # run everything
//! experiments e1 e4          # run a subset
//! experiments all --quick    # small instances (smoke run)
//! experiments --list         # show the registry
//! ```

use dam_bench::experiments::{registry, run, ExpContext};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let list = args.iter().any(|a| a == "--list");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if list || ids.is_empty() {
        println!("available experiments:");
        for (id, desc, _) in registry() {
            println!("  {id:<5} {desc}");
        }
        if ids.is_empty() {
            println!("\nusage: experiments <ids...|all> [--quick]");
            std::process::exit(2);
        }
        return;
    }

    let ctx = ExpContext::new(quick);
    let t0 = std::time::Instant::now();
    let mut ran = 0;
    if ids.iter().any(|s| s.as_str() == "all") {
        for (id, _, _) in registry() {
            assert!(run(id, &ctx), "registry id must run");
            ran += 1;
        }
    } else {
        for id in ids {
            if run(id, &ctx) {
                ran += 1;
            } else {
                eprintln!("unknown experiment: {id}");
                std::process::exit(2);
            }
        }
    }
    println!("\nran {ran} experiment(s) in {:.1}s", t0.elapsed().as_secs_f64());
}
