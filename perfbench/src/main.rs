//! `dam-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a few human-readable lines, then one JSON result line. Exits
//! 0 when every output checked out, 1 when one did not or the run could
//! not be set up, and 2 on a usage error.

use std::process::ExitCode;

use dam_perfbench::workload::{Scale, Workload};
use dam_perfbench::Options;

const USAGE: &str = "usage: dam-perfbench --workload bare-torus|portfolio-hardened-gnp \
                     --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed".to_string())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds".to_string())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("bad --seconds".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Options {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::full(workload),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dam_perfbench::run(&opts) {
        Ok(out) => {
            for note in &out.notes {
                println!("{note}");
            }
            println!("{}", out.to_json());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
