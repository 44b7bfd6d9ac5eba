//! Tracing a distributed execution round by round.
//!
//! ```text
//! cargo run --release --example trace_debugging
//! ```
//!
//! Runs Israeli–Itai on a small ring with full tracing and prints the
//! per-round message/halt activity plus a per-node timeline — useful
//! when developing new protocols against the simulator.

use dam::congest::{Network, RunSpec, SimConfig, TraceEvent};
use dam::core::israeli_itai::IiNode;
use dam::graph::generators;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::cycle(10);
    let mut net = Network::new(&g, SimConfig::congest_for(g.node_count(), 4).seed(11));
    let mut out = net.execute(
        |v, graph| IiNode::new(graph.degree(v)),
        &RunSpec { trace: true, ..RunSpec::default() },
    )?;
    let trace = out.trace.take().unwrap();

    println!("Israeli-Itai on C_10, seed 11");
    println!("{}", out.stats);
    println!("\nper-round activity:\n{}", trace.summary());

    println!("per-node story:");
    for v in g.nodes() {
        let sends = trace.sends_of(v).count();
        let halted = trace.halt_round(v).map_or("never".to_string(), |r| format!("round {r}"));
        let mate =
            out.outputs[v].map_or("-".to_string(), |e| format!("{}", g.other_endpoint(e, v)));
        println!("  node {v}: {sends:>2} sends, halted {halted:>8}, mate {mate}");
    }

    // A few raw events, as the debugger would see them.
    println!("\nfirst 8 events:");
    for e in trace.events().iter().take(8) {
        match e {
            TraceEvent::Send { round, from, to, bits, .. } => {
                println!("  [r{round}] {from} -> {to} ({bits} bits)");
            }
            TraceEvent::Halt { round, node } => println!("  [r{round}] {node} halts"),
            TraceEvent::Fault { round, kind, node, .. } => {
                println!("  [r{round}] fault {kind:?} at {node}");
            }
            TraceEvent::Churn { round, kind } => {
                println!("  [r{round}] churn {kind:?}");
            }
        }
    }
    Ok(())
}
