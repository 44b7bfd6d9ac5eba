//! Footnote 2, live: the same protocol on a synchronous network, an
//! asynchronous network, and an asynchronous network with adversarially
//! skewed links — same matching every time.
//!
//! ```text
//! cargo run --release --example asynchrony
//! ```

use dam::congest::{Backend, DelayModel, Network, RunSpec, SimConfig};
use dam::core::israeli_itai::IiNode;
use dam::graph::{generators, NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(12);
    let g = generators::gnp(100, 0.06, &mut rng);
    let seed = 4;
    let make = |v: NodeId, graph: &dyn Topology| IiNode::new(graph.degree(v));

    println!("Israeli-Itai on G(100, 0.06), seed {seed}\n");

    // Synchronous reference.
    let sync = Network::new(&g, SimConfig::local().seed(seed)).run(make)?;
    let matched = sync.outputs.iter().flatten().count() / 2;
    println!(
        "synchronous        : {matched} pairs, {} rounds, {} messages",
        sync.stats.rounds, sync.stats.messages
    );

    // The same protocol, unchanged, on the asynchronous backend: delayed
    // delivery behind an α-synchronizer.
    for (name, delays) in [
        ("async, unit delays", DelayModel::Unit),
        ("async, delay <= 20", DelayModel::UniformRandom { max: 20 }),
        ("async, skewed links", DelayModel::LinkSkew { spread: 13 }),
    ] {
        let cfg = SimConfig::local().seed(seed).backend(Backend::Async).delay(delays);
        let mut net = Network::new(&g, cfg);
        let out = net.execute(make, &RunSpec::default())?;
        assert_eq!(out.outputs, sync.outputs, "footnote 2 must hold");
        assert_eq!(out.stats.messages, sync.stats.messages, "the protocol's traffic is unchanged");
        let makespan = net.async_info().expect("async run records its timing").makespan;
        println!(
            "{name:<19}: identical matching; {} payload + {} marker msgs, makespan {makespan}",
            out.stats.messages, out.stats.markers
        );
    }

    println!("\nevery asynchronous run produced the *identical* matching —");
    println!("the paper's \"synchrony without loss of generality\" (footnote 2),");
    println!("paid for with the synchronizer's marker messages.");
    Ok(())
}
