//! E15: the self-healing runtime — matching quality under message loss
//! and node crashes. This is the robustness extension (not a claim of
//! the paper): Israeli–Itai over the resilient transport, followed by
//! register sanitation and matching repair on the residual graph.

use dam_congest::{FaultPlan, SimConfig, TransportCfg};
use dam_core::israeli_itai::israeli_itai;
use dam_core::repair::is_maximal_on_residual;
use dam_core::runtime::{run_mm, IsraeliItai, RuntimeConfig};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f2, Table};

/// Picks `k` distinct nodes to crash, each at an engine round in
/// `1..=burst` (early enough that the loss is not already locked in).
fn crash_plan(n: usize, k: usize, burst: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut hit = vec![false; n];
    let mut crashes = Vec::with_capacity(k);
    while crashes.len() < k {
        let v = rng.random_range(0..n);
        if !hit[v] {
            hit[v] = true;
            crashes.push((v, 1 + rng.random_range(0..burst)));
        }
    }
    crashes
}

/// E15 — self-healing maximal matching on `G(n, 8/n)`: fault-free
/// Israeli–Itai vs the resilient-transport + repair pipeline under
/// increasingly hostile fault plans. The acceptance bar (5% loss plus
/// 5% crashed nodes keeps ≥ 0.9 of the fault-free matching) is asserted
/// as part of the experiment.
pub fn e15(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(512, 64);
    let seeds = ctx.size(3, 2) as u64;
    let crashed = (n as f64 * 0.05).round() as usize;

    let mut t = Table::new(
        "self-healing under loss and crashes",
        &[
            "fault plan",
            "dead",
            "surviving",
            "dissolved",
            "added",
            "|M|",
            "ratio vs fault-free",
            "rounds",
            "retransmit",
            "heartbeat",
        ],
    );

    // Fault-free baseline (plain engine, no transport): per-seed sizes.
    let mut base_size = Vec::new();
    let mut base_rounds = Vec::new();
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(5150 + seed);
        let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
        let report = israeli_itai(&g, seed).expect("fault-free run");
        base_size.push(report.matching.size() as f64);
        base_rounds.push(report.stats.stats.rounds as f64);
    }
    t.row(vec![
        "fault-free (plain engine)".to_string(),
        f2(0.0),
        f2(mean(&base_size)),
        f2(0.0),
        f2(0.0),
        f2(mean(&base_size)),
        f2(1.0),
        f2(mean(&base_rounds)),
        f2(0.0),
        f2(0.0),
    ]);

    for (name, loss, dup, reorder, with_crashes) in [
        ("loss 5%", 0.05, 0.0, 0.0, false),
        ("loss 5% + 5% crashes", 0.05, 0.0, 0.0, true),
        ("loss 15% + dup 5% + reorder 25% + crashes", 0.15, 0.05, 0.25, true),
    ] {
        let mut dead = Vec::new();
        let mut surviving = Vec::new();
        let mut dissolved = Vec::new();
        let mut added = Vec::new();
        let mut size = Vec::new();
        let mut ratio = Vec::new();
        let mut rounds = Vec::new();
        let mut retx = Vec::new();
        let mut hb = Vec::new();
        for seed in 0..seeds {
            let mut rng = StdRng::seed_from_u64(5150 + seed);
            let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
            let crashes =
                if with_crashes { crash_plan(n, crashed, 24, &mut rng) } else { Vec::new() };
            let plan = FaultPlan { crashes, loss, dup, reorder, ..FaultPlan::default() };
            // The unified runtime with the repair layer on, under the
            // plan's link-level faults (the self-healing composition).
            let cfg = RuntimeConfig::new()
                .sim(SimConfig::local().seed(seed))
                .transport(TransportCfg::default())
                .faults(plan.clone())
                .repair(true);
            let rep = run_mm(&IsraeliItai, &g, &cfg).expect("self-healing run");
            let repair = rep.repair.as_ref().expect("repair layer ran");

            let mut alive = vec![true; n];
            for &v in &rep.excluded {
                alive[v] = false;
            }
            assert!(
                is_maximal_on_residual(&g, &rep.matching, &alive),
                "repair must restore maximality on the residual graph ({name}, seed {seed})"
            );

            dead.push(rep.excluded.len() as f64);
            surviving.push(rep.surviving as f64);
            dissolved.push(rep.dissolved as f64);
            added.push(rep.added as f64);
            size.push(rep.matching.size() as f64);
            ratio.push(rep.matching.size() as f64 / base_size[seed as usize]);
            rounds.push((rep.phase1.rounds + repair.rounds) as f64);
            retx.push((rep.phase1.retransmissions + repair.retransmissions) as f64);
            hb.push((rep.phase1.heartbeats + repair.heartbeats) as f64);
        }
        if name == "loss 5% + 5% crashes" {
            assert!(
                mean(&ratio) >= 0.9,
                "acceptance bar: 5% loss + 5% crashes must keep >=0.9 of the \
                 fault-free matching (got {:.3})",
                mean(&ratio)
            );
        }
        t.row(vec![
            name.to_string(),
            f2(mean(&dead)),
            f2(mean(&surviving)),
            f2(mean(&dissolved)),
            f2(mean(&added)),
            f2(mean(&size)),
            f2(mean(&ratio)),
            f2(mean(&rounds)),
            f2(mean(&retx)),
            f2(mean(&hb)),
        ]);
    }
    vec![t]
}
