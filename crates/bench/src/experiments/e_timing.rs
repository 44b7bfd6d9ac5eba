//! E18: graceful degradation off the round barrier.
//!
//! The adversarial timing models stress the one place the hardened
//! pipeline can hurt a *correct* node: a silence-based failure detector
//! whose timeouts assume lockstep delivery. The experiment runs the
//! full `run_mm` stack (resilient transport + maintenance) on the
//! asynchronous backend under increasingly hostile delay models, twice
//! per cell — once with every timeout derived from the declared delay
//! bound (`RuntimeConfig::tuned_for_async`), once with naive lockstep
//! settings — and reports the matching ratio against the synchronous
//! run together with the false-suspicion/quarantine counts. The claim
//! under test: tuned, the pipeline holds ratio ≥ 0.9 with **zero**
//! false suspicions on every schedule; naive, the detector convicts
//! slow-but-correct nodes.

use dam_congest::{Backend, DelayModel, SimConfig, TransportCfg};
use dam_core::runtime::{run_mm, IsraeliItai, RuntimeConfig};
use dam_graph::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::ExpContext;
use crate::fit::mean;
use crate::table::{f2, Table};

/// One async pipeline run; returns (matching size, suspected,
/// quarantined), or `None` if the run failed outright (a naive
/// configuration is allowed to fail; a tuned one is not and panics).
fn async_run(
    g: &dam_graph::Graph,
    seed: u64,
    delay: DelayModel,
    tuned: bool,
) -> Option<(usize, u64, u64)> {
    let sim = SimConfig::local().seed(seed);
    let base = RuntimeConfig::new().sim(sim).transport(TransportCfg::default()).maintain(true);
    let cfg = if tuned {
        base.tuned_for_async(delay)
    } else {
        // A lockstep operator's settings: default transport timeouts
        // and a patience budget sized for unit delays.
        base.sim(sim.backend(Backend::Async).delay(delay).patience(2))
    };
    let report = match run_mm(&IsraeliItai, g, &cfg) {
        Ok(r) => r,
        Err(e) => {
            assert!(!tuned, "a tuned async run must not fail: {e:?}");
            return None;
        }
    };
    let suspected = report
        .phase1
        .suspected
        .saturating_add(report.repair.as_ref().map_or(0, |s| s.suspected))
        .saturating_add(report.maintain.as_ref().map_or(0, |s| s.suspected));
    let quarantined = report
        .phase1
        .quarantined
        .saturating_add(report.repair.as_ref().map_or(0, |s| s.quarantined))
        .saturating_add(report.maintain.as_ref().map_or(0, |s| s.quarantined));
    Some((report.matching.size(), suspected, quarantined))
}

/// E18 — ratio and false-suspicion rate vs delay spread, derived vs
/// naive timeouts. Every node is live and the channel honest, so any
/// suspicion here convicts a slow-but-correct node.
pub fn e18(ctx: &ExpContext) -> Vec<Table> {
    let n = ctx.size(96, 28);
    let seeds = ctx.size(4, 2) as u64;
    let mut t = Table::new(
        "async graceful degradation vs delay spread",
        &[
            "delay model",
            "bound",
            "transport",
            "ratio",
            "suspected/run",
            "quarantined/run",
            "false-suspicion rate",
        ],
    );
    let models = [
        ("skew 2", DelayModel::LinkSkew { spread: 2 }),
        ("skew 4", DelayModel::LinkSkew { spread: 4 }),
        ("skew 8", DelayModel::LinkSkew { spread: 8 }),
        ("skew 16", DelayModel::LinkSkew { spread: 16 }),
        ("straggler 12", DelayModel::Straggler { node: 0, slow: 12 }),
        ("burst 6/2+9", DelayModel::Burst { period: 6, width: 2, extra: 9 }),
    ];
    for (name, delay) in models {
        for tuned in [true, false] {
            let mut ratios = Vec::new();
            let mut suspected = Vec::new();
            let mut quarantined = Vec::new();
            let mut convicted_runs = 0usize;
            for seed in 0..seeds {
                let mut rng = StdRng::seed_from_u64(11_800 + seed);
                let g = generators::gnp(n, 8.0 / n as f64, &mut rng);
                let reference = run_mm(
                    &IsraeliItai,
                    &g,
                    &RuntimeConfig::new()
                        .sim(SimConfig::local().seed(seed))
                        .transport(TransportCfg::default())
                        .maintain(true),
                )
                .expect("synchronous reference run")
                .matching
                .size();
                match async_run(&g, seed, delay, tuned) {
                    Some((size, susp, quar)) => {
                        ratios.push(size as f64 / reference.max(1) as f64);
                        suspected.push(susp as f64);
                        quarantined.push(quar as f64);
                        convicted_runs += usize::from(susp > 0 || quar > 0);
                    }
                    None => {
                        ratios.push(0.0);
                        convicted_runs += 1;
                    }
                }
            }
            if tuned {
                // The acceptance bar of the experiment, not just a
                // reported number: derived timeouts never convict a
                // slow-but-correct node and the matching survives.
                assert_eq!(mean(&suspected), 0.0, "{name}: tuned transport raised suspicion");
                assert_eq!(mean(&quarantined), 0.0, "{name}: tuned transport quarantined");
                assert!(
                    ratios.iter().all(|&r| r >= 0.9),
                    "{name}: tuned ratio fell below 0.9: {ratios:?}"
                );
            }
            t.row(vec![
                name.to_string(),
                delay.bound().to_string(),
                if tuned { "derived".to_string() } else { "naive".to_string() },
                f2(mean(&ratios)),
                f2(mean(&suspected)),
                f2(mean(&quarantined)),
                f2(convicted_runs as f64 / seeds as f64),
            ]);
        }
    }
    vec![t]
}
