//! Schedulers that run the paper's distributed algorithms on each cell's
//! request graph.
//!
//! This is the experiment the paper's introduction gestures at: replace
//! PIM/iSLIP's maximal matching (a `½`-MCM) with the `(1−1/k)`-MCM of
//! Theorem 3.10 and watch the matchings — and hence throughput under
//! stress — grow. The adapter also records how many CONGEST rounds each
//! cell's schedule cost, making the "quality vs. scheduling latency"
//! trade-off measurable (experiment E8).

use dam_congest::SimConfig;
use dam_core::israeli_itai::israeli_itai;
use dam_core::weighted::local_max::local_max_mwm;
use dam_core::{run_mm, Bipartite, RuntimeConfig};
use dam_graph::{Graph, Side};
use rand::rngs::StdRng;
use rand::RngExt;

use super::Scheduler;

/// Which distributed algorithm computes the per-cell matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistAlgo {
    /// Israeli–Itai maximal matching (`½`-MCM) — the PIM ancestor.
    IsraeliItai,
    /// The paper's bipartite `(1−1/k)`-MCM (Theorem 3.10).
    BipartiteMcm {
        /// Approximation parameter.
        k: usize,
    },
    /// Distributed locally-heaviest-edge matching over queue-length
    /// weights — the message-passing approximation of the MaxWeight/LQF
    /// oracle (`½`-MWM per cell).
    LocalMaxWeight,
}

/// A scheduler backed by a `dam-core` distributed algorithm.
#[derive(Debug)]
pub struct Distributed {
    algo: DistAlgo,
    /// Total CONGEST rounds spent across all cells (the scheduling
    /// latency the fabric would pay).
    pub rounds_total: u64,
    /// Cells scheduled.
    pub cells: u64,
}

impl Distributed {
    /// A scheduler running `algo` each cell time.
    #[must_use]
    pub fn new(algo: DistAlgo) -> Distributed {
        Distributed { algo, rounds_total: 0, cells: 0 }
    }

    /// Mean CONGEST rounds per scheduled cell.
    #[must_use]
    pub fn mean_rounds(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.rounds_total as f64 / self.cells as f64
        }
    }
}

fn request_graph(occupancy: &[Vec<usize>], weighted: bool) -> Graph {
    let n = occupancy.len();
    let mut b = Graph::builder(2 * n);
    for (i, row) in occupancy.iter().enumerate() {
        for (j, &q) in row.iter().enumerate() {
            if q > 0 {
                if weighted {
                    b.weighted_edge(i, n + j, q as f64);
                } else {
                    b.edge(i, n + j);
                }
            }
        }
    }
    b.bipartition((0..2 * n).map(|v| if v < n { Side::X } else { Side::Y }).collect());
    b.build().expect("request graph is valid")
}

impl Scheduler for Distributed {
    fn name(&self) -> &'static str {
        match self.algo {
            DistAlgo::IsraeliItai => "II",
            DistAlgo::BipartiteMcm { .. } => "LPP-MCM",
            DistAlgo::LocalMaxWeight => "LocalMaxW",
        }
    }

    fn schedule(&mut self, occupancy: &[Vec<usize>], rng: &mut StdRng) -> Vec<Option<usize>> {
        let n = occupancy.len();
        let g = request_graph(occupancy, matches!(self.algo, DistAlgo::LocalMaxWeight));
        let seed: u64 = rng.random();
        let (matching, stats) = match self.algo {
            DistAlgo::IsraeliItai => israeli_itai(&g, seed).map(|r| (r.matching, r.stats)),
            DistAlgo::BipartiteMcm { k } => {
                // CONGEST(4 log n), like the Israeli–Itai baseline.
                let sim = SimConfig::congest_for(g.node_count(), 4).seed(seed);
                let algo = Bipartite { k, ..Bipartite::default() };
                run_mm(&algo, &g, &RuntimeConfig::new().sim(sim)).map(|r| (r.matching, r.totals))
            }
            DistAlgo::LocalMaxWeight => local_max_mwm(&g, seed).map(|r| (r.matching, r.stats)),
        }
        .expect("distributed scheduling failed");
        self.rounds_total += stats.stats.rounds;
        self.cells += 1;
        super::oracle::matching_to_schedule(&g, &matching, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{is_valid_schedule, schedule_size};
    use rand::SeedableRng;

    fn random_occ(n: usize, p: f64, rng: &mut StdRng) -> Vec<Vec<usize>> {
        (0..n).map(|_| (0..n).map(|_| usize::from(rng.random_bool(p)) * 3).collect()).collect()
    }

    #[test]
    fn ii_schedules_are_valid_and_maximal() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut s = Distributed::new(DistAlgo::IsraeliItai);
        for _ in 0..10 {
            let occ = random_occ(6, 0.4, &mut rng);
            let sched = s.schedule(&occ, &mut rng);
            assert!(is_valid_schedule(&occ, &sched));
        }
        assert!(s.mean_rounds() > 0.0);
    }

    #[test]
    fn local_max_weight_prefers_long_queues() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = Distributed::new(DistAlgo::LocalMaxWeight);
        // Input 0 has a huge queue to output 0; others small.
        let occ = vec![vec![50, 1], vec![1, 0]];
        let mut serves_heavy = 0;
        for _ in 0..10 {
            let sched = s.schedule(&occ, &mut rng);
            assert!(is_valid_schedule(&occ, &sched));
            if sched[0] == Some(0) {
                serves_heavy += 1;
            }
        }
        assert!(serves_heavy >= 9, "LQF-style scheduler must serve the long queue");
    }

    #[test]
    fn mcm_beats_or_ties_ii_on_average() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut ii = Distributed::new(DistAlgo::IsraeliItai);
        let mut mcm = Distributed::new(DistAlgo::BipartiteMcm { k: 3 });
        let mut ii_total = 0usize;
        let mut mcm_total = 0usize;
        for _ in 0..15 {
            let occ = random_occ(8, 0.25, &mut rng);
            ii_total += schedule_size(&ii.schedule(&occ, &mut rng));
            mcm_total += schedule_size(&mcm.schedule(&occ, &mut rng));
        }
        assert!(mcm_total >= ii_total, "MCM {mcm_total} vs II {ii_total}");
        // The better matching costs more rounds.
        assert!(mcm.mean_rounds() > ii.mean_rounds());
    }
}
