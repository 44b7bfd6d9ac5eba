//! Perf-regression smoke against the committed `results/BENCH_e12.json`,
//! `results/BENCH_e18.json` (async-overhead) and `results/BENCH_e19.json`
//! (adaptive-controller overhead) baselines.
//!
//! The timing assertion only runs when `CI_SMOKE=1` is set (CI's
//! `bench-smoke` job): shared runners and debug builds make wall-clock
//! flaky, so plain `cargo test` checks the committed file's *shape* and
//! the workload's determinism but never its speed.
//!
//! The regression bar is deliberately loose — current parallel
//! throughput must stay within 2x of the committed parallel figure.
//! Parallel is compared against committed-parallel (not serial) so the
//! check stays honest on single-core hosts, where a parallel engine
//! cannot win; `host_threads` in the file records what the baseline was
//! measured on.

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use dam_bench::baseline::{
    measure, measure_adaptive, measure_async, workload_graph, AdaptiveBaseline, AsyncBaseline,
    Baseline, ADAPTIVE_WORKLOAD, ASYNC_WORKLOAD, DEGREE, N, ROUNDS, WORKLOAD,
};

/// Serializes the three wall-clock gates: run concurrently they would
/// time each other's load instead of the engine.
static TIMED: Mutex<()> = Mutex::new(());

fn timed() -> MutexGuard<'static, ()> {
    TIMED.lock().unwrap_or_else(PoisonError::into_inner)
}

fn committed() -> Baseline {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_e12.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    Baseline::from_json(&text).expect("committed baseline must parse")
}

fn committed_async() -> AsyncBaseline {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_e18.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    AsyncBaseline::from_json(&text).expect("committed async baseline must parse")
}

fn committed_adaptive() -> AdaptiveBaseline {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_e19.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    AdaptiveBaseline::from_json(&text).expect("committed adaptive baseline must parse")
}

/// Always runs: the committed artifact must parse and describe exactly
/// the workload this suite measures.
#[test]
fn committed_baseline_is_well_formed() {
    let b = committed();
    assert_eq!(b.workload, WORKLOAD);
    assert_eq!(b.n, N);
    assert_eq!(b.rounds, ROUNDS);
    // n * degree sends per sending round (rounds 0..ROUNDS), all delivered.
    assert_eq!(b.messages, (N * DEGREE * ROUNDS) as u64);
    assert!(b.serial_ms > 0.0 && b.parallel_ms > 0.0, "timings must be positive");
    assert!(b.parallel_threads >= 2, "the parallel figure must actually be parallel");
    assert!(b.host_threads >= 1);
}

/// Always runs: the committed message count is reproduced bit-exactly
/// by both engines today (determinism, independent of wall clock).
#[test]
fn workload_message_count_is_reproduced() {
    let g = workload_graph();
    let (_, seq) = measure(&g, 1, 1);
    let b = committed();
    assert_eq!(seq, b.messages, "sequential engine diverged from the committed workload");
    let (_, par) = measure(&g, b.parallel_threads, 1);
    assert_eq!(par, b.messages, "parallel engine diverged from the committed workload");
}

/// Always runs: the committed async artifact must parse, describe this
/// workload, and agree with the synchronous baseline on the payload
/// count.
#[test]
fn committed_async_baseline_is_well_formed() {
    let b = committed_async();
    assert_eq!(b.workload, ASYNC_WORKLOAD);
    assert_eq!(b.n, N);
    assert_eq!(b.rounds, ROUNDS);
    assert_eq!(b.messages, (N * DEGREE * ROUNDS) as u64);
    assert!(b.markers > 0, "a fixed-round workload halts port by port, which costs markers");
    assert!(b.serial_ms > 0.0 && b.async_ms > 0.0, "timings must be positive");
    assert!(b.host_threads >= 1);
}

/// Always runs: today's asynchronous backend reproduces the committed
/// payload *and marker* counts bit-exactly — the control-plane overhead
/// is pinned, not merely bounded.
#[test]
fn async_workload_marker_count_is_reproduced() {
    let g = workload_graph();
    let b = committed_async();
    let (_, messages, markers) = measure_async(&g, 1);
    assert_eq!(messages, b.messages, "async backend diverged from the committed payload count");
    assert_eq!(markers, b.markers, "synchronizer marker overhead drifted from the baseline");
}

/// Always runs: the committed adaptive artifact must parse, describe
/// this workload, and show a controller that was never pathologically
/// expensive when the baseline was recorded.
#[test]
fn committed_adaptive_baseline_is_well_formed() {
    let b = committed_adaptive();
    assert_eq!(b.workload, ADAPTIVE_WORKLOAD);
    assert_eq!(b.n, N);
    assert_eq!(b.rounds, ROUNDS);
    assert_eq!(b.messages, (N * DEGREE * ROUNDS) as u64);
    assert!(b.static_ms > 0.0 && b.adaptive_ms > 0.0, "timings must be positive");
    assert!(b.overhead() < 2.0, "the committed controller overhead must be well under 2x");
    assert!(b.host_threads >= 1);
}

/// Always runs: a fault-free adaptive run reproduces the committed
/// payload count — the controller stays at its floor and adds zero
/// traffic (the stronger static==adaptive equality is asserted inside
/// `measure_adaptive` itself).
#[test]
fn adaptive_workload_message_count_is_reproduced() {
    let g = workload_graph();
    let b = committed_adaptive();
    let (_, _, messages) = measure_adaptive(&g, 1);
    assert_eq!(messages, b.messages, "adaptive transport diverged from the committed workload");
}

/// `CI_SMOKE=1` only: the controller's relative overhead (adaptive vs
/// static transport, same host, same run) within 2x of the committed
/// ratio. Comparing ratios rather than absolute throughput keeps the
/// gate honest on slow shared runners: it isolates what the epoch
/// bookkeeping costs, not what the machine costs.
#[test]
fn adaptive_overhead_within_2x_of_baseline() {
    if std::env::var_os("CI_SMOKE").is_none() {
        eprintln!("skipped: set CI_SMOKE=1 to enable the wall-clock regression check");
        return;
    }
    let _serial = timed();
    let b = committed_adaptive();
    let g = workload_graph();
    let (static_s, adaptive_s, messages) = measure_adaptive(&g, 3);
    assert_eq!(messages, b.messages);
    let now = adaptive_s / static_s;
    let bar = (b.overhead() * 2.0).max(2.0);
    assert!(
        now <= bar,
        "adaptive controller overhead regressed: {now:.2}x, committed {:.2}x (bar {bar:.2}x)",
        b.overhead(),
    );
}

/// `CI_SMOKE=1` only: async-backend throughput within 2x of the
/// committed async figure (compared against committed-async, not
/// serial, so the check gates the backend's own regressions rather
/// than the synchronizer's inherent price).
#[test]
fn async_throughput_within_2x_of_baseline() {
    if std::env::var_os("CI_SMOKE").is_none() {
        eprintln!("skipped: set CI_SMOKE=1 to enable the wall-clock regression check");
        return;
    }
    let _serial = timed();
    let b = committed_async();
    let g = workload_graph();
    let (secs, messages, _) = measure_async(&g, 3);
    assert_eq!(messages, b.messages);
    let now_mmsg_s = messages as f64 / secs / 1e6;
    let floor = b.async_mmsg_per_s() / 2.0;
    assert!(
        now_mmsg_s >= floor,
        "async backend regressed: {now_mmsg_s:.2} Mmsg/s, committed {:.2} (floor {floor:.2})",
        b.async_mmsg_per_s(),
    );
}

/// `CI_SMOKE=1` only: parallel throughput within 2x of the committed
/// parallel throughput.
#[test]
fn parallel_throughput_within_2x_of_baseline() {
    if std::env::var_os("CI_SMOKE").is_none() {
        eprintln!("skipped: set CI_SMOKE=1 to enable the wall-clock regression check");
        return;
    }
    let _serial = timed();
    let b = committed();
    let g = workload_graph();
    let (secs, messages) = measure(&g, b.parallel_threads, 3);
    assert_eq!(messages, b.messages);
    let now_mmsg_s = messages as f64 / secs / 1e6;
    let floor = b.parallel_mmsg_per_s() / 2.0;
    assert!(
        now_mmsg_s >= floor,
        "parallel engine regressed: {now_mmsg_s:.2} Mmsg/s, committed {:.2} (floor {floor:.2})",
        b.parallel_mmsg_per_s(),
    );
}
