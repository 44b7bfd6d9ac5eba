//! Instrumentation for the traced run, kept entirely on the benchmark's
//! side of the library boundary: a counting global allocator, a
//! forwarding [`Topology`] that counts adjacency queries, a
//! forwarding [`Algorithm`] that times driver runs and resumes, and an
//! in-memory span log written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use dam_core::checkpoint::SnapshotError;
use dam_core::runtime::{Algorithm, Exec, MainRun};
use dam_core::CoreError;
use dam_graph::{EdgeId, Graph, NodeId, Side, Topology};

/// The system allocator plus an allocation counter that is only armed
/// while [`count_allocs`] runs, so untraced instances pay one relaxed
/// load per allocation and nothing else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this type.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Runs `f` with the allocation counter armed; returns its result and
/// the number of allocations (including reallocations) it made.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`Topology`] that forwards to `inner`, counting every `port` and
/// `endpoints` query (timing each call would cost more than most calls
/// do; see [`query_ns_per_call`]). The trait's provided iterators
/// (`incident`, `neighbors`, `port_of_edge`, `other_endpoint`) are left
/// to their defaults so that they, too, reach the counted `port` and
/// `endpoints`; `as_graph` is forwarded so CSR-only layers keep using
/// the materialized graph exactly as they would untraced.
pub struct CountingTopology<'a> {
    inner: &'a dyn Topology,
    pub port_calls: AtomicU64,
    pub endpoint_calls: AtomicU64,
}

impl<'a> CountingTopology<'a> {
    pub fn new(inner: &'a dyn Topology) -> CountingTopology<'a> {
        CountingTopology { inner, port_calls: AtomicU64::new(0), endpoint_calls: AtomicU64::new(0) }
    }
}

impl Topology for CountingTopology<'_> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn edge_count(&self) -> usize {
        self.inner.edge_count()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.inner.degree(v)
    }

    fn max_degree(&self) -> usize {
        self.inner.max_degree()
    }

    fn port(&self, v: NodeId, p: usize) -> (NodeId, EdgeId) {
        self.port_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.port(v, p)
    }

    fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.endpoint_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.endpoints(e)
    }

    fn weight(&self, e: EdgeId) -> f64 {
        self.inner.weight(e)
    }

    fn is_weighted(&self) -> bool {
        self.inner.is_weighted()
    }

    fn side_of(&self, v: NodeId) -> Option<Side> {
        self.inner.side_of(v)
    }

    fn as_graph(&self) -> Option<&Graph> {
        self.inner.as_graph()
    }
}

/// The cost of one `port` and of one `endpoints` query on `topo`, in
/// ns, from a direct sweep over every port and every edge.
pub fn query_ns_per_call(topo: &dyn Topology) -> (f64, f64) {
    let t = Instant::now();
    let mut calls = 0u64;
    for v in 0..topo.node_count() {
        for p in 0..topo.degree(v) {
            std::hint::black_box(topo.port(v, p));
            calls += 1;
        }
    }
    let port = ns_since(t) as f64 / calls.max(1) as f64;
    let t = Instant::now();
    for e in 0..topo.edge_count() {
        std::hint::black_box(topo.endpoints(e));
    }
    let endpoints = ns_since(t) as f64 / topo.edge_count().max(1) as f64;
    (port, endpoints)
}

/// An [`Algorithm`] that forwards to `inner` under the same name (the
/// runtime keys seed domains by name, so runs stay bit-identical) and
/// accumulates the wall time of its main runs and of its resumes, which
/// only the repair layer calls.
pub struct TimedAlgo<'a> {
    inner: &'a dyn Algorithm,
    pub run_ns: AtomicU64,
    pub resume_ns: AtomicU64,
}

impl<'a> TimedAlgo<'a> {
    pub fn new(inner: &'a dyn Algorithm) -> TimedAlgo<'a> {
        TimedAlgo { inner, run_ns: AtomicU64::new(0), resume_ns: AtomicU64::new(0) }
    }
}

impl Algorithm for TimedAlgo<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, exec: &mut Exec<'_>) -> Result<MainRun, CoreError> {
        let t = Instant::now();
        let out = self.inner.run(exec);
        self.run_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        out
    }

    fn resume(
        &self,
        exec: &mut Exec<'_>,
        registers: &[Option<EdgeId>],
    ) -> Result<MainRun, CoreError> {
        let t = Instant::now();
        let out = self.inner.resume(exec, registers);
        self.resume_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        out
    }

    fn encode_registers(&self, registers: &[Option<EdgeId>]) -> Vec<u8> {
        self.inner.encode_registers(registers)
    }

    fn decode_registers(
        &self,
        bytes: &[u8],
        n: usize,
    ) -> Result<Vec<Option<EdgeId>>, SnapshotError> {
        self.inner.decode_registers(bytes, n)
    }
}

/// One timed interval of the traced run. `parent` indexes the span
/// that caused it (the instance span for layer spans).
pub struct Span {
    pub name: String,
    pub instance: usize,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
}

/// The in-memory span log of one traced run; spans are appended as they
/// close and written out once, at the end.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl SpanLog {
    /// Records a span that started at `start` and lasted `dur_ns`;
    /// returns its index for use as a parent.
    pub fn record(
        &self,
        name: &str,
        instance: usize,
        start: Instant,
        dur_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let start_ns =
            u64::try_from(start.saturating_duration_since(self.origin).as_nanos()).unwrap_or(0);
        let mut spans = self.spans.lock().expect("span log poisoned by a panicking thread");
        spans.push(Span { name: name.to_string(), instance, start_ns, dur_ns, parent });
        spans.len() - 1
    }

    /// Tab-separated `index name instance start_ns dur_ns parent`, one
    /// span a line.
    pub fn render(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned by a panicking thread");
        let mut out = String::from("index\tname\tinstance\tstart_ns\tdur_ns\tparent\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{}\t{parent}\n",
                s.name, s.instance, s.start_ns, s.dur_ns
            ));
        }
        out
    }
}
