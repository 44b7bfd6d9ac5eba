//! What a run allocates, in blocks and bytes.
//!
//! A counting global allocator tallies every allocation made while a
//! run executes. Five legs:
//!
//! * **One run does not grow with `n`.** A fault-free
//!   [`Network::execute`] of the same allocation-free protocol on a
//!   small and a large instance of one graph family makes the same
//!   number of allocations: the per-run setup (node states, outputs,
//!   plan and presence masks) is a fixed number of flat vectors, and
//!   the round loop allocates nothing.
//! * **A repeated run reuses the working set.** The `Network` keeps its
//!   per-node RNGs, both slot buffers, the mail counts and the agenda
//!   of awake nodes across runs, so a second run on the same network
//!   allocates them no more: it makes at least that many fewer blocks
//!   and bytes than the first. Empty fault and churn plans allocate no
//!   per-node schedule either, and a protocol without a transport
//!   session exports none, so the second run allocates at most a byte
//!   per node and per edge.
//! * **A fault-free sharded run builds no FIFO table.** The sharded
//!   engine keeps duplicated and reordered copies in one FIFO per
//!   directed edge, allocated only when the plan can duplicate or
//!   reorder: a fault-free run at two threads allocates less than the
//!   sequential engine's first run plus half such a table.
//! * **A driver pays per node once, not per step or pass.** `run_mm`
//!   of Israeli–Itai, Luby's line-graph matching, the bipartite
//!   `(1−1/k)` driver and the weighted driver allocates no more per
//!   message on `torus:160x160` than on `torus:40x40`, and on
//!   `torus:160x160` at most its per-node state rows (one or two per
//!   node) plus a few blocks per phase: no step or pass builds a
//!   vector it could count, refill or borrow.
//! * **A transported round allocates nothing.** A repeated fault-free
//!   run of a [`Resilient`]-wrapped protocol that halts after `2R`
//!   inner rounds allocates at most one block per node and per port
//!   more than the same run halting after `R`: the transport's slot
//!   rings, payload row, inner inbox and outbox are reused from round
//!   to round, so only their warm-up growth may differ.
//!
//! The binary holds a single `#[test]`, so no other test thread can
//! allocate while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dam_congest::{Context, Network, Port, Protocol, Resilient, RunSpec, SimConfig, TransportCfg};
use dam_core::runtime::{run_mm, Algorithm, IsraeliItai, RuntimeConfig};
use dam_core::{Bipartite, LubyMatching, Weighted};
use dam_graph::{ImplicitTopology, Topology};
use rand::rngs::StdRng;

struct Counting;

static BLOCKS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Blocks and bytes allocated while `f` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocs {
    blocks: u64,
    bytes: u64,
}

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    let (blocks, bytes) = (BLOCKS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let out = f();
    let allocs = Allocs {
        blocks: BLOCKS.load(Ordering::Relaxed) - blocks,
        bytes: BYTES.load(Ordering::Relaxed) - bytes,
    };
    (out, allocs)
}

const ROUNDS: usize = 10;

/// Broadcasts one byte every round for [`ROUNDS`] rounds.
struct Beacon;

impl Protocol for Beacon {
    type Msg = u8;
    type Output = ();

    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        ctx.broadcast(0);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
        if ctx.round() >= ROUNDS {
            ctx.halt();
        } else {
            ctx.broadcast(1);
        }
    }

    fn into_output(self) {}
}

/// Sends nothing for [`ROUNDS`] rounds.
struct Idle;

impl Protocol for Idle {
    type Msg = u8;
    type Output = ();

    fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
        if ctx.round() >= ROUNDS {
            ctx.halt();
        }
    }

    fn into_output(self) {}
}

/// Broadcasts one byte every round and halts after `rounds` rounds.
struct Pulse {
    rounds: usize,
}

impl Protocol for Pulse {
    type Msg = u8;
    type Output = usize;

    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        ctx.broadcast(0);
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u8>, _: &[(Port, u8)]) {
        if ctx.round() >= self.rounds {
            ctx.halt();
        } else {
            ctx.broadcast(1);
        }
    }

    fn into_output(self) -> usize {
        self.rounds
    }
}

/// Allocations of the second of two sequential `execute`s of
/// [`Pulse`] over the default [`Resilient`] transport on one network
/// over `spec`, halting after `rounds` inner rounds.
fn transported_allocs(spec: &str, rounds: usize) -> Allocs {
    let topo = ImplicitTopology::parse(spec).unwrap();
    let mut net = Network::new(&topo, SimConfig::local().seed(1));
    let make =
        |_: usize, _: &dyn Topology| Resilient::new(Pulse { rounds }, TransportCfg::default());
    net.execute(make, &RunSpec::default()).unwrap();
    let (out, allocs) = allocs_during(|| net.execute(make, &RunSpec::default()).unwrap());
    assert!(out.stats.rounds > rounds as u64, "{spec}: the transport ran {rounds} inner rounds");
    assert_eq!(out.stats.retransmissions, 0, "{spec}: fault-free");
    allocs
}

/// Allocations of one sequential `execute` of `make` on a fresh network
/// over `spec` (the network is built outside the count), and of a
/// second `execute` of it on the same network.
fn allocs_of<P, F>(spec: &str, make: F) -> (Allocs, Allocs)
where
    P: Protocol + Send,
    F: Fn(usize, &dyn Topology) -> P + Sync + Copy,
{
    let topo = ImplicitTopology::parse(spec).unwrap();
    let mut net = Network::new(&topo, SimConfig::local().seed(1));
    let mut run = || {
        let (out, allocs) = allocs_during(|| net.execute(make, &RunSpec::default()).unwrap());
        assert_eq!(out.stats.rounds, ROUNDS as u64 + 1, "{spec}");
        allocs
    };
    (run(), run())
}

/// Allocations of one fault-free [`Beacon`] run on the sharded engine
/// at two threads.
fn sharded_allocs(topo: &dyn Topology) -> Allocs {
    let mut net = Network::new(topo, SimConfig::local().seed(1).threads(2));
    let (out, allocs) = allocs_during(|| net.execute(|_, _| Beacon, &RunSpec::default()).unwrap());
    assert_eq!(out.stats.rounds, ROUNDS as u64 + 1, "sharded");
    allocs
}

/// Allocations of one bare `run_mm` of `algo` on `spec`, per frame and
/// in total, and the run's phases.
fn run_mm_allocs(algo: &dyn Algorithm, spec: &str, words: usize) -> (f64, Allocs, usize) {
    let topo = ImplicitTopology::parse(spec).unwrap();
    let sim = SimConfig::congest_for(topo.node_count(), words).seed(3);
    let (rep, allocs) = allocs_during(|| run_mm(algo, &topo, &RuntimeConfig::new().sim(sim)));
    let totals = rep.unwrap().totals;
    (allocs.blocks as f64 / totals.stats.frames() as f64, allocs, totals.runs)
}

#[test]
fn run_allocations_do_not_grow_with_n() {
    for (small, large) in [("ring:1000", "ring:16000"), ("torus:40x40", "torus:160x160")] {
        let beacon = (allocs_of(small, |_, _| Beacon), allocs_of(large, |_, _| Beacon));
        assert_eq!(beacon.0 .0.blocks, beacon.1 .0.blocks, "broadcast: {small} vs {large}");
        let idle = (allocs_of(small, |_, _| Idle), allocs_of(large, |_, _| Idle));
        assert_eq!(idle.0 .0.blocks, idle.1 .0.blocks, "idle: {small} vs {large}");
        eprintln!("{small} / {large}: broadcast {beacon:?}, idle {idle:?}");
    }

    // The second run on torus:160x160 allocates neither slot buffer,
    // nor the mail counts, nor the RNG vector, nor any per-node fault or
    // churn schedule, nor session exports: what is left is a few
    // presence bits per node and edge.
    let topo = ImplicitTopology::parse("torus:160x160").unwrap();
    let (n, ports) = (topo.node_count() as u64, 4 * topo.node_count() as u64);
    let m = ports / 2;
    let working_set = 2 * ports * std::mem::size_of::<Option<u8>>() as u64
        + 2 * n * std::mem::size_of::<u32>() as u64
        + n * std::mem::size_of::<StdRng>() as u64;
    let (first, second) = allocs_of("torus:160x160", |_, _| Beacon);
    assert!(first.blocks >= second.blocks + 5, "{first:?} then {second:?}");
    assert!(first.bytes >= second.bytes + working_set, "{first:?} then {second:?}");
    assert!(second.bytes <= n + m, "{second:?}: more than the presence masks");
    eprintln!("torus:160x160 beacon: first {first:?}, second {second:?}");

    // The sharded engine at two threads needs about what the sequential
    // engine's first run does; a mutexed FIFO per directed edge would add
    // at least 32 bytes per port on top.
    let sharded = sharded_allocs(&topo);
    let fifo_table = ports * std::mem::size_of::<std::sync::Mutex<Vec<(usize, u8)>>>() as u64;
    assert!(
        sharded.bytes < first.bytes + fifo_table / 2,
        "{sharded:?}: a fault-free sharded run allocated a per-port FIFO table ({fifo_table} B)"
    );
    eprintln!("torus:160x160 beacon, sharded at two threads: {sharded:?}");

    // Drivers: allocations per frame do not grow with n, and a run
    // allocates at most its `rows` state rows per node (the `live` rows
    // and Luby's `values`; the weighted driver's gain rows) plus a few
    // blocks per phase.
    let bipartite = Bipartite { k: 3, ..Bipartite::default() };
    for (name, algo, words, rows) in [
        ("ii", &IsraeliItai as &dyn Algorithm, 4, 1),
        ("luby", &LubyMatching, 4, 2),
        ("bipartite:3", &bipartite, 4, 1),
        ("weighted", &Weighted::default(), 8, 1),
    ] {
        let small = run_mm_allocs(algo, "torus:40x40", words);
        let (per_frame, allocs, phases) = run_mm_allocs(algo, "torus:160x160", words);
        assert!(per_frame <= small.0, "{name}: {small:?} at torus:40x40, {per_frame} at 160x160");
        assert!(
            allocs.blocks <= rows * n + 64 * phases as u64,
            "{name}: {allocs:?} in {phases} phases on torus:160x160"
        );
        eprintln!("{name}: per frame {:.3} at torus:40x40, {per_frame:.3} at 160x160; {allocs:?} in {phases} phases", small.0);
    }

    // A transported inner round allocates nothing: twice the rounds,
    // at most the warm-up growth of one buffer per node and per port.
    let spec = "torus:20x20";
    let (n, ports) = (400u64, 1600u64);
    let (short, long) = (transported_allocs(spec, 12), transported_allocs(spec, 24));
    assert!(
        long.blocks <= short.blocks + n + ports,
        "transport: {short:?} for 12 inner rounds, {long:?} for 24 on {spec}"
    );
    eprintln!("transport on {spec}: 12 inner rounds {short:?}, 24 inner rounds {long:?}");
}
