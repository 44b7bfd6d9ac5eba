//! What a run allocates, in blocks and bytes.
//!
//! A counting global allocator tallies every allocation made while a
//! run executes. Three legs:
//!
//! * **One run does not grow with `n`.** A fault-free
//!   [`Network::execute`] of the same allocation-free protocol on a
//!   small and a large instance of one graph family makes the same
//!   number of allocations: the per-run setup (node states, outputs,
//!   plan and presence masks) is a fixed number of flat vectors, and
//!   the round loop allocates nothing.
//! * **A repeated run reuses the working set.** The `Network` keeps its
//!   per-node RNGs, both slot buffers and the mail counts across runs,
//!   so a second run on the same network allocates them no more: it
//!   makes at least that many fewer blocks and bytes than the first.
//! * **A multi-phase driver pays per message, not per node.** `run_mm`
//!   of the bipartite `(1−1/k)` driver and of the weighted driver
//!   allocates no more per message on `torus:160x160` than on
//!   `torus:40x40`: no pass rebuilds per-node vectors it could borrow.
//!
//! The binary holds a single `#[test]`, so no other test thread can
//! allocate while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dam_congest::{Context, Network, Port, Protocol, RunSpec, SimConfig};
use dam_core::runtime::{run_mm, Algorithm, RuntimeConfig};
use dam_core::{Bipartite, Weighted};
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

/// Allocations per frame of one bare `run_mm` of `algo` on `spec`.
fn allocs_per_frame(algo: &dyn Algorithm, spec: &str, words: usize) -> (f64, Allocs) {
    let topo = ImplicitTopology::parse(spec).unwrap();
    let sim = SimConfig::congest_for(topo.node_count(), words).seed(3);
    let (rep, allocs) = allocs_during(|| run_mm(algo, &topo, &RuntimeConfig::new().sim(sim)));
    let frames = rep.unwrap().totals.stats.frames();
    (allocs.blocks as f64 / frames as f64, allocs)
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
    // nor the mail counts, nor the RNG vector.
    let topo = ImplicitTopology::parse("torus:160x160").unwrap();
    let (n, ports) = (topo.node_count() as u64, 4 * topo.node_count() as u64);
    let working_set = 2 * ports * std::mem::size_of::<Option<u8>>() as u64
        + 2 * n * std::mem::size_of::<u32>() as u64
        + n * std::mem::size_of::<StdRng>() as u64;
    let (first, second) = allocs_of("torus:160x160", |_, _| Beacon);
    assert!(first.blocks >= second.blocks + 5, "{first:?} then {second:?}");
    assert!(first.bytes >= second.bytes + working_set, "{first:?} then {second:?}");
    eprintln!("torus:160x160 beacon: first {first:?}, second {second:?}");

    // Multi-phase drivers: allocations per frame do not grow with n.
    let bipartite = Bipartite { k: 3, ..Bipartite::default() };
    for (name, algo, words) in
        [("bipartite:3", &bipartite as &dyn Algorithm, 4), ("weighted", &Weighted::default(), 8)]
    {
        let small = allocs_per_frame(algo, "torus:40x40", words);
        let large = allocs_per_frame(algo, "torus:160x160", words);
        assert!(large.0 <= small.0, "{name}: {small:?} at torus:40x40, {large:?} at 160x160");
        eprintln!("{name}: per frame {:.3} at torus:40x40, {:.3} at 160x160", small.0, large.0);
    }
}
