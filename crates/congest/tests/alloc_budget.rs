//! Allocations per run of the sequential engine do not grow with `n`.
//!
//! A counting global allocator tallies every allocation made while one
//! fault-free [`Network::execute`] runs, for the same allocation-free
//! protocol on a small and a large instance of one graph family. The
//! engine's per-run setup (node states, RNGs, mail slots, presence masks)
//! is a fixed number of flat vectors, and the round loop itself
//! allocates nothing, so the two counts must be equal.
//!
//! The binary holds a single `#[test]`, so no other test thread can
//! allocate while a run is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dam_congest::{Context, Network, Port, Protocol, RunSpec, SimConfig};
use dam_graph::ImplicitTopology;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

/// Allocations made by one sequential `execute` of `make` on `spec`
/// (the network is built outside the count).
fn allocs_of<P, F>(spec: &str, make: F) -> u64
where
    P: Protocol + Send,
    F: Fn(usize, &dyn dam_graph::Topology) -> P + Sync,
{
    let topo = ImplicitTopology::parse(spec).unwrap();
    let mut net = Network::new(&topo, SimConfig::local().seed(1));
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = net.execute(make, &RunSpec::default()).unwrap();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(out.stats.rounds, ROUNDS as u64 + 1, "{spec}");
    drop(out);
    after - before
}

#[test]
fn sequential_run_allocations_do_not_grow_with_n() {
    for (small, large) in [("ring:1000", "ring:16000"), ("torus:40x40", "torus:160x160")] {
        let beacon = (allocs_of(small, |_, _| Beacon), allocs_of(large, |_, _| Beacon));
        assert_eq!(beacon.0, beacon.1, "broadcast: {small} vs {large}");
        let idle = (allocs_of(small, |_, _| Idle), allocs_of(large, |_, _| Idle));
        assert_eq!(idle.0, idle.1, "idle: {small} vs {large}");
        eprintln!("{small} / {large}: broadcast {beacon:?}, idle {idle:?} allocations");
    }
}
