//! Deterministic per-node randomness.
//!
//! Every node owns an independent RNG derived from the master seed and its
//! node id through a splitmix64 scramble. The engine's results therefore
//! depend only on `(graph, config, protocol)` — never on thread scheduling
//! — which is what makes the sequential and parallel engines
//! bit-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64 finalizer — a high-quality 64-bit mix.
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG for node `node` in run `run` under master seed `seed`.
#[must_use]
pub fn node_rng(seed: u64, run: u64, node: usize) -> StdRng {
    let mixed = splitmix64(seed ^ splitmix64(run ^ splitmix64(node as u64)));
    StdRng::seed_from_u64(mixed)
}

/// Domain tags of the three keyed per-message chains.
const FAULT_DOMAIN: u64 = 0xFA17_5EED_0F42_11CE;
const CORRUPT_DOMAIN: u64 = 0xC042_0F7E_DB17_F117;
const BYZ_DOMAIN: u64 = 0xB12A_417E_E4D0_C47E;

/// The RNG deciding the fate (loss/duplication/reordering) of the one
/// message leaving `(node, port)` in `round` of `run`.
///
/// Keying the fault draws on the *message coordinates* instead of a
/// shared sequential stream makes fault injection independent of the
/// order in which the engine flushes outboxes — the property that lets
/// the sharded parallel executor reproduce a faulty run bit-for-bit
/// (any execution order sees the same draws for the same message).
///
/// This function, [`corrupt_rng`] and [`byz_rng`] are the reference
/// definitions of a five-deep splitmix chain: domain, run, round,
/// node, port. The engines reach the same streams through `RunKeys`:
/// the `(seed, run)` prefix is mixed once per run and the
/// `(round, node)` part once per sender, so each message mixes in only
/// its port before seeding.
#[must_use]
pub fn fault_rng(seed: u64, run: u64, round: usize, node: usize, port: usize) -> StdRng {
    let mut z = splitmix64(seed ^ FAULT_DOMAIN);
    z = splitmix64(z ^ run);
    z = splitmix64(z ^ round as u64);
    z = splitmix64(z ^ node as u64);
    z = splitmix64(z ^ port as u64);
    StdRng::seed_from_u64(z)
}

/// The RNG supplying *mutation* randomness for a corruption fault on
/// the message leaving `(node, port)` in `round` of `run`.
///
/// Separate from [`fault_rng`] (which decides *whether* a message is
/// corrupted) so that the tamper draws of
/// [`crate::message::BitSize::corrupted`] never perturb the shared
/// loss/dup/reorder stream — a plan with `corrupt > 0` reproduces the
/// exact loss pattern of the same plan with `corrupt = 0`. Keyed on the
/// message coordinates like [`fault_rng`], for the same flush-order
/// independence.
#[must_use]
pub fn corrupt_rng(seed: u64, run: u64, round: usize, node: usize, port: usize) -> StdRng {
    let mut z = splitmix64(seed ^ CORRUPT_DOMAIN);
    z = splitmix64(z ^ run);
    z = splitmix64(z ^ round as u64);
    z = splitmix64(z ^ node as u64);
    z = splitmix64(z ^ port as u64);
    StdRng::seed_from_u64(z)
}

/// The RNG driving a Byzantine equivocator's tampering of the message
/// it sends on `(node, port)` in `round` of `run`.
///
/// Distinct domain from [`corrupt_rng`] so an equivocating node inside
/// a corrupting network draws independent damage on both layers.
#[must_use]
pub fn byz_rng(seed: u64, run: u64, round: usize, node: usize, port: usize) -> StdRng {
    let mut z = splitmix64(seed ^ BYZ_DOMAIN);
    z = splitmix64(z ^ run);
    z = splitmix64(z ^ round as u64);
    z = splitmix64(z ^ node as u64);
    z = splitmix64(z ^ port as u64);
    StdRng::seed_from_u64(z)
}

/// The three keyed chains of one run with `(seed, run)` mixed in:
/// [`fault_rng`], [`corrupt_rng`] and [`byz_rng`] up to their third
/// link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunKeys {
    fault: u64,
    corrupt: u64,
    byz: u64,
}

impl RunKeys {
    pub(crate) fn new(seed: u64, run: u64) -> RunKeys {
        let chain = |domain: u64| splitmix64(splitmix64(seed ^ domain) ^ run);
        RunKeys {
            fault: chain(FAULT_DOMAIN),
            corrupt: chain(CORRUPT_DOMAIN),
            byz: chain(BYZ_DOMAIN),
        }
    }

    /// The chains of the messages `node` sends in `round`.
    pub(crate) fn sender(&self, round: usize, node: usize) -> SenderKeys {
        let chain = |key: u64| splitmix64(splitmix64(key ^ round as u64) ^ node as u64);
        SenderKeys { fault: chain(self.fault), corrupt: chain(self.corrupt), byz: chain(self.byz) }
    }
}

/// The three keyed chains of one sender in one round; each message
/// mixes in only its port.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SenderKeys {
    fault: u64,
    corrupt: u64,
    byz: u64,
}

impl SenderKeys {
    /// [`fault_rng`] of this sender's message on `port`.
    pub(crate) fn fault(&self, port: usize) -> StdRng {
        seeded(self.fault, port)
    }

    /// [`corrupt_rng`] of this sender's message on `port`.
    pub(crate) fn corrupt(&self, port: usize) -> StdRng {
        seeded(self.corrupt, port)
    }

    /// [`byz_rng`] of this sender's message on `port`.
    pub(crate) fn byz(&self, port: usize) -> StdRng {
        seeded(self.byz, port)
    }
}

/// The last link of a keyed chain: mix in the port and seed the RNG.
fn seeded(key: u64, port: usize) -> StdRng {
    StdRng::seed_from_u64(splitmix64(key ^ port as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn deterministic_and_distinct() {
        let a: u64 = node_rng(1, 0, 5).random();
        let b: u64 = node_rng(1, 0, 5).random();
        assert_eq!(a, b);
        let c: u64 = node_rng(1, 0, 6).random();
        let d: u64 = node_rng(1, 1, 5).random();
        let e: u64 = node_rng(2, 0, 5).random();
        assert!(a != c && a != d && a != e);
    }

    #[test]
    fn fault_rng_keys_on_all_coordinates() {
        let base: u64 = fault_rng(1, 0, 3, 5, 1).random();
        assert_eq!(base, fault_rng(1, 0, 3, 5, 1).random(), "deterministic");
        let variants: Vec<u64> = [
            fault_rng(2, 0, 3, 5, 1).random(),
            fault_rng(1, 1, 3, 5, 1).random(),
            fault_rng(1, 0, 4, 5, 1).random(),
            fault_rng(1, 0, 3, 6, 1).random(),
            fault_rng(1, 0, 3, 5, 0).random(),
        ]
        .to_vec();
        assert!(variants.iter().all(|&v| v != base), "every coordinate must matter");
    }

    #[test]
    fn corruption_streams_are_domain_separated() {
        // Same coordinates, three different streams: the fate draw, the
        // tamper draw and the equivocation draw never collide.
        let f: u64 = fault_rng(1, 0, 3, 5, 1).random();
        let c: u64 = corrupt_rng(1, 0, 3, 5, 1).random();
        let b: u64 = byz_rng(1, 0, 3, 5, 1).random();
        assert!(f != c && f != b && c != b);
        assert_eq!(c, corrupt_rng(1, 0, 3, 5, 1).random(), "deterministic");
        assert_eq!(b, byz_rng(1, 0, 3, 5, 1).random(), "deterministic");
        assert_ne!(c, corrupt_rng(1, 0, 3, 5, 2).random(), "port matters");
        assert_ne!(b, byz_rng(1, 0, 4, 5, 1).random(), "round matters");
    }

    proptest::proptest! {
        /// The hoisted key path (prefix per run, `(round, node)` per
        /// sender, port per message) reproduces the reference draws of
        /// all three keyed chains at arbitrary coordinates.
        #[test]
        fn hoisted_keys_reproduce_the_reference_draws(
            seed in proptest::any::<u64>(),
            run in proptest::any::<u64>(),
            round in proptest::any::<usize>(),
            node in proptest::any::<usize>(),
            port in proptest::any::<usize>(),
        ) {
            let keys = RunKeys::new(seed, run).sender(round, node);
            let draws = |mut rng: StdRng| -> [u64; 4] { std::array::from_fn(|_| rng.random()) };
            proptest::prop_assert_eq!(
                draws(keys.fault(port)),
                draws(fault_rng(seed, run, round, node, port))
            );
            proptest::prop_assert_eq!(
                draws(keys.corrupt(port)),
                draws(corrupt_rng(seed, run, round, node, port))
            );
            proptest::prop_assert_eq!(
                draws(keys.byz(port)),
                draws(byz_rng(seed, run, round, node, port))
            );
        }
    }

    #[test]
    fn splitmix_avalanche() {
        // Flipping one input bit flips roughly half the output bits.
        let x = splitmix64(42);
        let y = splitmix64(43);
        let diff = (x ^ y).count_ones();
        assert!(diff > 16 && diff < 48, "poor avalanche: {diff}");
    }
}
