//! The host reference: four fixed kernels of the benchmark's own code,
//! timed between instances. No change to the matching stack moves them,
//! but on a shared host they slow down and speed up with the instances
//! timed next to them. The calibrated end-to-end metrics divide the
//! instance time by the reference time of the same run, which takes out
//! most of the host's drift between runs.
//!
//! Each kernel stands for one thing an instance does a lot of: chasing
//! pointers through memory, comparing and swapping (sort), hashing into
//! a map of small heap values, and passing messages over a fixed graph.
//! A sample is the geometric mean of the four times, so no one kernel
//! dominates it.

use std::collections::HashMap;
use std::time::Instant;

use dam_congest::rng::splitmix64;

/// Words in the random-walk table: 8 MiB of `u64`.
const TABLE_WORDS: usize = 1 << 20;

pub struct Reference {
    table: Vec<u64>,
}

fn timed_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

impl Reference {
    pub fn new() -> Reference {
        Reference { table: (0..TABLE_WORDS as u64).map(splitmix64).collect() }
    }

    /// The table's size in MB. It is filled at construction and kept
    /// for the whole run, so it is resident in every `VmHWM` reading.
    pub fn resident_mb(&self) -> f64 {
        std::mem::size_of_val(&self.table[..]) as f64 / (1024.0 * 1024.0)
    }

    /// One sample: the geometric mean of the four kernel times, in ms.
    pub fn sample(&self) -> f64 {
        let times = [self.walk(), sort(), hash_map(), message_passing()];
        times.iter().product::<f64>().powf(1.0 / times.len() as f64)
    }

    /// A dependent random walk of 2^16 steps over the table.
    fn walk(&self) -> f64 {
        let mask = self.table.len() - 1;
        timed_ms(|| {
            let mut idx = 0usize;
            let mut acc = 0u64;
            for _ in 0..1 << 16 {
                acc = acc.wrapping_add(self.table[idx]);
                idx = (self.table[idx] ^ acc) as usize & mask;
            }
            std::hint::black_box(acc);
        })
    }
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

/// Sorting 100 000 pseudo-random `u32`s (the fill is not timed).
fn sort() -> f64 {
    let mut keys: Vec<u32> = (0..100_000u64).map(|i| splitmix64(i) as u32).collect();
    timed_ms(|| {
        keys.sort_unstable();
        std::hint::black_box(&keys);
    })
}

/// 60 000 updates and lookups on a map of 20 000 keys to boxed values.
fn hash_map() -> f64 {
    timed_ms(|| {
        let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
        let mut acc = 0u64;
        for i in 0..60_000u64 {
            let key = splitmix64(i) % 20_000;
            map.entry(key).or_insert_with(|| vec![i])[0] += 1;
            acc = acc.wrapping_add(map.get(&(key ^ 1)).map_or(0, |v| v[0]));
        }
        std::hint::black_box(acc);
    })
}

/// 12 rounds of a min-flooding protocol on a 4096-node circulant graph
/// (offsets ±1 and ±64), with fresh inboxes every round and nodes that
/// drop out as they go.
fn message_passing() -> f64 {
    const N: usize = 4096;
    let neighbor = |v: usize, j: usize| match j {
        0 => (v + 1) % N,
        1 => (v + N - 1) % N,
        2 => (v + 64) % N,
        _ => (v + N - 64) % N,
    };
    timed_ms(|| {
        let mut state: Vec<u64> = (0..N as u64).map(splitmix64).collect();
        let mut alive = vec![true; N];
        for round in 0..12u64 {
            let mut inbox: Vec<Vec<(u32, u64)>> = vec![Vec::new(); N];
            for v in (0..N).filter(|&v| alive[v]) {
                for j in 0..4 {
                    let h = splitmix64(state[v] ^ round ^ j as u64);
                    if h & 3 != 0 {
                        inbox[neighbor(v, j)].push((v as u32, h));
                    }
                }
            }
            for v in 0..N {
                let mut best = state[v];
                for &(u, h) in &inbox[v] {
                    if h < best && alive[u as usize] {
                        best = h;
                    }
                }
                if best & 15 == 0 {
                    alive[v] = false;
                }
                state[v] = splitmix64(best);
            }
        }
        std::hint::black_box(&state);
    })
}
