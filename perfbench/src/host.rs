//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a third within minutes as other tenants come and go; no median
//! inside one run removes a drift that outlasts the run. Each run
//! therefore also times a fixed unit of work, [`Unit::run`], between its
//! passes, and reports its time metrics in *reference seconds*: wall
//! seconds scaled by [`REFERENCE_UNIT_SECS`] over the unit's median time
//! in that run. On a host that runs the unit in exactly
//! `REFERENCE_UNIT_SECS` the reported figures are plain wall-clock ones.
//!
//! The unit is this crate's own code and never calls the repository's
//! crates, so a change to the program under test cannot move it: only
//! the host, the toolchain or the build flags can. It allocates nothing
//! once built, so the allocator state the workload leaves behind cannot
//! move it either. It mixes the kinds of work the workloads do — hash-map
//! inserts and lookups over a working set of a few MB (the prediction
//! table), a binary-heap event loop (the engine's calendar) and
//! floating-point dot products (the selector's kernels) — in proportions
//! that give each about a third of its time.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

/// Time of one [`Unit::run`] on the reference host (a 2-vCPU Xeon virtual
/// machine in a quiet spell), seconds.
pub const REFERENCE_UNIT_SECS: f64 = 0.010;

/// Keys inserted into the map: ~3 MB with the map's overhead.
const MAP_KEYS: usize = 40_000;
/// Events the heap loop pops (and replaces).
const HEAP_EVENTS: usize = 70_000;
/// Live events in the heap.
const HEAP_LIVE: usize = 4_096;
/// Dot products of [`DIM`]-long vectors, over [`VECTORS`] vectors.
const DOTS: usize = 16_000;
const DIM: usize = 512;
const VECTORS: usize = 16;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The calibration unit with its buffers, built once per run.
#[derive(Debug)]
pub struct Unit {
    map: HashMap<u64, [f64; 4], BuildHasherDefault<DefaultHasher>>,
    heap: BinaryHeap<(Reverse<u64>, u32)>,
    vectors: Vec<f64>,
}

impl Default for Unit {
    fn default() -> Self {
        Self::new()
    }
}

impl Unit {
    /// Allocates the unit's buffers at their full size.
    #[must_use]
    pub fn new() -> Self {
        let mut rng = 0x5DEE_CE66_D1CE_5EED_u64;
        Unit {
            map: HashMap::with_capacity_and_hasher(MAP_KEYS, BuildHasherDefault::default()),
            heap: BinaryHeap::with_capacity(HEAP_LIVE),
            vectors: (0..DIM * VECTORS)
                .map(|_| (xorshift(&mut rng) >> 11) as f64 / (1u64 << 53) as f64)
                .collect(),
        }
    }

    /// One calibration unit; returns a checksum so that no part of it can
    /// be optimized away.
    pub fn run(&mut self) -> u64 {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;

        self.map.clear();
        for _ in 0..MAP_KEYS {
            let k = xorshift(&mut rng);
            self.map.insert(k, [k as f64, 1.0, 2.0, 3.0]);
        }
        let mut acc = 0.0f64;
        let mut probe = 0x2545_F491_4F6C_DD1D_u64;
        for _ in 0..MAP_KEYS * 2 {
            if let Some(v) = self.map.get(&xorshift(&mut probe)) {
                acc += v[0];
            }
            if let Some(v) = self.map.get(&xorshift(&mut rng)) {
                acc += v[1];
            }
        }

        self.heap.clear();
        for id in 0..HEAP_LIVE as u32 {
            self.heap.push((Reverse(xorshift(&mut rng) >> 20), id));
        }
        let mut last = 0u64;
        for _ in 0..HEAP_EVENTS {
            if let Some((Reverse(t), id)) = self.heap.pop() {
                last = last.wrapping_add(t ^ u64::from(id));
                self.heap
                    .push((Reverse(t + (xorshift(&mut rng) >> 40)), id));
            }
        }

        for d in 0..DOTS {
            let a = &self.vectors[(d % VECTORS) * DIM..][..DIM];
            let b = &self.vectors[((d * 7 + 3) % VECTORS) * DIM..][..DIM];
            acc += a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        }

        acc.to_bits() ^ last ^ self.map.len() as u64
    }
}
