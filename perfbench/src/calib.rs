//! Host calibration kernels, timed next to every sample so host drift
//! (other tenants, frequency changes, memory bandwidth) shows in the
//! output instead of passing for a slower program: a memory-bound pointer
//! chase over a 32 MiB random cycle (`host.calib_mem_ms`) and a
//! cache-resident event-calendar loop (`host.calib_cpu_ms`). The second
//! tracks this host's speed phases; the end-to-end host times are
//! rescaled by it.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// The one-thread [`cpu_pass_ms`] time host times are rescaled to: the
/// median pass on the 2-vCPU Xeon host the benchmark was defined on, so
/// figures there read as plain wall-clock time.
pub const REF_CPU_MS: f64 = 17.0;
/// The same for the two-thread pass that meets every round, which the
/// two-worker workload's run time is rescaled by.
pub const REF_RENDEZVOUS_MS: f64 = 34.0;

/// Cycle length in `u32` slots: 32 MiB.
const SLOTS: usize = 8 << 20;
/// Dependent loads per pass.
const STEPS: usize = 1 << 17;

/// One random cyclic permutation of [`SLOTS`] slots.
pub struct MemKernel {
    next: Vec<u32>,
}

impl MemKernel {
    /// Builds the cycle with Sattolo's algorithm from a fixed xorshift
    /// stream, so every host chases the same permutation.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % i as u64) as usize;
            next.swap(i, j);
        }
        MemKernel { next }
    }

    /// Times one pass of [`STEPS`] dependent loads, in milliseconds.
    pub fn pass_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        black_box(at);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for MemKernel {
    fn default() -> Self {
        Self::new()
    }
}

/// Heap operations between two rendezvous on a multi-threaded pass: about
/// the work one shard does per round of a two-worker 128-leaf run.
const OPS_PER_ROUND: usize = 100;

/// Times a fixed cache-resident, branchy integer workload — a binary-heap
/// calendar of 16 384 pending deadlines popped and rescheduled 200 000
/// times — in wall milliseconds: the shape of an event engine's hot loop,
/// without any of this repository's code. On `threads > 1` every thread
/// runs it and they meet at a `std::sync::Barrier` every
/// [`OPS_PER_ROUND`] operations, as sharded workers meet once per round,
/// so the pass also feels what a rendezvous costs on the host right now
/// (a tenant on either core, slow cross-core wake-ups).
pub fn cpu_pass_ms(threads: usize) -> f64 {
    let barrier = Barrier::new(threads);
    let rendezvous = (threads > 1).then_some(&barrier);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(|| calendar_loop(rendezvous));
        }
        calendar_loop(rendezvous);
    });
    t0.elapsed().as_secs_f64() * 1e3
}

fn calendar_loop(rendezvous: Option<&Barrier>) {
    let mut heap = std::collections::BinaryHeap::with_capacity(1 << 14);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..(1 << 14) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x >> 40));
    }
    for i in 0..200_000 {
        let std::cmp::Reverse(at) = heap.pop().expect("never empties");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(at + (x >> 50)));
        if let Some(b) = rendezvous.filter(|_| i % OPS_PER_ROUND == OPS_PER_ROUND - 1) {
            b.wait();
        }
    }
    black_box(heap.peek());
}
