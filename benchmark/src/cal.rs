//! Three calibration kernels that call no repo code.
//!
//! `cal_cpu` and `cal_mem` run before and after a run's timed reps and
//! their minima are printed beside the results as a witness of the
//! machine's state; they rescale nothing.
//!
//! `cal_sim` is the yardstick of every host-time metric. This box
//! switches, every few seconds, between states in which the same
//! instruction stream runs up to 45 % slower (README, "Noise
//! protocol"): a latency-bound kernel such as `cal_cpu` barely notices,
//! a throughput-bound event loop does. `cal_sim` is such a loop, runs
//! between every two reps, and each rep's wall time is divided by the
//! mean of its two neighbours: a rep is measured in units of "what this
//! box did for a fixed event loop at that moment", reported as
//! reference-speed seconds (one unit = [`REF_MS`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Knuth's MMIX LCG step.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Compute-bound: push/pop churn on a small `BinaryHeap` (stays in L1).
/// Returns milliseconds.
pub fn cal_cpu() -> f64 {
    let mut heap: BinaryHeap<u64> = (0..1024u64).map(lcg).collect();
    let mut x = 1u64;
    let t0 = Instant::now();
    for _ in 0..1_000_000 {
        x = lcg(x);
        heap.push(x >> 16);
        x ^= heap.pop().expect("non-empty");
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Memory-bound: a dependent-load chase through a 64 MB table holding
/// one cycle over all its slots (a full-period LCG mod 2²⁴, so the
/// table fills sequentially yet every hop lands on a cold line and
/// page). Returns milliseconds for the chase alone.
pub fn cal_mem() -> f64 {
    const SLOTS: u32 = 1 << 24;
    // Hull–Dobell: odd increment, multiplier ≡ 1 (mod 4) → one cycle.
    let next = |i: u32| i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223) % SLOTS;
    let table: Vec<u32> = (0..SLOTS).map(next).collect();
    let mut i = 0u32;
    let t0 = Instant::now();
    for _ in 0..400_000 {
        i = table[i as usize];
    }
    black_box(i);
    t0.elapsed().as_secs_f64() * 1e3
}

/// What `cal_sim` takes on this box in its fast state, milliseconds:
/// the reference speed host-time metrics are scaled to. A constant, so
/// the scaling is the same on every commit.
pub const REF_MS: f64 = 29.0;

/// Throughput-bound: a miniature discrete-event simulation — events in
/// a binary heap over 4096 nodes, a little state per node, a message
/// buffer per node that is handed off and freed, and a trace that takes
/// one cache line per event, grows to 16 MB, is digested once and
/// dropped. The trace matters: the simulator streams fresh memory the
/// same way, and it is memory traffic that this box's slow states tax
/// most. Returns milliseconds.
pub fn cal_sim() -> f64 {
    const NODES: usize = 4096;
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut state = vec![0u64; NODES * 8];
    let mut inbox: Vec<Vec<u64>> = vec![Vec::new(); NODES];
    let mut trace: Vec<[u64; 8]> = Vec::new();
    let mut x = 7u64;
    let mut seq = 0u64;
    for n in 0..NODES as u32 {
        x = lcg(x);
        heap.push(Reverse((x >> 54, seq, n)));
        seq += 1;
    }
    let mut t0 = Instant::now();
    let mut acc = 0u64;
    for step in 0..250_000 {
        // The first fifth is untimed: it pulls the kernel's own state
        // into the caches, whatever the work before it left there.
        if step == 50_000 {
            t0 = Instant::now();
        }
        let Reverse((at, id, node)) = heap.pop().expect("self-rearming");
        let base = node as usize * 8;
        x = lcg(x ^ at);
        let slot = (x >> 61) as usize;
        state[base + slot] = state[base + slot].wrapping_add(at);
        acc ^= state[base + (slot ^ 1)];
        let dst = ((x >> 20) as usize) % NODES;
        inbox[dst].push(at);
        if inbox[dst].len() >= 16 {
            let taken = std::mem::take(&mut inbox[dst]);
            acc = acc.wrapping_add(taken.iter().sum::<u64>());
        }
        trace.push([at, id, node as u64, dst as u64, x, acc, seq, slot as u64]);
        heap.push(Reverse((at + 1 + (x >> 54), seq, dst as u32)));
        seq += 1;
        if x & 7 == 0 {
            heap.push(Reverse((at + (x >> 50), seq, node)));
            seq += 1;
        } else if heap.len() > NODES {
            heap.pop();
        }
    }
    let digest = trace.iter().fold(acc, |h, r| {
        (h ^ r[0] ^ r[4] ^ r[5]).wrapping_mul(0x100_0000_01b3)
    });
    black_box(digest);
    t0.elapsed().as_secs_f64() * 1e3
}
