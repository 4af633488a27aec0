//! The host-speed reference: fixed kernels of the benchmark's own, timed
//! right before and after every timed pass and after every group of
//! set-up repetitions.
//!
//! On a shared host the same pass runs up to 1.6× slower in phases that
//! last minutes, longer than a run. Dividing each pass by the host's
//! slowdown measured around it cancels much of that, as far as the
//! reference slows in the same phases as the workload. No single kernel
//! tracked every workload (see README.md, Noise), so the reference is a
//! mix of three, each with its own bottleneck, and the slowdown is the
//! mean of their times over their nominal times. The kernels are part of
//! the benchmark, so a change to the program never moves them.

use std::hint::black_box;
use std::time::Instant;

/// Nominal seconds of each kernel: what it took on the host the benchmark
/// was tuned on (a 2-vCPU Xeon virtual machine) in a typical phase.
const SORT_S: f64 = 0.009;
const CHASE_S: f64 = 0.012;
const STREAM_S: f64 = 0.009;

pub struct Reference {
    /// A permutation of 4096 keys, sorted 150 times per run: branchy work
    /// on data in the core's own caches.
    sort: Vec<u32>,
    /// One random cycle over 4 MB, followed for 100 000 dependent loads
    /// per run: memory latency past the core's own caches.
    chase: Vec<u32>,
    /// 8 MB summed 8 times per run: streaming reads of memory.
    stream: Vec<u32>,
}

impl Reference {
    /// The kernels' fixed inputs, and one untimed run so the first timed
    /// one finds their code and data warm.
    pub fn new() -> Self {
        let reference = Self {
            sort: cycle(1 << 12),
            chase: cycle(1 << 20),
            stream: cycle(1 << 21),
        };
        reference.slowdown();
        reference
    }

    /// Megabytes the kernels' inputs keep resident, for taking them out
    /// of the process's peak.
    pub fn resident_mb(&self) -> f64 {
        let words = self.sort.len() * 2 + self.chase.len() + self.stream.len();
        (words * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// How much slower than nominal the host runs the kernels now: the
    /// mean over the kernels of one run's seconds over its nominal
    /// seconds.
    pub fn slowdown(&self) -> f64 {
        let sort = seconds(|| {
            let mut keys = self.sort.clone();
            for _ in 0..150 {
                keys.copy_from_slice(&self.sort);
                black_box(&mut keys).sort_unstable();
            }
            black_box(keys);
        });
        let chase = seconds(|| {
            let mut at = 0u32;
            for _ in 0..100_000 {
                at = self.chase[at as usize];
            }
            black_box(at);
        });
        let stream = seconds(|| {
            let mut sum = 0u64;
            for _ in 0..8 {
                sum = black_box(&self.stream)
                    .iter()
                    .fold(sum, |acc, &k| acc.wrapping_add(u64::from(k)));
            }
            black_box(sum);
        });
        (sort / SORT_S + chase / CHASE_S + stream / STREAM_S) / 3.0
    }
}

fn seconds(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// A fixed permutation of `0..n` that is one cycle (Sattolo's algorithm
/// over an LCG), so a chase through it visits every word.
fn cycle(n: usize) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..n as u32).collect();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..n).rev() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        keys.swap(i, (x >> 33) as usize % i);
    }
    keys
}
