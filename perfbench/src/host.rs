//! The host speed probe. A shared host runs the same code up to a fifth
//! slower for stretches of seconds to minutes, and every wall metric
//! moves with it. The probe is a fixed piece of work that is the
//! benchmark's own code, so no change to the library moves it: a 64³
//! fp64 FMA product (compute) and an ordered-map build and scan
//! (allocation and pointer chasing, like the interpreter's). Timed runs
//! take it every few operations, outside the operations' timing, and
//! scale their wall metrics to the reference speed (see
//! [`crate::Measured`]), which cancels the host's drift while a change
//! to the library still moves them in full.
//!
//! That only holds if the probe and the library share one CPU: the Sim
//! backend fans each phase out over every CPU the process may use, and
//! a co-tenant taking the second vCPU halves its speed while a
//! one-thread probe barely notices. So the benchmark runs on one CPU
//! ([`pin_to_one_cpu`]), where the library runs serially.

use crate::stats::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds the probe took, as a median, on the reference host: a
/// shared 2-vCPU x86-64 machine. Scaled metrics are what that host
/// would have measured at that speed.
pub const REFERENCE_S: f64 = 0.0033;

/// Run the probe once; returns its wall seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    for _ in 0..2 {
        black_box(fma_product());
        black_box(map_scan());
    }
    t0.elapsed().as_secs_f64()
}

fn fma_product() -> f64 {
    const N: usize = 64;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 7) as f64 * 0.1).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 5) as f64 * 0.2).collect();
    let (a, b) = (black_box(a), black_box(b));
    let mut c = vec![0.0f64; N * N];
    for (row, out) in a.chunks_exact(N).zip(c.chunks_exact_mut(N)) {
        for (&x, brow) in row.iter().zip(b.chunks_exact(N)) {
            for (acc, &y) in out.iter_mut().zip(brow) {
                *acc = x.mul_add(y, *acc);
            }
        }
    }
    c.iter().sum()
}

fn map_scan() -> f64 {
    let mut rng = Rng::new(42);
    let map: BTreeMap<u64, Vec<f64>> = (0..4096u32)
        .map(|i| (rng.next_u64(), vec![f64::from(i); 16]))
        .collect();
    let mut acc = 0.0;
    for _ in 0..4 {
        acc += map
            .range(rng.next_u64()..)
            .take(512)
            .map(|(_, v)| v[3])
            .sum::<f64>();
    }
    acc + map.len() as f64
}

/// Restrict this thread, and every thread it starts later, to the
/// first CPU it may use, so `available_parallelism` reports 1 and the
/// library's parallel fan-out runs inline. Call before any thread
/// starts. Returns the CPU, or `None` if the affinity calls failed.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, as the call
    // requires; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes naming one CPU
    // the thread may already use.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
