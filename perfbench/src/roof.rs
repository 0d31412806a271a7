//! The host semantic roof: a plain loop with the executors' rounding
//! semantics — per (i, j), k increasing, each step one `fma64` rounded
//! to the accumulator (`fl32(fma64)` for fp32 accumulators, plain
//! `fma64` for fp64). It is the base of `core.execute.roof_frac`: what
//! an executor with these semantics and no interpretation overhead
//! would take on this host.

use kami_gpu_sim::{Matrix, Precision};
use std::hint::black_box;
use std::time::Instant;

/// Wall seconds per `m×n×k` product of the semantic roof (best of five
/// batches of at least 20 ms each), and a label for its FMA flavour.
pub fn roof_secs(m: usize, n: usize, k: usize, precision: Precision) -> (f64, &'static str) {
    let a = Matrix::seeded_uniform(m, k, 1).quantized(precision);
    let b = Matrix::seeded_uniform(k, n, 2).quantized(precision);
    let wide = kami_core::gemm::c_precision(precision) == Precision::Fp64;
    let mut c = vec![0.0f64; m * n];
    let (run, flavour) = pick_kernel();
    let mut go = |reps: usize| {
        let t0 = Instant::now();
        for _ in 0..reps {
            run(
                black_box(a.as_slice()),
                black_box(b.as_slice()),
                &mut c,
                k,
                wide,
            );
        }
        black_box(&c);
        t0.elapsed().as_secs_f64()
    };
    let mut reps = 1usize;
    while go(reps) < 0.02 {
        reps *= 2;
    }
    let best = (0..5).map(|_| go(reps)).fold(f64::INFINITY, f64::min);
    (best / reps as f64, flavour)
}

/// `c[i][j] = Σ_k a[i][k]·b[k][j]` with k increasing for every (i, j);
/// the j loop is innermost so independent accumulators share each step.
#[inline(always)]
fn kernel(a: &[f64], b: &[f64], c: &mut [f64], k: usize, wide: bool) {
    let n = b.len() / k;
    for (row, out) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        if wide {
            out.fill(0.0);
            for (&x, brow) in row.iter().zip(b.chunks_exact(n)) {
                for (acc, &y) in out.iter_mut().zip(brow) {
                    *acc = x.mul_add(y, *acc);
                }
            }
        } else {
            let mut acc = vec![0.0f32; n];
            for (&x, brow) in row.iter().zip(b.chunks_exact(n)) {
                for (acc, &y) in acc.iter_mut().zip(brow) {
                    *acc = x.mul_add(y, f64::from(*acc)) as f32;
                }
            }
            for (o, v) in out.iter_mut().zip(acc) {
                *o = f64::from(v);
            }
        }
    }
}

type Kernel = fn(&[f64], &[f64], &mut [f64], usize, bool);

fn kernel_portable(a: &[f64], b: &[f64], c: &mut [f64], k: usize, wide: bool) {
    kernel(a, b, c, k, wide)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma,avx2")]
fn kernel_fma(a: &[f64], b: &[f64], c: &mut [f64], k: usize, wide: bool) {
    kernel(a, b, c, k, wide)
}

#[cfg(target_arch = "x86_64")]
fn kernel_fma_checked(a: &[f64], b: &[f64], c: &mut [f64], k: usize, wide: bool) {
    // SAFETY: `pick_kernel` selects this only after
    // `is_x86_feature_detected!` confirmed both fma and avx2.
    unsafe { kernel_fma(a, b, c, k, wide) }
}

/// Hardware FMA when the host has it (correctly rounded, like the libm
/// call it replaces), the portable loop otherwise.
fn pick_kernel() -> (Kernel, &'static str) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("fma") && std::is_x86_feature_detected!("avx2") {
        return (kernel_fma_checked, "fl32(fma64) loop, hardware fma+avx2");
    }
    (kernel_portable, "fl32(fma64) loop, portable fma")
}
