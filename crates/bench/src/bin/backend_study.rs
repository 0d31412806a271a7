//! Warm execute-path throughput: NativeBackend vs the reference
//! SimBackend.
//!
//! The serve warm path runs execute-only — the plan and cost passes are
//! cached per shape class — so the execute backend is the whole story
//! for sustained repeated-shape traffic. This study builds each shape's
//! plan once (`gemm_cost_auto`, exactly what the serve cache holds) and
//! times `gemm_execute_plan_with` per backend over the same operands.
//! Both backends are bit-identical by contract (asserted here on every
//! shape); the only difference is wall-clock.
//!
//! Each shape is timed over `TRIALS` trials, alternating the backends
//! within a trial; the table reports the median and the minimum runs/s
//! of each backend across trials.
//!
//! ```text
//! cargo run --release -p kami-bench --bin backend_study [-- --quick] [--out PATH]
//! ```
//!
//! Emits `target/BENCH_backend.json` (override with `--out`) and exits
//! nonzero if the native backend's aggregate execute throughput falls
//! under 2x the simulator — the CI acceptance gate for the backend seam.

use kami_core::{gemm_cost_auto, gemm_execute_plan_with, Algo, KamiConfig};
use kami_gpu_sim::{device, BackendKind, Matrix, Precision};
use std::time::Instant;

/// Warm-path shape classes: the serve mix, one register-ladder
/// escalated block where the MMA volume dominates, and the two 3D
/// classes the server's tuner picks for its heaviest requests.
const SHAPES: [(usize, usize, usize, Algo, Precision); 6] = [
    (64, 64, 64, Algo::TwoD, Precision::Fp16),
    (32, 32, 64, Algo::OneD, Precision::Fp16),
    (128, 64, 64, Algo::TwoD, Precision::Fp16),
    (128, 128, 128, Algo::TwoD, Precision::Fp16),
    (128, 128, 128, Algo::ThreeD, Precision::Fp16),
    (64, 64, 64, Algo::ThreeD, Precision::Fp64),
];

/// Timed trials per shape and backend.
const TRIALS: usize = 5;

/// Median and minimum of `xs` (sorted in place).
fn median_min(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (xs[xs.len() / 2], xs[0])
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "target/BENCH_backend.json".into());
    let iters = if quick { 8 } else { 24 };
    let dev = device::gh200();

    println!(
        "# backend_study: warm execute-only runs/sec per backend, \
         {TRIALS} trials x {iters} iters/shape"
    );
    println!("# plain C=A*B, plan+cost cached (gemm_cost_auto once per shape)\n");
    println!(
        "{:<22} {:>10} {:>10} {:>13} {:>13} {:>9}",
        "shape", "sim med", "sim min", "native med", "native min", "speedup"
    );

    let mut rows = Vec::new();
    let mut sim_total = 0.0f64;
    let mut native_total = 0.0f64;
    for (i, &(m, n, k, algo, prec)) in SHAPES.iter().enumerate() {
        let cfg = KamiConfig::new(algo, prec);
        let plan = gemm_cost_auto(&dev, &cfg, m, n, k).expect("shape is feasible");
        let a = Matrix::seeded_uniform(m, k, i as u64);
        let b = Matrix::seeded_uniform(k, n, i as u64 + 100);

        // Conformance before speed: the two backends must agree bit for
        // bit on the exact operands being timed.
        let sim_c = gemm_execute_plan_with(&dev, &plan, &a, &b, BackendKind::Sim)
            .expect("sim executes")
            .c;
        let native_c = gemm_execute_plan_with(&dev, &plan, &a, &b, BackendKind::Native)
            .expect("native executes")
            .c;
        assert_eq!(
            sim_c.as_slice(),
            native_c.as_slice(),
            "{m}x{n}x{k}: backends must be bit-identical"
        );

        // runs/s per trial, [sim, native].
        let mut rps = [Vec::new(), Vec::new()];
        for _ in 0..TRIALS {
            for (slot, backend) in [BackendKind::Sim, BackendKind::Native]
                .into_iter()
                .enumerate()
            {
                let t0 = Instant::now();
                for _ in 0..iters {
                    gemm_execute_plan_with(&dev, &plan, &a, &b, backend).expect("warm execute");
                }
                let secs = t0.elapsed().as_secs_f64();
                if slot == 0 {
                    sim_total += secs;
                } else {
                    native_total += secs;
                }
                rps[slot].push(iters as f64 / secs);
            }
        }
        let (sim_med, sim_min) = median_min(&mut rps[0]);
        let (native_med, native_min) = median_min(&mut rps[1]);
        let speedup = native_med / sim_med;
        let shape = format!("{m}x{n}x{k} {} {}", algo.label(), prec.label());
        println!(
            "{shape:<22} {sim_med:>10.1} {sim_min:>10.1} {native_med:>13.1} {native_min:>13.1} \
             {speedup:>8.2}x"
        );
        rows.push(format!(
            "    {{\"shape\": \"{m}x{n}x{k}\", \"algo\": \"{}\", \"precision\": \"{}\", \
             \"sim_runs_per_s_median\": {sim_med:.3}, \"sim_runs_per_s_min\": {sim_min:.3}, \
             \"native_runs_per_s_median\": {native_med:.3}, \
             \"native_runs_per_s_min\": {native_min:.3}, \"speedup\": {speedup:.3}}}",
            algo.label(),
            prec.label()
        ));
    }

    let aggregate = sim_total / native_total;
    println!("\naggregate execute-path speedup (native vs sim): {aggregate:.2}x");

    let json = format!(
        "{{\n  \"study\": \"backend_study\",\n  \"device\": \"{}\",\n  \
         \"trials\": {TRIALS},\n  \"iters_per_trial\": {iters},\n  \"shapes\": [\n{}\n  ],\n  \
         \"sim_total_secs\": {sim_total:.6},\n  \"native_total_secs\": {native_total:.6},\n  \
         \"aggregate_speedup\": {aggregate:.3},\n  \"gate\": \"native >= 2x sim\"\n}}\n",
        dev.name,
        rows.join(",\n")
    );
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    std::fs::write(&out, json).expect("write BENCH_backend.json");
    println!("wrote {out}");

    if aggregate < 2.0 {
        eprintln!("FAIL: native execute throughput {aggregate:.2}x under the 2x acceptance bar");
        std::process::exit(1);
    }
    println!("PASS: >= 2x acceptance bar");
}
