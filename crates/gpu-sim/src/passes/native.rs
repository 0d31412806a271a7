//! Native execution backend: the fast executor, host-speed
//! microkernels behind the [`ExecBackend`] seam.
//!
//! The reference interpreter's MMA pays, per accumulation step, two
//! precision round-trips on the inputs (for fp16/bf16 that is a
//! `f64 → half → f64` conversion each) plus per-op slice allocations.
//! None of that changes the bits: fragment data is invariantly
//! quantized at its declared precision (every write narrows — see
//! [`FragValue::store`]), and every [`Precision::round`] is idempotent,
//! so re-rounding already-quantized inputs is a no-op. The native
//! backend exploits exactly that: its microkernels read inputs as-is
//! and keep only the roundings that matter — one per accumulation step
//! at the accumulator precision (`f64::mul_add` product, then
//! `as f32 as f64` for FP32 accumulators, identity for FP64), and one
//! per element at the fragment's storage precision after each MMA — the
//! same places the simulator rounds.
//!
//! Phase order is the reference step's: warps serially in warp order,
//! ops in program order, so accumulation order is identical. The lean
//! loop skips only the race bookkeeping, and only on phases a static
//! analysis proves race-free; every other phase goes through the
//! reference step itself, so races, faults, panics, and error ordering
//! reproduce exactly.
//!
//! The inner loops are written to autovectorize: for each `(i, l)` the
//! column sweep is a chain-free FMA over independent accumulators,
//! unrolled by four. Unrolling reorders nothing — each `(i, j)` chain
//! still sees its `l`-steps in increasing order.

use super::backend::{BackendKind, ExecBackend, ExecOutcome};
use super::PlannedKernel;
use crate::cost::PhaseTally;
use crate::engine::{detect_races, frag_decl, require_init, BlockState, Engine};
use crate::error::SimError;
use crate::fragment::FragValue;
use crate::memory::global::GlobalMemory;
use crate::precision::Precision;
use crate::program::{Op, WarpProgram};
use crate::tensor_core::shape_for;

/// Host-speed execution backend, bit-identical to
/// [`SimBackend`](super::exec::SimBackend) by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend;

impl ExecBackend for NativeBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Native
    }

    fn execute(
        &self,
        engine: &Engine<'_>,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<ExecOutcome, SimError> {
        let mut state = BlockState::new(engine.device, plan.kernel);
        let mut fast_phases = 0usize;
        for phase in 0..plan.phases {
            if phase_is_race_free(plan, phase) {
                run_phase_native(engine, plan, phase, gmem, &mut state)?;
                fast_phases += 1;
            } else {
                let mut tally = PhaseTally::default();
                engine.exec_phase(plan, phase, gmem, &mut state, &mut tally, None)?;
            }
        }
        Ok(ExecOutcome {
            backend: BackendKind::Native,
            phases: plan.phases,
            fast_phases,
            fallback_phases: plan.phases - fast_phases,
        })
    }
}

/// Static race analysis of one phase: `true` when the phase's
/// shared-memory ranges pass the same [`detect_races`] check the
/// reference step applies at run time. Op addresses and fragment sizes
/// are static, so the verdict equals the runtime one; a fragment id out
/// of range leaves the range unknown and sends the phase to the
/// reference step.
fn phase_is_race_free(plan: &PlannedKernel<'_>, phase: usize) -> bool {
    let mut writes: Vec<(usize, (usize, usize))> = Vec::new();
    let mut reads: Vec<(usize, (usize, usize))> = Vec::new();
    for w in 0..plan.warps {
        let frags = &plan.kernel.warps[w].frags;
        let bytes = |id: usize| frags.get(id).map(|d| d.elems() * d.precision.size_bytes());
        for op in plan.ops(w, phase) {
            match *op {
                Op::SharedStore { src, addr } => match bytes(src) {
                    Some(n) => writes.push((w, (addr, n))),
                    None => return false,
                },
                Op::SharedLoad { dst, addr } => match bytes(dst) {
                    Some(n) => reads.push((w, (addr, n))),
                    None => return false,
                },
                Op::MetaStore { addr, bytes } => writes.push((w, (addr, bytes))),
                Op::MetaLoad { addr, bytes } => reads.push((w, (addr, bytes))),
                _ => {}
            }
        }
    }
    detect_races(&writes, &reads).is_ok()
}

/// One statically race-free phase in warp order. MMAs go through the
/// native microkernels; every other op runs the reference interpreter's
/// own handler, so checks, error messages, and traffic counters are
/// shared code, not reimplementations. Race vectors stay unused — the
/// static analysis already proved this phase free of the hazards
/// [`detect_races`] would flag.
fn run_phase_native(
    engine: &Engine<'_>,
    plan: &PlannedKernel<'_>,
    phase: usize,
    gmem: &mut GlobalMemory,
    state: &mut BlockState,
) -> Result<(), SimError> {
    let mut tally = PhaseTally::default();
    let mut writes: Vec<(usize, (usize, usize))> = Vec::new();
    let mut reads: Vec<(usize, (usize, usize))> = Vec::new();
    for (w, warp_frags) in state.frags.iter_mut().enumerate() {
        let prog = &plan.kernel.warps[w];
        for op in plan.ops(w, phase) {
            match *op {
                Op::Mma {
                    d,
                    a,
                    b,
                    a_cols,
                    b_rows,
                } => {
                    require_init(warp_frags, a, w, prog)?;
                    require_init(warp_frags, b, w, prog)?;
                    require_init(warp_frags, d, w, prog)?;
                    native_mma(engine, prog, d, a, b, a_cols, b_rows, warp_frags)?;
                }
                _ => {
                    engine.exec_op(
                        w,
                        prog,
                        op,
                        gmem,
                        &mut state.smem,
                        warp_frags,
                        &mut tally,
                        &mut writes,
                        &mut reads,
                    )?;
                }
            }
        }
    }
    Ok(())
}

/// Native fragment MMA: the same legality checks as the reference
/// interpreter's `exec_mma`, in the same order and with the same messages,
/// then a strided zero-copy microkernel instead of slice extraction and
/// per-step input re-rounding.
#[allow(clippy::too_many_arguments)]
fn native_mma(
    engine: &Engine<'_>,
    prog: &WarpProgram,
    d: usize,
    a: usize,
    b: usize,
    a_cols: Option<(usize, usize)>,
    b_rows: Option<(usize, usize)>,
    warp_frags: &mut [FragValue],
) -> Result<(), SimError> {
    let (ad, bd, dd) = (
        frag_decl(prog, a)?.clone(),
        frag_decl(prog, b)?.clone(),
        frag_decl(prog, d)?.clone(),
    );
    if ad.precision != bd.precision {
        return Err(SimError::ShapeMismatch {
            detail: format!("A is {:?} but B is {:?}", ad.precision, bd.precision),
        });
    }
    let (ac0, ak) = a_cols.unwrap_or((0, ad.cols));
    let (br0, bk) = b_rows.unwrap_or((0, bd.rows));
    if ac0 + ak > ad.cols || br0 + bk > bd.rows {
        return Err(SimError::BadOperand {
            detail: format!(
                "k-slice out of bounds: a[:, {ac0}..{}] of {} cols, b[{br0}..{}, :] of {} rows",
                ac0 + ak,
                ad.cols,
                br0 + bk,
                bd.rows
            ),
        });
    }
    if ak != bk {
        return Err(SimError::ShapeMismatch {
            detail: format!("k extents differ: {ak} vs {bk}"),
        });
    }
    if dd.rows != ad.rows || dd.cols != bd.cols {
        return Err(SimError::ShapeMismatch {
            detail: format!(
                "C is {}x{} but A·B is {}x{}",
                dd.rows, dd.cols, ad.rows, bd.cols
            ),
        });
    }
    shape_for(engine.device, ad.precision).ok_or_else(|| SimError::UnsupportedPrecision {
        device: engine.device.name.to_string(),
        precision: ad.precision.label().to_string(),
    })?;

    let (m, n, k) = (ad.rows, bd.cols, ak);
    let acc = ad.precision.accumulator();
    // All checks passed; take D out so A and B can be borrowed directly.
    // Aliased operands (D doubling as A or B) would see an empty buffer,
    // so they go through copied slices like the simulator.
    if d == a || d == b {
        let a_slice: Vec<f64> = {
            let src = &warp_frags[a].data;
            let mut v = Vec::with_capacity(m * k);
            for r in 0..m {
                v.extend_from_slice(&src[r * ad.cols + ac0..r * ad.cols + ac0 + ak]);
            }
            v
        };
        let b_slice: Vec<f64> = {
            let src = &warp_frags[b].data;
            let mut v = Vec::with_capacity(k * n);
            for r in 0..k {
                v.extend_from_slice(&src[(br0 + r) * bd.cols..(br0 + r) * bd.cols + n]);
            }
            v
        };
        microkernel(
            acc,
            m,
            n,
            k,
            &a_slice,
            k,
            0,
            &b_slice,
            n,
            0,
            &mut warp_frags[d].data,
        );
    } else {
        let mut d_data = std::mem::take(&mut warp_frags[d].data);
        microkernel(
            acc,
            m,
            n,
            k,
            &warp_frags[a].data,
            ad.cols,
            ac0,
            &warp_frags[b].data,
            bd.cols,
            br0,
            &mut d_data,
        );
        warp_frags[d].data = d_data;
    }
    // The accumulator fragment holds values at its own precision — the
    // simulator's post-MMA narrowing, kept verbatim.
    let dp = dd.precision;
    if dp != Precision::Fp64 {
        for x in warp_frags[d].data.iter_mut() {
            *x = dp.round(*x);
        }
    }
    Ok(())
}

/// Dispatch on the accumulator precision. FP64 inputs accumulate at
/// FP64 (the rounding is the identity); everything else accumulates at
/// FP32 — one `as f32 as f64` per step, exactly
/// [`fma_acc`](crate::precision::fma_acc) with the input re-rounding
/// elided (inputs are invariantly pre-quantized).
#[allow(clippy::too_many_arguments)]
#[inline]
fn microkernel(
    acc: Precision,
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_stride: usize,
    ac0: usize,
    b: &[f64],
    b_stride: usize,
    br0: usize,
    d: &mut [f64],
) {
    debug_assert_eq!(d.len(), m * n);
    match acc {
        Precision::Fp64 => mma_rows::<false>(m, n, k, a, a_stride, ac0, b, b_stride, br0, d),
        _ => mma_rows::<true>(m, n, k, a, a_stride, ac0, b, b_stride, br0, d),
    }
}

#[inline(always)]
fn fma_step<const ROUND32: bool>(a: f64, b: f64, c: f64) -> f64 {
    let s = a.mul_add(b, c);
    if ROUND32 {
        s as f32 as f64
    } else {
        s
    }
}

/// `d[m×n] += a[:, ac0..ac0+k] · b[br0..br0+k, :]` with the `(i, l, j)`
/// loop order: each `(i, j)` accumulator still sees its `l`-steps in
/// increasing order (bit-identical to the simulator's `(i, j, l)`
/// order), while the inner column sweep is independent FMAs the
/// compiler can vectorize. Explicit 4-way unroll for the common
/// power-of-two tile widths.
#[allow(clippy::too_many_arguments)]
fn mma_rows<const ROUND32: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f64],
    a_stride: usize,
    ac0: usize,
    b: &[f64],
    b_stride: usize,
    br0: usize,
    d: &mut [f64],
) {
    for i in 0..m {
        let a_row = &a[i * a_stride + ac0..i * a_stride + ac0 + k];
        let d_row = &mut d[i * n..(i + 1) * n];
        for (l, &av) in a_row.iter().enumerate() {
            let b_row = &b[(br0 + l) * b_stride..(br0 + l) * b_stride + n];
            let mut j = 0;
            while j + 4 <= n {
                d_row[j] = fma_step::<ROUND32>(av, b_row[j], d_row[j]);
                d_row[j + 1] = fma_step::<ROUND32>(av, b_row[j + 1], d_row[j + 1]);
                d_row[j + 2] = fma_step::<ROUND32>(av, b_row[j + 2], d_row[j + 2]);
                d_row[j + 3] = fma_step::<ROUND32>(av, b_row[j + 3], d_row[j + 3]);
                j += 4;
            }
            while j < n {
                d_row[j] = fma_step::<ROUND32>(av, b_row[j], d_row[j]);
                j += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::gh200;
    use crate::matrix::Matrix;
    use crate::memory::global::BufferId;
    use crate::program::BlockKernel;

    /// Every `Precision::round` must be idempotent: the microkernels
    /// skip input re-rounding on that invariant.
    #[test]
    fn rounding_is_idempotent_on_quantized_values() {
        let precs = [
            Precision::Fp64,
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16,
            Precision::Bf16,
            Precision::Fp8E4M3,
        ];
        for p in precs {
            let mut x = -1000.0f64;
            while x < 1000.0 {
                let once = p.round(x);
                assert_eq!(p.round(once), once, "{p:?} not idempotent at {x}");
                x += 0.337;
            }
            for &edge in &[0.0, -0.0, p.max_finite(), -p.max_finite(), 1e300, 1e-300] {
                let once = p.round(edge);
                assert_eq!(p.round(once), once, "{p:?} not idempotent at {edge}");
            }
        }
    }

    /// Run `k` through the reference run and through plan → cost →
    /// execute on every backend. Reports and traces must serialize
    /// identically, global memory (values and traffic counters) must
    /// match bit for bit, and a failing kernel must fail with the same
    /// `Debug` error everywhere. Returns `[sim, native]` outcomes.
    fn assert_matches_reference(
        k: &BlockKernel,
        build: impl Fn(&mut GlobalMemory),
    ) -> [Result<ExecOutcome, SimError>; 2] {
        let dev = gh200();
        let eng = Engine::new(&dev);
        let mut g_ref = GlobalMemory::new();
        build(&mut g_ref);
        let reference = eng.run_traced(k, &mut g_ref).map(|(report, trace)| {
            (
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&trace).unwrap(),
            )
        });
        BackendKind::ALL.map(|backend| {
            let mut g = GlobalMemory::new();
            build(&mut g);
            let split = eng.plan(k).and_then(|plan| {
                let (report, trace) = eng.cost_traced(&plan, &g.layout())?;
                let outcome = eng.execute_with(backend, &plan, &mut g)?;
                Ok((
                    serde_json::to_string(&report).unwrap(),
                    serde_json::to_string(&trace).unwrap(),
                    outcome,
                ))
            });
            match (&reference, &split) {
                (Ok((report, trace)), Ok((s_report, s_trace, _))) => {
                    assert_eq!(report, s_report, "{backend}: report diverges");
                    assert_eq!(trace, s_trace, "{backend}: trace diverges");
                    assert_state_identical(&g_ref, &g);
                }
                (Err(e), Err(s_e)) => assert_eq!(format!("{e:?}"), format!("{s_e:?}")),
                _ => panic!("{backend}: reference {reference:?} vs split {split:?}"),
            }
            split.map(|(_, _, outcome)| outcome)
        })
    }

    fn assert_state_identical(g_ref: &GlobalMemory, g: &GlobalMemory) {
        assert_eq!(g_ref.bytes_read(), g.bytes_read());
        assert_eq!(g_ref.bytes_written(), g.bytes_written());
        for i in 0..g_ref.buffer_count() {
            let id = BufferId(i);
            assert_eq!(
                g_ref.download(id).max_abs_diff(&g.download(id)),
                0.0,
                "buffer '{}' diverges",
                g_ref.name(id)
            );
        }
    }

    #[test]
    fn native_matches_sim_on_gemm_all_precisions() {
        for prec in [
            Precision::Fp64,
            Precision::Fp32,
            Precision::Tf32,
            Precision::Fp16,
            Precision::Bf16,
            Precision::Fp8E4M3,
        ] {
            // All four warps load the same A/B windows; disjoint smem
            // staging; warp 0 alone stores C.
            let n = 16;
            let k = BlockKernel::spmd(4, |i, w| {
                let fa = w.frag("A", n, n, prec);
                let fb = w.frag("B", n, n, prec);
                let fc = w.frag("C", n, n, prec);
                w.global_load(fa, BufferId(0), 0, 0);
                w.global_load(fb, BufferId(1), 0, 0);
                w.zero_acc(fc);
                w.mma(fc, fa, fb);
                w.shared_store(fc, i * n * n * 8);
                w.barrier();
                w.shared_load(fc, i * n * n * 8);
                if i == 0 {
                    w.global_store(fc, BufferId(2), 0, 0);
                }
            });
            let [sim, nat] = assert_matches_reference(&k, |g| {
                g.upload("A", &Matrix::seeded_uniform(n, n, 1), prec);
                g.upload("B", &Matrix::seeded_uniform(n, n, 2), prec);
                g.alloc_zeroed("C", n, n, prec);
            });
            assert_eq!(sim.unwrap().backend, BackendKind::Sim);
            let nat = nat.unwrap();
            assert_eq!(nat.backend, BackendKind::Native);
            assert_eq!(nat.fallback_phases, 0, "{prec:?}: safe phases fell back");
        }
    }

    #[test]
    fn native_matches_sim_on_edge_kernels() {
        // k-sliced MMA with a strided A window exercises the zero-copy
        // stride math against the simulator's slice extraction.
        let (m, n, kk) = (8, 8, 32);
        let sliced = BlockKernel::spmd(1, |_, w| {
            let fa = w.frag("A", m, kk, Precision::Fp16);
            let fb = w.frag("B", kk, n, Precision::Fp16);
            let fc = w.frag("C", m, n, Precision::Fp16);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            for chunk in 0..4 {
                w.ops.push(Op::Mma {
                    d: fc,
                    a: fa,
                    b: fb,
                    a_cols: Some((chunk * 8, 8)),
                    b_rows: Some((chunk * 8, 8)),
                });
            }
            w.global_store(fc, BufferId(2), 0, 0);
        });
        let [sim, nat] = assert_matches_reference(&sliced, |g| {
            g.upload("A", &Matrix::seeded_uniform(m, kk, 5), Precision::Fp16);
            g.upload("B", &Matrix::seeded_uniform(kk, n, 6), Precision::Fp16);
            g.alloc_zeroed("C", m, n, Precision::Fp16);
        });
        sim.unwrap();
        nat.unwrap();
        // Warp 0 stores then reloads the same C window inside one phase.
        let rmw = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 2, 2, Precision::Fp64);
            w.global_load(f, BufferId(0), 0, 0);
            if i == 0 {
                w.global_store(f, BufferId(1), 0, 0);
                w.global_load(f, BufferId(1), 0, 0);
            }
        });
        let [sim, nat] = assert_matches_reference(&rmw, |g| {
            g.upload("A", &Matrix::seeded_uniform(2, 2, 3), Precision::Fp64);
            g.alloc_zeroed("C", 2, 2, Precision::Fp64);
        });
        sim.unwrap();
        nat.unwrap();
        // Each warp accumulates into a disjoint row band of C; the
        // result must carry the reference's warp-order rounding.
        let acc = BlockKernel::spmd(2, |i, w| {
            let fa = w.frag("a", 2, 4, Precision::Fp16);
            w.global_load(fa, BufferId(0), i * 2, 0);
            w.global_accumulate(fa, BufferId(1), i * 2, 0);
        });
        let [sim, nat] = assert_matches_reference(&acc, |g| {
            g.upload("A", &Matrix::seeded_uniform(4, 4, 7), Precision::Fp16);
            g.upload("C", &Matrix::seeded_uniform(4, 4, 9), Precision::Fp16);
        });
        sim.unwrap();
        nat.unwrap();
    }

    #[test]
    fn unsafe_phase_falls_back_and_errors_identically() {
        // Cross-warp smem overlap: native must fall back to the
        // reference step and surface the identical hazard.
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            } else {
                w.shared_load(f, 0);
            }
        });
        let [sim, nat] = assert_matches_reference(&k, |_| {});
        assert!(matches!(sim, Err(SimError::SharedMemoryHazard { .. })));
        assert_eq!(sim, nat);
    }

    #[test]
    fn native_reports_lowest_warp_error_like_sim() {
        // Disjoint smem addresses (race-free), but warps 1 and 2 both
        // store uninitialized fragments; the reference reaches warp 1
        // first.
        let k = BlockKernel::spmd(3, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            if i == 0 {
                w.zero_acc(f);
            }
            w.shared_store(f, i * 64);
        });
        let [sim, nat] = assert_matches_reference(&k, |_| {});
        assert!(matches!(
            sim,
            Err(SimError::UninitializedFragment { warp: 1, .. })
        ));
        assert_eq!(sim, nat);
    }

    #[test]
    fn native_mma_error_messages_match_sim() {
        // k-extent mismatch inside an otherwise safe phase.
        let k = BlockKernel::spmd(1, |_, w| {
            let a = w.frag("a", 4, 8, Precision::Fp16);
            let b = w.frag("b", 4, 4, Precision::Fp16);
            let c = w.frag("c", 4, 4, Precision::Fp32);
            w.zero_acc(a);
            w.zero_acc(b);
            w.zero_acc(c);
            w.mma(c, a, b);
        });
        let [sim, _] = assert_matches_reference(&k, |_| {});
        assert!(sim.is_err());
    }

    #[test]
    fn native_single_warp_safe_phase_skips_fallback() {
        // Sim has no fast path; the native lean loop takes every
        // race-free phase, single-warp ones included.
        let n = 8;
        let k = BlockKernel::spmd(1, |_, w| {
            let fa = w.frag("A", n, n, Precision::Fp32);
            let fb = w.frag("B", n, n, Precision::Fp32);
            let fc = w.frag("C", n, n, Precision::Fp32);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.global_store(fc, BufferId(2), 0, 0);
        });
        let [sim, nat] = assert_matches_reference(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(n, n, 3), Precision::Fp32);
            g.upload("B", &Matrix::seeded_uniform(n, n, 4), Precision::Fp32);
            g.alloc_zeroed("C", n, n, Precision::Fp32);
        });
        assert_eq!(sim.unwrap().fast_phases, 0);
        assert_eq!(nat.unwrap().fast_phases, 1);
    }
}
