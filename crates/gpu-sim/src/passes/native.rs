//! Native execution backend: the fast executor, host-speed
//! microkernels behind the [`ExecBackend`] seam.
//!
//! The reference interpreter's MMA pays, per accumulation step, two
//! precision round-trips on the inputs plus per-op slice allocations.
//! None of that changes the bits: fragment data is invariantly
//! quantized at its declared precision (every write narrows — see
//! [`FragValue::store`]), and every [`Precision::round`] is idempotent,
//! so re-rounding already-quantized inputs is a no-op. The native
//! backend exploits exactly that: its microkernel reads inputs in place
//! and keeps only the roundings that matter — one per accumulation step
//! at the accumulator precision (`f64::mul_add`, then `as f32 as f64`
//! for FP32 accumulators, identity for FP64), and one per element at
//! the fragment's storage precision after each MMA — the same places
//! the simulator rounds.
//!
//! Phase order is the reference step's: warps serially in warp order,
//! ops in program order, so accumulation order is identical. The lean
//! loop skips only the race bookkeeping, and only on phases a static
//! analysis proves race-free; every other phase goes through the
//! reference step itself, so races, faults, panics, and error ordering
//! reproduce exactly.
//!
//! The microkernel is register-blocked: for each row of D it holds a
//! strip of 16 (then 8, then 4) columns in locals across the whole k
//! loop, with a scalar tail, so D is read and written once per MMA.
//! Each `(i, j)` accumulator still sees its `l`-steps in increasing
//! order, one rounded FMA per step. The one generic body is compiled
//! twice: a portable build, and an `fma,avx2` build picked at run time
//! by `is_x86_feature_detected!`. On a baseline x86-64 target every
//! `mul_add` of the portable build is an out-of-line call to the
//! runtime's `fma`; the FMA build turns it into one `vfmadd` and
//! vectorizes the strips. Hardware FMA is correctly rounded, exactly
//! like the call it replaces, so both builds produce the same bits.

use super::backend::{BackendKind, ExecBackend, ExecOutcome};
use super::PlannedKernel;
use crate::cost::PhaseTally;
use crate::engine::{check_mma, detect_races, require_init, BlockState, Engine};
use crate::error::SimError;
use crate::fragment::FragValue;
use crate::memory::global::GlobalMemory;
use crate::precision::Precision;
use crate::program::{Op, WarpProgram};

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

/// Native fragment MMA: the reference interpreter's legality checks
/// (shared code, so the same order and messages), then the
/// register-blocked microkernel reading A and B in place instead of
/// slice extraction and per-step input re-rounding.
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
    let ops = check_mma(engine.device, prog, d, a, b, a_cols, b_rows)?;
    let dims = MmaDims {
        m: ops.a.rows,
        n: ops.b.cols,
        k: ops.k,
        lda: ops.a.cols,
        ldb: ops.b.cols,
    };
    let round32 = ops.a.precision.accumulator() != Precision::Fp64;
    accumulate(
        microkernel,
        round32,
        dims,
        warp_frags,
        d,
        (a, ops.ac0),
        (b, ops.br0 * ops.b.cols),
        ops.d.precision,
    );
    Ok(())
}

/// The geometry of one MMA, `d[m×n] += a[m×k] · b[k×n]`: A and B are
/// read through row strides `lda` and `ldb` from the first element of
/// their k-windows, and D is dense row-major.
#[derive(Debug, Clone, Copy)]
struct MmaDims {
    m: usize,
    n: usize,
    k: usize,
    lda: usize,
    ldb: usize,
}

/// A microkernel build: `d += a · b` at FP32 (`round32`) or FP64
/// accumulation.
type Microkernel = fn(round32: bool, dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]);

/// `frags[d] += frags[a][.., a_off..] · frags[b][b_off..]` through
/// `kernel`, then narrow D to its storage precision `dp` — the
/// simulator's post-MMA rounding, kept verbatim. An operand aliasing D
/// is read from a snapshot taken before the MMA, as the reference's
/// slice extraction reads it.
#[allow(clippy::too_many_arguments)]
fn accumulate(
    kernel: Microkernel,
    round32: bool,
    dims: MmaDims,
    frags: &mut [FragValue],
    d: usize,
    (a, a_off): (usize, usize),
    (b, b_off): (usize, usize),
    dp: Precision,
) {
    let mut d_data = std::mem::take(&mut frags[d].data);
    let snapshot = (d == a || d == b).then(|| d_data.clone());
    let operand = |id: usize| match &snapshot {
        Some(s) if id == d => s.as_slice(),
        _ => frags[id].data.as_slice(),
    };
    kernel(
        round32,
        dims,
        &operand(a)[a_off..],
        &operand(b)[b_off..],
        &mut d_data,
    );
    if dp != Precision::Fp64 {
        for x in d_data.iter_mut() {
            *x = dp.round(*x);
        }
    }
    frags[d].data = d_data;
}

/// The host's fastest microkernel build: the FMA/AVX2 one when the CPU
/// has those features, else the portable one. Both are the same code,
/// so they produce the same bits.
fn microkernel(round32: bool, dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]) {
    if !mma_fma(round32, dims, a, b, d) {
        mma_portable(round32, dims, a, b, d);
    }
}

/// The microkernel for the build's baseline target. On baseline x86-64
/// each `f64::mul_add` here is an out-of-line call into the runtime's
/// correctly rounded `fma`.
fn mma_portable(round32: bool, dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]) {
    if round32 {
        mma_rows::<true>(dims, a, b, d);
    } else {
        mma_rows::<false>(dims, a, b, d);
    }
}

/// Run the FMA/AVX2 build of the microkernel if the host supports it.
/// Returns `false`, leaving `d` untouched, when it does not.
fn mma_fma(round32: bool, dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `mma_rows_fma` requires only the `fma` and `avx2`
        // target features, and the host was just checked to have both.
        unsafe { mma_rows_fma(round32, dims, a, b, d) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (round32, dims, a, b, d);
    false
}

/// [`mma_rows`] compiled with hardware FMA and AVX2: `mul_add` becomes
/// one `vfmadd` (correctly rounded, like the call it replaces) and the
/// strips vectorize.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma,avx2")]
fn mma_rows_fma(round32: bool, dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]) {
    if round32 {
        mma_rows::<true>(dims, a, b, d);
    } else {
        mma_rows::<false>(dims, a, b, d);
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

/// `d += a · b`, register-blocked: each row of D is swept in strips of
/// 16, then 8, then 4 columns, and a scalar tail; a strip stays in
/// locals across the whole k loop, so D is loaded and stored once per
/// MMA rather than once per k-step. Each `(i, j)` accumulator still sees
/// its `l`-steps in increasing order, one rounded FMA each — exactly the
/// reference's `(i, j, l)` order, so the bits are the same.
#[inline(always)]
fn mma_rows<const ROUND32: bool>(dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]) {
    let MmaDims { m, n, k, lda, ldb } = dims;
    for i in 0..m {
        let a_row = &a[i * lda..][..k];
        let d_row = &mut d[i * n..][..n];
        let mut j = 0;
        while j + 16 <= n {
            strip::<16, ROUND32>(a_row, b, ldb, j, d_row);
            j += 16;
        }
        if j + 8 <= n {
            strip::<8, ROUND32>(a_row, b, ldb, j, d_row);
            j += 8;
        }
        if j + 4 <= n {
            strip::<4, ROUND32>(a_row, b, ldb, j, d_row);
            j += 4;
        }
        while j < n {
            strip::<1, ROUND32>(a_row, b, ldb, j, d_row);
            j += 1;
        }
    }
}

/// Columns `j0..j0 + W` of one D row, accumulated over all of `a_row`.
#[inline(always)]
fn strip<const W: usize, const ROUND32: bool>(
    a_row: &[f64],
    b: &[f64],
    ldb: usize,
    j0: usize,
    d_row: &mut [f64],
) {
    let d_strip: &mut [f64; W] = (&mut d_row[j0..j0 + W])
        .try_into()
        .expect("strip is W columns wide");
    let mut acc = *d_strip;
    for (l, &av) in a_row.iter().enumerate() {
        let b_strip: &[f64; W] = b[l * ldb + j0..][..W]
            .try_into()
            .expect("strip is W columns wide");
        for (c, &bv) in acc.iter_mut().zip(b_strip) {
            *c = fma_step::<ROUND32>(av, bv, *c);
        }
    }
    *d_strip = acc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::gh200;
    use crate::fragment::FragDecl;
    use crate::matrix::Matrix;
    use crate::memory::global::BufferId;
    use crate::precision::fma_acc;
    use crate::program::BlockKernel;
    use proptest::prelude::*;

    const PRECISIONS: [Precision; 6] = [
        Precision::Fp64,
        Precision::Fp32,
        Precision::Tf32,
        Precision::Fp16,
        Precision::Bf16,
        Precision::Fp8E4M3,
    ];

    /// Row-major `rows × cols` fragment of seeded values quantized at
    /// `p`, as every fragment write leaves them.
    fn frag(rows: usize, cols: usize, p: Precision, seed: u64) -> FragValue {
        let mut f = FragValue::new(FragDecl::new("x", rows, cols, p));
        f.store(Matrix::seeded_uniform(rows, cols, seed).as_slice());
        f
    }

    /// The FMA build, for hosts that have it.
    fn fma_kernel(round32: bool, dims: MmaDims, a: &[f64], b: &[f64], d: &mut [f64]) {
        assert!(mma_fma(round32, dims, a, b, d), "host lacks fma/avx2");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Both microkernel builds against the plain `fma_acc` loop in
        /// the reference's `(i, j, l)` order: every shape up to 70 in
        /// each dimension (so every strip width and ragged tail runs),
        /// k-slices at offsets into wider A and taller B, and D aliasing
        /// A (`alias` 1) or B (`alias` 2), at every precision.
        #[test]
        fn microkernels_match_fma_acc_loop(
            m in 1usize..=70,
            n in 1usize..=70,
            k in 1usize..=70,
            slack in 0usize..4,
            alias in 0usize..3,
            prec_idx in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            let p = PRECISIONS[prec_idx];
            let acc = p.accumulator();
            // Fragment ids: 0 = D, 1 = A, 2 = B; an aliased operand is D.
            let (a_rows, a_cols, b_rows, b_cols) = match alias {
                1 => (m, n, k + slack, n),
                2 => (m, k + slack, m, n),
                _ => (m, k + slack, k + slack, n),
            };
            let k = match alias {
                1 => k.min(n),
                2 => k.min(m),
                _ => k,
            };
            let ac0 = seed as usize % (a_cols - k + 1);
            let br0 = (seed / 7) as usize % (b_rows - k + 1);
            let frags = vec![
                frag(m, n, p, seed),
                frag(a_rows, a_cols, p, seed + 1),
                frag(b_rows, b_cols, p, seed + 2),
            ];
            let (a, b) = match alias {
                1 => (0, 2),
                2 => (1, 0),
                _ => (1, 2),
            };
            let (a_data, b_data) = (frags[a].data.clone(), frags[b].data.clone());
            let mut want = frags[0].data.clone();
            for i in 0..m {
                for j in 0..n {
                    let mut c = want[i * n + j];
                    for l in 0..k {
                        let av = a_data[i * a_cols + ac0 + l];
                        let bv = b_data[(br0 + l) * b_cols + j];
                        c = fma_acc(acc, av, bv, c);
                    }
                    want[i * n + j] = p.round(c);
                }
            }
            let dims = MmaDims { m, n, k, lda: a_cols, ldb: b_cols };
            let mut kernels: Vec<(&str, Microkernel)> = vec![("portable", mma_portable)];
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                kernels.push(("fma", fma_kernel));
            }
            for (name, kernel) in kernels {
                let mut got = frags.clone();
                accumulate(
                    kernel,
                    acc != Precision::Fp64,
                    dims,
                    &mut got,
                    0,
                    (a, ac0),
                    (b, br0 * b_cols),
                    p,
                );
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got[0].data), bits(&want), "{} build diverges", name);
            }
        }
    }

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
        // D doubling as A: the product must read A as it was before the
        // MMA, like the reference's slice extraction.
        let aliased = BlockKernel::spmd(1, |_, w| {
            let fa = w.frag("A", 8, 8, Precision::Fp32);
            let fb = w.frag("B", 8, 8, Precision::Fp32);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.mma(fa, fa, fb);
            w.global_store(fa, BufferId(2), 0, 0);
        });
        let [sim, nat] = assert_matches_reference(&aliased, |g| {
            g.upload("A", &Matrix::seeded_uniform(8, 8, 11), Precision::Fp32);
            g.upload("B", &Matrix::seeded_uniform(8, 8, 12), Precision::Fp32);
            g.alloc_zeroed("C", 8, 8, Precision::Fp32);
        });
        sim.unwrap();
        assert_eq!(nat.unwrap().fast_phases, 1);
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
