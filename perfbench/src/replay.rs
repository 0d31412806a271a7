//! What the two serving workloads share: output digests, the direct
//! unserved reference call, and the traced replay of the layers a
//! request crosses inside `Server::tick`.
//!
//! The replay calls each layer's public entry point in the order the
//! warm path does — resolve config (tune), plan-cache cost lookup,
//! execute or direct path, then `Scheduler::run` per dispatched group —
//! against a replay `PlanCache` primed the same way as the server's. It
//! issues the same plan/cost store operations in the same order, so its
//! cache counters must equal the server's; `cache_mirrors` checks that.

use crate::spans::Spans;
use crate::stats::digest;
use kami_core::{gemm_cost, gemm_cost_auto, gemm_execute_plan_with, GemmResponse, Op, SharedTuner};
use kami_gpu_sim::{BackendKind, DeviceSpec};
use kami_sched::{BlockWork, PlanCache, PlanCacheStats, Scheduler, SparseWork};
use kami_serve::{ServeOutput, ServeRequest, Workload};
use std::collections::BTreeMap;

/// Digest of a served or direct payload.
pub fn output_digest(out: &ServeOutput) -> u64 {
    match out {
        ServeOutput::Dense(GemmResponse::Single(r)) => digest(&r.c),
        ServeOutput::Dense(GemmResponse::Batched(r)) => r
            .outputs
            .iter()
            .fold(0, |h, c| h.rotate_left(7) ^ digest(c)),
        ServeOutput::Spmm(r) => digest(&r.c),
        ServeOutput::Spgemm(r) => digest(&r.c.to_dense()),
    }
}

/// The plain dense operands and whether the request is `GemmAuto`, when
/// the server would take its split warm path (cached cost pass +
/// execute-only) for it; `None` for the direct path.
fn fast_path(req: &ServeRequest) -> Option<(&kami_core::GemmRequest, bool)> {
    let Workload::Dense(r) = &req.workload else {
        return None;
    };
    match &r.op {
        Op::Gemm { .. } if r.is_plain() => Some((r, false)),
        Op::GemmAuto { .. } if r.is_plain() && !r.is_skinny() => Some((r, true)),
        _ => None,
    }
}

/// The direct unserved result on `dev`: warm-path requests through a
/// freshly costed plan (config from `tuner`, which the server never
/// sees) on the native backend, everything else through
/// `ServeRequest::execute`. With `sim_too`, warm-path requests also run
/// the same plan on the reference Sim backend; both digests return.
fn direct_digest(
    dev: &DeviceSpec,
    req: &ServeRequest,
    tuner: &SharedTuner,
    sim_too: bool,
) -> Result<(u64, Option<u64>), String> {
    let Some((r, auto)) = fast_path(req) else {
        let out = req.execute(dev).map_err(|e| e.to_string())?;
        return Ok((output_digest(&out), None));
    };
    let (a, b) = match &r.op {
        Op::Gemm { a, b } | Op::GemmAuto { a, b } => (a, b),
        _ => unreachable!("fast path holds plain products only"),
    };
    let cfg = r
        .resolve_config_cached(dev, tuner)
        .map_err(|e| e.to_string())?;
    let (m, n, k) = r.shape();
    let plan = if auto {
        gemm_cost_auto(dev, &cfg, m, n, k)
    } else {
        gemm_cost(dev, &cfg, m, n, k)
    }
    .map_err(|e| e.to_string())?;
    let run = |backend| {
        gemm_execute_plan_with(dev, &plan, a, b, backend)
            .map(|res| digest(&res.c))
            .map_err(|e| e.to_string())
    };
    let native = run(BackendKind::Native)?;
    let sim = if sim_too {
        Some(run(BackendKind::Sim)?)
    } else {
        None
    };
    Ok((native, sim))
}

/// What checking a run's served payloads found.
pub struct Checked {
    /// Operations whose payload is missing or differs from the direct call.
    pub failed: usize,
    pub direct_calls: usize,
    pub sim_checked: usize,
    pub sim_mismatch: usize,
    pub errors: Vec<String>,
}

/// Check every served payload digest (`ops`: operand-set key and digest)
/// against the direct unserved call on `dev`, one call per distinct
/// operand set. Sets `sim_sample` picks also run on the Sim reference;
/// a Sim disagreement fails every operation of that set.
pub fn check_served<'a>(
    dev: &DeviceSpec,
    ops: &[((usize, usize), Option<u64>)],
    request: impl Fn((usize, usize)) -> &'a ServeRequest,
    mut sim_sample: impl FnMut((usize, usize)) -> bool,
) -> Checked {
    let tuner = SharedTuner::new();
    let mut expected: BTreeMap<(usize, usize), Option<u64>> = BTreeMap::new();
    let (mut sim_checked, mut sim_mismatch, mut errors) = (0, 0, Vec::new());
    for &(key, _) in ops {
        if expected.contains_key(&key) {
            continue;
        }
        let want = match direct_digest(dev, request(key), &tuner, sim_sample(key)) {
            Ok((native, None)) => Some(native),
            Ok((native, Some(sim))) => {
                sim_checked += 1;
                if sim != native {
                    sim_mismatch += 1;
                }
                (sim == native).then_some(native)
            }
            Err(e) => {
                errors.push(format!("direct call failed: {e}"));
                None
            }
        };
        expected.insert(key, want);
    }
    let failed = ops
        .iter()
        .filter(|(key, got)| got.is_none() || *got != expected[key])
        .count();
    Checked {
        failed,
        direct_calls: expected.len(),
        sim_checked,
        sim_mismatch,
        errors,
    }
}

/// Accumulators the replay fills beside its spans.
#[derive(Default)]
pub struct ReplayAcc {
    pub exec_flops: f64,
    /// Semantic-roof seconds for the executed products.
    pub roof_s: f64,
    pub util_weighted: f64,
    pub makespan_sum: f64,
    pub tuned_classes: usize,
    pub tuned_candidates: usize,
    /// Wall seconds spent replaying (spans included).
    pub wall_s: f64,
}

/// Replay one request's numerics on `dev` through the layer entry
/// points, as `Server::tick` runs them. `roof_s` is the semantic-roof
/// time of the request's shape class, when it has one.
pub fn replay_numerics(
    dev: &DeviceSpec,
    plans: &PlanCache,
    req: &ServeRequest,
    op: u64,
    roof_s: Option<f64>,
    spans: &mut Spans,
    acc: &mut ReplayAcc,
) -> Result<(), String> {
    if let Some((r, auto)) = fast_path(req) {
        let (a, b) = match &r.op {
            Op::Gemm { a, b } | Op::GemmAuto { a, b } => (a, b),
            _ => unreachable!("fast path holds plain products only"),
        };
        let (m, n, k) = r.shape();
        let misses = plans.tuner().misses();
        let cfg = spans
            .time("core.tune", op, || {
                r.resolve_config_cached(dev, plans.tuner())
            })
            .map_err(|e| e.to_string())?;
        if plans.tuner().misses() > misses {
            acc.tuned_classes += 1;
            acc.tuned_candidates += kami_core::tune::candidates(m, n, k, r.precision).len();
        }
        let plan = spans
            .time("core.cost", op, || {
                plans.gemm_plan_for(dev, &cfg, m, n, k, auto)
            })
            .map_err(|e| e.to_string())?;
        let res = spans
            .time("core.execute", op, || {
                gemm_execute_plan_with(dev, &plan, a, b, BackendKind::Native)
            })
            .map_err(|e| e.to_string())?;
        acc.exec_flops += res.useful_flops as f64;
        acc.roof_s += roof_s.unwrap_or(0.0);
        return Ok(());
    }
    match &req.workload {
        Workload::Dense(r) => spans
            .time("core.direct", op, || r.execute(dev))
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Workload::Spmm { a, b, cfg } => spans
            .time("sparse.spmm", op, || kami_sparse::spmm(dev, cfg, a, b))
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Workload::Spgemm { a, b, cfg } => spans
            .time("sparse.spgemm", op, || kami_sparse::spgemm(dev, cfg, a, b))
            .map(|_| ())
            .map_err(|e| e.to_string()),
    }
}

/// Replay one dispatched group's schedule on the charging device `dev`:
/// a solo sparse request through the nnz-weighted path, everything else
/// as one dense block-work pool — what `Server::tick` schedules.
pub fn replay_schedule(
    dev: &DeviceSpec,
    plans: &PlanCache,
    group: &[&ServeRequest],
    op: u64,
    spans: &mut Spans,
    acc: &mut ReplayAcc,
) -> Result<(), String> {
    let scheduler = Scheduler::new(dev);
    let (makespan, utilization) = match group {
        [req] if !matches!(req.workload, Workload::Dense(_)) => {
            let work = match &req.workload {
                Workload::Spmm { a, b, cfg } => SparseWork::from_spmm(a, b.cols(), cfg.precision),
                Workload::Spgemm { a, b, cfg } => SparseWork::from_spgemm(a, b, cfg.precision),
                Workload::Dense(_) => unreachable!("matched sparse above"),
            };
            let rep = spans
                .time("sched.schedule", op, || scheduler.run_sparse(&work, plans))
                .map_err(|e| e.to_string())?;
            (rep.schedule.makespan_cycles, rep.schedule.utilization)
        }
        _ => {
            let items = group.iter().flat_map(|r| r.work_items()).collect();
            let work = BlockWork::new(items);
            let rep = spans
                .time("sched.schedule", op, || scheduler.run(&work, plans))
                .map_err(|e| e.to_string())?;
            (rep.makespan_cycles, rep.utilization)
        }
    };
    acc.makespan_sum += makespan;
    acc.util_weighted += utilization * makespan;
    Ok(())
}

/// Partition a batch the way `Server::tick` coalesces it, as indices
/// into `batch`: same coalesce key shares a group, first-seen order,
/// keyless requests solo.
pub fn coalesce(batch: &[&ServeRequest]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut index: BTreeMap<_, usize> = BTreeMap::new();
    for (i, req) in batch.iter().enumerate() {
        match req.coalesce_key() {
            Some((m, n, k, p, epi)) => {
                let key = (m, n, k, p.label(), epi);
                match index.get(&key) {
                    Some(&g) => groups[g].push(i),
                    None => {
                        index.insert(key, groups.len());
                        groups.push(vec![i]);
                    }
                }
            }
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// The `sched.plan_cache.*` per-layer values from a cache snapshot.
pub fn cache_layers(stats: &PlanCacheStats, layers: &mut BTreeMap<String, f64>) {
    let (p, c) = (&stats.plans, &stats.costs);
    let lookups = p.hits + p.misses + c.hits + c.misses;
    layers.insert("sched.plan_cache.hits".into(), p.hits as f64);
    layers.insert("sched.plan_cache.misses".into(), p.misses as f64);
    layers.insert("sched.plan_cache.cost_hits".into(), c.hits as f64);
    layers.insert("sched.plan_cache.cost_misses".into(), c.misses as f64);
    layers.insert(
        "sched.plan_cache.hit_ratio".into(),
        (p.hits + c.hits) as f64 / lookups.max(1) as f64,
    );
    layers.insert(
        "sched.plan_cache.evictions".into(),
        stats.evictions() as f64,
    );
    layers.insert(
        "sched.plan_cache.admission_rejected".into(),
        stats.admission_rejected() as f64,
    );
    layers.insert(
        "sched.plan_cache.stampedes_avoided".into(),
        stats.stampedes_avoided() as f64,
    );
    layers.insert(
        "sched.plan_cache.resident_bytes".into(),
        stats.resident_bytes() as f64,
    );
}

/// Whether the replay cache issued exactly the server cache's store
/// operations (equal hit/miss/eviction/admission counters).
pub fn cache_mirrors(replay: &PlanCacheStats, served: &PlanCacheStats) -> bool {
    replay.plans == served.plans && replay.costs == served.costs
}

/// Per-layer values the replay and the client-side spans yield for
/// either serving workload. `client_s` is the wall time of the client
/// calls the replay reconstructs (`serve.tick`; submit and tick for the
/// fleet, where routing runs inside submit), the base of
/// `trace.coverage_frac`.
pub fn replay_layers(
    spans: &Spans,
    acc: &ReplayAcc,
    client_s: f64,
    layers: &mut BTreeMap<String, f64>,
) {
    let names = [
        "core.execute",
        "core.tune",
        "core.cost",
        "core.direct",
        "sched.schedule",
        "sparse.spmm",
        "sparse.spgemm",
        "serve.submit",
        "serve.tick",
    ];
    for name in names {
        layers.insert(format!("{name}.calls"), spans.calls(name) as f64);
        layers.insert(format!("{name}.busy_s"), spans.busy_s(name));
    }
    layers.insert("serve.wait.busy_s".into(), spans.busy_s("serve.wait"));
    let exec_s = spans.busy_s("core.execute");
    layers.insert(
        "core.execute.gflops".into(),
        acc.exec_flops / exec_s.max(f64::MIN_POSITIVE) / 1e9,
    );
    layers.insert(
        "core.execute.roof_frac".into(),
        acc.roof_s / exec_s.max(f64::MIN_POSITIVE),
    );
    layers.insert(
        "core.tune.candidates_per_class".into(),
        acc.tuned_candidates as f64 / acc.tuned_classes.max(1) as f64,
    );
    layers.insert(
        "sched.schedule.utilization_mean".into(),
        acc.util_weighted / acc.makespan_sum.max(f64::MIN_POSITIVE),
    );
    let submit_us: Vec<f64> = spans
        .durations_s("serve.submit")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    layers.insert(
        "serve.submit.p99_us".into(),
        crate::stats::quantile(&submit_us, 0.99),
    );
    layers.insert(
        "trace.coverage_frac".into(),
        acc.wall_s / client_s.max(f64::MIN_POSITIVE),
    );
}
