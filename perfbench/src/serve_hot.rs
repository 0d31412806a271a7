//! `serve_hot`: warm traffic on one GH200 `Server` with the native
//! backend. A few repeated shape classes, every one warmed in set-up, so
//! native execute and coalesced groups carry the wall time while tune,
//! cost and scheduling are cache hits.
//!
//! The client is one thread in a closed loop with a window of 16: it
//! submits 16 requests, ticks the server once, and collects all 16
//! results before submitting the next window. A round is 128 requests
//! (8 windows) with a fixed class mix in a seeded order; the two heavy
//! 128³ requests land in two seeded windows and the tall-skinny rider
//! rides with the first of them, so a quarter of the windows are heavy
//! in every round. With that fixed share the median latency falls among
//! light windows and the 90th percentile among heavy ones whatever the
//! seed, instead of on the edge between them.
//!
//! The fused and tall-skinny riders pin their algorithm: the direct path
//! re-runs the whole tuning sweep for an unpinned request on every call,
//! which would swamp the execute-bound traffic this workload measures.

use crate::replay::{
    cache_layers, cache_mirrors, check_served, coalesce, output_digest, replay_layers,
    replay_numerics, replay_schedule, ReplayAcc,
};
use crate::spans::{timed, Spans};
use crate::stats::{peak_rss_mb, Rng};
use crate::{Length, Measured, SetupPlan, Workload};
use kami_core::{Algo, Epilogue, GemmRequest, KamiConfig};
use kami_gpu_sim::{device, BackendKind, DeviceSpec, Matrix, Precision};
use kami_sched::PlanCache;
use kami_serve::{CompletionPath, ServeRequest, Server, ServerConfig};
use kami_sparse::{gen::paper_sparse_workload, BlockOrder};
use std::sync::Arc;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "serve_hot",
    traffic: "GH200 Server, backend Native, serial dispatch; closed loop window 16, round 128; \
              fp16 16^3/32^3/64^3/128^3 (84%), fp64 32^3/64^3 (9.4%), fused relu/gelu (2.3%), \
              tall-skinny 16x16x4096 (0.8%), SpMM (1.6%), SpGEMM (1.6%); every class warmed in set-up; \
              unbounded plan cache",
    run,
    trace_rounds: PREFIX_ROUNDS,
};

const WINDOW: usize = 16;
const WINDOWS_PER_ROUND: usize = 8;
/// Rounds whose simulated latencies make up the `sim_*` metrics.
const PREFIX_ROUNDS: usize = 16;
/// Operand sets generated per class; requests draw one by seed.
const POOL: usize = 4;

#[derive(Clone, Copy)]
enum Kind {
    Plain(usize, Precision),
    /// Fused epilogue at a pinned algorithm (the direct path).
    Fused(usize, Algo, bool),
    Skinny,
    Spmm,
    Spgemm,
}

struct Class {
    label: &'static str,
    kind: Kind,
    per_round: usize,
    heavy: bool,
}

const fn class(label: &'static str, kind: Kind, per_round: usize, heavy: bool) -> Class {
    Class {
        label,
        kind,
        per_round,
        heavy,
    }
}

const CLASSES: [Class; 11] = [
    class("fp16-16", Kind::Plain(16, Precision::Fp16), 58, false),
    class("fp16-32", Kind::Plain(32, Precision::Fp16), 28, false),
    class("fp16-64", Kind::Plain(64, Precision::Fp16), 20, false),
    class("fp16-128", Kind::Plain(128, Precision::Fp16), 2, true),
    class("fp64-32", Kind::Plain(32, Precision::Fp64), 8, false),
    class("fp64-64", Kind::Plain(64, Precision::Fp64), 4, false),
    class("relu-32", Kind::Fused(32, Algo::TwoD, false), 2, false),
    class("gelu-64", Kind::Fused(64, Algo::OneD, true), 1, false),
    class("skinny-16x16x4096", Kind::Skinny, 1, true),
    class("spmm-64", Kind::Spmm, 2, false),
    class("spgemm-64", Kind::Spgemm, 2, false),
];

fn make_request(kind: Kind, seed: u64) -> ServeRequest {
    let m = |rows, cols, s: u64| Matrix::seeded_uniform(rows, cols, seed.wrapping_add(s));
    // The paper's §5.5 sparse workload: 50% block density.
    let sparse = |s: u64| paper_sparse_workload(64, 16, BlockOrder::ZMorton, seed.wrapping_add(s));
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
    match kind {
        Kind::Plain(d, p) => ServeRequest::gemm(m(d, d, 0), m(d, d, 1), p),
        Kind::Fused(d, algo, gelu) => ServeRequest::dense(
            GemmRequest::gemm_auto(m(d, d, 0), m(d, d, 1))
                .precision(Precision::Fp16)
                .algo(algo)
                .with_epilogue(if gelu { Epilogue::Gelu } else { Epilogue::Relu }),
        ),
        Kind::Skinny => ServeRequest::dense(
            GemmRequest::gemm_auto(m(16, 4096, 0), m(4096, 16, 1))
                .precision(Precision::Fp16)
                .algo(Algo::OneD),
        ),
        Kind::Spmm => ServeRequest::spmm(sparse(0), m(64, 32, 1), cfg),
        Kind::Spgemm => ServeRequest::spgemm(sparse(0), sparse(1), cfg),
    }
}

/// `POOL` operand sets per class, all derived from the run seed.
fn make_pools(seed: u64) -> Vec<Vec<Arc<ServeRequest>>> {
    let mut rng = Rng::new(seed ^ 0x5EED_0001);
    CLASSES
        .iter()
        .map(|c| {
            (0..POOL)
                .map(|_| Arc::new(make_request(c.kind, rng.next_u64())))
                .collect()
        })
        .collect()
}

/// One round: 8 windows of `(class, pool index)`.
fn round_plan(rng: &mut Rng) -> Vec<Vec<(usize, usize)>> {
    let mut windows: Vec<Vec<usize>> = vec![Vec::new(); WINDOWS_PER_ROUND];
    let first = rng.below(WINDOWS_PER_ROUND);
    let second = (first + 1 + rng.below(WINDOWS_PER_ROUND - 1)) % WINDOWS_PER_ROUND;
    let mut heavy_slots = [first, second].into_iter().cycle();
    let mut light = Vec::new();
    for (ci, c) in CLASSES.iter().enumerate() {
        for _ in 0..c.per_round {
            if c.heavy {
                windows[heavy_slots.next().expect("cycled")].push(ci);
            } else {
                light.push(ci);
            }
        }
    }
    rng.shuffle(&mut light);
    let mut light = light.into_iter();
    for w in &mut windows {
        while w.len() < WINDOW {
            w.push(light.next().expect("the class mix fills every window"));
        }
        rng.shuffle(w);
    }
    windows
        .into_iter()
        .map(|w| w.into_iter().map(|ci| (ci, rng.below(POOL))).collect())
        .collect()
}

struct Setup {
    server: Server,
    pools: Vec<Vec<Arc<ServeRequest>>>,
    /// Replay cache primed like the server's (traced phases only).
    replay: Option<PlanCache>,
    /// What priming the replay cache tuned (classes, candidates).
    primed: (usize, usize),
}

fn build(seed: u64, dev: &DeviceSpec, traced: bool) -> Result<Setup, String> {
    let server = Server::with_config(
        dev,
        ServerConfig {
            backend: BackendKind::Native,
            parallel_execute: false,
            ..ServerConfig::default()
        },
    );
    let pools = make_pools(seed);
    // Warm every class: one request each through the full serving path
    // (tune, cost pass, scheduler plan).
    for pool in &pools {
        let t = server
            .submit_shared(Arc::clone(&pool[0]))
            .map_err(|e| e.to_string())?;
        server.tick();
        t.wait().map_err(|e| e.to_string())?;
    }
    let replay = traced.then(PlanCache::new);
    let (mut scratch, mut acc) = (Spans::default(), ReplayAcc::default());
    if let Some(plans) = &replay {
        for pool in &pools {
            replay_numerics(dev, plans, &pool[0], 0, None, &mut scratch, &mut acc)?;
            replay_schedule(dev, plans, &[&pool[0]], 0, &mut scratch, &mut acc)?;
        }
    }
    Ok(Setup {
        server,
        pools,
        replay,
        primed: (acc.tuned_classes, acc.tuned_candidates),
    })
}

struct OpRecord {
    class: usize,
    pool: usize,
    digest: Option<u64>,
}

fn run(seed: u64, length: Length, traced: bool, setup: SetupPlan) -> Measured {
    let dev = device::gh200();
    let mut m = Measured::default();
    let s = match m.repeat_setup(setup, || build(seed, &dev, traced)) {
        Ok(s) => s,
        Err(e) => {
            m.notes.push(format!("set-up failed: {e}"));
            m.attempted = 1;
            m.failed = 1;
            return m;
        }
    };
    let roof: Vec<Option<f64>> = if traced {
        CLASSES
            .iter()
            .map(|c| match c.kind {
                Kind::Plain(d, p) => {
                    let (secs, flavour) = crate::roof::roof_secs(d, d, d, p);
                    m.notes.push(format!(
                        "core.execute.roof_frac base: {} {:.3} GFLOP/s ({flavour})",
                        c.label,
                        2.0 * (d * d * d) as f64 / secs / 1e9
                    ));
                    Some(secs)
                }
                _ => None,
            })
            .collect()
    } else {
        vec![None; CLASSES.len()]
    };

    let mut spans = traced.then(Spans::default);
    // Classes are tuned while priming; count them as this phase's tuning.
    let mut acc = ReplayAcc {
        tuned_classes: s.primed.0,
        tuned_candidates: s.primed.1,
        ..ReplayAcc::default()
    };
    let mut rng = Rng::new(seed ^ 0x5EED_0002);
    let mut ops: Vec<OpRecord> = Vec::new();
    let mut errors = Vec::new();
    let (mut groups, mut dispatched, mut coalesced) = (0usize, 0usize, 0usize);
    let clock0 = s.server.clock();
    // Host probes, left out of the round time.
    let mut probe_s = 0.0;
    let start = Instant::now();
    let mut rounds = 0;
    while !length.done(rounds, PREFIX_ROUNDS, start) {
        let (round_start, excluded_before) = (Instant::now(), acc.wall_s + probe_s);
        let mut latencies = Vec::with_capacity(WINDOW * WINDOWS_PER_ROUND);
        for (w, window) in round_plan(&mut rng).into_iter().enumerate() {
            let first_op = ops.len() as u64;
            let mut pending = Vec::with_capacity(WINDOW);
            for (i, &(class, pool)) in window.iter().enumerate() {
                let op = first_op + i as u64;
                let req = Arc::clone(&s.pools[class][pool]);
                let t_sub = Instant::now();
                let ticket = timed(&mut spans, "serve.submit", op, || {
                    s.server.submit_shared(req)
                });
                pending.push((t_sub, ticket));
            }
            let summary = timed(&mut spans, "serve.tick", first_op, || s.server.tick());
            groups += summary.groups;
            dispatched += summary.dispatched;
            for (i, (t_sub, ticket)) in pending.into_iter().enumerate() {
                let op = first_op + i as u64;
                let done = ticket.and_then(|t| timed(&mut spans, "serve.wait", op, || t.wait()));
                latencies.push((t_sub.elapsed().as_secs_f64(), m.probes.len()));
                let (class, pool) = window[i];
                if let Err(e) = &done {
                    if errors.len() < 5 {
                        errors.push(format!("op {op} ({}) failed: {e}", CLASSES[class].label));
                    }
                }
                let digest = done.ok().map(|c| {
                    if rounds < PREFIX_ROUNDS {
                        m.sim_kcycles.push(c.latency_cycles() / 1e3);
                    }
                    if matches!(c.via, CompletionPath::Coalesced { .. }) {
                        coalesced += 1;
                    }
                    if let Some(sp) = spans.as_mut() {
                        let start = c.finished_at - c.service_cycles;
                        sp.sim(CLASSES[class].label.into(), op, 0, start, c.service_cycles);
                    }
                    output_digest(&c.output)
                });
                ops.push(OpRecord {
                    class,
                    pool,
                    digest,
                });
            }
            if let (Some(sp), Some(plans)) = (spans.as_mut(), s.replay.as_ref()) {
                let t0 = Instant::now();
                let batch: Vec<&ServeRequest> = window
                    .iter()
                    .map(|&(c, p)| s.pools[c][p].as_ref())
                    .collect();
                let mut replayed = Ok(());
                for group in coalesce(&batch) {
                    for &i in &group {
                        let op = first_op + i as u64;
                        let roof_s = roof[window[i].0];
                        replayed = replayed.and_then(|()| {
                            replay_numerics(&dev, plans, batch[i], op, roof_s, sp, &mut acc)
                        });
                    }
                    let members: Vec<&ServeRequest> = group.iter().map(|&i| batch[i]).collect();
                    let op = first_op + group[0] as u64;
                    replayed = replayed
                        .and_then(|()| replay_schedule(&dev, plans, &members, op, sp, &mut acc));
                }
                if let Err(e) = replayed {
                    m.notes.push(format!("replay error: {e}"));
                    m.failed += 1;
                }
                acc.wall_s += t0.elapsed().as_secs_f64();
            }
            if setup.spread && w % 2 == 1 {
                probe_s += m.probe_host();
            }
        }
        let secs = round_start.elapsed().as_secs_f64() - (acc.wall_s + probe_s - excluded_before);
        m.rounds.push((latencies, secs));
        rounds += 1;
        if rounds == PREFIX_ROUNDS {
            m.sim_mcycles = (s.server.clock() - clock0) / 1e6;
        }
    }
    if rounds < PREFIX_ROUNDS {
        m.sim_mcycles = (s.server.clock() - clock0) / 1e6;
    }
    m.peak_rss_mb = peak_rss_mb();
    m.notes.extend(errors);
    m.notes.push(format!(
        "{rounds} rounds, {} ops in {:.3} s; sim metrics over the first {PREFIX_ROUNDS} rounds ({} ops)",
        ops.len(),
        m.rounds.iter().map(|r| r.1).sum::<f64>(),
        m.sim_kcycles.len()
    ));

    check(&dev, &s.pools, &ops, seed, &mut m);

    if let Some(sp) = &spans {
        let served = s.server.plans().stats();
        cache_layers(&served, &mut m.layers);
        if let Some(plans) = &s.replay {
            m.notes.push(format!(
                "replay cache mirrors the server's plan/cost store operations: {}",
                cache_mirrors(&plans.stats(), &served)
            ));
        }
        replay_layers(sp, &acc, sp.busy_s("serve.tick"), &mut m.layers);
        let metrics = s.server.metrics();
        m.layers.insert(
            "serve.rejected".into(),
            (metrics.rejected_queue_full + metrics.rejected_shutting_down) as f64,
        );
        m.layers.insert("serve.tick.groups".into(), groups as f64);
        m.layers.insert(
            "serve.tick.group_size_mean".into(),
            dispatched as f64 / groups.max(1) as f64,
        );
        m.layers.insert(
            "serve.coalesced_share".into(),
            coalesced as f64 / ops.len().max(1) as f64,
        );
        m.layers
            .insert("serve.retries".into(), metrics.retries as f64);
        m.layers
            .insert("serve.degraded".into(), metrics.degraded_serial as f64);
    }
    m.spans = spans;
    m
}

/// Outside the timed window: every served result against the direct
/// unserved call on a freshly costed plan, and a seeded quarter of the
/// operand sets (at least one per class) against the Sim reference.
fn check(
    dev: &DeviceSpec,
    pools: &[Vec<Arc<ServeRequest>>],
    ops: &[OpRecord],
    seed: u64,
    m: &mut Measured,
) {
    let mut rng = Rng::new(seed ^ 0x5EED_0003);
    let served: Vec<_> = ops.iter().map(|o| ((o.class, o.pool), o.digest)).collect();
    let c = check_served(
        dev,
        &served,
        |(class, pool)| pools[class][pool].as_ref(),
        |(_, pool)| pool == 0 || rng.below(4) == 0,
    );
    m.attempted += ops.len() as u64;
    m.failed += c.failed as u64;
    m.notes.extend(c.errors);
    m.notes.push(format!(
        "check: {} served results vs {} direct calls bit-for-bit, {} mismatched; \
         {} operand sets vs the Sim reference, {} mismatched",
        ops.len(),
        c.direct_calls,
        c.failed,
        c.sim_checked,
        c.sim_mismatch
    ));
}
