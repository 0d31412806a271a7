//! End-to-end checks of the kami-serve runtime: multi-producer
//! submission, coalesced dispatch, backpressure, fault-injected
//! timeout → retry → degraded-serial fallback, graceful shutdown, and
//! the observability surface (metrics, Prometheus text, merged trace).
//!
//! The invariant stressed throughout: the service may reshape *when*
//! and *with whom* a request runs, never *what* it computes — every
//! served output is compared bit-for-bit against the direct engine
//! call.

use kami::core::{gemm, Algo, GemmRequest, KamiConfig, Op};
use kami::prelude::*;
use kami::serve::ServerConfig;
use kami::sim::CostConfig;
use kami::verify::{AlgoKind, Case, DeviceId, Harness, ServedCase};
use proptest::prelude::*;
use std::sync::Arc;

fn pair(seed: u64) -> (Matrix, Matrix) {
    (
        Matrix::seeded_uniform(64, 64, seed),
        Matrix::seeded_uniform(64, 64, seed + 1),
    )
}

/// A cost override that inflates every modelled cycle count without
/// touching numerics: heavy bank conflicts, 5% MMA efficiency.
fn inflated_cost() -> CostConfig {
    CostConfig {
        theta_r: 0.01,
        theta_w: 0.01,
        mma_efficiency: 0.05,
        ..CostConfig::default()
    }
}

#[test]
fn multi_producer_threads_all_resolve_bit_identical() {
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );

    let completions: Vec<(u64, Completed)> = std::thread::scope(|s| {
        let dispatcher = s.spawn(|| server.run_dispatcher());
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let server = &server;
                s.spawn(move || {
                    (0..6u64)
                        .map(|i| {
                            let seed = p * 31 + i;
                            let (a, b) = pair(seed);
                            let t = server
                                .submit(ServeRequest::gemm(a, b, Precision::Fp16))
                                .expect("well under capacity");
                            (seed, t.wait().expect("feasible request"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let done: Vec<_> = producers
            .into_iter()
            .flat_map(|p| p.join().expect("producer panicked"))
            .collect();
        server.shutdown();
        dispatcher.join().expect("dispatcher panicked");
        done
    });

    assert_eq!(completions.len(), 24);
    for (seed, done) in completions {
        let (a, b) = pair(seed);
        let direct = gemm(&dev, &cfg, &a, &b).unwrap();
        let served = done.output.into_dense().unwrap().into_single().unwrap();
        assert_eq!(
            direct.c.as_slice(),
            served.c.as_slice(),
            "seed {seed} diverged through the service"
        );
    }

    let m = server.metrics();
    assert_eq!(m.submitted, 24);
    assert_eq!(m.completed, 24);
    assert_eq!(m.failed, 0);
    // Same shape class everywhere: concurrent producers must have
    // coalesced at least once.
    assert!(
        m.coalesce_factor() > 1.0,
        "coalesce factor {:.2} — no pooling happened",
        m.coalesce_factor()
    );
}

#[test]
fn queue_full_backpressure_then_drain_frees_capacity() {
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    );

    let (a, b) = pair(1);
    let t1 = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16))
        .unwrap();
    let (a, b) = pair(2);
    let t2 = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16))
        .unwrap();
    let (a, b) = pair(3);
    let rejected = server.submit(ServeRequest::gemm(a, b, Precision::Fp16));
    assert_eq!(rejected.unwrap_err(), ServeError::QueueFull { capacity: 2 });

    // One tick drains the pool; capacity is back.
    server.tick();
    assert!(t1.is_done() && t2.is_done());
    let (a, b) = pair(3);
    let t3 = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16))
        .unwrap();
    server.shutdown_and_drain();
    t3.wait().unwrap();

    let m = server.metrics();
    assert_eq!(m.rejected_queue_full, 1);
    assert_eq!(m.completed, 3);
    assert_eq!(m.max_queue_depth, 2);
}

#[test]
fn timeout_retries_then_degraded_serial_with_identical_numerics() {
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
    let copies = 4usize;
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: copies,
            max_retries: 2,
            backoff_cycles: 128.0,
            // Fault injection: the server schedules against a cost
            // model whose cycles are wildly inflated, so every attempt
            // blows the deadline. Numerics never see this config.
            cost: Some(inflated_cost()),
            ..ServerConfig::default()
        },
    );

    let (a, b) = pair(7);
    let direct = gemm(&dev, &cfg, &a, &b).unwrap();
    let tickets: Vec<_> = (0..copies)
        .map(|_| {
            let req = ServeRequest::dense(GemmRequest::from_config(
                Op::Gemm {
                    a: a.clone(),
                    b: b.clone(),
                },
                &cfg,
            ))
            .with_deadline(10.0);
            server.submit(req).unwrap()
        })
        .collect();
    server.shutdown_and_drain();

    for t in tickets {
        let done = t.wait().expect("fallback must still deliver");
        // Attempts: 1 initial + max_retries, then the serial fallback.
        assert_eq!(done.via, CompletionPath::DegradedSerial);
        assert_eq!(done.attempts, 3);
        let served = done.output.into_dense().unwrap().into_single().unwrap();
        assert_eq!(
            direct.c.as_slice(),
            served.c.as_slice(),
            "degraded-serial fallback changed the numbers"
        );
        assert_eq!(direct.useful_flops, served.useful_flops);
    }

    let m = server.metrics();
    assert_eq!(m.completed, copies as u64);
    assert_eq!(m.retries, (copies * 2) as u64);
    assert_eq!(m.degraded_serial, copies as u64);
    assert_eq!(m.failed, 0);
}

#[test]
fn verify_served_seam_covers_the_fault_injected_path() {
    // The kami-verify ServedCase seam drives the same retry → fallback
    // machinery and holds it to bit-identity + flop conservation.
    let case = Case::generate(DeviceId::Gh200, AlgoKind::TwoD, Precision::Fp16, 17);
    let harness = Harness::default();
    let served = ServedCase {
        copies: 3,
        deadline_cycles: Some(5.0),
        server_cost: Some(inflated_cost()),
        max_retries: 1,
        backoff_cycles: 32.0,
        ..ServedCase::default()
    };
    let replay = served
        .replay(&case, &harness)
        .expect("no mismatch")
        .expect("dense case is servable");
    replay
        .check(served.copies)
        .expect("bit-identity through the fault path");
    assert_eq!(replay.metrics.degraded_serial, served.copies as u64);
}

#[test]
fn shutdown_is_graceful_and_coalescing_beats_serial() {
    let run = |coalesce: bool| -> f64 {
        let dev = device::gh200();
        let server = Server::with_config(
            &dev,
            ServerConfig {
                queue_capacity: 24,
                coalesce,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<_> = (0..24u64)
            .map(|i| {
                let (a, b) = pair(500 + i);
                server
                    .submit(ServeRequest::gemm(a, b, Precision::Fp16))
                    .unwrap()
            })
            .collect();
        server.shutdown();
        // Post-shutdown submissions are refused, queued work still runs.
        let (a, b) = pair(999);
        assert_eq!(
            server
                .submit(ServeRequest::gemm(a, b, Precision::Fp16))
                .unwrap_err(),
            ServeError::ShuttingDown
        );
        server.drain();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(server.metrics().rejected_shutting_down, 1);
        server.clock()
    };

    let serial = run(false);
    let coalesced = run(true);
    let speedup = serial / coalesced;
    assert!(
        speedup >= 1.5,
        "coalesced dispatch must beat serial by >= 1.5x on a same-shape burst, got {speedup:.2}x"
    );
}

/// Headline regression (PR 8): deadlines are **end-to-end**, charged
/// from admission across every retry — not reset per attempt.
///
/// Construction: on attempt 1 the victim's tick first dispatches a
/// heavy 512³ group (smaller admission id ⇒ earlier in the tick), so
/// the victim finishes at `heavy + solo` cycles > deadline → retry.
/// On attempt 2 the victim runs alone: its own makespan `solo` is
/// inside the deadline, so per-attempt enforcement — the old bug,
/// where the retry rewrote `ready_at` and elapsed was charged from it
/// — would complete it as `Solo` within budget. End-to-end enforcement
/// must see `heavy + solo + backoff + solo > deadline` and take the
/// degraded path.
#[test]
fn deadline_is_end_to_end_not_per_attempt() {
    let dev = device::gh200();
    // Measure both makespans on throwaway servers (the clock model is
    // deterministic, so these are exact).
    let measure = |req: ServeRequest| -> f64 {
        let server = Server::new(&dev);
        let t = server.submit(req).unwrap();
        server.tick();
        t.wait().unwrap();
        server.clock()
    };
    let heavy_req = || {
        let a = Matrix::seeded_uniform(256, 256, 31);
        let b = Matrix::seeded_uniform(256, 256, 32);
        ServeRequest::gemm(a, b, Precision::Fp16)
    };
    let (a, b) = pair(700);
    let solo = measure(ServeRequest::gemm(a, b, Precision::Fp16));
    let heavy_makespan = measure(heavy_req());
    let deadline = 2.0 * solo;
    assert!(
        heavy_makespan > deadline,
        "test geometry broke: heavy {heavy_makespan} vs deadline {deadline}"
    );

    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 64,
            max_retries: 1,
            backoff_cycles: 64.0,
            ..ServerConfig::default()
        },
    );
    // The heavy group admits first, so attempt 1's tick charges its
    // makespan (far above `solo`, hence above the deadline) to the
    // clock before the victim's own group runs.
    let heavy = server.submit(heavy_req()).unwrap();
    let (a, b) = pair(700);
    let victim = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16).with_deadline(deadline))
        .unwrap();
    server.shutdown_and_drain();
    heavy.wait().unwrap();

    let done = victim.wait().unwrap();
    assert_eq!(done.attempts, 2);
    assert!(
        solo < deadline,
        "attempt 2 finished inside the per-attempt window ({solo} < {deadline})"
    );
    assert!(
        done.finished_at - done.admitted_at > deadline,
        "but outside the end-to-end window"
    );
    assert_eq!(
        done.via,
        CompletionPath::DegradedSerial,
        "end-to-end accounting must degrade this request; completing it \
         as {:?} means the deadline was reset on retry",
        done.via
    );
    let m = server.metrics();
    assert_eq!(m.retries, 1);
    assert_eq!(m.degraded_serial, 1);
}

/// Bugfix regression (PR 8): parked-in-backoff retries are already
/// admitted — they must not occupy admission capacity (the old
/// `push_back` requeue did, starving fresh producers) and must be
/// accounted separately from the admitted depth.
#[test]
fn parked_retries_do_not_consume_admission_capacity() {
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 1,
            max_retries: 2,
            backoff_cycles: 128.0,
            cost: Some(inflated_cost()),
            ..ServerConfig::default()
        },
    );
    let (a, b) = pair(40);
    let t1 = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16).with_deadline(10.0))
        .unwrap();
    server.tick();
    assert_eq!(server.parked(), 1, "attempt 1 must park in backoff");
    assert_eq!(server.pending(), 1);

    // The old requeue would hold the only capacity slot here and bounce
    // this fresh submit with QueueFull.
    let (a, b) = pair(41);
    let t2 = server
        .submit(ServeRequest::gemm(a, b, Precision::Fp16))
        .expect("parked retries must not consume admission capacity");
    server.shutdown_and_drain();
    assert_eq!(t1.wait().unwrap().via, CompletionPath::DegradedSerial);
    t2.wait().unwrap();

    let m = server.metrics();
    assert_eq!(m.rejected_queue_full, 0);
    assert_eq!(m.completed, 2);
    // Admitted and parked depths are distinct accounts.
    assert_eq!(m.max_queue_depth, 1);
    assert!(m.max_parked_depth >= 1);
}

/// Zero-copy invariant (PR 8): the request payload is one `Arc`'d
/// allocation from admission through retries and the degraded replay —
/// the server never clones it.
#[test]
fn payload_allocation_is_shared_across_retries_and_degraded_replay() {
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 4,
            max_retries: 2,
            backoff_cycles: 64.0,
            cost: Some(inflated_cost()),
            ..ServerConfig::default()
        },
    );
    let (a, b) = pair(55);
    let req = Arc::new(ServeRequest::gemm(a, b, Precision::Fp16).with_deadline(5.0));
    let direct = req.execute(&dev).unwrap();

    let t = server.submit_shared(Arc::clone(&req)).unwrap();
    // Exactly two holders: this test and the server's Pending slot.
    assert_eq!(Arc::strong_count(&req), 2, "admission cloned the payload");
    server.tick();
    assert_eq!(server.parked(), 1);
    // The parked retry attempt still reads the same allocation.
    assert_eq!(
        Arc::strong_count(&req),
        2,
        "the retry path cloned the payload"
    );
    server.shutdown_and_drain();
    let done = t.wait().unwrap();
    assert_eq!(done.via, CompletionPath::DegradedSerial);
    // Completion dropped the server's only reference — at no point did
    // the retry or degraded replay hold a copy of the operands.
    assert_eq!(Arc::strong_count(&req), 1);

    let served = done.output.into_dense().unwrap().into_single().unwrap();
    let want = direct.into_dense().unwrap().into_single().unwrap();
    assert_eq!(served.c.as_slice(), want.c.as_slice());
}

/// Small, fast shapes for the sharded-admission proptests.
fn small_request(seed: u64) -> ServeRequest {
    let a = Matrix::seeded_uniform(16, 16, seed);
    let b = Matrix::seeded_uniform(16, 16, seed + 10_000);
    ServeRequest::gemm(a, b, Precision::Fp16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Sharded admission (a): a single producer's batch dispatches in
    /// submission order whatever the shard count — per-shard FIFO plus
    /// the id-ordered drain reconstruct global order, observable as
    /// monotone finish times across solo groups.
    #[test]
    fn sharded_admission_preserves_submission_order(
        n in 2usize..10,
        shards in 1usize..9,
        seed in 0u64..1000,
    ) {
        let dev = device::gh200();
        let server = Server::with_config(
            &dev,
            ServerConfig {
                queue_capacity: 64,
                admission_shards: shards,
                coalesce: false,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<_> = (0..n)
            .map(|i| server.submit(small_request(seed + i as u64)).unwrap())
            .collect();
        server.tick();
        let mut finishes = Vec::new();
        for t in tickets {
            let done = t.wait().expect("dispatched in one tick");
            finishes.push((done.id, done.finished_at));
        }
        for w in finishes.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "ids must follow submission order");
            prop_assert!(
                w[0].1 <= w[1].1,
                "dispatch reordered submissions: {:?}",
                finishes
            );
        }
    }

    /// Sharded admission (b): when the home shard is at its soft cap,
    /// submissions fail over to sibling shards; QueueFull surfaces only
    /// once the *global* capacity is exhausted.
    #[test]
    fn shard_failover_fills_global_capacity_before_queue_full(
        shards in 2usize..9,
        capacity in 4usize..17,
    ) {
        let dev = device::gh200();
        let server = Server::with_config(
            &dev,
            ServerConfig {
                queue_capacity: capacity,
                admission_shards: shards,
                ..ServerConfig::default()
            },
        );
        let tickets: Vec<_> = (0..capacity)
            .map(|i| {
                server
                    .submit(small_request(i as u64))
                    .expect("global capacity not yet exhausted")
            })
            .collect();
        prop_assert_eq!(
            server.submit(small_request(9_000)).unwrap_err(),
            ServeError::QueueFull { capacity }
        );
        let m = server.metrics();
        // One producer thread has one home shard, whose soft cap
        // (ceil(capacity / shards)) is below the global capacity — so
        // filling the bound forces at least one failover.
        prop_assert!(
            m.admission_failovers > 0,
            "filling {} slots over {} shards never failed over",
            capacity,
            shards
        );
        prop_assert_eq!(m.rejected_queue_full, 1);
        server.shutdown_and_drain();
        for t in tickets {
            t.wait().expect("admitted requests complete");
        }
    }

    /// Sharded admission (c): drain-exactly-once under concurrent
    /// producers and two dispatcher threads — every admitted ticket
    /// resolves once, ids never collide, nothing is lost or duplicated.
    #[test]
    fn concurrent_producers_and_dispatchers_complete_exactly_once(
        producers in 1usize..5,
        per_producer in 1usize..7,
        shards in 1usize..9,
        seed in 0u64..1000,
    ) {
        let dev = device::gh200();
        let server = Server::with_config(
            &dev,
            ServerConfig {
                queue_capacity: 64,
                admission_shards: shards,
                ..ServerConfig::default()
            },
        );
        let ids = std::thread::scope(|s| {
            let d1 = s.spawn(|| server.run_dispatcher());
            let d2 = s.spawn(|| server.run_dispatcher());
            let handles: Vec<_> = (0..producers)
                .map(|p| {
                    let server = &server;
                    s.spawn(move || {
                        (0..per_producer)
                            .map(|i| {
                                let t = server
                                    .submit(small_request(seed + (p * 100 + i) as u64))
                                    .expect("well under capacity");
                                t.wait().expect("must complete").id
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            let mut ids: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("producer panicked"))
                .collect();
            server.shutdown();
            d1.join().expect("dispatcher 1 panicked");
            d2.join().expect("dispatcher 2 panicked");
            ids.sort_unstable();
            ids
        });
        let n = producers * per_producer;
        prop_assert_eq!(ids.len(), n);
        let mut dedup = ids.clone();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), n, "a ticket resolved twice or ids collided");
        let m = server.metrics();
        prop_assert_eq!(m.submitted, n as u64);
        prop_assert_eq!(m.completed, n as u64);
        prop_assert_eq!(m.failed, 0);
        prop_assert_eq!(server.pending(), 0);
    }
}

#[test]
fn observability_surface_is_consistent() {
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            queue_capacity: 8,
            capture_trace: true,
            ..ServerConfig::default()
        },
    );
    for i in 0..8u64 {
        let (a, b) = pair(300 + i);
        server
            .submit(ServeRequest::gemm(a, b, Precision::Fp16))
            .unwrap();
    }
    server.shutdown_and_drain();

    let m = server.metrics();
    assert_eq!(m.submitted, 8);
    assert_eq!(m.completed, 8);
    assert_eq!(m.ticks as usize, m.per_tick.len());
    let per_tick_requests: usize = m.per_tick.iter().map(|t| t.requests).sum();
    assert_eq!(per_tick_requests, 8);

    let prom = server.to_prometheus();
    for needle in [
        "# TYPE kami_serve_submitted_total counter",
        "kami_serve_submitted_total 8",
        "kami_serve_completed_total 8",
        "kami_serve_retries_total 0",
        "kami_serve_coalesce_factor",
    ] {
        assert!(
            prom.contains(needle),
            "Prometheus export missing {needle:?}"
        );
    }

    // The merged trace spans the server clock and serializes to
    // Chrome-trace JSON.
    let trace = server.merged_trace();
    assert!(!trace.events.is_empty());
    assert!(trace.total_cycles() <= server.clock());
    let json = trace.to_chrome_json();
    assert!(json.trim_start().starts_with('[') && json.contains("\"ph\": \"X\""));
}

/// Block-sparse operands whose product is empty by construction: `A`
/// stores blocks only in block-column 0 and `B` only in block-row 1, so
/// no `A(i,l)·B(l,j)` pair contributes. Also an `A` with no blocks at
/// all, for SpMM.
fn empty_product_operands() -> (BlockSparseMatrix, BlockSparseMatrix, BlockSparseMatrix) {
    let dense = |seed| Matrix::seeded_uniform(16, 16, seed);
    let a = BlockSparseMatrix::from_blocks(
        64,
        64,
        16,
        BlockOrder::RowMajor,
        (0..4).map(|i| ((i, 0), dense(i as u64))).collect(),
    );
    let b = BlockSparseMatrix::from_blocks(
        64,
        64,
        16,
        BlockOrder::RowMajor,
        (0..4).map(|j| ((1, j), dense(10 + j as u64))).collect(),
    );
    let empty = BlockSparseMatrix::from_blocks(64, 64, 16, BlockOrder::RowMajor, Vec::new());
    (a, b, empty)
}

#[test]
fn empty_sparse_products_serve_as_zero_work() {
    let dev = device::gh200();
    let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
    let (a, b, empty) = empty_product_operands();
    let dense_b = Matrix::seeded_uniform(64, 64, 7);
    let server = Server::new(&dev);
    let spgemm_ticket = server
        .submit(ServeRequest::spgemm(a.clone(), b.clone(), cfg.clone()))
        .unwrap();
    let spmm_ticket = server
        .submit(ServeRequest::spmm(
            empty.clone(),
            dense_b.clone(),
            cfg.clone(),
        ))
        .unwrap();
    server.shutdown_and_drain();

    let served = spgemm_ticket.wait().expect("empty SpGEMM resolves Ok");
    let served = served.output.into_spgemm().unwrap();
    let direct = spgemm(&dev, &cfg, &a, &b).unwrap();
    assert_eq!(served.c.nnz_blocks(), direct.c.nnz_blocks());
    assert_eq!(
        served.c.to_dense().as_slice(),
        direct.c.to_dense().as_slice()
    );

    let served = spmm_ticket.wait().expect("empty-A SpMM resolves Ok");
    let served = served.output.into_spmm().unwrap();
    let direct = spmm(&dev, &cfg, &empty, &dense_b).unwrap();
    assert_eq!(served.c.as_slice(), direct.c.as_slice());
}

/// The bits of a served payload's product.
fn payload_bits(out: &ServeOutput) -> Vec<u64> {
    let c = match out {
        ServeOutput::Dense(r) => r.clone().into_single().unwrap().c,
        ServeOutput::Spmm(r) => r.c.clone(),
        ServeOutput::Spgemm(r) => r.c.to_dense(),
    };
    c.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A Native server runs its direct-path riders — a fused epilogue, the
/// tall-skinny k-split, SpMM and SpGEMM — on Native as well, with
/// payloads bit-identical to the direct call on Sim; a request's own
/// backend override still wins, and the phases land in the metrics.
#[test]
fn native_server_runs_riders_on_native_bit_identically() {
    use kami::core::Epilogue;
    use kami::sparse::gen::paper_sparse_workload;
    let dev = device::gh200();
    let server = Server::with_config(
        &dev,
        ServerConfig {
            backend: BackendKind::Native,
            ..ServerConfig::default()
        },
    );
    let m = |rows, cols, seed| Matrix::seeded_uniform(rows, cols, seed);
    let sparse = |seed| paper_sparse_workload(64, 16, BlockOrder::ZMorton, seed);
    let cfg = KamiConfig::new(Algo::TwoD, Precision::Fp16);
    let fused = || {
        GemmRequest::gemm_auto(m(64, 64, 1), m(64, 64, 2))
            .precision(Precision::Fp16)
            .algo(Algo::OneD)
            .with_epilogue(Epilogue::Gelu)
    };
    let riders = [
        (ServeRequest::dense(fused()), BackendKind::Native),
        (
            ServeRequest::dense(
                GemmRequest::gemm_auto(m(16, 4096, 3), m(4096, 16, 4))
                    .precision(Precision::Fp16)
                    .algo(Algo::OneD),
            ),
            BackendKind::Native,
        ),
        (
            ServeRequest::spmm(sparse(5), m(64, 32, 6), cfg.clone()),
            BackendKind::Native,
        ),
        (
            ServeRequest::spgemm(sparse(7), sparse(8), cfg),
            BackendKind::Native,
        ),
        (
            ServeRequest::dense(fused().backend(BackendKind::Sim)),
            BackendKind::Sim,
        ),
    ]
    .map(|(r, backend)| (Arc::new(r), backend));
    let tickets: Vec<_> = riders
        .iter()
        .map(|(r, _)| server.submit_shared(Arc::clone(r)).unwrap())
        .collect();
    server.shutdown_and_drain();

    let (mut fast, mut fallback) = (0u64, 0u64);
    for ((req, backend), ticket) in riders.iter().zip(tickets) {
        let label = req.workload.label();
        let served = ticket.wait().unwrap().output;
        let direct = req.execute(&dev).unwrap();
        assert_eq!(direct.exec().backend, BackendKind::Sim, "{label}");
        assert_eq!(served.exec().backend, *backend, "{label}");
        assert_eq!(payload_bits(&served), payload_bits(&direct), "{label}");
        fast += served.exec().fast_phases as u64;
        fallback += served.exec().fallback_phases as u64;
    }
    let metrics = server.metrics();
    assert!(fast > 0);
    assert_eq!(metrics.exec_fast_phases, fast);
    assert_eq!(metrics.exec_fallback_phases, fallback);
    let prom = server.to_prometheus();
    assert!(prom.contains(&format!(
        "kami_serve_exec_phases_total{{path=\"fast\"}} {fast}"
    )));
    assert!(prom.contains(&format!(
        "kami_serve_exec_phases_total{{path=\"fallback\"}} {fallback}"
    )));
}
