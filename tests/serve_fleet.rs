//! Fleet routing invariants (property-based) plus the heterogeneity
//! study assertions.
//!
//! The three routing invariants:
//!
//! * a request with `device_affinity` never lands on another class;
//! * the router's pick always minimizes predicted completion among
//!   eligible replicas at decision time;
//! * draining the fleet completes every admitted ticket exactly once.
//!
//! The heterogeneity tests lock in that routing actually consults the
//! cost oracle: on a mixed square/tall-skinny trace, the 4-preset
//! fleet beats the best single-class fleet of equal per-class replica
//! count on aggregate makespan (simulated seconds), and cost-oracle
//! placement beats round-robin on the very same fleet.

use kami::prelude::*;
use kami::serve::{FleetConfig, FleetServer, FleetSpec, RoutingPolicy, ServeError};
use proptest::prelude::*;

/// Shapes every Table 3 class can run at FP16 — the proptest pool.
const SHAPES: [(usize, usize, usize); 4] =
    [(32, 32, 32), (64, 64, 64), (16, 16, 256), (256, 16, 16)];

fn shaped_request(shape: (usize, usize, usize), seed: u64) -> ServeRequest {
    let (m, n, k) = shape;
    let a = Matrix::seeded_uniform(m, k, seed);
    let b = Matrix::seeded_uniform(k, n, seed + 1);
    ServeRequest::gemm(a, b, Precision::Fp16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) Affinity is binding: the placed replica's device class is
    /// exactly the requested one, for every class and shape.
    #[test]
    fn affinity_never_violated(
        class in 0usize..4,
        si in 0usize..SHAPES.len(),
        seed in 0u64..1000,
    ) {
        let fleet = FleetServer::new(FleetSpec::table3(2));
        let want = fleet.spec().classes[class].device.name.clone();
        let req = shaped_request(SHAPES[si], seed).with_affinity(want.clone());
        let ticket = fleet.submit(req).expect("affinity class exists and is FP16-feasible");
        prop_assert_eq!(&ticket.device, &want);
        prop_assert_eq!(
            &fleet.replicas()[ticket.replica].device().name,
            &want
        );
        fleet.shutdown_and_drain();
        ticket.wait().expect("feasible");
    }

    /// (b) The router's pick minimizes predicted completion among the
    /// eligible candidates at decision time, even with prior load.
    #[test]
    fn router_minimizes_predicted_completion(
        warm in 0usize..6,
        si in 0usize..SHAPES.len(),
        seed in 0u64..1000,
    ) {
        let fleet = FleetServer::new(FleetSpec::table3(1));
        // Warm-up load skews replica horizons so argmin is non-trivial.
        for w in 0..warm {
            let wi = (seed as usize + w) % SHAPES.len();
            fleet.submit(shaped_request(SHAPES[wi], seed + w as u64)).unwrap();
        }
        let probe = shaped_request(SHAPES[si], seed + 100);
        let decision = fleet.plan_route(&probe).expect("FP16 runs somewhere");
        let best = decision
            .candidates
            .iter()
            .map(|c| c.predicted_completion_secs)
            .fold(f64::INFINITY, f64::min);
        let chosen = decision
            .candidates
            .iter()
            .find(|c| c.replica == decision.chosen)
            .expect("chosen must be a candidate");
        prop_assert!(
            chosen.predicted_completion_secs <= best + 1e-12,
            "chose {} at {:.3e}s, best candidate is {:.3e}s",
            chosen.replica, chosen.predicted_completion_secs, best
        );
        // The decision's numbers are re-derivable from the public
        // routing query (same cache, same horizons).
        for c in &decision.candidates {
            let again = fleet.predicted_completion_secs(c.replica, &probe).unwrap();
            prop_assert!(
                (again - c.predicted_completion_secs).abs() <= 1e-9 * (1.0 + again),
                "candidate {} not reproducible: {:.6e} vs {:.6e}",
                c.replica, c.predicted_completion_secs, again
            );
        }
        fleet.shutdown_and_drain();
    }

    /// (c) Draining completes every admitted ticket exactly once —
    /// conservation holds fleet-wide under mixed shapes and classes.
    #[test]
    fn drain_completes_every_ticket_exactly_once(
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let fleet = FleetServer::new(FleetSpec::table3(1));
        let tickets: Vec<_> = (0..n)
            .map(|i| {
                let si = (seed as usize + i) % SHAPES.len();
                fleet.submit(shaped_request(SHAPES[si], seed + i as u64)).unwrap()
            })
            .collect();
        fleet.shutdown_and_drain();
        let mut completed_ids = Vec::new();
        for t in tickets {
            let replica = t.replica;
            let done = t.wait().expect("admitted tickets must complete");
            completed_ids.push((replica, done.id));
        }
        // Exactly once: every (replica, request-id) pair is distinct.
        completed_ids.sort_unstable();
        let before = completed_ids.len();
        completed_ids.dedup();
        prop_assert_eq!(before, completed_ids.len(), "a ticket resolved twice");
        prop_assert_eq!(before, n);
        let m = fleet.metrics();
        prop_assert_eq!(m.completed(), n as u64);
        prop_assert_eq!(m.submitted(), n as u64);
        prop_assert_eq!(m.failed(), 0);
        prop_assert_eq!(m.completion_cycles.count(), n as u64);
        prop_assert_eq!(fleet.pending(), 0);
    }
}

/// The mixed trace the heterogeneity tests serve: square-ish tiles
/// (where the high-clock classes are competitive) interleaved with
/// tall-skinny panels (where GH200's SM count dominates).
///
/// The study fleets run with `coalesce: false`: same-shape pooling on
/// one device absorbs an identical-shape burst at roughly the cost of
/// a single request, which would make any multi-replica comparison
/// degenerate. Real fleet traffic mixes shapes across tenants; solo
/// dispatch models that while keeping the trace itself simple.
fn mixed_trace() -> Vec<ServeRequest> {
    (0..24u64)
        .map(|i| {
            if i % 2 == 0 {
                shaped_request((4096, 16, 16), i)
            } else {
                shaped_request((256, 256, 64), i)
            }
        })
        .collect()
}

fn serve_trace(fleet: &FleetServer, trace: &[ServeRequest]) -> Result<f64, ServeError> {
    let mut tickets = Vec::with_capacity(trace.len());
    for r in trace {
        tickets.push(fleet.submit(r.clone())?);
    }
    fleet.shutdown_and_drain();
    for t in tickets {
        t.wait()?;
    }
    Ok(fleet.metrics().makespan_secs())
}

fn fleet_with(spec: FleetSpec, policy: RoutingPolicy) -> FleetServer {
    FleetServer::with_config(
        spec,
        FleetConfig {
            server: ServerConfig {
                queue_capacity: 64,
                coalesce: false,
                ..ServerConfig::default()
            },
            policy,
        },
    )
}

/// The 4-preset heterogeneous fleet beats the best homogeneous fleet
/// of equal per-class replica count on aggregate makespan. (In
/// simulated seconds GH200 weakly dominates every single shape, so a
/// homogeneous GH200 fleet of equal *total* size cannot be beaten —
/// the win here is heterogeneity as capacity: four classes of one
/// replica each outwork any one class alone, because the oracle keeps
/// all of them busy with the shapes they are least bad at.)
#[test]
fn heterogeneous_fleet_beats_best_homogeneous_class() {
    let trace = mixed_trace();
    let het = serve_trace(
        &fleet_with(FleetSpec::table3(1), RoutingPolicy::EarliestCompletion),
        &trace,
    )
    .expect("mixed trace serves on the heterogeneous fleet");

    let mut best_homo = f64::INFINITY;
    let mut best_name = String::new();
    for dev in DeviceSpec::all_evaluated() {
        let fleet = fleet_with(
            FleetSpec::homogeneous(&dev, 1),
            RoutingPolicy::EarliestCompletion,
        );
        // A class that cannot run part of the trace simply doesn't
        // compete for "best homogeneous".
        match serve_trace(&fleet, &trace) {
            Ok(makespan) => {
                if makespan < best_homo {
                    best_homo = makespan;
                    best_name = dev.name.clone();
                }
            }
            Err(_) => continue,
        }
    }
    assert!(
        het < best_homo,
        "heterogeneous fleet ({het:.3e}s) must beat the best homogeneous class \
         ({best_name}: {best_homo:.3e}s) on the mixed trace"
    );
}

/// Cost-oracle placement beats round-robin on the same heterogeneous
/// fleet — the routing is genuinely consulting predicted makespans,
/// not just spraying work.
#[test]
fn cost_oracle_routing_beats_round_robin() {
    let trace = mixed_trace();
    let oracle = serve_trace(
        &fleet_with(FleetSpec::table3(1), RoutingPolicy::EarliestCompletion),
        &trace,
    )
    .expect("oracle fleet serves the trace");
    let rr = serve_trace(
        &fleet_with(FleetSpec::table3(1), RoutingPolicy::RoundRobin),
        &trace,
    )
    .expect("round-robin fleet serves the trace");
    assert!(
        oracle < rr,
        "cost-oracle makespan {oracle:.3e}s must beat round-robin {rr:.3e}s on the \
         mixed square/tall-skinny trace"
    );
}

/// Routing prices an empty sparse product as zero device work instead
/// of excluding every replica: `A` stores blocks only in block-column 0
/// and `B` only in block-row 1 (empty SpGEMM), and an `A` with no
/// blocks at all (empty SpMM). Both resolve `Ok` with the direct
/// call's bits on the replica they landed on.
#[test]
fn empty_sparse_products_route_and_resolve() {
    let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
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
    let dense_b = Matrix::seeded_uniform(64, 64, 7);

    let fleet = FleetServer::new(FleetSpec::table3(1));
    let spgemm_ticket = fleet
        .submit(ServeRequest::spgemm(a.clone(), b.clone(), cfg.clone()))
        .expect("an empty product still routes");
    let spmm_ticket = fleet
        .submit(ServeRequest::spmm(
            empty.clone(),
            dense_b.clone(),
            cfg.clone(),
        ))
        .expect("an empty product still routes");
    let spgemm_dev = fleet.replicas()[spgemm_ticket.replica].device().clone();
    let spmm_dev = fleet.replicas()[spmm_ticket.replica].device().clone();
    fleet.shutdown_and_drain();

    let served = spgemm_ticket.wait().expect("empty SpGEMM resolves Ok");
    let served = served.output.into_spgemm().unwrap();
    let direct = spgemm(&spgemm_dev, &cfg, &a, &b).unwrap();
    assert_eq!(
        served.c.to_dense().as_slice(),
        direct.c.to_dense().as_slice()
    );

    let served = spmm_ticket.wait().expect("empty-A SpMM resolves Ok");
    let served = served.output.into_spmm().unwrap();
    let direct = spmm(&spmm_dev, &cfg, &empty, &dense_b).unwrap();
    assert_eq!(served.c.as_slice(), direct.c.as_slice());
}
