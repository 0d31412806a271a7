//! Fleet serving: heterogeneous device replicas behind one router.
//!
//! A [`FleetServer`] owns N replicas of each device class in its
//! [`FleetSpec`] — by default the four Table 3 presets — each replica a
//! full [`Server`] with its own simulated tick clock, admission queue,
//! and coalescing/retry/fallback machinery. The router places every
//! request on the replica whose *predicted completion time* is
//! earliest, in simulated seconds (cycles ÷ the replica's clock rate —
//! cross-device comparisons in raw cycles would be meaningless).
//!
//! ## The cost oracle
//!
//! Predictions come from the shared [`PlanCache`]: the same
//! shape-class-keyed cost pass a dispatch runs. A cold shape triggers
//! one tuning + cost pass per candidate device class, after which
//! every routing decision for that shape class is answered from cache
//! — and the dispatching replica reuses the very same cached plan, so
//! the router's estimate and the dispatcher's charge agree by
//! construction.
//!
//! ## The numerics plane vs the cost plane
//!
//! Auto-tuned configurations differ across device classes, and with
//! them the blocked accumulation order — so running the same GEMM's
//! *numerics* on different devices produces bit-different results.
//! The fleet therefore splits the planes: every replica computes
//! payloads with the engine of the fleet's designated
//! [`FleetSpec::numeric_device`] (default GH200), while scheduling,
//! cost modelling, and the clock use the replica's own device. Routing
//! decides only whose clock pays the cycles; the bytes are identical
//! wherever a request lands, which is exactly what the kami-verify
//! fleet replay pins.
//!
//! Placement honours [`ServeRequest::device_affinity`] (exact
//! [`DeviceSpec::name`] match) and treats per-device infeasibility
//! (e.g. FP64 on a device without FP64 MMA shapes) as ineligibility —
//! FP64 traffic automatically routes to the classes that can model it.

use crate::error::ServeError;
use crate::metrics::{write_plan_cache_series, CycleHistogram, Metrics};
use crate::request::{ServeRequest, Workload};
use crate::server::{Server, ServerConfig};
use crate::ticket::{Completed, Ticket};
use kami_gpu_sim::{device, CostConfig, DeviceSpec};
use kami_sched::{BlockWork, CacheConfig, PlanCache, PlanCacheStats, Scheduler, SparseWork};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One device class in a fleet: a preset plus how many replicas run it.
#[derive(Debug, Clone)]
pub struct DeviceClass {
    pub device: DeviceSpec,
    pub replicas: usize,
    /// Cost-model override for every replica of this class — the fleet
    /// fault-injection hook. Cost-only by construction: numerics run on
    /// the fleet's numeric device and never see this config.
    pub cost: Option<CostConfig>,
    /// "Reality" cost model for this class's replicas
    /// ([`ServerConfig::true_cost`]): dispatches re-cost under it,
    /// the clock charges the observed makespan, and the observation
    /// channel records observed/predicted ratios. The mis-modeled-device
    /// hook: `cost` changes what the model *believes*, `true_cost`
    /// changes what execution *costs*.
    pub true_cost: Option<CostConfig>,
}

impl DeviceClass {
    pub fn new(device: DeviceSpec, replicas: usize) -> Self {
        DeviceClass {
            device,
            replicas,
            cost: None,
            true_cost: None,
        }
    }
}

/// What hardware the fleet is made of, and which device class computes
/// the payloads.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub classes: Vec<DeviceClass>,
    /// The device whose engine produces every payload, regardless of
    /// placement (see the module docs on the numerics plane).
    pub numeric_device: DeviceSpec,
    /// Budget/admission/feedback knobs for the *shared* plan cache all
    /// replicas route and dispatch through. Default = unbounded +
    /// no-feedback (the historical fleet).
    pub cache: CacheConfig,
}

impl FleetSpec {
    /// All four Table 3 presets at `replicas` each, numerics on GH200.
    pub fn table3(replicas: usize) -> Self {
        FleetSpec {
            classes: DeviceSpec::all_evaluated()
                .into_iter()
                .map(|d| DeviceClass::new(d, replicas))
                .collect(),
            numeric_device: device::gh200(),
            cache: CacheConfig::default(),
        }
    }

    /// A single-class fleet. The numeric device defaults to GH200 so a
    /// homogeneous fleet of any class is payload-comparable with the
    /// heterogeneous one.
    pub fn homogeneous(device_spec: &DeviceSpec, replicas: usize) -> Self {
        FleetSpec {
            classes: vec![DeviceClass::new(device_spec.clone(), replicas)],
            numeric_device: device::gh200(),
            cache: CacheConfig::default(),
        }
    }

    /// Pin the numerics-plane device.
    pub fn with_numeric_device(mut self, d: DeviceSpec) -> Self {
        self.numeric_device = d;
        self
    }

    /// Set the shared plan cache's budget/admission/feedback knobs.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    pub fn total_replicas(&self) -> usize {
        self.classes.iter().map(|c| c.replicas).sum()
    }
}

/// How the fleet places requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Consult the cost oracle: place on the eligible replica whose
    /// simulated clock + predicted makespan finishes earliest.
    #[default]
    EarliestCompletion,
    /// Ignore the oracle: rotate over eligible replicas. The baseline
    /// the oracle is benchmarked against.
    RoundRobin,
}

/// Fleet-level tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Template for every replica's [`ServerConfig`]. The fleet
    /// overrides `cost` (from the class) and `numeric_device` (from the
    /// spec) per replica.
    pub server: ServerConfig,
    pub policy: RoutingPolicy,
}

/// One fleet member: a [`Server`] plus its identity in the fleet.
pub struct Replica {
    /// Fleet-wide replica index (stable across the fleet's lifetime).
    pub id: usize,
    /// Index into [`FleetSpec::classes`].
    pub class: usize,
    server: Server,
}

impl Replica {
    pub fn server(&self) -> &Server {
        &self.server
    }

    pub fn device(&self) -> &DeviceSpec {
        self.server.device()
    }

    /// This replica's clock in simulated seconds — the fleet's common
    /// currency across device classes.
    pub fn clock_secs(&self) -> f64 {
        self.server.clock() / self.device().clock_hz()
    }
}

/// A routing candidate the router considered for one request.
#[derive(Debug, Clone)]
pub struct RouteCandidate {
    pub replica: usize,
    pub device: String,
    /// Predicted completion on this replica's clock, simulated seconds.
    pub predicted_completion_secs: f64,
}

/// The router's read-only answer for one request: every eligible
/// candidate with its predicted completion, and the pick.
#[derive(Debug, Clone)]
pub struct RouteDecision {
    pub chosen: usize,
    pub candidates: Vec<RouteCandidate>,
}

/// The fleet's handle to an in-flight request: the placed replica plus
/// the underlying [`Ticket`].
#[derive(Debug)]
pub struct FleetTicket {
    pub replica: usize,
    pub device: String,
    pub ticket: Ticket,
}

impl FleetTicket {
    /// Block until the request resolves (some thread must tick or drain
    /// the placed replica).
    pub fn wait(self) -> Result<Completed, ServeError> {
        self.ticket.wait()
    }
}

/// Fleet-wide routing counters.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Requests placed on a replica.
    pub routed: u64,
    /// Submissions refused because no replica was eligible.
    pub no_eligible: u64,
    /// Placements that fell past the oracle's first choice because its
    /// queue was full.
    pub spilled: u64,
}

/// One replica's rolled-up account in a [`FleetMetrics`] snapshot.
#[derive(Debug, Clone)]
pub struct ReplicaMetrics {
    pub replica: usize,
    pub device: String,
    pub metrics: Metrics,
    /// Replica clock, device cycles.
    pub clock_cycles: f64,
    /// Replica clock, simulated seconds.
    pub clock_secs: f64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
}

impl ReplicaMetrics {
    /// Device-busy fraction of this replica's clock: group cycles over
    /// clock cycles.
    pub fn utilization(&self) -> f64 {
        if self.clock_cycles > 0.0 {
            (self.metrics.group_cycles_sum / self.clock_cycles).min(1.0)
        } else {
            0.0
        }
    }
}

/// Fleet rollup: per-replica accounts plus exact cross-fleet
/// aggregates (the completion histogram merges bucket-wise because all
/// replicas share [`CycleHistogram`]'s fixed boundaries).
#[derive(Debug, Clone)]
pub struct FleetMetrics {
    pub replicas: Vec<ReplicaMetrics>,
    pub router: RouterStats,
    /// All replicas' completion latencies, merged.
    pub completion_cycles: CycleHistogram,
    /// The shared plan cache's account (one cache serves every
    /// replica, so this is fleet-wide, not a per-replica rollup).
    pub plan_cache: PlanCacheStats,
}

impl FleetMetrics {
    pub fn submitted(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.submitted).sum()
    }

    pub fn completed(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.completed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.replicas.iter().map(|r| r.metrics.failed).sum()
    }

    /// Kernel phases executed across the fleet, as `(fast, fallback)`:
    /// see [`Metrics::exec_fast_phases`].
    pub fn exec_phases(&self) -> (u64, u64) {
        self.replicas.iter().fold((0, 0), |(f, b), r| {
            (
                f + r.metrics.exec_fast_phases,
                b + r.metrics.exec_fallback_phases,
            )
        })
    }

    /// The fleet-level makespan: the furthest-ahead replica clock in
    /// simulated seconds. Aggregate throughput = work ÷ this.
    pub fn makespan_secs(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.clock_secs)
            .fold(0.0, f64::max)
    }

    /// Prometheus text exposition with `device` and `replica` labels on
    /// every per-replica series, plus fleet-level aggregates.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let series = |out: &mut String, name: &str, help: &str, kind: &str| {
            let _ = writeln!(out, "# HELP kami_fleet_{name} {help}");
            let _ = writeln!(out, "# TYPE kami_fleet_{name} {kind}");
        };
        series(&mut out, "submitted_total", "Requests admitted", "counter");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "kami_fleet_submitted_total{{device=\"{}\",replica=\"{}\"}} {}",
                r.device, r.replica, r.metrics.submitted
            );
        }
        series(&mut out, "completed_total", "Requests completed", "counter");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "kami_fleet_completed_total{{device=\"{}\",replica=\"{}\"}} {}",
                r.device, r.replica, r.metrics.completed
            );
        }
        series(
            &mut out,
            "exec_phases_total",
            "Kernel phases executed, by backend path",
            "counter",
        );
        for r in &self.replicas {
            for (path, v) in [
                ("fast", r.metrics.exec_fast_phases),
                ("fallback", r.metrics.exec_fallback_phases),
            ] {
                let _ = writeln!(
                    out,
                    "kami_fleet_exec_phases_total{{device=\"{}\",replica=\"{}\",path=\"{path}\"}} {v}",
                    r.device, r.replica
                );
            }
        }
        series(
            &mut out,
            "utilization",
            "Device-busy fraction of the replica clock",
            "gauge",
        );
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "kami_fleet_utilization{{device=\"{}\",replica=\"{}\"}} {:.6}",
                r.device,
                r.replica,
                r.utilization()
            );
        }
        series(&mut out, "queue_depth", "Queued requests", "gauge");
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "kami_fleet_queue_depth{{device=\"{}\",replica=\"{}\"}} {}",
                r.device, r.replica, r.queue_depth
            );
        }
        series(
            &mut out,
            "clock_seconds",
            "Replica clock in simulated seconds",
            "gauge",
        );
        for r in &self.replicas {
            let _ = writeln!(
                out,
                "kami_fleet_clock_seconds{{device=\"{}\",replica=\"{}\"}} {:.9}",
                r.device, r.replica, r.clock_secs
            );
        }
        series(
            &mut out,
            "routed_total",
            "Requests placed by the router",
            "counter",
        );
        let _ = writeln!(out, "kami_fleet_routed_total {}", self.router.routed);
        series(
            &mut out,
            "no_eligible_total",
            "Submissions with no eligible replica",
            "counter",
        );
        let _ = writeln!(
            out,
            "kami_fleet_no_eligible_total {}",
            self.router.no_eligible
        );
        series(
            &mut out,
            "completion_cycles_p50",
            "Fleet-wide median completion latency, simulated cycles",
            "gauge",
        );
        let _ = writeln!(
            out,
            "kami_fleet_completion_cycles_p50 {}",
            self.completion_cycles.p50()
        );
        series(
            &mut out,
            "completion_cycles_p99",
            "Fleet-wide p99 completion latency, simulated cycles",
            "gauge",
        );
        let _ = writeln!(
            out,
            "kami_fleet_completion_cycles_p99 {}",
            self.completion_cycles.p99()
        );
        series(
            &mut out,
            "completion_cycles_p999",
            "Fleet-wide p99.9 completion latency, simulated cycles",
            "gauge",
        );
        let _ = writeln!(
            out,
            "kami_fleet_completion_cycles_p999 {}",
            self.completion_cycles.p999()
        );
        write_plan_cache_series(&mut out, "kami_fleet", &self.plan_cache);
        out
    }
}

/// A heterogeneous fleet of [`Server`] replicas behind a cost-oracle
/// router. See the module docs for the routing and numerics model.
pub struct FleetServer {
    spec: FleetSpec,
    config: FleetConfig,
    replicas: Vec<Replica>,
    /// One cache for the whole fleet: plan/cost keys carry the device
    /// name and cost fingerprint, so classes never collide and an
    /// injected class costs separately from a clean one.
    plans: Arc<PlanCache>,
    /// Predicted busy horizon per replica, simulated seconds; covers
    /// placed-but-not-yet-ticked work the replica clock can't see yet.
    busy_until: Mutex<Vec<f64>>,
    /// Round-robin cursor (used by [`RoutingPolicy::RoundRobin`]).
    rr_next: AtomicU64,
    router: Mutex<RouterStats>,
}

impl FleetServer {
    pub fn new(spec: FleetSpec) -> Self {
        Self::with_config(spec, FleetConfig::default())
    }

    pub fn with_config(spec: FleetSpec, config: FleetConfig) -> Self {
        let plans = Arc::new(PlanCache::with_config(spec.cache.clone()));
        let mut replicas = Vec::with_capacity(spec.total_replicas());
        for (class_idx, class) in spec.classes.iter().enumerate() {
            for _ in 0..class.replicas {
                let server_cfg = ServerConfig {
                    cost: class.cost.clone(),
                    true_cost: class.true_cost.clone(),
                    numeric_device: Some(spec.numeric_device.clone()),
                    cache: spec.cache.clone(),
                    ..config.server.clone()
                };
                replicas.push(Replica {
                    id: replicas.len(),
                    class: class_idx,
                    server: Server::with_shared_plans(
                        &class.device,
                        server_cfg,
                        Arc::clone(&plans),
                    ),
                });
            }
        }
        let n = replicas.len();
        FleetServer {
            spec,
            config,
            replicas,
            plans,
            busy_until: Mutex::new(vec![0.0; n]),
            rr_next: AtomicU64::new(0),
            router: Mutex::new(RouterStats::default()),
        }
    }

    pub fn spec(&self) -> &FleetSpec {
        &self.spec
    }

    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The fleet-wide shared plan/cost cache.
    pub fn plans(&self) -> &PlanCache {
        &self.plans
    }

    /// Predict this request's makespan on `replica`'s device, in that
    /// device's cycles — the cost-oracle query. Sparse workloads go
    /// through the nnz-weighted scheduler path, dense through the
    /// cached cost pass ([`PlanCache::predict_makespan`]). An error
    /// means the device class cannot run the request (ineligible).
    pub fn predicted_cycles(
        &self,
        replica: usize,
        request: &ServeRequest,
    ) -> Result<f64, ServeError> {
        let r = &self.replicas[replica];
        let dev = r.device();
        let cost = r.server.config().cost.as_ref();
        let work = match &request.workload {
            Workload::Dense(_) => {
                let work = BlockWork::new(request.work_items());
                return Ok(self.plans.predict_makespan(dev, &work, cost)?);
            }
            Workload::Spmm { a, b, cfg } => SparseWork::from_spmm(a, b.cols(), cfg.precision),
            Workload::Spgemm { a, b, cfg } => SparseWork::from_spgemm(a, b, cfg.precision),
        };
        // An empty product is zero device work, matching how each
        // replica schedules it.
        if work.total_nnz() == 0 {
            return Ok(0.0);
        }
        let mut s = Scheduler::new(dev);
        if let Some(c) = cost {
            s = s.with_cost(c.clone());
        }
        Ok(s.run_sparse(&work, &self.plans)?.schedule.makespan_cycles)
    }

    /// Predicted completion time of `request` on `replica`: the later
    /// of the replica's clock and its placed-work horizon, plus the
    /// predicted makespan — all in simulated seconds.
    pub fn predicted_completion_secs(
        &self,
        replica: usize,
        request: &ServeRequest,
    ) -> Result<f64, ServeError> {
        let r = &self.replicas[replica];
        let pred_secs = self.predicted_cycles(replica, request)? / r.device().clock_hz();
        let horizon = {
            let busy = self.busy_until.lock().unwrap_or_else(|p| p.into_inner());
            busy[replica]
        };
        Ok(horizon.max(r.clock_secs()) + pred_secs)
    }

    /// Answer the routing question without placing the request: every
    /// eligible replica with its predicted completion, and the pick
    /// under the configured policy. `Err(NoEligibleReplica)` when
    /// affinity or infeasibility rules out the whole fleet.
    pub fn plan_route(&self, request: &ServeRequest) -> Result<RouteDecision, ServeError> {
        let mut candidates = Vec::new();
        let mut excluded = Vec::new();
        for r in &self.replicas {
            if let Some(want) = &request.device_affinity {
                if r.device().name != *want {
                    continue;
                }
            }
            match self.predicted_completion_secs(r.id, request) {
                Ok(secs) => candidates.push(RouteCandidate {
                    replica: r.id,
                    device: r.device().name.clone(),
                    predicted_completion_secs: secs,
                }),
                Err(e) => excluded.push(format!("{}#{}: {e}", r.device().name, r.id)),
            }
        }
        if candidates.is_empty() {
            let detail = if let Some(want) = &request.device_affinity {
                format!(
                    "affinity {want:?} matched no feasible replica ({} excluded: {})",
                    excluded.len(),
                    excluded.join("; ")
                )
            } else {
                format!(
                    "no device class can run this request ({})",
                    excluded.join("; ")
                )
            };
            return Err(ServeError::NoEligibleReplica { detail });
        }
        let chosen = match self.config.policy {
            RoutingPolicy::EarliestCompletion => {
                candidates
                    .iter()
                    .min_by(|a, b| {
                        a.predicted_completion_secs
                            .total_cmp(&b.predicted_completion_secs)
                    })
                    .expect("non-empty")
                    .replica
            }
            RoutingPolicy::RoundRobin => {
                let n = self.rr_next.fetch_add(1, Ordering::Relaxed) as usize;
                candidates[n % candidates.len()].replica
            }
        };
        Ok(RouteDecision { chosen, candidates })
    }

    /// Route and admit one request. The oracle's first choice is tried
    /// first; a full queue spills to the next-best candidate rather
    /// than bouncing the client. Only when every eligible replica is
    /// full does the queue-full error surface.
    pub fn submit(&self, request: ServeRequest) -> Result<FleetTicket, ServeError> {
        self.submit_shared(Arc::new(request))
    }

    /// Route and admit an already-`Arc`'d request — the zero-copy
    /// path. Every spill candidate is offered the same allocation; the
    /// payload is never cloned however many replicas are probed.
    pub fn submit_shared(&self, request: Arc<ServeRequest>) -> Result<FleetTicket, ServeError> {
        let decision = match self.plan_route(&request) {
            Ok(d) => d,
            Err(e) => {
                self.router
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .no_eligible += 1;
                return Err(e);
            }
        };
        let mut order = decision.candidates.clone();
        match self.config.policy {
            RoutingPolicy::EarliestCompletion => {
                order.sort_by(|a, b| {
                    a.predicted_completion_secs
                        .total_cmp(&b.predicted_completion_secs)
                });
            }
            RoutingPolicy::RoundRobin => {
                // Rotate so the policy's pick is first, preserving
                // rotation order for spill.
                let pos = order
                    .iter()
                    .position(|c| c.replica == decision.chosen)
                    .expect("chosen is a candidate");
                order.rotate_left(pos);
            }
        }
        let mut last_err = None;
        for (rank, cand) in order.iter().enumerate() {
            match self.submit_shared_to(cand.replica, Arc::clone(&request)) {
                Ok(t) => {
                    let mut stats = self.router.lock().unwrap_or_else(|p| p.into_inner());
                    stats.routed += 1;
                    if rank > 0 {
                        stats.spilled += 1;
                    }
                    drop(stats);
                    let mut busy = self.busy_until.lock().unwrap_or_else(|p| p.into_inner());
                    busy[cand.replica] = busy[cand.replica].max(cand.predicted_completion_secs);
                    return Ok(t);
                }
                Err(e @ ServeError::QueueFull { .. }) => last_err = Some(e),
                Err(e) => return Err(e),
            }
        }
        self.router
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .no_eligible += 1;
        Err(ServeError::NoEligibleReplica {
            detail: format!(
                "every eligible replica is at capacity (last: {})",
                last_err.expect("at least one candidate was tried")
            ),
        })
    }

    /// Admit on a specific replica, bypassing the router. The
    /// kami-verify fleet replay uses this to probe twin replicas with
    /// identical requests.
    pub fn submit_to(
        &self,
        replica: usize,
        request: ServeRequest,
    ) -> Result<FleetTicket, ServeError> {
        self.submit_shared_to(replica, Arc::new(request))
    }

    /// Admit an already-`Arc`'d request on a specific replica.
    pub fn submit_shared_to(
        &self,
        replica: usize,
        request: Arc<ServeRequest>,
    ) -> Result<FleetTicket, ServeError> {
        let r = &self.replicas[replica];
        let ticket = r.server.submit_shared(request)?;
        Ok(FleetTicket {
            replica,
            device: r.device().name.clone(),
            ticket,
        })
    }

    /// Tick every replica's dispatcher once. Replica clocks advance
    /// independently — a fleet tick is *not* a barrier.
    pub fn tick_all(&self) {
        for r in &self.replicas {
            r.server.tick();
        }
    }

    /// Tick until every replica's queue is dry.
    pub fn drain(&self) {
        for r in &self.replicas {
            r.server.drain();
        }
    }

    /// Stop admission fleet-wide.
    pub fn shutdown(&self) {
        for r in &self.replicas {
            r.server.shutdown();
        }
    }

    /// Graceful exit: stop admission, then finish all queued work.
    pub fn shutdown_and_drain(&self) {
        self.shutdown();
        self.drain();
    }

    /// Queued requests across the fleet.
    pub fn pending(&self) -> usize {
        self.replicas.iter().map(|r| r.server.pending()).sum()
    }

    /// Roll up every replica's metrics into the fleet account.
    pub fn metrics(&self) -> FleetMetrics {
        let mut completion = CycleHistogram::default();
        let replicas = self
            .replicas
            .iter()
            .map(|r| {
                let m = r.server.metrics();
                completion.merge(&m.completion_cycles);
                ReplicaMetrics {
                    replica: r.id,
                    device: r.device().name.clone(),
                    clock_cycles: r.server.clock(),
                    clock_secs: r.clock_secs(),
                    queue_depth: r.server.pending(),
                    metrics: m,
                }
            })
            .collect();
        FleetMetrics {
            replicas,
            router: self
                .router
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .clone(),
            completion_cycles: completion,
            plan_cache: self.plans.stats(),
        }
    }

    /// Prometheus text exposition of the fleet rollup.
    pub fn to_prometheus(&self) -> String {
        self.metrics().to_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kami_gpu_sim::{Matrix, Precision};

    fn req(seed: u64, m: usize, n: usize, k: usize) -> ServeRequest {
        let a = Matrix::seeded_uniform(m, k, seed);
        let b = Matrix::seeded_uniform(k, n, seed + 1000);
        ServeRequest::gemm(a, b, Precision::Fp16)
    }

    #[test]
    fn fleet_serves_and_rolls_up() {
        let fleet = FleetServer::new(FleetSpec::table3(1));
        let tickets: Vec<_> = (0..8)
            .map(|i| fleet.submit(req(i, 64, 64, 64)).unwrap())
            .collect();
        fleet.shutdown_and_drain();
        for t in tickets {
            t.wait().unwrap();
        }
        let m = fleet.metrics();
        assert_eq!(m.submitted(), 8);
        assert_eq!(m.completed(), 8);
        assert_eq!(m.failed(), 0);
        assert_eq!(m.router.routed, 8);
        assert_eq!(m.completion_cycles.count(), 8);
        assert!(m.makespan_secs() > 0.0);
        let prom = m.to_prometheus();
        assert!(prom.contains("device=\""));
        assert!(prom.contains("replica=\""));
        assert!(prom.contains("kami_fleet_completion_cycles_p99"));
    }

    #[test]
    fn fleet_payloads_match_the_numeric_device_bitwise() {
        let fleet = FleetServer::new(FleetSpec::table3(1));
        let ndev = fleet.spec().numeric_device.clone();
        for seed in 0..4 {
            let r = req(seed, 32, 32, 32);
            let direct = r.execute(&ndev).unwrap();
            // Force placement on every class in turn: all must match
            // the numeric device's bytes.
            for i in 0..fleet.replicas().len() {
                let t = fleet.submit_to(i, r.clone()).unwrap();
                fleet.replicas()[i].server().tick();
                let done = t.wait().unwrap();
                let got = done.output.into_dense().unwrap().into_single().unwrap();
                let want = direct.clone().into_dense().unwrap().into_single().unwrap();
                assert_eq!(
                    got.c.as_slice(),
                    want.c.as_slice(),
                    "replica {i} diverged from the numeric device"
                );
            }
        }
    }

    #[test]
    fn affinity_is_refused_when_no_replica_matches() {
        let fleet = FleetServer::new(FleetSpec::homogeneous(&device::gh200(), 2));
        let r = req(0, 64, 64, 64).with_affinity("NVIDIA RTX 5090");
        match fleet.submit(r) {
            Err(ServeError::NoEligibleReplica { .. }) => {}
            other => panic!("expected NoEligibleReplica, got {other:?}"),
        }
        assert_eq!(fleet.metrics().router.no_eligible, 1);
    }

    #[test]
    fn fp64_routes_only_to_capable_classes() {
        let fleet = FleetServer::new(FleetSpec::table3(1));
        let a = Matrix::seeded_uniform(32, 32, 5);
        let b = Matrix::seeded_uniform(32, 32, 6);
        let r = ServeRequest::gemm(a, b, Precision::Fp64);
        let decision = fleet.plan_route(&r).unwrap();
        for c in &decision.candidates {
            assert_eq!(
                c.device, "NVIDIA GH200",
                "only GH200 models FP64 MMA shapes"
            );
        }
    }
}
