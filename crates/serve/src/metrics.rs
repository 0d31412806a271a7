//! Service observability: per-request and per-tick accounting, a
//! Prometheus-style text export, and a merged device trace across every
//! dispatched group.

use kami_gpu_sim::Trace;
use kami_sched::{PlanCacheStats, RatioHistogram, RATIO_BUCKETS};
use std::fmt::Write as _;

/// One dispatcher tick's account.
#[derive(Debug, Clone)]
pub struct TickRecord {
    pub tick: u64,
    /// Requests dispatched this tick (completions + retries).
    pub requests: usize,
    /// Work-pool groups those requests coalesced into.
    pub groups: usize,
    /// Simulated cycles the tick advanced the clock.
    pub makespan_cycles: f64,
    /// Makespan-weighted mean SM utilization across the tick's groups.
    pub utilization: f64,
}

impl TickRecord {
    /// Requests per group — 1.0 when nothing coalesced.
    pub fn coalesce_factor(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            self.requests as f64 / self.groups as f64
        }
    }
}

/// Fixed-bucket histogram of completion latencies in simulated cycles.
///
/// Buckets are powers of two: bucket `i` counts observations in
/// `[2^i, 2^(i+1))` cycles, with bucket 0 also absorbing everything
/// below 1 cycle and a final overflow bucket for `>= 2^32`. Fixed
/// boundaries make histograms from different replicas mergeable by
/// plain bucket-wise addition, which is exactly how the fleet rollup
/// builds its aggregate percentiles.
///
/// Percentiles are upper-bound estimates: `percentile(q)` reports the
/// upper edge of the bucket holding the q-th observation, so the true
/// latency is never under-reported by more than one octave.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleHistogram {
    /// `BUCKETS` power-of-two buckets plus one overflow bucket.
    counts: [u64; CycleHistogram::BUCKETS + 1],
    total: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram {
            counts: [0; CycleHistogram::BUCKETS + 1],
            total: 0,
        }
    }
}

impl CycleHistogram {
    /// Power-of-two buckets covering `[1, 2^32)` simulated cycles.
    pub const BUCKETS: usize = 32;

    /// Upper bound (exclusive) of bucket `i`; the overflow bucket
    /// reports `f64::INFINITY`.
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i >= Self::BUCKETS {
            f64::INFINITY
        } else {
            f64::powi(2.0, (i + 1) as i32)
        }
    }

    /// Record one completion latency in simulated cycles.
    pub fn record(&mut self, cycles: f64) {
        let idx = if cycles < 1.0 {
            0
        } else {
            let i = cycles.log2().floor() as usize;
            i.min(Self::BUCKETS)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Upper-bound estimate of the q-th percentile (`q` in `[0, 1]`),
    /// or 0.0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        f64::INFINITY
    }

    /// Median completion latency (upper-bound estimate), in cycles.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// Tail completion latency (upper-bound estimate), in cycles.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }

    /// Extreme-tail completion latency (upper-bound estimate), in
    /// cycles — the sustained-load study's headline tail metric.
    pub fn p999(&self) -> f64 {
        self.percentile(0.999)
    }

    /// Fold another histogram into this one — fixed boundaries make
    /// this exact, which is what fleet rollup relies on.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Iterate `(upper_bound, cumulative_count)` pairs over non-empty
    /// prefix buckets — the Prometheus `le` series.
    pub fn cumulative(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let mut acc = 0u64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            acc += c;
            (Self::bucket_upper_bound(i), acc)
        })
    }
}

/// Cumulative service counters. Snapshot via
/// [`Server::metrics`](crate::Server::metrics).
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    pub submitted: u64,
    pub rejected_queue_full: u64,
    pub rejected_shutting_down: u64,
    pub completed: u64,
    pub failed: u64,
    /// Deadline misses that went back to the queue with backoff.
    pub retries: u64,
    /// Deadline misses that exhausted retries and took the serial path.
    pub degraded_serial: u64,
    /// Ticks that dispatched at least one request.
    pub ticks: u64,
    /// Kernel phases the executing backend ran on its fast path (the
    /// native lean loop), summed over every request's numerics.
    pub exec_fast_phases: u64,
    /// Kernel phases that ran through the reference step instead: every
    /// phase on `Sim`, the phases `Native` could not clear as race-free.
    pub exec_fallback_phases: u64,
    /// Sum over completions of eligible-but-waiting cycles.
    pub queue_cycles_sum: f64,
    /// Sum over completions of group-start→done cycles.
    pub service_cycles_sum: f64,
    /// Sum over groups of their makespans (device busy time).
    pub group_cycles_sum: f64,
    /// Largest *freshly admitted* depth observed at submit time (the
    /// depth the admission bound applies to; parked retries are
    /// tracked by `max_parked_depth`).
    pub max_queue_depth: usize,
    /// Largest parked-in-backoff depth observed at requeue time.
    /// Parked retries are already admitted and exempt from the
    /// admission bound — this is their separate account.
    pub max_parked_depth: usize,
    /// Submissions whose home admission shard was at its soft cap and
    /// landed on a sibling shard instead of bouncing.
    pub admission_failovers: u64,
    /// End-to-end completion latency histogram in simulated cycles
    /// (admission to completion, retries and backoff parking included);
    /// fixed power-of-two buckets so fleet rollups merge exactly.
    pub completion_cycles: CycleHistogram,
    /// Plan-plane snapshot: both bounded stores (entries, resident
    /// bytes, evictions, admission rejections, stampedes avoided) plus
    /// the observation-feedback loop.
    pub plan_cache: PlanCacheStats,
    pub per_tick: Vec<TickRecord>,
}

impl Metrics {
    /// Mean requests-per-group across dispatching ticks.
    pub fn coalesce_factor(&self) -> f64 {
        let (reqs, groups) = self
            .per_tick
            .iter()
            .fold((0usize, 0usize), |(r, g), t| (r + t.requests, g + t.groups));
        if groups == 0 {
            0.0
        } else {
            reqs as f64 / groups as f64
        }
    }

    /// Mean queue latency per completion, in simulated cycles.
    pub fn mean_queue_cycles(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.queue_cycles_sum / self.completed as f64
        }
    }

    /// Prometheus text exposition (counters and gauges under the
    /// `kami_serve_` prefix).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: f64| {
            let _ = writeln!(out, "# HELP kami_serve_{name} {help}");
            let _ = writeln!(out, "# TYPE kami_serve_{name} counter");
            let _ = writeln!(out, "kami_serve_{name} {v}");
        };
        counter(
            "submitted_total",
            "Requests admitted",
            self.submitted as f64,
        );
        counter(
            "rejected_queue_full_total",
            "Submissions bounced by backpressure",
            self.rejected_queue_full as f64,
        );
        counter(
            "rejected_shutting_down_total",
            "Submissions refused during drain",
            self.rejected_shutting_down as f64,
        );
        counter(
            "completed_total",
            "Requests completed",
            self.completed as f64,
        );
        counter("failed_total", "Requests failed", self.failed as f64);
        counter(
            "retries_total",
            "Deadline misses requeued with backoff",
            self.retries as f64,
        );
        counter(
            "degraded_serial_total",
            "Completions via the serial fallback",
            self.degraded_serial as f64,
        );
        counter("ticks_total", "Dispatching ticks", self.ticks as f64);
        counter(
            "queue_cycles_total",
            "Simulated cycles requests waited eligible",
            self.queue_cycles_sum,
        );
        counter(
            "service_cycles_total",
            "Simulated cycles from group start to done",
            self.service_cycles_sum,
        );
        counter(
            "group_cycles_total",
            "Simulated device-busy cycles across groups",
            self.group_cycles_sum,
        );
        counter(
            "admission_failovers_total",
            "Submissions that landed on a sibling shard",
            self.admission_failovers as f64,
        );
        let _ = writeln!(
            out,
            "# HELP kami_serve_exec_phases_total Kernel phases executed, by backend path"
        );
        let _ = writeln!(out, "# TYPE kami_serve_exec_phases_total counter");
        for (path, v) in [
            ("fast", self.exec_fast_phases),
            ("fallback", self.exec_fallback_phases),
        ] {
            let _ = writeln!(out, "kami_serve_exec_phases_total{{path=\"{path}\"}} {v}");
        }
        let mut gauge = |name: &str, help: &str, v: f64| {
            let _ = writeln!(out, "# HELP kami_serve_{name} {help}");
            let _ = writeln!(out, "# TYPE kami_serve_{name} gauge");
            let _ = writeln!(out, "kami_serve_{name} {v}");
        };
        gauge(
            "max_queue_depth",
            "Largest admitted queue depth seen at submit",
            self.max_queue_depth as f64,
        );
        gauge(
            "max_parked_depth",
            "Largest parked-in-backoff depth seen at requeue",
            self.max_parked_depth as f64,
        );
        gauge(
            "coalesce_factor",
            "Mean requests per dispatched group",
            self.coalesce_factor(),
        );
        gauge(
            "mean_queue_cycles",
            "Mean eligible-wait cycles per completion",
            self.mean_queue_cycles(),
        );
        gauge(
            "completion_cycles_p50",
            "Median completion latency in simulated cycles (bucket upper bound)",
            self.completion_cycles.p50(),
        );
        gauge(
            "completion_cycles_p99",
            "P99 completion latency in simulated cycles (bucket upper bound)",
            self.completion_cycles.p99(),
        );
        gauge(
            "completion_cycles_p999",
            "P99.9 completion latency in simulated cycles (bucket upper bound)",
            self.completion_cycles.p999(),
        );
        write_plan_cache_series(&mut out, "kami_serve", &self.plan_cache);
        out
    }
}

/// Append the plan-cache observability series under `prefix` —
/// shared by the per-server (`kami_serve`) and fleet (`kami_fleet`)
/// exports so both expose identical names.
pub(crate) fn write_plan_cache_series(out: &mut String, prefix: &str, pc: &PlanCacheStats) {
    let gauge = |out: &mut String, name: &str, help: &str, v: f64| {
        let _ = writeln!(out, "# HELP {prefix}_{name} {help}");
        let _ = writeln!(out, "# TYPE {prefix}_{name} gauge");
        let _ = writeln!(out, "{prefix}_{name} {v}");
    };
    gauge(
        out,
        "plan_cache_entries",
        "Entries resident across both plan-plane stores",
        pc.entries() as f64,
    );
    gauge(
        out,
        "plan_cache_resident_bytes",
        "Approximate bytes resident across both plan-plane stores",
        pc.resident_bytes() as f64,
    );
    let counter = |out: &mut String, name: &str, help: &str, v: f64| {
        let _ = writeln!(out, "# HELP {prefix}_{name} {help}");
        let _ = writeln!(out, "# TYPE {prefix}_{name} counter");
        let _ = writeln!(out, "{prefix}_{name} {v}");
    };
    counter(
        out,
        "plan_cache_hits_total",
        "Plan-plane lookups served from cache (both stores)",
        (pc.plans.hits + pc.costs.hits) as f64,
    );
    counter(
        out,
        "plan_cache_misses_total",
        "Plan-plane lookups that ran the tuning sweep or cost pass",
        (pc.plans.misses + pc.costs.misses) as f64,
    );
    counter(
        out,
        "plan_cache_evictions_total",
        "Entries displaced by the cache budget",
        pc.evictions() as f64,
    );
    counter(
        out,
        "plan_cache_admission_rejected_total",
        "Computed values the Bloom doorkeeper (or oversize check) declined to cache",
        pc.admission_rejected() as f64,
    );
    counter(
        out,
        "plan_cache_stampedes_avoided_total",
        "Concurrent misses that waited on an in-flight compute",
        pc.stampedes_avoided() as f64,
    );
    counter(
        out,
        "plan_cache_feedback_observations_total",
        "Observed executions recorded into the feedback plane",
        pc.feedback_observations as f64,
    );
    counter(
        out,
        "plan_cache_feedback_corrections_total",
        "Makespan estimates corrected by an observed ratio",
        pc.feedback_corrections as f64,
    );
    write_ratio_histogram(out, prefix, &pc.ratio);
}

/// Append the observed/predicted makespan ratio histogram as a
/// Prometheus histogram (`_bucket{le=..}` cumulative series plus
/// `_sum` and `_count`).
fn write_ratio_histogram(out: &mut String, prefix: &str, h: &RatioHistogram) {
    let name = "plan_cache_feedback_ratio";
    let _ = writeln!(
        out,
        "# HELP {prefix}_{name} Observed/predicted makespan ratio per dispatched shape class"
    );
    let _ = writeln!(out, "# TYPE {prefix}_{name} histogram");
    let mut acc = 0u64;
    for (i, &c) in h.counts().iter().enumerate() {
        acc += c;
        if i + 1 == RATIO_BUCKETS {
            let _ = writeln!(out, "{prefix}_{name}_bucket{{le=\"+Inf\"}} {acc}");
        } else {
            let le = RatioHistogram::upper_bound(i);
            let _ = writeln!(out, "{prefix}_{name}_bucket{{le=\"{le}\"}} {acc}");
        }
    }
    let _ = writeln!(out, "{prefix}_{name}_sum {}", h.sum());
    let _ = writeln!(out, "{prefix}_{name}_count {}", h.count());
}

/// Merged device trace: every dispatched group's per-SM trace, offset
/// to the group's start on the service clock, in one Chrome-trace
/// timeline.
#[derive(Debug, Clone, Default)]
pub(crate) struct MergedTrace {
    pub trace: Trace,
}

impl MergedTrace {
    pub(crate) fn absorb(&mut self, group: &Trace, offset_cycles: f64) {
        self.trace.absorb(group, offset_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_export_names_every_counter() {
        let mut m = Metrics {
            submitted: 7,
            completed: 5,
            ..Metrics::default()
        };
        m.per_tick.push(TickRecord {
            tick: 1,
            requests: 4,
            groups: 2,
            makespan_cycles: 100.0,
            utilization: 0.5,
        });
        let text = m.to_prometheus();
        for name in [
            "kami_serve_submitted_total 7",
            "kami_serve_completed_total 5",
            "kami_serve_coalesce_factor 2",
            "# TYPE kami_serve_ticks_total counter",
            "kami_serve_plan_cache_entries 0",
            "kami_serve_plan_cache_evictions_total 0",
            "kami_serve_plan_cache_admission_rejected_total 0",
            "kami_serve_plan_cache_stampedes_avoided_total 0",
            "kami_serve_plan_cache_feedback_corrections_total 0",
            "kami_serve_plan_cache_feedback_ratio_count 0",
            "kami_serve_plan_cache_feedback_ratio_bucket{le=\"+Inf\"} 0",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn prometheus_exports_plan_cache_ratio_histogram() {
        let mut m = Metrics::default();
        m.plan_cache.ratio.record(1.0);
        m.plan_cache.ratio.record(8.0);
        m.plan_cache.feedback_observations = 2;
        let text = m.to_prometheus();
        assert!(text.contains("kami_serve_plan_cache_feedback_observations_total 2"));
        assert!(text.contains("kami_serve_plan_cache_feedback_ratio_count 2"));
        assert!(text.contains("kami_serve_plan_cache_feedback_ratio_sum 9"));
        // Cumulative le series ends at the catch-all.
        assert!(text.contains("kami_serve_plan_cache_feedback_ratio_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn histogram_bucket_boundaries_are_pinned() {
        // Bucket i covers [2^i, 2^(i+1)); sub-cycle latencies land in
        // bucket 0, >= 2^32 in the overflow bucket. These boundaries
        // are load-bearing: fleet rollup merges replica histograms
        // bucket-wise, which is only exact because every histogram
        // shares them.
        assert_eq!(CycleHistogram::BUCKETS, 32);
        assert_eq!(CycleHistogram::bucket_upper_bound(0), 2.0);
        assert_eq!(CycleHistogram::bucket_upper_bound(1), 4.0);
        assert_eq!(CycleHistogram::bucket_upper_bound(9), 1024.0);
        assert_eq!(CycleHistogram::bucket_upper_bound(31), 4294967296.0);
        assert_eq!(CycleHistogram::bucket_upper_bound(32), f64::INFINITY);

        let mut h = CycleHistogram::default();
        // Exactly at a boundary: 1024 cycles is the *lower* edge of
        // bucket 10, so its percentile upper bound reads 2048.
        h.record(1024.0);
        assert_eq!(h.p50(), 2048.0);
        // Just below the boundary stays in bucket 9.
        let mut low = CycleHistogram::default();
        low.record(1023.9);
        assert_eq!(low.p50(), 1024.0);
        // Sub-cycle and overflow extremes.
        let mut edges = CycleHistogram::default();
        edges.record(0.25);
        edges.record(1.0e12);
        assert_eq!(edges.percentile(0.0), 2.0);
        assert_eq!(edges.percentile(1.0), f64::INFINITY);
    }

    #[test]
    fn histogram_percentiles_and_merge() {
        let mut a = CycleHistogram::default();
        for _ in 0..99 {
            a.record(3.0); // bucket 1 -> upper bound 4
        }
        a.record(1.0e6); // lone tail observation
        assert_eq!(a.count(), 100);
        assert_eq!(a.p50(), 4.0);
        // 99th observation is still in the fast bucket...
        assert_eq!(a.p99(), 4.0);
        // ...but the max percentile sees the tail (2^20 = 1048576).
        assert_eq!(a.percentile(1.0), 1048576.0);

        let mut b = CycleHistogram::default();
        for _ in 0..300 {
            b.record(1.0e6);
        }
        a.merge(&b);
        assert_eq!(a.count(), 400);
        // Tail now dominates: p50 and p99 both in the 2^20 bucket.
        assert_eq!(a.p50(), 1048576.0);
        assert_eq!(a.p99(), 1048576.0);

        let empty = CycleHistogram::default();
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.p99(), 0.0);
    }

    #[test]
    fn prometheus_reports_percentile_gauges() {
        let mut m = Metrics::default();
        m.completion_cycles.record(100.0);
        let text = m.to_prometheus();
        assert!(text.contains("kami_serve_completion_cycles_p50 128"));
        assert!(text.contains("kami_serve_completion_cycles_p99 128"));
    }

    #[test]
    fn merged_trace_offsets_events() {
        use kami_gpu_sim::{TraceEvent, TraceKind};
        let mut group = Trace::default();
        group.events.push(TraceEvent {
            warp: 0,
            phase: 0,
            kind: TraceKind::Mma,
            amount: 1,
            start: 5.0,
            duration: 2.0,
            detail: String::new(),
        });
        group.phase_starts = vec![0.0, 7.0];
        let mut merged = MergedTrace::default();
        merged.absorb(&group, 100.0);
        assert_eq!(merged.trace.events[0].start, 105.0);
        assert_eq!(merged.trace.total_cycles(), 107.0);
    }
}
