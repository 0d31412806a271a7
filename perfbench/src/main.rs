//! The repository benchmark: one command, three seeded workloads, two
//! clocks.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot|fleet_churn|paper_sweep --seed N --seconds S --trace 0|1
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Every workload runs from one seeded client thread and checks every
//! output after the timed window. `--trace 0` prints the end-to-end
//! metrics (host wall time and simulated cycles); `--trace 1` runs the
//! workload untraced and then traced, replays each layer's public entry
//! points with spans, prints the per-layer metrics and writes the spans
//! as Chrome-trace JSON. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `METRICS.md`.

mod fleet_churn;
mod host;
mod paper_sweep;
mod replay;
mod roof;
mod serve_hot;
mod spans;
mod stats;

use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_ops_per_mcycle", "1/Mcycle"),
    ("sim_p50_kcycles", "kcycles"),
    ("sim_p90_kcycles", "kcycles"),
];

/// Per-layer metrics, printed by every `--trace 1` run (0 where the
/// workload does not reach the layer).
const PER_LAYER: [(&str, &str); 55] = [
    ("core.execute.calls", "count"),
    ("core.execute.busy_s", "s"),
    ("core.execute.gflops", "GFLOP/s"),
    ("core.execute.roof_frac", "ratio"),
    ("core.tune.calls", "count"),
    ("core.tune.busy_s", "s"),
    ("core.tune.candidates_per_class", "count"),
    ("core.cost.calls", "count"),
    ("core.cost.busy_s", "s"),
    ("core.direct.calls", "count"),
    ("core.direct.busy_s", "s"),
    ("fleet.route.calls", "count"),
    ("fleet.route.busy_s", "s"),
    ("fleet.replica_share.gh200", "ratio"),
    ("fleet.replica_share.rtx5090", "ratio"),
    ("fleet.replica_share.7900xtx", "ratio"),
    ("fleet.replica_share.max1100", "ratio"),
    ("sched.plan_cache.hits", "count"),
    ("sched.plan_cache.misses", "count"),
    ("sched.plan_cache.cost_hits", "count"),
    ("sched.plan_cache.cost_misses", "count"),
    ("sched.plan_cache.hit_ratio", "ratio"),
    ("sched.plan_cache.evictions", "count"),
    ("sched.plan_cache.admission_rejected", "count"),
    ("sched.plan_cache.stampedes_avoided", "count"),
    ("sched.plan_cache.resident_bytes", "B"),
    ("sched.schedule.calls", "count"),
    ("sched.schedule.busy_s", "s"),
    ("sched.schedule.utilization_mean", "ratio"),
    ("serve.submit.calls", "count"),
    ("serve.submit.busy_s", "s"),
    ("serve.submit.p99_us", "us"),
    ("serve.rejected", "count"),
    ("serve.tick.calls", "count"),
    ("serve.tick.busy_s", "s"),
    ("serve.tick.groups", "count"),
    ("serve.tick.group_size_mean", "count"),
    ("serve.coalesced_share", "ratio"),
    ("serve.retries", "count"),
    ("serve.degraded", "count"),
    ("serve.wait.busy_s", "s"),
    ("sparse.spmm.calls", "count"),
    ("sparse.spmm.busy_s", "s"),
    ("sparse.spgemm.calls", "count"),
    ("sparse.spgemm.busy_s", "s"),
    ("sim.execute.calls", "count"),
    ("sim.execute.busy_s", "s"),
    ("sim.cost.calls", "count"),
    ("sim.cost.busy_s", "s"),
    ("sim.roof_frac", "ratio"),
    ("baselines.cublasdx.busy_s", "s"),
    ("baselines.cutlass.busy_s", "s"),
    ("baselines.syclbench.busy_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
];

/// How long one measured phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// Whole rounds until this many wall seconds have passed (and at
    /// least the workload's checked prefix).
    Timed(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

impl Length {
    /// Whether a phase that has completed `rounds` rounds, started at
    /// `start`, should stop. `prefix` rounds always run.
    pub fn done(self, rounds: usize, prefix: usize, start: std::time::Instant) -> bool {
        match self {
            Length::Timed(secs) => rounds >= prefix && start.elapsed().as_secs_f64() >= secs,
            Length::Rounds(n) => rounds >= n,
        }
    }
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of each set-up repetition (server/fleet build, input
    /// generation, cache warm-up) and how many host probes had run when
    /// it ended.
    pub setup_s: Vec<(f64, usize)>,
    /// Every measured round: for each of its operations the wall latency
    /// (submission to result in hand) and how many host probes had run
    /// when it completed; and the round's wall seconds (span replay and
    /// probes excluded).
    pub rounds: Vec<(Vec<(f64, usize)>, f64)>,
    /// Wall seconds of each host probe, taken around the set-ups and
    /// through the timed window.
    pub probes: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Simulated latency of each operation of the checked prefix.
    pub sim_kcycles: Vec<f64>,
    /// Simulated time the checked prefix spans, in Mcycles.
    pub sim_mcycles: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer values (traced phases only).
    pub layers: BTreeMap<String, f64>,
    pub spans: Option<Spans>,
    /// Human-readable lines printed ahead of the metrics.
    pub notes: Vec<String>,
}

/// How a phase repeats its set-up: `reps` builds up front (the last is
/// kept). With `spread`, the host probe runs before and after each of
/// them and every few operations through the timed window, and a
/// workload whose set-up
/// takes milliseconds also rebuilds it there, both outside the
/// operations' timing, so `setup_s` samples the host over the same
/// stretch of time as the other wall metrics rather than one instant.
#[derive(Clone, Copy)]
pub struct SetupPlan {
    pub reps: usize,
    pub spread: bool,
}

/// `--trace 0` runs: `setup_s` is the median of every set-up timed.
const SETUP: SetupPlan = SetupPlan {
    reps: 3,
    spread: true,
};
const SETUP_ONCE: SetupPlan = SetupPlan {
    reps: 1,
    spread: false,
};

impl Measured {
    /// Build a phase's set-up `plan.reps` times, timing each into
    /// `setup_s` (each drops the previous first); returns the last.
    pub fn repeat_setup<T>(&mut self, plan: SetupPlan, mut build: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..plan.reps.max(1) {
            drop(last.take());
            if plan.spread {
                self.probe_host();
            }
            let t0 = std::time::Instant::now();
            let built = build();
            self.setup_s
                .push((t0.elapsed().as_secs_f64(), self.probes.len()));
            last = Some(built);
        }
        if plan.spread {
            self.probe_host();
        }
        last.expect("at least one set-up")
    }

    /// Time one more set-up build into `setup_s` and drop it; returns
    /// the wall seconds spent, build and drop, for the caller to leave
    /// out of its round time.
    pub fn sample_setup<T>(&mut self, build: impl FnOnce() -> T) -> f64 {
        let t0 = std::time::Instant::now();
        let built = build();
        self.setup_s
            .push((t0.elapsed().as_secs_f64(), self.probes.len()));
        drop(built);
        t0.elapsed().as_secs_f64()
    }

    /// Take the host probe once; returns the wall seconds spent, for
    /// the caller to leave out of its round time.
    pub fn probe_host(&mut self) -> f64 {
        let t0 = std::time::Instant::now();
        self.probes.push(host::probe());
        t0.elapsed().as_secs_f64()
    }

    /// How much slower than the reference the host ran when `taken`
    /// probes had run: the mean of the probes either side of that
    /// moment over [`host::REFERENCE_S`]. 1 unscaled or without probes.
    fn slowdown(&self, taken: usize, scaled: bool) -> f64 {
        let p = &self.probes;
        if !scaled || p.is_empty() {
            return 1.0;
        }
        let (before, after) = (taken.saturating_sub(1), taken.min(p.len() - 1));
        (p[before.min(after)] + p[after]) / 2.0 / host::REFERENCE_S
    }

    pub fn ops(&self) -> usize {
        self.rounds.iter().map(|(ops, _)| ops.len()).sum()
    }

    /// Median over rounds of operations per wall second: a burst of
    /// host interference shorter than half the run moves it little.
    /// Scaled, each round's rate is multiplied by the host's slowdown
    /// over the round (its operations' slowdowns, weighted by latency).
    pub fn ops_per_s(&self, scaled: bool) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|(ops, secs)| {
                let busy: f64 = ops.iter().map(|&(lat, _)| lat).sum();
                let weighted: f64 = ops
                    .iter()
                    .map(|&(lat, taken)| lat * self.slowdown(taken, scaled))
                    .sum();
                let slowdown = if busy > 0.0 { weighted / busy } else { 1.0 };
                ops.len() as f64 / secs.max(f64::MIN_POSITIVE) * slowdown
            })
            .collect();
        stats::median(&rates)
    }

    /// Median over rounds of the round's latency quantile `q`, in ms;
    /// scaled, each latency is divided by the host's slowdown when it
    /// completed.
    pub fn op_ms(&self, q: f64, scaled: bool) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|(ops, _)| {
                let lat: Vec<f64> = ops
                    .iter()
                    .map(|&(lat, taken)| lat / self.slowdown(taken, scaled))
                    .collect();
                stats::quantile(&lat, q) * 1e3
            })
            .collect();
        stats::median(&per_round)
    }

    /// Median set-up seconds; scaled, each set-up is divided by the
    /// host's slowdown when it ended.
    pub fn setup_secs(&self, scaled: bool) -> f64 {
        let secs: Vec<f64> = self
            .setup_s
            .iter()
            .map(|&(s, taken)| s / self.slowdown(taken, scaled))
            .collect();
        stats::median(&secs)
    }
}

/// One workload: a traffic description for the log and a measured
/// phase runner (`traced` turns on spans and the layer replay).
pub struct Workload {
    pub name: &'static str,
    pub traffic: &'static str,
    pub run: fn(seed: u64, length: Length, traced: bool, setup: SetupPlan) -> Measured,
    /// Rounds of the fixed-length traced run.
    pub trace_rounds: usize,
}

const WORKLOADS: [Workload; 3] = [
    serve_hot::WORKLOAD,
    fleet_churn::WORKLOAD,
    paper_sweep::WORKLOAD,
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    write_expect: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
        write_expect: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--self-test" => args.self_test = true,
            "--write-expect" => args.write_expect = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pinned = host::pin_to_one_cpu();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_expect {
        return paper_sweep::write_expectation();
    }
    if args.self_test {
        return self_test();
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required (serve_hot, fleet_churn, paper_sweep)");
        return ExitCode::from(2);
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == name) else {
        eprintln!("perfbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    println!(
        "# workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    println!("# traffic: {}", w.traffic);
    match pinned {
        Some(cpu) => {
            println!("# host: {threads} hardware threads available; run on CPU {cpu} alone")
        }
        None => println!("# host: {threads} hardware threads available; not pinned to one CPU"),
    }
    let (m, metrics) = if args.trace {
        traced_run(w, &args)
    } else {
        let m = (w.run)(args.seed, Length::Timed(args.seconds), false, SETUP);
        let metrics = end_to_end(&m);
        (m, metrics)
    };
    for n in &m.notes {
        println!("# {n}");
    }
    if !args.trace {
        println!(
            "# ops_per_s, op_p50_ms, op_p90_ms: median over {} rounds of each round's value",
            m.rounds.len()
        );
        println!(
            "# wall metrics scaled to the reference host speed: {} host probes, median {:.6} s \
             vs reference {} s; unscaled: setup_s {} s, ops_per_s {} 1/s, op_p50_ms {} ms, \
             op_p90_ms {} ms",
            m.probes.len(),
            stats::median(&m.probes),
            host::REFERENCE_S,
            m.setup_secs(false),
            m.ops_per_s(false),
            m.op_ms(0.5, false),
            m.op_ms(0.9, false)
        );
    }
    for (name, unit, value, samples) in &metrics {
        match samples {
            Some(n) => println!("metric {name} = {value} {unit} (samples {n})"),
            None => println!("metric {name} = {value} {unit}"),
        }
    }
    let failed_frac = m.failed as f64 / m.attempted.max(1) as f64;
    println!(
        "metric failed_frac = {failed_frac} ratio (failed {} of {} attempted)",
        m.failed, m.attempted
    );
    println!("{}", result_json(&m, &metrics));
    ExitCode::SUCCESS
}

type MetricRow = (&'static str, &'static str, f64, Option<usize>);

fn end_to_end(m: &Measured) -> Vec<MetricRow> {
    let n = m.ops();
    let value = |name: &str| -> (f64, Option<usize>) {
        match name {
            "setup_s" => (m.setup_secs(true), Some(m.setup_s.len())),
            "ops_per_s" => (m.ops_per_s(true), Some(n)),
            "op_p50_ms" => (m.op_ms(0.5, true), Some(n)),
            "op_p90_ms" => (m.op_ms(0.9, true), Some(n)),
            "peak_rss_mb" => (m.peak_rss_mb, None),
            "sim_ops_per_mcycle" => (
                m.sim_kcycles.len() as f64 / m.sim_mcycles.max(f64::MIN_POSITIVE),
                Some(m.sim_kcycles.len()),
            ),
            "sim_p50_kcycles" => (
                stats::quantile(&m.sim_kcycles, 0.5),
                Some(m.sim_kcycles.len()),
            ),
            "sim_p90_kcycles" => (
                stats::quantile(&m.sim_kcycles, 0.9),
                Some(m.sim_kcycles.len()),
            ),
            _ => unreachable!("every end-to-end metric has a definition"),
        }
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (v, samples) = value(name);
            (name, unit, v, samples)
        })
        .collect()
}

/// `--trace 1`: a fixed-length untraced phase, then the same traffic
/// traced with the layer replay. Per-layer metrics come from the traced
/// phase; `trace.overhead_frac` compares the two phases' throughput.
fn traced_run(w: &Workload, args: &Args) -> (Measured, Vec<MetricRow>) {
    let length = Length::Rounds(w.trace_rounds);
    let plain = (w.run)(args.seed, length, false, SETUP_ONCE);
    let mut traced = (w.run)(args.seed, length, true, SETUP_ONCE);
    let overhead = 1.0 - traced.ops_per_s(false) / plain.ops_per_s(false).max(f64::MIN_POSITIVE);
    traced.layers.insert("trace.overhead_frac".into(), overhead);
    traced.notes.push(format!(
        "trace.overhead_frac base: untraced {:.3} ops/s vs traced {:.3} ops/s ({} rounds each)",
        plain.ops_per_s(false),
        traced.ops_per_s(false),
        w.trace_rounds
    ));
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    if let Some(spans) = &traced.spans {
        let path = format!("perfbench/out/trace-{}-{}.json", w.name, args.seed);
        let written = std::path::Path::new(&path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()));
        match written {
            Ok(()) => traced.notes.push(format!("chrome trace written to {path}")),
            Err(e) => traced
                .notes
                .push(format!("chrome trace not written ({path}: {e})")),
        }
    }
    let rows = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name,
                unit,
                traced.layers.get(name).copied().unwrap_or(0.0),
                None,
            )
        })
        .collect();
    (traced, rows)
}

fn result_json(m: &Measured, metrics: &[MetricRow]) -> String {
    let mut body = String::new();
    for (i, (name, unit, value, _)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        m.failed == 0 && m.attempted > 0,
        m.attempted,
        m.failed
    )
}

/// Two short runs per workload at one seed: the simulated-clock metrics
/// and the plan-cache counts must repeat exactly, and nothing may fail.
fn self_test() -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        let length = Length::Rounds(1);
        let a = (w.run)(7, length, true, SETUP_ONCE);
        let b = (w.run)(7, length, true, SETUP_ONCE);
        let exact = |m: &Measured| {
            let counts: Vec<(String, f64)> = m
                .layers
                .iter()
                .filter(|(k, _)| k.starts_with("sched.plan_cache."))
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            (m.sim_kcycles.clone(), m.sim_mcycles, counts)
        };
        let repeat = exact(&a) == exact(&b);
        let clean = a.failed == 0 && b.failed == 0 && a.attempted > 0;
        println!(
            "self-test {}: sim metrics and plan-cache counts repeat: {repeat}; \
             failed {} + {} of {} + {} attempted",
            w.name, a.failed, b.failed, a.attempted, b.attempted
        );
        ok &= repeat && clean;
    }
    println!("self-test {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
