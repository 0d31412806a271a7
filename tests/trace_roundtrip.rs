//! Round-trip and validity tests for the trace exporter (`trace.rs`):
//! the Chrome-trace JSON must parse back, every warp track must be
//! overlap-free, and event durations must stay within their phase's
//! cycle budget. The same checks are applied to the merged device-level
//! trace the scheduler emits (one track per SM). The reference run's
//! report and trace must also serialize identically to the cost pass's.

use kami::core::{algo1d, algo2d, algo3d, Algo, KamiConfig};
use kami::sched::{BlockWork, PlanCache, Scheduler};
use kami::sim::{
    device, CostConfig, CostMode, DeviceSpec, Engine, GlobalMemory, Matrix, Precision, Trace,
};
use serde_json::Value;

/// Shared validity checks for any trace.
fn check_trace(trace: &Trace, total_cycles: f64) {
    assert!(!trace.events.is_empty());
    assert!((trace.total_cycles() - total_cycles).abs() < 1e-6);

    // --- Chrome JSON round-trips ---
    let json = trace.to_chrome_json();
    let parsed: Value = serde_json::from_str(&json).expect("chrome trace parses back");
    let arr = parsed.as_array().expect("chrome trace is a JSON array");
    assert_eq!(arr.len(), trace.events.len());
    for (ev, val) in trace.events.iter().zip(arr) {
        assert_eq!(val["name"], ev.kind.label());
        assert_eq!(val["ph"], "X");
        assert_eq!(val["tid"], ev.warp as u64);
        // ts/dur are serialized with 3 decimals (1 cycle = 1 µs).
        assert!((val["ts"].as_f64().unwrap() - ev.start).abs() < 0.0011);
        assert!((val["dur"].as_f64().unwrap() - ev.duration.max(0.001)).abs() < 0.0011);
        assert_eq!(val["args"]["amount"], ev.amount);
        assert_eq!(val["args"]["phase"], ev.phase as u64);
    }

    // --- per-track validity ---
    let tracks: std::collections::BTreeSet<usize> = trace.events.iter().map(|e| e.warp).collect();
    for w in tracks {
        let mut evs: Vec<_> = trace.warp_events(w).collect();
        evs.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite"));
        let mut cursor = f64::NEG_INFINITY;
        for e in &evs {
            assert!(
                e.start + 1e-6 >= cursor,
                "track {w}: event at {} overlaps previous ending at {cursor}",
                e.start
            );
            cursor = e.start + e.duration;
            assert!(e.duration >= 0.0 && e.start >= -1e-9);
            assert!(cursor <= total_cycles + 1e-6);
            // The event sits inside its phase.
            assert!(e.start + 1e-6 >= trace.phase_starts[e.phase]);
        }
        // Per phase, attributed durations never exceed the phase's
        // cycle extent (latency gaps make them ≤, not =).
        for p in 0..trace.phase_starts.len() - 1 {
            let extent = trace.phase_starts[p + 1] - trace.phase_starts[p];
            let sum: f64 = evs
                .iter()
                .filter(|e| e.phase == p)
                .map(|e| e.duration)
                .sum();
            assert!(
                sum <= extent + 1e-6,
                "track {w} phase {p}: {sum} cycles attributed in a {extent}-cycle phase"
            );
        }
    }
}

/// Hostile characters in event details (quotes, backslashes, control
/// bytes — fragment names are arbitrary strings) must survive the
/// Chrome-JSON encoding: the parsed-back detail equals the original,
/// not a sanitized lookalike, and the document stays valid JSON.
#[test]
fn hostile_event_details_round_trip_exactly() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let cfg = KamiConfig::new(Algo::OneD, prec);
    let n = 16;
    let a = Matrix::seeded_uniform(n, n, 1);
    let b = Matrix::seeded_uniform(n, n, 2);
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &a, prec);
    let bb = gmem.upload("B", &b, prec);
    let cb = gmem.alloc_zeroed("C", n, n, prec);
    let kernel = kami::core::algo1d::build_kernel(&cfg, n, n, n, ab, bb, cb, prec);
    let (_, mut trace) = Engine::new(&dev).run_traced(&kernel, &mut gmem).unwrap();

    let hostile = "Bi[\"0\"] \\ path\nnext\tcol \u{1b}[31mred\u{1b}[0m";
    trace.events[0].detail = hostile.to_string();
    let json = trace.to_chrome_json();
    let parsed: Value = serde_json::from_str(&json).expect("hostile details still parse");
    assert_eq!(
        parsed[0]["args"]["detail"].as_str().unwrap(),
        hostile,
        "detail must round-trip byte-for-byte"
    );
}

#[test]
fn block_trace_round_trips_and_is_valid() {
    let dev = device::gh200();
    let prec = Precision::Fp16;
    let cfg = KamiConfig::new(Algo::OneD, prec);
    let n = 64;
    let a = Matrix::seeded_uniform(n, n, 1);
    let b = Matrix::seeded_uniform(n, n, 2);
    let mut gmem = GlobalMemory::new();
    let ab = gmem.upload("A", &a, prec);
    let bb = gmem.upload("B", &b, prec);
    let cb = gmem.alloc_zeroed("C", n, n, prec);
    let kernel = kami::core::algo1d::build_kernel(&cfg, n, n, n, ab, bb, cb, prec);
    let (report, trace) = Engine::new(&dev).run_traced(&kernel, &mut gmem).unwrap();

    assert_eq!(trace.phase_starts.len(), report.phase_costs.len() + 1);
    check_trace(&trace, report.cycles);
}

#[test]
fn device_trace_round_trips_and_is_valid() {
    let dev = device::gh200();
    let plans = PlanCache::new();
    // Tail-heavy count with a multi-stage k-loop → Stream-K with
    // fixup events in the merged trace.
    let work = BlockWork::uniform(64, 64, 256, Precision::Fp64, dev.num_sms as usize * 2 + 1);
    let (report, trace) = Scheduler::new(&dev).run_traced(&work, &plans).unwrap();

    check_trace(&trace, report.makespan_cycles);
    assert_eq!(trace.device, report.device_name);

    // One track per busy SM, and each track's durations sum exactly to
    // that SM's busy cycles (the device trace has no latency gaps).
    for sm in &report.per_sm {
        let sum: f64 = trace.warp_events(sm.sm).map(|e| e.duration).sum();
        assert!(
            (sum - sm.busy_cycles).abs() < 1e-6,
            "sm {}: trace {} vs busy {}",
            sm.sm,
            sum,
            sm.busy_cycles
        );
    }
    // Stream-K fixups appear as global-memory traffic events.
    use kami::sim::TraceKind;
    assert!(trace.cycles_by_kind(TraceKind::GlobalStore) > 0.0);
    assert!(trace.cycles_by_kind(TraceKind::GlobalLoad) > 0.0);
}

/// The reference run (`run_traced`: execute and tally in one pass) and
/// the cost pass (`plan` + `cost_traced`, no matrix data) serialize to
/// the same report and trace on every Table 3 device, for every KAMI
/// algorithm, under both cost modes.
#[test]
fn reference_run_matches_cost_pass_on_table3_grid() {
    let (n, prec) = (32, Precision::Fp16);
    for dev in DeviceSpec::all_evaluated() {
        for algo in Algo::ALL {
            for mode in [CostMode::Serial, CostMode::Overlap] {
                let cfg = KamiConfig::new(algo, prec);
                let mut gmem = GlobalMemory::new();
                let ab = gmem.upload("A", &Matrix::seeded_uniform(n, n, 1), prec);
                let bb = gmem.upload("B", &Matrix::seeded_uniform(n, n, 2), prec);
                let cb = gmem.alloc_zeroed("C", n, n, prec);
                let build = match algo {
                    Algo::OneD => algo1d::build_kernel,
                    Algo::TwoD => algo2d::build_kernel,
                    Algo::ThreeD => algo3d::build_kernel,
                };
                let kernel = build(&cfg, n, n, n, ab, bb, cb, prec);
                let engine = Engine::with_cost(
                    &dev,
                    CostConfig {
                        mode,
                        ..CostConfig::default()
                    },
                );
                let plan = engine.plan(&kernel).unwrap();
                let (cost_report, cost_trace) = engine.cost_traced(&plan, &gmem.layout()).unwrap();
                let (report, trace) = engine.run_traced(&kernel, &mut gmem).unwrap();
                let at = format!("{} {} {mode:?}", dev.name, algo.label());
                assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    serde_json::to_string(&cost_report).unwrap(),
                    "{at}: report diverges"
                );
                assert_eq!(
                    serde_json::to_string(&trace).unwrap(),
                    serde_json::to_string(&cost_trace).unwrap(),
                    "{at}: trace diverges"
                );
            }
        }
    }
}
