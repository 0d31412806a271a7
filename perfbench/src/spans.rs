//! In-memory span recording for the traced run, written once at the end
//! as Chrome-trace JSON in the event format `kami_gpu_sim::Trace`
//! emits (`name`/`cat`/`ph: "X"`/`ts`/`dur`/`pid`/`tid`/`args`).
//!
//! Wall-clock spans sit on `pid 1` (µs since the traced phase began);
//! the simulated service time of each operation sits on `pid 0`, where
//! one simulated cycle reads as one µs, exactly as in the simulator's
//! own traces. Spans of one operation share its `op` id.

use std::fmt::Write as _;
use std::time::Instant;

struct WallSpan {
    name: &'static str,
    op: u64,
    start_s: f64,
    dur_s: f64,
}

struct SimSpan {
    name: String,
    op: u64,
    track: usize,
    start_cycles: f64,
    dur_cycles: f64,
}

pub struct Spans {
    origin: Instant,
    wall: Vec<WallSpan>,
    sim: Vec<SimSpan>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            wall: Vec::new(),
            sim: Vec::new(),
        }
    }
}

impl Spans {
    /// Close a span opened at `start` (an `Instant::now()` taken by the
    /// caller, so spans can nest around other spans).
    pub fn end(&mut self, name: &'static str, op: u64, start: Instant) {
        let dur_s = start.elapsed().as_secs_f64();
        let start_s = start.duration_since(self.origin).as_secs_f64();
        self.wall.push(WallSpan {
            name,
            op,
            start_s,
            dur_s,
        });
    }

    /// Time one call as a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.end(name, op, start);
        out
    }

    /// Record an operation's simulated service interval.
    pub fn sim(&mut self, name: String, op: u64, track: usize, start_cycles: f64, dur_cycles: f64) {
        self.sim.push(SimSpan {
            name,
            op,
            track,
            start_cycles,
            dur_cycles,
        });
    }

    pub fn calls(&self, name: &str) -> usize {
        self.wall.iter().filter(|s| s.name == name).count()
    }

    /// Wall seconds spent inside spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.wall
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s)
    }

    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.wall
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_s)
            .collect()
    }

    pub fn to_chrome_json(&self) -> String {
        let mut events = Vec::with_capacity(self.wall.len() + self.sim.len());
        for s in &self.wall {
            let cat = s.name.split('.').next().unwrap_or(s.name);
            events.push(format!(
                "  {{\"name\": \"{}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"op\": {}, \"clock\": \"wall\"}}}}",
                s.name,
                s.start_s * 1e6,
                (s.dur_s * 1e6).max(0.001),
                track(cat),
                s.op,
            ));
        }
        for s in &self.sim {
            events.push(format!(
                "  {{\"name\": \"{}\", \"cat\": \"sim\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {{\"op\": {}, \"clock\": \"cycles\"}}}}",
                s.name,
                s.start_cycles,
                s.dur_cycles.max(0.001),
                s.track,
                s.op,
            ));
        }
        let mut out = String::from("[\n");
        let _ = write!(out, "{}", events.join(",\n"));
        out.push_str("\n]\n");
        out
    }
}

/// One wall-clock track per layer, in request order.
fn track(layer: &str) -> usize {
    match layer {
        "serve" | "fleet" => 0,
        "core" => 1,
        "sched" => 2,
        "sparse" => 3,
        "sim" => 4,
        "baselines" => 5,
        _ => 6,
    }
}

/// Time `f` as a span when tracing, call it bare otherwise.
pub fn timed<R>(
    spans: &mut Option<Spans>,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> R,
) -> R {
    match spans {
        Some(s) => s.time(name, op, f),
        None => f(),
    }
}
