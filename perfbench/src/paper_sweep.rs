//! `paper_sweep`: Fig 8 panels reproduced by direct library calls on
//! the Sim reference backend — `kami_core::gemm_auto` for KAMI-1D/2D/3D
//! over the paper preset and every feasible warp grid, and the
//! `kami_baselines` comparators (cuBLASDx, CUTLASS on NVIDIA; SYCL-Bench
//! on Intel). The only workload where the reference interpreter and the
//! baselines do the work.
//!
//! An operation is one sweep cell (device, precision, series, order n):
//! the best block-level TFLOPS over the series' configurations. A round
//! is one pass over every cell in a seeded order. The winner's warp
//! count and simulated on-chip cycles of every cell must equal
//! `expect/paper_sweep.txt`; cells the figure leaves blank (no
//! configuration fits) are not in that file and not run.

use crate::spans::{timed, Spans};
use crate::stats::{peak_rss_mb, Rng};
use crate::{Length, Measured, SetupPlan, Workload};
use kami_baselines::{cublasdx, cutlass, syclbench, BaselineResult};
use kami_core::{gemm_cost_auto, gemm_execute_plan_with, Algo, GemmResult, KamiConfig};
use kami_gpu_sim::{device, BackendKind, DeviceSpec, Matrix, Precision};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOAD: Workload = Workload {
    name: "paper_sweep",
    traffic: "Fig 8 panels GH200 fp64, GH200 fp16, RTX 5090 fp16, Max 1100 fp16 at the paper \
              orders; KAMI-1D/2D/3D via gemm_auto over preset + warp grids, cuBLASDx/CUTLASS \
              (NVIDIA), SYCL-Bench (Intel); backend Sim; one pass per round, seeded cell order",
    run,
    trace_rounds: 1,
};

const EXPECTATION: &str = include_str!("../expect/paper_sweep.txt");
const EXPECTATION_PATH: &str = "perfbench/expect/paper_sweep.txt";

const PANELS: [(&str, Precision); 4] = [
    ("gh200", Precision::Fp64),
    ("gh200", Precision::Fp16),
    ("rtx5090", Precision::Fp16),
    ("max1100", Precision::Fp16),
];

fn panel_device(key: &str) -> DeviceSpec {
    match key {
        "gh200" => device::gh200(),
        "rtx5090" => device::rtx5090(),
        _ => device::intel_max1100(),
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Series {
    Kami(Algo),
    CublasDx,
    Cutlass,
    SyclBench,
}

impl Series {
    fn label(self) -> &'static str {
        match self {
            Series::Kami(a) => a.label(),
            Series::CublasDx => "cuBLASDx",
            Series::Cutlass => "CUTLASS",
            Series::SyclBench => "SYCL-Bench",
        }
    }

    fn parse(s: &str) -> Option<Series> {
        Algo::ALL
            .into_iter()
            .map(Series::Kami)
            .chain([Series::CublasDx, Series::Cutlass, Series::SyclBench])
            .find(|x| x.label() == s)
    }
}

#[derive(Clone, Debug)]
struct Cell {
    panel: usize,
    series: Series,
    n: usize,
}

/// What a cell produced: the winning configuration's warp count, its
/// simulated on-chip cycles, and its block-level TFLOPS.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    warps: usize,
    cycles: f64,
    tflops: f64,
}

/// Every cell of the panels (blank ones included).
fn full_grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (panel, &(key, prec)) in PANELS.iter().enumerate() {
        let mut series: Vec<Series> = Algo::ALL.into_iter().map(Series::Kami).collect();
        match key {
            "max1100" => series.push(Series::SyclBench),
            _ => series.extend([Series::CublasDx, Series::Cutlass]),
        }
        for n in kami_bench::paper_orders(prec) {
            for &s in &series {
                cells.push(Cell {
                    panel,
                    series: s,
                    n,
                });
            }
        }
    }
    cells
}

fn prec_label(p: Precision) -> &'static str {
    match p {
        Precision::Fp64 => "fp64",
        _ => "fp16",
    }
}

/// Expected `(cell, warps, cycles)` lines of the checked-in file.
fn expectation() -> Vec<(Cell, usize, f64)> {
    EXPECTATION
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let [key, prec, series, n, warps, cycles] = f[..] else {
                return None;
            };
            let panel = PANELS
                .iter()
                .position(|&(k, p)| k == key && prec_label(p) == prec)?;
            let cell = Cell {
                panel,
                series: Series::parse(series)?,
                n: n.parse().ok()?,
            };
            Some((cell, warps.parse().ok()?, cycles.parse().ok()?))
        })
        .collect()
}

/// Warp counts a KAMI series tries at order n beyond the paper preset
/// (the Fig 8 sweep's candidates).
fn warp_candidates(algo: Algo, n: usize) -> Vec<usize> {
    match algo {
        Algo::OneD => (1..=16usize)
            .rev()
            .filter(|p| n.is_multiple_of(*p))
            .collect(),
        Algo::TwoD => (1..=4usize)
            .rev()
            .filter(|&q| n.is_multiple_of(q))
            .map(|q| q * q)
            .collect(),
        Algo::ThreeD => (1..=3usize)
            .rev()
            .filter(|&q| n.is_multiple_of(q) && n.is_multiple_of(q * q))
            .map(|q| q * q * q)
            .collect(),
    }
}

/// Per-cell accumulators the traced phase fills.
#[derive(Default)]
struct Acc {
    replay_s: f64,
    split_mismatch: usize,
}

fn best(points: impl Iterator<Item = Point>) -> Option<Point> {
    points.fold(None, |b: Option<Point>, p| match b {
        Some(b) if b.tflops >= p.tflops => Some(b),
        _ => Some(p),
    })
}

/// Evaluate one cell. Traced, every KAMI configuration is also replayed
/// through the split Sim passes (`gemm_cost_auto`, then
/// `gemm_execute_plan_with` on Sim), whose cycles must equal
/// `gemm_auto`'s.
fn eval(
    cell: &Cell,
    a: &Matrix,
    b: &Matrix,
    op: u64,
    spans: &mut Option<Spans>,
    acc: &mut Acc,
) -> Option<Point> {
    let (key, prec) = PANELS[cell.panel];
    let dev = panel_device(key);
    let n = cell.n;
    let base = |r: Result<BaselineResult, kami_core::KamiError>, warps| {
        r.ok().map(|r| Point {
            warps,
            cycles: r.report.on_chip_cycles(),
            tflops: r.block_tflops(&dev),
        })
    };
    match cell.series {
        Series::Kami(algo) => {
            let preset = kami_bench::square_config(algo, prec, n);
            let configs = std::iter::once(preset.warps).chain(
                warp_candidates(algo, n)
                    .into_iter()
                    .filter(|&p| p != preset.warps),
            );
            let mut points = Vec::new();
            for warps in configs {
                let cfg = KamiConfig::new(algo, prec).with_warps(warps);
                let res: Option<GemmResult> = timed(spans, "sweep.gemm_auto", op, || {
                    kami_core::gemm_auto(&dev, &cfg, a, b).ok()
                });
                let Some(res) = res else { continue };
                let cycles = res.report.on_chip_cycles();
                if let Some(sp) = spans.as_mut() {
                    let t0 = Instant::now();
                    let split = sp
                        .time("sim.cost", op, || gemm_cost_auto(&dev, &cfg, n, n, n))
                        .ok()
                        .and_then(|plan| {
                            sp.time("sim.execute", op, || {
                                gemm_execute_plan_with(&dev, &plan, a, b, BackendKind::Sim)
                            })
                            .ok()
                        });
                    if split.is_none_or(|s| s.report.on_chip_cycles() != cycles) {
                        acc.split_mismatch += 1;
                    }
                    acc.replay_s += t0.elapsed().as_secs_f64();
                }
                points.push(Point {
                    warps,
                    cycles,
                    tflops: res.block_tflops(&dev),
                });
            }
            best(points.into_iter())
        }
        Series::CublasDx => best(
            [2usize, 4, 6, 8]
                .into_iter()
                .filter(|p| n.is_multiple_of(*p))
                .filter_map(|p| {
                    base(
                        timed(spans, "baselines.cublasdx", op, || {
                            cublasdx::gemm(&dev, prec, p, a, b)
                        }),
                        p,
                    )
                }),
        ),
        Series::Cutlass => base(
            timed(spans, "baselines.cutlass", op, || {
                cutlass::gemm(&dev, prec, a, b)
            }),
            cutlass::warps(prec),
        ),
        Series::SyclBench => {
            let p = kami_bench::square_warps(Algo::OneD, n).min(4);
            base(
                timed(spans, "baselines.syclbench", op, || {
                    syclbench::gemm(&dev, prec, p, a, b)
                }),
                p,
            )
        }
    }
}

/// Seeded operands for every cell.
fn operands(cells: &[Cell], seed: u64) -> Vec<(Matrix, Matrix)> {
    let mut rng = Rng::new(seed ^ 0x5EED_0021);
    cells
        .iter()
        .map(|c| {
            let s = rng.next_u64();
            (
                Matrix::seeded_uniform(c.n, c.n, s),
                Matrix::seeded_uniform(c.n, c.n, s.wrapping_add(1)),
            )
        })
        .collect()
}

fn run(seed: u64, length: Length, traced: bool, setup: SetupPlan) -> Measured {
    let mut m = Measured::default();
    let expect = expectation();
    let cells: Vec<Cell> = expect.iter().map(|(c, _, _)| c.clone()).collect();
    let inputs = m.repeat_setup(setup, || operands(&cells, seed));
    if cells.is_empty() {
        m.notes.push(format!(
            "no cells in {EXPECTATION_PATH}; run --write-expect"
        ));
        m.attempted = 1;
        m.failed = 1;
        return m;
    }

    let mut spans = traced.then(Spans::default);
    let mut acc = Acc::default();
    let mut rng = Rng::new(seed ^ 0x5EED_0022);
    let (mut mismatched, mut attempted) = (0u64, 0u64);
    let mut roof = Vec::new();
    let mut sim_cursor = [0.0; PANELS.len()];
    // Spread set-up samples and host probes, left out of the round time.
    let mut probe_s = 0.0;
    let start = Instant::now();
    let mut rounds = 0;
    while !length.done(rounds, 1, start) {
        let mut order: Vec<usize> = (0..cells.len()).collect();
        rng.shuffle(&mut order);
        let (round_start, excluded_before) = (Instant::now(), acc.replay_s + probe_s);
        let mut latencies = Vec::with_capacity(cells.len());
        for i in order {
            let op = attempted;
            let (a, b) = &inputs[i];
            let t0 = Instant::now();
            let point = eval(&cells[i], a, b, op, &mut spans, &mut acc);
            latencies.push((t0.elapsed().as_secs_f64(), m.probes.len()));
            attempted += 1;
            if setup.spread && attempted % 8 == 0 {
                probe_s += m.sample_setup(|| operands(&cells, seed));
                probe_s += m.probe_host();
            }
            let (_, warps, cycles) = &expect[i];
            let Some(p) = point.filter(|p| p.warps == *warps && p.cycles == *cycles) else {
                mismatched += 1;
                continue;
            };
            if rounds == 0 {
                m.sim_kcycles.push(p.cycles / 1e3);
                m.sim_mcycles += p.cycles / 1e6;
                let (key, prec) = PANELS[cells[i].panel];
                if let (Series::Kami(_), Some(peak)) =
                    (cells[i].series, panel_device(key).peak_tflops(prec))
                {
                    roof.push(p.tflops / peak);
                }
            }
            if let Some(sp) = spans.as_mut() {
                let c = &cells[i];
                let (key, prec) = PANELS[c.panel];
                let name = format!("{key}-{}-{}-n{}", prec_label(prec), c.series.label(), c.n);
                // Cells of a panel sit back to back on its simulated track.
                sp.sim(name, op, c.panel, sim_cursor[c.panel], p.cycles);
                sim_cursor[c.panel] += p.cycles;
            }
        }
        let secs = round_start.elapsed().as_secs_f64() - (acc.replay_s + probe_s - excluded_before);
        m.rounds.push((latencies, secs));
        rounds += 1;
    }
    m.peak_rss_mb = peak_rss_mb();
    m.attempted = attempted;
    m.failed = mismatched + acc.split_mismatch as u64;
    m.notes.push(format!(
        "{rounds} passes over {} cells, {attempted} ops in {:.3} s; {mismatched} cells differ \
         from {EXPECTATION_PATH}; sim metrics over the first pass",
        cells.len(),
        m.rounds.iter().map(|r| r.1).sum::<f64>()
    ));
    if let Some(sp) = &spans {
        m.notes.push(format!(
            "split Sim passes (cost, then execute) disagree with gemm_auto's cycles on {} configurations",
            acc.split_mismatch
        ));
        for name in ["sim.execute", "sim.cost"] {
            m.layers
                .insert(format!("{name}.calls"), sp.calls(name) as f64);
            m.layers.insert(format!("{name}.busy_s"), sp.busy_s(name));
        }
        for name in [
            "baselines.cublasdx",
            "baselines.cutlass",
            "baselines.syclbench",
        ] {
            m.layers.insert(format!("{name}.busy_s"), sp.busy_s(name));
        }
        let mean_roof = roof.iter().sum::<f64>() / roof.len().max(1) as f64;
        m.layers.insert("sim.roof_frac".into(), mean_roof);
        m.notes.push(format!(
            "sim.roof_frac base: Table 3 peak TFLOPS of each panel's device and precision, \
             mean over {} KAMI cells",
            roof.len()
        ));
        m.layers.insert(
            "trace.coverage_frac".into(),
            (sp.busy_s("sim.cost") + sp.busy_s("sim.execute"))
                / sp.busy_s("sweep.gemm_auto").max(f64::MIN_POSITIVE),
        );
    }
    m.spans = spans;
    m
}

/// Regenerate the expectation file from the current library: every
/// non-blank cell's winning warp count and on-chip cycles.
pub fn write_expectation() -> ExitCode {
    let cells = full_grid();
    let inputs = operands(&cells, 1);
    let mut out = String::from(
        "# paper_sweep expectation: device precision series n winner-warps on-chip-cycles\n\
         # Regenerate with --write-expect only when a change is meant to move simulated cycles.\n",
    );
    let (mut spans, mut acc) = (None, Acc::default());
    for (i, (cell, (a, b))) in cells.iter().zip(&inputs).enumerate() {
        if let Some(p) = eval(cell, a, b, i as u64, &mut spans, &mut acc) {
            let (key, prec) = PANELS[cell.panel];
            out.push_str(&format!(
                "{key} {} {} {} {} {:?}\n",
                prec_label(prec),
                cell.series.label(),
                cell.n,
                p.warps,
                p.cycles
            ));
        }
    }
    match std::fs::write(EXPECTATION_PATH, out) {
        Ok(()) => {
            println!("wrote {EXPECTATION_PATH}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {EXPECTATION_PATH}: {e}");
            ExitCode::FAILURE
        }
    }
}
