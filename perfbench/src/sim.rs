//! The simulation workloads: `sim-grid` (the cold 42-cell acceptance
//! grid on a thread per core) and `sim-cell` (two long cells, serially).

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fuse::core::config::L1Preset;
use fuse::core::controller::FuseL1;
use fuse::core::metrics::L1Metrics;
use fuse::gpu::stats::SimStats;
use fuse::gpu::system::GpuSystem;
use fuse::mem::energy::{EnergyBreakdown, EnergyParams};
use fuse::obs::profile::WallPhases;
use fuse::runner::{run_workload, RunConfig, RunResult};
use fuse::sweep::{SweepCell, SweepPlan, SweepReport};
use fuse::workloads::all_workloads;
use fuse::workloads::spec::WorkloadSpec;

use crate::probe::{L1Probe, L1Totals, ProgramProbe, Timer};
use crate::report::{
    median, nproc, peak_rss_mb, quantile, setup_median, Hierarchy, Outcome, PaperRatios, Spans,
};
use crate::Args;

/// The acceptance grid's columns; the paper ratios read them in this order.
const PAIR: [L1Preset; 2] = [L1Preset::L1Sram, L1Preset::DyFuse];

/// Profiling window of the traced pass (cycles).
const PROFILE_WINDOW: u64 = 10_000;

/// The 21 Table II workloads. Seed 0 keeps the canonical traces; any
/// other seed salts each name, which the generators hash into their
/// per-warp seeds, so the traces are fresh draws with the same
/// calibration.
pub fn workloads(seed: u64) -> Vec<WorkloadSpec> {
    all_workloads()
        .into_iter()
        .map(|mut w| {
            if seed != 0 {
                w.name = Box::leak(format!("{}~{seed}", w.name).into_boxed_str());
            }
            w
        })
        .collect()
}

/// The bench budget the figure benches use (`ops_scale` 0.35).
pub fn bench_rc() -> RunConfig {
    RunConfig {
        ops_scale: 0.35,
        ..RunConfig::standard()
    }
}

/// The standard budget, independent of `FUSE_SCALE`.
fn standard_rc() -> RunConfig {
    RunConfig {
        ops_scale: 1.0,
        ..RunConfig::standard()
    }
}

/// True when the run retired its whole instruction budget instead of
/// stopping at the cycle cap.
fn retired_fully(spec: &WorkloadSpec, rc: &RunConfig, sim: &SimStats) -> bool {
    let budget = rc.gpu.num_sms * rc.gpu.warps_per_sm * rc.ops_for(spec);
    sim.cycles < rc.max_cycles && sim.instructions == budget as u64
}

/// Host time to build every cell's system (`GpuSystem::new` with its
/// warp programs and L1 models). A few samples are taken before every
/// measured operation, so their median spans the run like the other
/// timings instead of one moment of it.
struct Setup<'a> {
    cells: &'a [(WorkloadSpec, L1Preset)],
    rc: &'a RunConfig,
    samples: Vec<f64>,
}

impl<'a> Setup<'a> {
    /// Builds every system once, untimed, to warm the allocator.
    fn new(cells: &'a [(WorkloadSpec, L1Preset)], rc: &'a RunConfig) -> Setup<'a> {
        let setup = Setup {
            cells,
            rc,
            samples: Vec::new(),
        };
        setup.build_all();
        setup
    }

    fn build_all(&self) -> f64 {
        let mut total = 0.0;
        for (spec, preset) in self.cells {
            let ops = self.rc.ops_for(spec);
            let t = Instant::now();
            let sys = GpuSystem::new(
                self.rc.gpu.clone(),
                |_| preset.build_model(),
                |sm, warp| spec.program(sm, warp, ops),
            );
            total += t.elapsed().as_secs_f64();
            drop(black_box(sys));
        }
        total
    }

    fn sample(&mut self, reps: usize) {
        for _ in 0..reps {
            let t = self.build_all();
            self.samples.push(t);
        }
    }
}

fn grid_cells(specs: &[WorkloadSpec]) -> Vec<(WorkloadSpec, L1Preset)> {
    specs
        .iter()
        .flat_map(|w| PAIR.iter().map(move |p| (*w, *p)))
        .collect()
}

fn grid_plan(specs: &[WorkloadSpec], rc: &RunConfig) -> SweepPlan {
    SweepPlan::new("perf-sim-grid", rc.clone())
        .workloads(specs.iter().copied())
        .presets(&PAIR)
        .threads(nproc())
}

fn print_stats(report: &SweepReport) {
    let stats = report.stats_json();
    println!(
        "# stats-digest {} {}",
        report.name,
        crate::report::digest(&stats)
    );
    for line in stats.lines() {
        println!("# stats {line}");
    }
}

/// Checks every cell of `report` retired fully and, given a reference
/// pass, that its statistics repeat bit for bit.
fn check_grid(
    report: &SweepReport,
    specs: &[WorkloadSpec],
    rc: &RunConfig,
    reference: Option<&[SimStats]>,
    out: &mut Outcome,
) {
    for (i, cell) in report.cells.iter().enumerate() {
        let r = &cell.result;
        let spec = &specs[i / PAIR.len()];
        out.check(retired_fully(spec, rc, &r.sim), || {
            format!("{}/{} hit the cycle cap", r.workload, r.config)
        });
        if let Some(reference) = reference {
            out.check(r.sim == reference[i], || {
                format!(
                    "{}/{} statistics changed between passes",
                    r.workload, r.config
                )
            });
        }
    }
}

/// Runs the bench-budget grid once, checks it and records the three gaps
/// to the paper.
pub fn paper_gaps(specs: &[WorkloadSpec], out: &mut Outcome) {
    let rc = bench_rc();
    let report = grid_plan(specs, &rc).run();
    check_grid(&report, specs, &rc, None, out);
    print_stats(&report);
    PaperRatios::of(&report).record(out);
}

pub fn grid(args: &Args) -> Outcome {
    let rc = bench_rc();
    let specs = workloads(args.seed);
    let cells = grid_cells(&specs);
    let plan = grid_plan(&specs, &rc);
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &cells, &rc, Some(&plan), &mut out);
        return out;
    }
    let mut setup = Setup::new(&cells, &rc);

    let start = Instant::now();
    let mut reference: Option<Vec<SimStats>> = None;
    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut rates = Vec::new();
    loop {
        setup.sample(4);
        let t = Instant::now();
        let report = plan.run();
        let wall = t.elapsed().as_secs_f64();
        check_grid(&report, &specs, &rc, reference.as_deref(), &mut out);
        if reference.is_none() {
            print_stats(&report);
            PaperRatios::of(&report).record(&mut out);
            reference = Some(report.cells.iter().map(|c| c.result.sim).collect());
        }
        walls.push(wall);
        cell_ms.extend(report.cells.iter().map(|c| c.wall_ns as f64 / 1e6));
        rates.push(report.sim_cycles_total() as f64 / wall);
        if start.elapsed().as_secs_f64() + median(&walls) > args.seconds {
            break;
        }
    }
    println!("# grids {} walls_s {walls:.3?}", walls.len());
    out.set("setup_s", setup_median(&setup.samples));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "ops_per_s",
        cell_ms.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.set("sim_cycles_per_s", median(&rates));
    out.set("light_p50_ms", median(&cell_ms));
    out.set("light_tail_ms", quantile(&cell_ms, 0.9));
    out.set("heavy_p50_ms", median(&walls) * 1e3);
    out
}

pub fn cells(args: &Args) -> Outcome {
    let rc = standard_rc();
    let specs = workloads(args.seed);
    let find = |name: &str| {
        *specs
            .iter()
            .zip(all_workloads())
            .find(|(_, canonical)| canonical.name == name)
            .map(|(w, _)| w)
            .expect("Table II workload")
    };
    // ATAX×Dy-FUSE puts the FUSE L1D controller on the hot path;
    // GEMM×L1-SRAM leaves the engine and the memory side.
    let cells = [
        (find("ATAX"), L1Preset::DyFuse),
        (find("GEMM"), L1Preset::L1Sram),
    ];
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &cells, &rc, None, &mut out);
        return out;
    }
    let mut setup = Setup::new(&cells, &rc);

    let start = Instant::now();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut reference: [Option<SimStats>; 2] = [None, None];
    let mut cycles = 0u64;
    let mut round = 0usize;
    loop {
        setup.sample(8);
        for (i, (spec, preset)) in cells.iter().enumerate() {
            let t = Instant::now();
            let r = run_workload(spec, *preset, &rc);
            walls[i].push(t.elapsed().as_secs_f64() * 1e3);
            cycles += r.sim.cycles;
            out.check(retired_fully(spec, &rc, &r.sim), || {
                format!("{}/{} hit the cycle cap", r.workload, r.config)
            });
            match &reference[i] {
                None => reference[i] = Some(r.sim),
                Some(first) => out.check(r.sim == *first, || {
                    format!(
                        "{}/{} statistics changed between passes",
                        r.workload, r.config
                    )
                }),
            }
            if round == 0 {
                print_cell_stats(&r);
            }
        }
        round += 1;
        let round_ms = median(&walls[0]) + median(&walls[1]);
        if start.elapsed().as_secs_f64() + round_ms / 1e3 > args.seconds {
            break;
        }
    }
    let total_s = (walls[0].iter().sum::<f64>() + walls[1].iter().sum::<f64>()) / 1e3;
    println!(
        "# rounds {round} atax_ms {:.1?} gemm_ms {:.1?}",
        walls[0], walls[1]
    );
    out.set("setup_s", setup_median(&setup.samples));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("ops_per_s", (2 * round) as f64 / total_s);
    out.set("sim_cycles_per_s", cycles as f64 / total_s);
    out.set("light_p50_ms", median(&walls[0]));
    out.set("light_tail_ms", quantile(&walls[0], 0.9));
    out.set("heavy_p50_ms", median(&walls[1]));
    paper_gaps(&specs, &mut out);
    out
}

fn print_cell_stats(r: &RunResult) {
    let report = SweepReport {
        name: "perf-sim-cell".to_string(),
        threads: 1,
        engine: "skip".to_string(),
        shards: None,
        epoch_cycles: None,
        workloads: vec![r.workload.clone()],
        configs: vec![r.config.clone()],
        cells: vec![SweepCell {
            result: r.clone(),
            wall_ns: 0,
            allocs_per_kcycle: None,
        }],
        wall_ns: 0,
        cache_hits: None,
        cache_misses: None,
    };
    print_stats(&report);
}

/// One cell of a traced pass.
struct TracedCell {
    sim: SimStats,
    metrics: L1Metrics,
    energy: EnergyBreakdown,
    phases: WallPhases,
    skipped: u64,
    ticks: u64,
    opportunities: u64,
    new_ns: u64,
    build_ns: u64,
    run_ns: u64,
}

/// Shared sinks of one traced pass.
#[derive(Default)]
struct Sinks {
    l1: Arc<Mutex<L1Totals>>,
    next_op: Arc<Mutex<Timer>>,
}

/// `runner::run_workload`, rebuilt from the public API with the L1 and
/// warp-program probes and the cycle-attribution profiler attached.
fn run_traced(spec: &WorkloadSpec, preset: L1Preset, rc: &RunConfig, sinks: &Sinks) -> TracedCell {
    let ops = rc.ops_for(spec);
    let mut build_ns = 0u64;
    let t = Instant::now();
    let mut sys = GpuSystem::new(
        rc.gpu.clone(),
        |_| L1Probe::wrap(preset.build_model(), sinks.l1.clone()),
        |sm, warp| {
            let t = Instant::now();
            let program = spec.program(sm, warp, ops);
            build_ns += t.elapsed().as_nanos() as u64;
            ProgramProbe::wrap(program, sinks.next_op.clone())
        },
    );
    let new_ns = t.elapsed().as_nanos() as u64;
    sys.set_cycle_skipping(rc.skip);
    sys.set_active_set(rc.active_set);
    sys.enable_profiler(PROFILE_WINDOW);
    let t = Instant::now();
    let sim = sys.run(rc.max_cycles);
    let run_ns = t.elapsed().as_nanos() as u64;

    let mut metrics = L1Metrics::default();
    for s in 0..sys.config().num_sms {
        if let Some(l1) = sys.l1(s).as_any().downcast_ref::<FuseL1>() {
            metrics.merge(&l1.metrics());
        }
    }
    let (sram, stt) = preset.energy_banks();
    let energy = EnergyParams {
        sram,
        stt,
        num_sms: sys.config().num_sms as u32,
        dram_channels: sys.config().dram_channels as u32,
        clock_ghz: sys.config().clock_ghz,
        ..EnergyParams::default()
    }
    .evaluate(&sim.energy, sim.cycles);
    let phases = sys.take_profile().map(|p| p.wall).unwrap_or_default();
    TracedCell {
        sim,
        metrics,
        energy,
        phases,
        skipped: sys.skipped_cycles(),
        ticks: sys.component_ticks(),
        opportunities: sys.component_opportunities(),
        new_ns,
        build_ns,
        run_ns,
    }
}

/// The per-layer pass: an untraced reference pass (through `plan` when
/// given, else cell by cell through `run_workload`), then the same cells
/// traced on the same number of threads, repeated for the measured
/// phase. Statistics must match bit for bit on every pair; the per-layer
/// metrics come from the first traced pass, the tracing overhead is the
/// median wall-time ratio over all pairs.
fn traced(
    args: &Args,
    cells: &[(WorkloadSpec, L1Preset)],
    rc: &RunConfig,
    plan: Option<&SweepPlan>,
    out: &mut Outcome,
) {
    let threads = if plan.is_some() {
        nproc().min(cells.len())
    } else {
        1
    };
    let start = Instant::now();
    let mut overheads = Vec::new();
    loop {
        let t = Instant::now();
        let reference: Vec<RunResult> = match plan {
            Some(plan) => {
                let report = plan.run();
                if overheads.is_empty() {
                    let walls: Vec<f64> = report
                        .cells
                        .iter()
                        .map(|c| c.wall_ns as f64 / 1e6)
                        .collect();
                    let busy_s = walls.iter().sum::<f64>() / 1e3;
                    let capacity_s = report.threads as f64 * report.wall_ns as f64 / 1e9;
                    out.set("sweep.worker_busy_frac", busy_s / capacity_s);
                    out.set("sweep.cell_ms_p50", median(&walls));
                    out.set("sweep.cell_ms_max", quantile(&walls, 1.0));
                }
                report.cells.into_iter().map(|c| c.result).collect()
            }
            None => cells
                .iter()
                .map(|(spec, preset)| run_workload(spec, *preset, rc))
                .collect(),
        };
        let untraced_s = t.elapsed().as_secs_f64();
        for ((spec, _), r) in cells.iter().zip(&reference) {
            out.check(retired_fully(spec, rc, &r.sim), || {
                format!("{}/{} hit the cycle cap", r.workload, r.config)
            });
        }

        let sinks = Sinks::default();
        let spans = Spans::new();
        let t = Instant::now();
        let traced = traced_pass(cells, rc, threads, &sinks, &spans);
        let traced_s = t.elapsed().as_secs_f64();
        for (c, r) in traced.iter().zip(&reference) {
            out.check(c.sim == r.sim && c.metrics == r.metrics, || {
                format!(
                    "{}/{} traced statistics differ from the untraced run",
                    r.workload, r.config
                )
            });
        }
        println!("# trace untraced_s {untraced_s:.3} traced_s {traced_s:.3}");
        if overheads.is_empty() {
            record_layers(&traced, &sinks, out);
            spans.write(
                &args
                    .out_dir
                    .join(format!("trace-{}-s{}.json", args.workload, args.seed)),
            );
        }
        overheads.push(traced_s / untraced_s - 1.0);
        if start.elapsed().as_secs_f64() + untraced_s + traced_s > args.seconds {
            break;
        }
    }
    out.set("trace.overhead_frac", median(&overheads));
}

/// Runs every cell through [`run_traced`] on `threads` workers, with a
/// span per cell.
fn traced_pass(
    cells: &[(WorkloadSpec, L1Preset)],
    rc: &RunConfig,
    threads: usize,
    sinks: &Sinks,
    spans: &Spans,
) -> Vec<TracedCell> {
    let next = AtomicUsize::new(0);
    let mut traced: Vec<Option<TracedCell>> = (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let next = &next;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some((spec, preset)) = cells.get(i) else {
                            break;
                        };
                        let start = Instant::now();
                        done.push((i, run_traced(spec, *preset, rc, sinks)));
                        spans.record(
                            "cell",
                            tid,
                            start,
                            &format!(
                                "{{\"workload\":\"{}\",\"config\":\"{}\"}}",
                                spec.name,
                                preset.name()
                            ),
                        );
                    }
                    done
                })
            })
            .collect();
        for w in workers {
            for (i, cell) in w.join().expect("traced worker") {
                traced[i] = Some(cell);
            }
        }
    });
    traced
        .into_iter()
        .map(|c| c.expect("every cell ran"))
        .collect()
}

/// Per-layer metrics of one traced pass.
fn record_layers(traced: &[TracedCell], sinks: &Sinks, out: &mut Outcome) {
    let mut hier = Hierarchy::default();
    let mut phases = [0u64; 5];
    let (mut cycles, mut skipped, mut ticks, mut opportunities) = (0u64, 0u64, 0u64, 0u64);
    let (mut new_ns, mut build_ns, mut run_ns) = (0u64, 0u64, 0u64);
    for c in traced {
        hier.add(&c.sim, &c.metrics, &c.energy);
        for (acc, ns) in phases.iter_mut().zip([
            c.phases.sm_ns,
            c.phases.icnt_ns,
            c.phases.l2_ns,
            c.phases.dram_ns,
            c.phases.respond_ns,
        ]) {
            *acc += ns;
        }
        cycles += c.sim.cycles;
        skipped += c.skipped;
        ticks += c.ticks;
        opportunities += c.opportunities;
        new_ns += c.new_ns;
        build_ns += c.build_ns;
        run_ns += c.run_ns;
    }
    hier.record(out);

    let l1 = *sinks.l1.lock().expect("sink lock");
    let next_op = *sinks.next_op.lock().expect("sink lock");
    let frac = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set("workloads.build_ns", build_ns as f64);
    out.set("workloads.next_op_calls", next_op.calls as f64);
    out.set("workloads.next_op_ns", next_op.est_ns());
    out.set("gpu.new_ns", new_ns as f64);
    out.set("gpu.run_ns", run_ns as f64);
    out.set(
        "gpu.self_ns",
        run_ns as f64 - l1.total_ns() - next_op.est_ns(),
    );
    out.set("gpu.ns_per_sim_cycle", frac(run_ns as f64, cycles as f64));
    let phase_total: u64 = phases.iter().sum();
    for (name, ns) in [
        "gpu.phase.sm_frac",
        "gpu.phase.icnt_frac",
        "gpu.phase.l2_frac",
        "gpu.phase.dram_frac",
        "gpu.phase.respond_frac",
    ]
    .into_iter()
    .zip(phases)
    {
        out.set(name, frac(ns as f64, phase_total as f64));
    }
    out.set("gpu.skipped_frac", frac(skipped as f64, cycles as f64));
    out.set("gpu.ticked_frac", frac(ticks as f64, opportunities as f64));
    out.set("l1.access_calls", l1.access.calls as f64);
    out.set("l1.access_ns", l1.access.est_ns());
    out.set("l1.tick_ns", l1.tick.est_ns());
    out.set("l1.fill_ns", l1.fill.est_ns());
    out.set("l1.drain_ns", l1.drain.est_ns());
    out.set("l1.next_event_ns", l1.next_event.est_ns());
    out.set(
        "l1.reserve_fail_frac",
        frac(l1.reserve_fails as f64, l1.access.calls as f64),
    );
}
