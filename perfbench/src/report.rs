//! Metric tables, statistics helpers and the result line.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use fuse::core::metrics::L1Metrics;
use fuse::gpu::stats::SimStats;
use fuse::mem::energy::EnergyBreakdown;
use fuse::runner::geomean;
use fuse::sweep::SweepReport;

/// End-to-end metrics: every workload reports each of them (README.md
/// gives each one's meaning per workload).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("ops_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("light_p50_ms", "ms"),
    ("light_tail_ms", "ms"),
    ("heavy_p50_ms", "ms"),
    ("ipc_gap", "ln"),
    ("outgoing_gap", "frac"),
    ("energy_gap", "frac"),
];

/// Per-layer metrics of the traced pass; a layer a workload does not
/// run reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sweep.worker_busy_frac", "frac"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("workloads.build_ns", "ns"),
    ("workloads.next_op_calls", "count"),
    ("workloads.next_op_ns", "ns"),
    ("gpu.new_ns", "ns"),
    ("gpu.run_ns", "ns"),
    ("gpu.self_ns", "ns"),
    ("gpu.ns_per_sim_cycle", "ns"),
    ("gpu.phase.sm_frac", "frac"),
    ("gpu.phase.icnt_frac", "frac"),
    ("gpu.phase.l2_frac", "frac"),
    ("gpu.phase.dram_frac", "frac"),
    ("gpu.phase.respond_frac", "frac"),
    ("gpu.skipped_frac", "frac"),
    ("gpu.ticked_frac", "frac"),
    ("l1.access_calls", "count"),
    ("l1.access_ns", "ns"),
    ("l1.tick_ns", "ns"),
    ("l1.fill_ns", "ns"),
    ("l1.drain_ns", "ns"),
    ("l1.next_event_ns", "ns"),
    ("l1.reserve_fail_frac", "frac"),
    ("sm.issue_frac", "frac"),
    ("sm.mem_stall_frac", "frac"),
    ("sm.reservation_stall_frac", "frac"),
    ("l1.hit_rate", "frac"),
    ("l1.tag_queue_full", "count"),
    ("l1.stt_busy", "count"),
    ("l2.hit_rate", "frac"),
    ("dram.row_hit_rate", "frac"),
    ("energy.l1_frac", "frac"),
    ("serve.connect_auth_ms", "ms"),
    ("serve.key_calls", "count"),
    ("serve.key_ns", "ns"),
    ("serve.simulate_calls", "count"),
    ("serve.simulate_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.other_ms", "ms"),
    ("serve.store_hit_rate", "frac"),
    ("serve.inserts", "count"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.busy", "count"),
    ("trace.overhead_frac", "frac"),
];

/// The paper's headline numbers: +217% IPC, −32% outgoing references,
/// −53% L1D energy (Dy-FUSE against L1-SRAM).
pub const PAPER_IPC_SPEEDUP: f64 = 3.17;
pub const PAPER_OUTGOING_CUT: f64 = 0.32;
pub const PAPER_ENERGY_CUT: f64 = 0.53;

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation; a failure is reported on stdout and
    /// never stops the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("# FAIL {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints the result line: the end-to-end table, or with `trace` the
    /// per-layer one.
    pub fn print(&self, trace: bool) {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let attempted = self.attempted.max(1);
        let mut metrics = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match *name {
                "ok_frac" => 1.0 - self.failed as f64 / attempted as f64,
                _ => self.metrics.get(name).copied().unwrap_or(0.0),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            println!("# {name:<28} {value:>16.6} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    // `{:?}` keeps every digit and always renders a valid JSON number
    // for finite values.
    format!("{v:?}")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Prints the spread of the set-up samples (seconds) and returns their
/// median.
pub fn setup_median(samples: &[f64]) -> f64 {
    println!(
        "# setup samples {} min_ms {:.3} median_ms {:.3} max_ms {:.3}",
        samples.len(),
        quantile(samples, 0.0) * 1e3,
        median(samples) * 1e3,
        quantile(samples, 1.0) * 1e3
    );
    median(samples)
}

/// Dy-FUSE against L1-SRAM, computed exactly as the `fig13_ipc` and
/// `fig17_energy` benches do.
pub struct PaperRatios {
    /// Geometric mean of per-workload IPC speedups.
    pub ipc_speedup: f64,
    /// Arithmetic mean of per-workload outgoing-reference cuts.
    pub outgoing_cut: f64,
    /// One minus the geometric mean of normalised L1D energy.
    pub energy_cut: f64,
}

impl PaperRatios {
    /// From a grid whose columns are `[L1-SRAM, Dy-FUSE]`.
    pub fn of(report: &SweepReport) -> PaperRatios {
        let mut speedup = Vec::new();
        let mut outgoing = Vec::new();
        let mut energy = Vec::new();
        for wi in 0..report.workloads.len() {
            let row = report.row(wi);
            let (base, dy) = (&row[0].result, &row[1].result);
            speedup.push(dy.ipc() / base.ipc());
            outgoing.push(1.0 - dy.outgoing_requests() as f64 / base.outgoing_requests() as f64);
            energy.push(dy.l1_energy_nj() / base.l1_energy_nj());
        }
        PaperRatios {
            ipc_speedup: geomean(&speedup),
            outgoing_cut: outgoing.iter().sum::<f64>() / outgoing.len().max(1) as f64,
            energy_cut: 1.0 - geomean(&energy),
        }
    }

    /// Prints the ratios and stores the three gaps to the paper.
    pub fn record(&self, out: &mut Outcome) {
        println!(
            "# paper-ratios ipc_speedup={:.4}x (paper {PAPER_IPC_SPEEDUP}x) \
             outgoing_cut={:.4} (paper {PAPER_OUTGOING_CUT}) \
             energy_cut={:.4} (paper {PAPER_ENERGY_CUT})",
            self.ipc_speedup, self.outgoing_cut, self.energy_cut
        );
        out.set("ipc_gap", (self.ipc_speedup / PAPER_IPC_SPEEDUP).ln().abs());
        out.set(
            "outgoing_gap",
            (self.outgoing_cut - PAPER_OUTGOING_CUT).abs(),
        );
        out.set("energy_gap", (self.energy_cut - PAPER_ENERGY_CUT).abs());
    }
}

/// Simulated-hierarchy counters summed over every cell of a pass.
#[derive(Default)]
pub struct Hierarchy {
    sm: [u64; 4],
    l1_hits: u64,
    l1_accesses: u64,
    tag_queue_full: u64,
    stt_busy: u64,
    l2_hits: u64,
    l2_accesses: u64,
    dram_row_hits: u64,
    dram_accesses: u64,
    l1_nj: f64,
    total_nj: f64,
}

impl Hierarchy {
    pub fn add(&mut self, sim: &SimStats, l1: &L1Metrics, energy: &EnergyBreakdown) {
        self.sm[0] += sim.sm.issue_cycles;
        self.sm[1] += sim.sm.mem_stall_cycles;
        self.sm[2] += sim.sm.reservation_stall_cycles;
        self.sm[3] += sim.sm.idle_cycles;
        self.l1_hits += sim.l1.hits;
        self.l1_accesses += sim.l1.accesses();
        self.tag_queue_full += l1.tag_queue_full_rejections;
        self.stt_busy += l1.stt_busy_rejections;
        self.l2_hits += sim.l2.hits;
        self.l2_accesses += sim.l2.accesses();
        self.dram_row_hits += sim.dram_row_hits;
        self.dram_accesses += sim.dram_accesses;
        self.l1_nj += energy.l1_nj();
        self.total_nj += energy.total_nj();
    }

    pub fn record(&self, out: &mut Outcome) {
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let sm_total: u64 = self.sm.iter().sum();
        out.set("sm.issue_frac", frac(self.sm[0], sm_total));
        out.set("sm.mem_stall_frac", frac(self.sm[1], sm_total));
        out.set("sm.reservation_stall_frac", frac(self.sm[2], sm_total));
        out.set("l1.hit_rate", frac(self.l1_hits, self.l1_accesses));
        out.set("l1.tag_queue_full", self.tag_queue_full as f64);
        out.set("l1.stt_busy", self.stt_busy as f64);
        out.set("l2.hit_rate", frac(self.l2_hits, self.l2_accesses));
        out.set(
            "dram.row_hit_rate",
            frac(self.dram_row_hits, self.dram_accesses),
        );
        out.set(
            "energy.l1_frac",
            if self.total_nj > 0.0 {
                self.l1_nj / self.total_nj
            } else {
                0.0
            },
        );
    }
}

/// FNV-1a digest of a stats text, printed beside it so two runs compare
/// at a glance.
pub fn digest(text: &str) -> String {
    format!(
        "{:016x}",
        fuse::serve::key::fnv1a64(0xcbf2_9ce4_8422_2325, text.as_bytes())
    )
}

/// Spans recorded at cell and request level in a traced pass, written
/// out as Chrome `trace_event` JSON when the run ends.
pub struct Spans {
    t0: Instant,
    events: Mutex<Vec<String>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Records a complete span `name` on lane `tid` that started at
    /// `start` and ends now; `args` is a JSON object.
    pub fn record(&self, name: &str, tid: usize, start: Instant, args: &str) {
        let ts = start.saturating_duration_since(self.t0).as_nanos() as f64 / 1e3;
        let dur = start.elapsed().as_nanos() as f64 / 1e3;
        let ev = format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{args}}}"
        );
        self.events.lock().expect("span lock").push(ev);
    }

    pub fn write(&self, path: &Path) {
        let events = self.events.lock().expect("span lock");
        let body = format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"));
        match std::fs::write(path, body) {
            Ok(()) => println!("# spans {} written to {}", events.len(), path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
    }
}
