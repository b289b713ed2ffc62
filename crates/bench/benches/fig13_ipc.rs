//! Fig. 13 — normalised IPC of every L1D configuration over all 21
//! workloads.
//!
//! Paper headline shapes: Dy-FUSE ≈ 3.2× L1-SRAM at the geomean (the
//! abstract's "+217%"); ordering Hybrid < Base-FUSE < FA-FUSE < Dy-FUSE;
//! By-NVM and FA-SRAM win on irregular workloads; By-NVM loses on the
//! write-intensive 2MM/3MM; and Dy-FUSE cuts outgoing memory references
//! by ~32% vs L1-SRAM.
//!
//! The 21 × 7 grid executes on the parallel sweep engine; the figures are
//! identical to a serial run (see `tests/sweep_determinism.rs`).

use fuse::core::config::L1Preset;
use fuse::runner::geomean;
use fuse::sweep::SweepPlan;
use fuse_bench::table::{f, pct};
use fuse_bench::{bench_config, Table};
use fuse_workloads::all_workloads;

fn main() {
    let presets = L1Preset::FIG13; // L1-SRAM first, then the six compared
    let report = SweepPlan::new("fig13", bench_config())
        .workloads(all_workloads())
        .presets(&presets)
        .run();

    let mut t = Table::new("Fig. 13 — IPC normalised to L1-SRAM");
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(presets.iter().skip(1).map(|p| p.name()))
        .collect();
    t.headers(&headers);

    let mut per_preset: Vec<Vec<f64>> = vec![Vec::new(); presets.len()];
    let mut outgoing_reduction = Vec::new();
    for (wi, w) in report.workloads.iter().enumerate() {
        let runs = report.row(wi);
        let base = runs[0].result.ipc();
        let mut row = vec![w.clone()];
        for (i, cell) in runs.iter().enumerate() {
            per_preset[i].push(cell.result.ipc() / base);
            if i > 0 {
                row.push(f(cell.result.ipc() / base, 2));
            }
        }
        let dy = &runs.last().expect("Dy-FUSE is last").result;
        outgoing_reduction
            .push(1.0 - dy.outgoing_requests() as f64 / runs[0].result.outgoing_requests() as f64);
        t.row(row);
    }
    let mut gmeans = vec!["GMEANS".to_string()];
    for series in per_preset.iter().skip(1) {
        gmeans.push(f(geomean(series), 2));
    }
    t.row(gmeans);
    t.print();

    let dy = geomean(per_preset.last().expect("series"));
    println!(
        "Dy-FUSE geomean speedup over L1-SRAM: {:.2}x (paper: ~3.2x / +217%)",
        dy
    );
    println!(
        "Dy-FUSE outgoing-reference reduction vs L1-SRAM (mean): {} (paper: ~32%)",
        pct(outgoing_reduction.iter().sum::<f64>() / outgoing_reduction.len() as f64)
    );
    println!("{}", report.timing_summary());
}
