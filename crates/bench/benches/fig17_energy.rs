//! Fig. 17 — L1D energy (dynamic + leakage) normalised to L1-SRAM.
//!
//! Paper shapes: L1-SRAM is cheapest on low-APKI compute-bound workloads
//! but burns leakage over its long runtimes on memory-intensive ones
//! (6-8× the NVM designs on ATAX/BICG/MVT); Dy-FUSE saves ~24% vs By-NVM
//! and ~7% vs FA-FUSE; the abstract's 53% saving is vs L1-SRAM.

use fuse::core::config::L1Preset;
use fuse::runner::geomean;
use fuse::sweep::SweepPlan;
use fuse_bench::table::f;
use fuse_bench::{bench_config, Table};
use fuse_workloads::all_workloads;

fn main() {
    let presets = [
        L1Preset::L1Sram,
        L1Preset::ByNvm,
        L1Preset::BaseFuse,
        L1Preset::FaFuse,
        L1Preset::DyFuse,
    ];
    let report = SweepPlan::new("fig17", bench_config())
        .workloads(all_workloads())
        .presets(&presets)
        .run();

    let mut t = Table::new("Fig. 17 — L1D energy normalised to L1-SRAM");
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(presets.iter().skip(1).map(|p| p.name()))
        .collect();
    t.headers(&headers);

    let mut per_preset: Vec<Vec<f64>> = vec![Vec::new(); presets.len()];
    for (wi, w) in report.workloads.iter().enumerate() {
        let runs = report.row(wi);
        let base = runs[0].result.l1_energy_nj();
        let mut row = vec![w.clone()];
        for (i, cell) in runs.iter().enumerate() {
            per_preset[i].push(cell.result.l1_energy_nj() / base);
            if i > 0 {
                row.push(f(cell.result.l1_energy_nj() / base, 2));
            }
        }
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
        "Dy-FUSE L1D energy vs L1-SRAM: {:.2}x, i.e. {:.0}% saved (paper: ~53% saved)",
        dy,
        100.0 * (1.0 - dy)
    );
    println!("{}", report.timing_summary());
}
