//! Fig. 14 — on-chip (L1D) miss rate of every configuration over all 21
//! workloads.
//!
//! Paper shapes: L1-SRAM misses most; FA-SRAM cuts conflict misses ~29%;
//! the hybrid family sits ~21.6% below L1-SRAM; FA-FUSE reaches up to 86%
//! reductions on irregular workloads; FA-FUSE ≈ Dy-FUSE (the predictor
//! changes placement, not capacity).

use fuse::core::config::L1Preset;
use fuse::sweep::SweepPlan;
use fuse_bench::table::f;
use fuse_bench::{bench_config, Table};
use fuse_workloads::all_workloads;

fn main() {
    let presets = [
        L1Preset::L1Sram,
        L1Preset::ByNvm,
        L1Preset::FaSram,
        L1Preset::Hybrid,
        L1Preset::BaseFuse,
        L1Preset::FaFuse,
        L1Preset::DyFuse,
    ];
    let report = SweepPlan::new("fig14", bench_config())
        .workloads(all_workloads())
        .presets(&presets)
        .run();

    let mut t = Table::new("Fig. 14 — L1D miss rate");
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(presets.iter().map(|p| p.name()))
        .collect();
    t.headers(&headers);

    let mut sums = vec![0.0f64; presets.len()];
    let mut n = 0usize;
    for (wi, w) in report.workloads.iter().enumerate() {
        let mut row = vec![w.clone()];
        for (i, cell) in report.row(wi).iter().enumerate() {
            sums[i] += cell.result.miss_rate();
            row.push(f(cell.result.miss_rate(), 3));
        }
        n += 1;
        t.row(row);
    }
    let mut mean = vec!["MEAN".to_string()];
    for s in &sums {
        mean.push(f(s / n as f64, 3));
    }
    t.row(mean);
    t.print();
    println!(
        "mean miss-rate deltas vs L1-SRAM: FA-SRAM {:.1} pts, FA-FUSE {:.1} pts (paper: -29% / up to -86% on irregular)",
        100.0 * (sums[2] - sums[0]) / n as f64,
        100.0 * (sums[5] - sums[0]) / n as f64
    );
    println!("{}", report.timing_summary());
}
