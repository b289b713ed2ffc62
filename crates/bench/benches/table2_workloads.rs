//! Table II — per-workload APKI and By-NVM bypass ratio, measured on the
//! synthetic workloads and printed next to the paper's published values.
//!
//! APKI here is measured as L1D line accesses per kilo warp-instruction;
//! the paper's GPGPU-Sim counts per kilo thread-instruction, so the
//! *relative* ordering across workloads is the comparable quantity.

use fuse::core::config::L1Preset;
use fuse::sweep::SweepPlan;
use fuse_bench::table::f;
use fuse_bench::{bench_config, Table};
use fuse_workloads::all_workloads;

fn main() {
    let specs = all_workloads();
    let report = SweepPlan::new("table2", bench_config())
        .workloads(specs.iter().copied())
        .presets(&[L1Preset::ByNvm])
        .run();

    let mut t = Table::new("Table II — workloads: measured vs paper");
    t.headers(&[
        "workload",
        "suite",
        "APKI (paper)",
        "APKI (measured)",
        "bypass (paper)",
        "bypass (measured)",
    ]);
    for (wi, w) in specs.iter().enumerate() {
        let r = &report.cell(wi, 0).result;
        let bypassed = r.metrics.bypassed_loads + r.metrics.bypassed_stores;
        let demand = r.sim.l1.accesses() + r.metrics.bypassed_stores;
        let bypass = if demand == 0 {
            0.0
        } else {
            bypassed as f64 / demand as f64
        };
        t.row(vec![
            w.name.to_string(),
            w.suite.to_string(),
            f(w.apki, 1),
            f(r.sim.apki(), 1),
            f(w.paper_bypass_ratio, 2),
            f(bypass, 2),
        ]);
    }
    t.print();
    println!(
        "note: measured APKI is per kilo warp-instruction (paper: per kilo thread-instruction)."
    );
    println!("{}", report.timing_summary());
}
