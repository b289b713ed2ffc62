//! Fig. 18 — sensitivity to the SRAM : STT-MRAM area split of the L1D
//! budget (Dy-FUSE datapath, nine workloads).
//!
//! Paper shape: 1/2 (16 KB SRAM + 64 KB STT) performs best; more SRAM
//! (3/4) shrinks total capacity, more STT (1/16…1/4) starves the
//! write-multiple data of SRAM and pays STT write penalties.

use fuse::runner::geomean;
use fuse::sweep::SweepPlan;
use fuse_bench::table::f;
use fuse_bench::{bench_config, Table};
use fuse_core::config::dy_fuse_with_ratio;
use fuse_workloads::fig18_workloads;

const RATIOS: [(u64, u64, &str); 5] = [
    (1, 16, "1/16"),
    (1, 8, "1/8"),
    (1, 4, "1/4"),
    (1, 2, "1/2"),
    (3, 4, "3/4"),
];

fn main() {
    let mut plan = SweepPlan::new("fig18", bench_config()).workloads(fig18_workloads());
    for (num, den, name) in RATIOS {
        plan = plan.custom(name, dy_fuse_with_ratio(num, den));
    }
    let report = plan.run();

    let mut ipc_t = Table::new("Fig. 18a — IPC normalised to the 1/16 split");
    let mut miss_t = Table::new("Fig. 18b — L1D miss rate");
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(RATIOS.iter().map(|r| r.2))
        .collect();
    ipc_t.headers(&headers);
    miss_t.headers(&headers);

    let mut per_ratio: Vec<Vec<f64>> = vec![Vec::new(); RATIOS.len()];
    for (wi, w) in report.workloads.iter().enumerate() {
        let runs = report.row(wi);
        let base = runs[0].result.ipc();
        let mut ipc_row = vec![w.clone()];
        let mut miss_row = vec![w.clone()];
        for (i, cell) in runs.iter().enumerate() {
            per_ratio[i].push(cell.result.ipc() / base);
            ipc_row.push(f(cell.result.ipc() / base, 2));
            miss_row.push(f(cell.result.miss_rate(), 3));
        }
        ipc_t.row(ipc_row);
        miss_t.row(miss_row);
    }
    let mut gmeans = vec!["GMEANS".to_string()];
    for series in &per_ratio {
        gmeans.push(f(geomean(series), 2));
    }
    ipc_t.row(gmeans);
    ipc_t.print();
    miss_t.print();

    let best = RATIOS
        .iter()
        .zip(per_ratio.iter())
        .max_by(|a, b| geomean(a.1).partial_cmp(&geomean(b.1)).expect("finite"))
        .map(|(r, _)| r.2)
        .expect("non-empty");
    println!("best split at the geomean: {best} (paper: 1/2)");
    println!("{}", report.timing_summary());
}
