//! # fuse-bench — harness support for regenerating every paper artefact
//!
//! Each bench target under `benches/` regenerates one figure or table of
//! the FUSE paper (run `cargo bench` to produce all of them; see
//! EXPERIMENTS.md for the index). This library holds the shared pieces:
//! a plain-text table printer, the default bench budget, and the custom
//! L1 configurations some sweeps need.
//!
//! Budgets: figure benches default to a reduced instruction budget
//! (`ops_scale` 0.35) so the whole suite regenerates in minutes. Set the
//! `FUSE_SCALE` environment variable (e.g. `FUSE_SCALE=2`) for longer,
//! closer-to-paper runs; every harness honours it.

use fuse::runner::RunConfig;
use fuse_cache::approx_assoc::ApproxConfig;
use fuse_core::config::{L1Config, L1Preset, SttGeometry, SttOrganization};

pub mod alloc;
pub mod table;
pub mod timing;

pub use table::Table;
pub use timing::{black_box, Harness, Measurement};

/// The default bench budget: the paper's GTX480-class machine with a
/// reduced per-warp instruction budget unless `FUSE_SCALE` is set.
pub fn bench_config() -> RunConfig {
    let mut rc = RunConfig::standard();
    if std::env::var("FUSE_SCALE").is_err() {
        rc.ops_scale = 0.35;
    }
    rc
}

/// The Fig. 19 Volta-class machine under the bench budget.
pub fn bench_volta_config() -> RunConfig {
    let mut rc = RunConfig::volta();
    if std::env::var("FUSE_SCALE").is_err() {
        rc.ops_scale *= 0.35;
    }
    rc
}

/// An FA-FUSE configuration with a custom CBF geometry (Fig. 20 sweeps
/// hash-function count and counter slots).
pub fn fa_fuse_with_cbf(hashes: u32, slots: usize) -> L1Config {
    let mut cfg = L1Preset::FaFuse.config();
    let stt = cfg.stt.expect("FA-FUSE has an STT bank");
    let approx = match stt.organization {
        SttOrganization::Approximate(a) => ApproxConfig {
            cbf_hashes: hashes,
            cbf_slots: slots,
            ..a
        },
        SttOrganization::SetAssoc { .. } => unreachable!("FA-FUSE is approximate"),
    };
    cfg.stt = Some(SttGeometry {
        organization: SttOrganization::Approximate(approx),
        ..stt
    });
    cfg
}

/// An *exact* fully-associative STT bank under the Base-FUSE datapath —
/// the "Fully assoc." comparator of Fig. 7b.
pub fn exact_fa_fuse() -> L1Config {
    let mut cfg = L1Preset::FaFuse.config();
    let stt = cfg.stt.expect("FA-FUSE has an STT bank");
    let lines = stt.organization.lines();
    cfg.stt = Some(SttGeometry {
        organization: SttOrganization::SetAssoc {
            sets: 1,
            ways: lines,
        },
        ..stt
    });
    cfg
}

/// Geometric-mean helper re-exported for the harnesses.
pub fn geomean(xs: &[f64]) -> f64 {
    fuse::runner::geomean(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_config_is_reduced_by_default() {
        // The test environment does not set FUSE_SCALE.
        if std::env::var("FUSE_SCALE").is_err() {
            assert!(bench_config().ops_scale < 1.0);
        }
    }

    #[test]
    fn cbf_sweep_configs_build() {
        for h in 1..=5 {
            let cfg = fa_fuse_with_cbf(h, 128);
            cfg.validate();
        }
        for s in [32, 64, 128] {
            let cfg = fa_fuse_with_cbf(3, s);
            cfg.validate();
        }
    }

    #[test]
    fn exact_fa_has_single_set() {
        let cfg = exact_fa_fuse();
        match cfg.stt.unwrap().organization {
            SttOrganization::SetAssoc { sets, ways } => {
                assert_eq!(sets, 1);
                assert_eq!(ways, 512);
            }
            SttOrganization::Approximate(_) => panic!("must be exact"),
        }
    }
}
