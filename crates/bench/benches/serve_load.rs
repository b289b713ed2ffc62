//! Engine performance V — the content-addressed result cache and the
//! batch service under load.
//!
//! Three timed passes over the acceptance grid (21 workloads ×
//! {L1-SRAM, Dy-FUSE} = 42 cells):
//!
//! * **cold** — empty store; every cell simulates and is recorded;
//! * **warm** — same grid again; every cell answers from the store with
//!   zero engine cycles simulated, and the engine-independent report is
//!   byte-identical to the cold one;
//! * **incremental** — one cell invalidated (as `fusesim cache rm`
//!   would); exactly that cell re-simulates.
//!
//! The cold and warm timing summaries are printed next to the speedup. A
//! final pair of load passes hammers a [`Server`] with thousands of
//! overlapping requests from concurrent client threads — once in-process
//! (coalescing and the bounded queue, no transport overhead) and once
//! over authenticated TCP loopback (the full wire path: `AUTH`, framing,
//! retries).
//!
//! `--check` runs the same shape under the smoke budget and asserts the
//! invariants without the speedup floor.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fuse::core::config::L1Preset;
use fuse::runner::{preset_cell_key, RunConfig, ServeBackend};
use fuse::serve::proto::{CellReply, CellSpec};
use fuse::serve::{
    client, ClientConfig, Listener, ResultCache, ServeOptions, Server, ServerConfig,
};
use fuse::sweep::{SweepPlan, SweepReport};
use fuse_bench::bench_config;
use fuse_workloads::{all_workloads, by_name};

const PRESETS: [L1Preset; 2] = [L1Preset::L1Sram, L1Preset::DyFuse];

fn grid(name: &str, rc: &RunConfig) -> SweepPlan {
    SweepPlan::new(name, rc.clone())
        .workloads(all_workloads())
        .presets(&PRESETS)
}

fn timed(plan: SweepPlan) -> (SweepReport, Duration) {
    let start = Instant::now();
    let report = plan.run();
    (report, start.elapsed())
}

/// The full grid as wire cell tokens.
fn grid_batch() -> Vec<CellSpec> {
    all_workloads()
        .iter()
        .flat_map(|w| {
            PRESETS.iter().map(|p| CellSpec {
                workload: w.name.to_string(),
                config: p.name().to_string(),
            })
        })
        .collect()
}

/// Every client thread submits the whole grid `rounds` times; the cells
/// overlap across threads, so the first round is carried by coalescing
/// and every later one by the cache.
fn serve_load(cache_dir: &std::path::Path, rc: &RunConfig, clients: usize, rounds: usize) {
    let batch = grid_batch();
    let cache = Arc::new(ResultCache::open(cache_dir, None).expect("cache opens"));
    let server = Arc::new(Server::new(
        Arc::new(ServeBackend::new(rc.clone())),
        cache,
        ServerConfig::default(),
    ));

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let batch = batch.clone();
            std::thread::spawn(move || {
                let mut cached = 0u64;
                let mut errors = 0u64;
                for _ in 0..rounds {
                    for reply in server.resolve_batch(&batch) {
                        match reply {
                            CellReply::Ok { cached: true, .. } => cached += 1,
                            CellReply::Ok { .. } => {}
                            CellReply::Err { .. } => errors += 1,
                        }
                    }
                }
                (cached, errors)
            })
        })
        .collect();
    let mut cached = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (c, e) = h.join().expect("client thread");
        cached += c;
        errors += e;
    }
    let elapsed = start.elapsed();

    let total = (clients * rounds * batch.len()) as u64;
    let stats = server.cache().stats();
    assert_eq!(errors, 0, "no request may fail under load");
    assert_eq!(
        stats.inserts, 0,
        "a warm store must absorb the whole load without one simulation"
    );
    assert_eq!(
        cached, total,
        "every reply should be served without simulating"
    );
    println!(
        "serve load: {total} requests from {clients} clients in {:.2?} \
         ({:.0} req/s, {} coalesced, {} store hits)",
        elapsed,
        total as f64 / elapsed.as_secs_f64().max(1e-9),
        server.coalesced(),
        stats.hits,
    );
}

/// The same warm-store hammering over authenticated TCP loopback: each
/// client thread dials the server, opens with `AUTH`, and sweeps the
/// whole grid per round through the retrying [`client`]. Measures the
/// full wire path the in-process pass skips.
fn serve_load_tcp(cache_dir: &std::path::Path, rc: &RunConfig, clients: usize, rounds: usize) {
    const TOKEN: &str = "bench-secret";
    let sweep = format!(
        "SWEEP {}",
        grid_batch()
            .iter()
            .map(|c| c.token())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let cells_per_sweep = grid_batch().len();
    let cache = Arc::new(ResultCache::open(cache_dir, None).expect("cache opens"));
    let server = Arc::new(Server::new(
        Arc::new(ServeBackend::new(rc.clone())),
        cache,
        ServerConfig::default(),
    ));
    let listener = Listener::bind_tcp("127.0.0.1:0").expect("bind loopback");
    let endpoint = listener.endpoint();
    let opts = ServeOptions {
        auth_token: Some(TOKEN.to_string()),
        ..ServeOptions::default()
    };
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener, &opts))
    };

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let endpoint = endpoint.clone();
            let sweep = sweep.clone();
            std::thread::spawn(move || {
                let mut cfg = ClientConfig::new(endpoint);
                cfg.auth_token = Some(TOKEN.to_string());
                cfg.io_timeout = Duration::from_secs(120);
                let mut hits = 0u64;
                let mut errors = 0u64;
                for _ in 0..rounds {
                    let lines = client::request(&cfg, &sweep).expect("sweep over TCP");
                    let done = lines.last().expect("terminal line");
                    for field in done.split_ascii_whitespace().skip(1) {
                        let (key, value) = field.split_once('=').expect("DONE k=v fields");
                        let value: u64 = value.parse().expect("DONE counts");
                        match key {
                            "hits" => hits += value,
                            "errors" => errors += value,
                            _ => {}
                        }
                    }
                }
                (hits, errors)
            })
        })
        .collect();
    let mut hits = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (c, e) = h.join().expect("client thread");
        hits += c;
        errors += e;
    }
    let elapsed = start.elapsed();

    let total = (clients * rounds * cells_per_sweep) as u64;
    assert_eq!(errors, 0, "no TCP request may fail under load");
    assert_eq!(hits, total, "warm store must answer every cell over TCP");
    // Stop the serve loop through the same wire path.
    let mut cfg = ClientConfig::new(endpoint);
    cfg.auth_token = Some(TOKEN.to_string());
    assert_eq!(
        client::request(&cfg, "SHUTDOWN").expect("shutdown"),
        vec!["BYE"]
    );
    acceptor
        .join()
        .expect("acceptor thread")
        .expect("serve loop");
    println!(
        "serve load (tcp): {total} requests from {clients} clients in {:.2?} \
         ({:.0} req/s over authenticated loopback)",
        elapsed,
        total as f64 / elapsed.as_secs_f64().max(1e-9),
    );
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let rc = if check {
        RunConfig::smoke()
    } else {
        bench_config()
    };

    let dir = std::env::temp_dir().join(format!("fuse_serve_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let open = || Arc::new(ResultCache::open(&dir, None).expect("cache opens"));

    let (cold, cold_t) = timed(grid("fig13-cold", &rc).cache(open()));
    assert_eq!(
        cold.cache_misses,
        Some(42),
        "cold grid simulates all 42 cells"
    );

    // A fresh handle, as a second `fusesim sweep` invocation would open.
    let (warm, warm_t) = timed(grid("fig13-warm", &rc).cache(open()));
    assert_eq!(
        warm.cache_hits,
        Some(42),
        "warm grid answers all 42 from the store"
    );
    assert_eq!(warm.cache_misses, Some(0));
    assert_eq!(
        warm.stats_json(),
        cold.stats_json()
            .replace("\"fig13-cold\"", "\"fig13-warm\""),
        "warm report must be byte-identical to cold"
    );

    // Invalidate one cell; only it may re-simulate.
    let victim = preset_cell_key(&by_name("ATAX").expect("ATAX"), L1Preset::DyFuse, &rc);
    assert!(open().remove(&victim.hex), "victim cell was recorded");
    let (incr, incr_t) = timed(grid("fig13-incremental", &rc).cache(open()));
    assert_eq!(incr.cache_hits, Some(41));
    assert_eq!(incr.cache_misses, Some(1));

    let speedup = cold_t.as_secs_f64() / warm_t.as_secs_f64().max(1e-9);
    println!(
        "fig13 42-cell grid: cold {:.2?}  warm {:.2?} ({:.0}x)  incremental {:.2?}",
        cold_t, warm_t, speedup, incr_t
    );
    if !check {
        println!("{}", cold.timing_summary());
        println!("{}", warm.timing_summary());
        assert!(
            speedup >= 20.0,
            "warm re-run must be >=20x faster than cold (got {speedup:.1}x)"
        );
    }

    // Load test: thousands of overlapping requests against the warmed
    // store (the removed victim is back after the incremental pass) —
    // in-process first, then the same load over authenticated TCP.
    let (clients, rounds) = if check { (4, 4) } else { (8, 16) };
    serve_load(&dir, &rc, clients, rounds);
    serve_load_tcp(&dir, &rc, clients, rounds);

    let _ = std::fs::remove_dir_all(&dir);
    println!("serve_load: ok");
}
