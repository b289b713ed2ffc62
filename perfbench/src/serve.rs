//! `serve-mixed`: an in-process `Server` behind an authenticated TCP
//! loopback listener, driven by a closed loop of `SWEEP` batches.
//!
//! The store is pre-warmed with the whole 21 × 9 cell population under a
//! byte budget that holds only part of it, least popular cells first, so
//! the popular head is resident. Cells are drawn from a seeded Zipf
//! distribution over a seeded popularity order: most requests are
//! all-hit and exercise only the service layers (transport, auth, parse,
//! key derivation, store reads); the rest also simulate, write, evict and
//! coalesce. The loop is closed because `fusesim submit` callers wait
//! for their reply.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fuse::core::config::L1Preset;
use fuse::runner::{preset_cell_key, RunConfig, ServeBackend};
use fuse::serve::proto::CellSpec;
use fuse::serve::{
    CellBackend, CellKey, CellRecord, Conn, Endpoint, Listener, ResultCache, ServeOptions, Server,
    ServerConfig,
};
use fuse::sweep::SweepPlan;
use fuse::workloads::all_workloads;
use fuse::workloads::rng::Xoshiro256pp;

use crate::probe::BackendProbe;
use crate::report::{
    median, nproc, peak_rss_mb, quantile, setup_median, Hierarchy, Outcome, Spans,
};
use crate::sim::workloads;
use crate::Args;

const TOKEN: &str = "perfbench-token";
/// Cells named by one `SWEEP`.
const BATCH: usize = 4;
/// Zipf exponent of cell popularity.
const ZIPF_S: f64 = 1.2;
/// Share of the population's bytes the store may hold.
const BUDGET_FRAC: f64 = 0.75;
/// Server starts timed for `setup_s`.
const SETUP_REPS: usize = 25;
/// `BUSY` replies tolerated per request before it counts as failed.
const BUSY_RETRIES: u32 = 8;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The tiny simulation budget the service runs at.
fn serve_rc() -> RunConfig {
    RunConfig::smoke()
}

/// The cell population in popularity order (most popular first) and the
/// Zipf CDF over it.
struct Population {
    tokens: Vec<String>,
    cdf: Vec<f64>,
    /// Direct-run `(cycles, instructions)` per token under [`serve_rc`].
    expected: HashMap<String, (u64, u64)>,
    /// `(key, record)` in popularity order.
    records: Vec<(CellKey, CellRecord)>,
}

impl Population {
    fn build(seed: u64) -> Population {
        let rc = serve_rc();
        let specs = all_workloads();
        let report = SweepPlan::new("perf-serve-population", rc.clone())
            .workloads(specs.iter().copied())
            .presets(&L1Preset::ALL)
            .threads(nproc())
            .run();
        let mut cells: Vec<(String, CellKey, CellRecord)> = report
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let spec = &specs[i / L1Preset::ALL.len()];
                let preset = L1Preset::ALL[i % L1Preset::ALL.len()];
                let token = CellSpec {
                    workload: spec.name.to_string(),
                    config: preset.name().to_string(),
                }
                .token();
                (
                    token,
                    preset_cell_key(spec, preset, &rc),
                    c.result.to_record(),
                )
            })
            .collect();
        // Seeded Fisher-Yates: the popularity order.
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.range_usize(i + 1));
        }
        let weights: Vec<f64> = (0..cells.len())
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Population {
            tokens: cells.iter().map(|c| c.0.clone()).collect(),
            expected: cells
                .iter()
                .map(|c| (c.0.clone(), (c.2.sim.cycles, c.2.sim.instructions)))
                .collect(),
            records: cells.into_iter().map(|c| (c.1, c.2)).collect(),
            cdf,
        }
    }

    fn draw(&self, rng: &mut Xoshiro256pp) -> &str {
        let u = rng.next_f64();
        let i = self
            .cdf
            .partition_point(|c| *c < u)
            .min(self.tokens.len() - 1);
        &self.tokens[i]
    }

    /// Writes a fresh store at `dir`, least popular first, under the byte
    /// budget; returns the budget.
    fn prewarm(&self, dir: &std::path::Path) -> u64 {
        let _ = std::fs::remove_dir_all(dir);
        let bytes: u64 = self
            .records
            .iter()
            .map(|(k, r)| r.serialize(k).len() as u64)
            .sum();
        let budget = (bytes as f64 * BUDGET_FRAC) as u64;
        let cache = ResultCache::open(dir, Some(budget)).expect("store opens");
        for (key, rec) in self.records.iter().rev() {
            cache.insert(key, rec.clone()).expect("store insert");
        }
        budget
    }
}

/// A running server and its serve loop.
struct Running {
    server: Arc<Server>,
    acceptor: JoinHandle<std::io::Result<()>>,
    endpoint: Endpoint,
}

impl Running {
    fn stop(self) {
        self.server.request_shutdown();
        match self.acceptor.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => println!("# serve loop ended with {e}"),
            Err(_) => println!("# serve loop panicked"),
        }
        self.server.join();
    }
}

/// Opens the store, starts the server and the TCP listener, and returns
/// with an authenticated connection whose first `PING` was answered.
fn start(
    dir: &std::path::Path,
    budget: u64,
    backend: Arc<dyn CellBackend>,
) -> std::io::Result<(Running, Client)> {
    let cache = Arc::new(ResultCache::open(dir, Some(budget))?);
    let server = Arc::new(Server::new(
        backend,
        cache,
        ServerConfig {
            workers: nproc(),
            queue_capacity: 64,
        },
    ));
    let listener = Listener::bind_tcp("127.0.0.1:0")?;
    let endpoint = listener.endpoint();
    let opts = ServeOptions {
        auth_token: Some(TOKEN.to_string()),
        ..ServeOptions::default()
    };
    let acceptor = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(&listener, &opts))
    };
    let running = Running {
        server,
        acceptor,
        endpoint,
    };
    let mut client = match Client::connect(&running.endpoint) {
        Ok(c) => c,
        Err(e) => {
            running.stop();
            return Err(e);
        }
    };
    match client.call("PING") {
        Ok(lines) if lines.last().map(String::as_str) == Some("PONG") => Ok((running, client)),
        other => {
            running.stop();
            Err(std::io::Error::other(format!("PING answered {other:?}")))
        }
    }
}

/// One persistent authenticated connection.
struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    connect_auth: Duration,
}

impl Client {
    fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let t = Instant::now();
        let conn = endpoint.connect(IO_TIMEOUT)?;
        if let Conn::Tcp(s) = &conn {
            s.set_nodelay(true)?;
        }
        conn.set_read_timeout(Some(IO_TIMEOUT))?;
        conn.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut client = Client {
            reader: BufReader::new(conn.try_clone()?),
            writer: conn,
            connect_auth: Duration::ZERO,
        };
        let reply = client.call(&format!("AUTH {TOKEN}"))?;
        if reply.last().map(String::as_str) != Some(fuse::serve::proto::AUTH_OK) {
            return Err(std::io::Error::other(format!("AUTH answered {reply:?}")));
        }
        client.connect_auth = t.elapsed();
        Ok(client)
    }

    /// Sends one request line and reads up to its terminal line.
    fn call(&mut self, line: &str) -> std::io::Result<Vec<String>> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()?;
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            if self.reader.read_line(&mut l)? == 0 {
                return Err(std::io::Error::other("connection closed"));
            }
            let l = l.trim_end().to_string();
            // `CELL` and per-cell `ERR <cell>` lines precede the terminal
            // `DONE`, `BUSY`, `PONG`, `OK` or request-level `ERR - ...`.
            let per_cell =
                l.starts_with("CELL ") || (l.starts_with("ERR ") && !l.starts_with("ERR - "));
            lines.push(l);
            if !per_cell {
                return Ok(lines);
            }
        }
    }
}

/// What one client's closed loop saw.
#[derive(Default)]
struct Loop {
    requests: u64,
    failed: u64,
    busy: u64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    computed_cycles: u64,
    connect_auth_ms: Vec<f64>,
}

impl Loop {
    fn merge(&mut self, o: Loop) {
        self.requests += o.requests;
        self.failed += o.failed;
        self.busy += o.busy;
        self.hit_ms.extend(o.hit_ms);
        self.miss_ms.extend(o.miss_ms);
        self.computed_cycles += o.computed_cycles;
        self.connect_auth_ms.extend(o.connect_auth_ms);
    }
}

/// Sends `SWEEP` batches until `deadline`, checking every reply against
/// the direct runs.
fn client_loop(
    id: usize,
    mut client: Option<Client>,
    endpoint: &Endpoint,
    pop: &Population,
    seed: u64,
    deadline: Instant,
    spans: Option<&Spans>,
) -> Loop {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ ((id as u64 + 1) << 32));
    let mut out = Loop::default();
    if let Some(c) = &client {
        out.connect_auth_ms.push(c.connect_auth.as_secs_f64() * 1e3);
    }
    while Instant::now() < deadline {
        let cells: Vec<&str> = (0..BATCH).map(|_| pop.draw(&mut rng)).collect();
        let line = format!("SWEEP {}", cells.join(" "));
        out.requests += 1;
        let start = Instant::now();
        match sweep(&mut client, endpoint, &line, &mut out) {
            Err(e) => {
                out.failed += 1;
                println!("# FAIL client {id}: {line}: {e}");
            }
            Ok(lines) => match check_reply(&cells, &lines, pop) {
                Err(e) => {
                    out.failed += 1;
                    println!("# FAIL client {id}: {line}: {e}");
                }
                Ok((all_cached, computed_cycles)) => {
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    if all_cached {
                        out.hit_ms.push(ms);
                    } else {
                        out.miss_ms.push(ms);
                    }
                    out.computed_cycles += computed_cycles;
                    if let Some(spans) = spans {
                        let args = format!("{{\"hit\":{all_cached}}}");
                        spans.record("request", id, start, &args);
                    }
                }
            },
        }
    }
    out
}

/// One request with `BUSY` retries on the same connection; a broken
/// connection fails the request and the next one redials.
fn sweep(
    client: &mut Option<Client>,
    endpoint: &Endpoint,
    line: &str,
    out: &mut Loop,
) -> Result<Vec<String>, String> {
    for _ in 0..=BUSY_RETRIES {
        if client.is_none() {
            let c = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
            out.connect_auth_ms.push(c.connect_auth.as_secs_f64() * 1e3);
            *client = Some(c);
        }
        let c = client.as_mut().expect("connected");
        let lines = match c.call(line) {
            Ok(lines) => lines,
            Err(e) => {
                *client = None;
                return Err(format!("I/O: {e}"));
            }
        };
        let last = lines.last().map(String::as_str).unwrap_or_default();
        match fuse::serve::proto::parse_busy(last) {
            Some(ms) => {
                out.busy += 1;
                std::thread::sleep(Duration::from_millis(ms));
            }
            None => return Ok(lines),
        }
    }
    Err(format!("still BUSY after {BUSY_RETRIES} retries"))
}

/// Checks a `SWEEP` reply cell by cell; returns whether every cell was
/// `cached` and the cycles of the `computed` ones.
fn check_reply(cells: &[&str], lines: &[String], pop: &Population) -> Result<(bool, u64), String> {
    let (done, cell_lines) = lines.split_last().ok_or("empty reply")?;
    if !done.starts_with("DONE ") || cell_lines.len() != cells.len() {
        return Err(format!("reply {lines:?}"));
    }
    let mut all_cached = true;
    let mut computed = 0u64;
    for (want, l) in cells.iter().zip(cell_lines) {
        let f: Vec<&str> = l.split_ascii_whitespace().collect();
        if f.len() != 6 || f[0] != "CELL" || f[1] != *want {
            return Err(format!("cell line {l:?} for {want}"));
        }
        let num = |field: &str, prefix: &str| {
            field
                .strip_prefix(prefix)
                .and_then(|v| v.parse::<u64>().ok())
        };
        let got = (num(f[4], "cycles="), num(f[5], "instructions="));
        let expected = pop.expected.get(*want).copied();
        if got != (expected.map(|e| e.0), expected.map(|e| e.1)) {
            return Err(format!("{want}: served {got:?}, direct run {expected:?}"));
        }
        match f[2] {
            "cached" => {}
            "computed" => {
                all_cached = false;
                computed += got.0.unwrap_or(0);
            }
            other => return Err(format!("{want}: status {other:?}")),
        }
    }
    Ok((all_cached, computed))
}

/// Runs the closed loop from `clients` connections for `seconds`.
fn drive(
    first: Client,
    endpoint: &Endpoint,
    pop: &Population,
    seed: u64,
    seconds: f64,
    spans: Option<&Spans>,
) -> (Loop, f64) {
    let clients = nproc().min(2);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut first = Some(first);
    let mut total = Loop::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|id| {
                let client = if id == 0 { first.take() } else { None };
                s.spawn(move || client_loop(id, client, endpoint, pop, seed, deadline, spans))
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("client thread"));
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (total, wall)
}

fn record_loop(l: &Loop, wall: f64, out: &mut Outcome) {
    out.attempted += l.requests;
    out.failed += l.failed;
    println!(
        "# serve requests {} hits {} misses {} failed {} busy {} wall_s {wall:.3}",
        l.requests,
        l.hit_ms.len(),
        l.miss_ms.len(),
        l.failed,
        l.busy
    );
}

pub fn mixed(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let pop = Population::build(args.seed);
    let dir = args
        .out_dir
        .join(format!("serve-store-{}", std::process::id()));

    if args.trace {
        traced(args, &pop, &dir, &mut out);
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    }

    let budget = pop.prewarm(&dir);
    let backend: Arc<dyn CellBackend> = Arc::new(ServeBackend::new(serve_rc()));
    let mut setups = Vec::new();
    let mut started = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        match start(&dir, budget, backend.clone()) {
            Ok((running, client)) => {
                setups.push(t.elapsed().as_secs_f64());
                if rep + 1 < SETUP_REPS {
                    // The handler exits once its peer hangs up.
                    drop(client);
                    running.stop();
                } else {
                    started = Some((running, client));
                }
            }
            Err(e) => {
                out.check(false, || format!("server start: {e}"));
            }
        }
    }
    out.set("setup_s", setup_median(&setups));
    if let Some((running, client)) = started {
        let (l, wall) = drive(
            client,
            &running.endpoint,
            &pop,
            args.seed,
            args.seconds,
            None,
        );
        let stats = running.server.cache().stats();
        println!(
            "# store hits {} misses {} inserts {} evictions {} coalesced {}",
            stats.hits,
            stats.misses,
            stats.inserts,
            stats.evictions,
            running.server.coalesced()
        );
        running.stop();
        record_loop(&l, wall, &mut out);
        out.set("peak_rss_mb", peak_rss_mb());
        out.set("ops_per_s", l.requests as f64 / wall);
        out.set("sim_cycles_per_s", l.computed_cycles as f64 / wall);
        out.set("light_p50_ms", median(&l.hit_ms));
        out.set("light_tail_ms", quantile(&l.hit_ms, 0.99));
        out.set("heavy_p50_ms", median(&l.miss_ms));
    }
    let _ = std::fs::remove_dir_all(&dir);
    crate::sim::paper_gaps(&workloads(args.seed), &mut out);
    out
}

/// The per-layer pass: the same request stream twice from identical
/// fresh stores, first untraced, then with the backend probe and request
/// spans. The throughput ratio is the tracing overhead.
fn traced(args: &Args, pop: &Population, dir: &std::path::Path, out: &mut Outcome) {
    let half = args.seconds / 2.0;
    let budget = pop.prewarm(dir);
    let plain: Arc<dyn CellBackend> = Arc::new(ServeBackend::new(serve_rc()));
    let untraced_rps = match start(dir, budget, plain) {
        Ok((running, client)) => {
            let (l, wall) = drive(client, &running.endpoint, pop, args.seed, half, None);
            running.stop();
            record_loop(&l, wall, out);
            l.requests as f64 / wall
        }
        Err(e) => {
            out.check(false, || format!("server start: {e}"));
            return;
        }
    };

    let budget = pop.prewarm(dir);
    let probe = Arc::new(BackendProbe::new(ServeBackend::new(serve_rc())));
    let spans = Spans::new();
    let (running, client) = match start(dir, budget, probe.clone()) {
        Ok(started) => started,
        Err(e) => {
            out.check(false, || format!("server start: {e}"));
            return;
        }
    };
    let (l, wall) = drive(
        client,
        &running.endpoint,
        pop,
        args.seed,
        half,
        Some(&spans),
    );
    let stats = running.server.cache().stats();
    let coalesced = running.server.coalesced();
    running.stop();
    record_loop(&l, wall, out);

    let key_calls = probe.key_calls.load(Ordering::Relaxed);
    let key_ns = probe.key_ns.load(Ordering::Relaxed) as f64;
    let sim_calls = probe.simulate_calls.load(Ordering::Relaxed);
    let sim_ns = probe.simulate_ns.load(Ordering::Relaxed) as f64;
    let wait_ns = probe.queue_wait_ns.load(Ordering::Relaxed) as f64;
    let per = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let completed = (l.hit_ms.len() + l.miss_ms.len()) as u64;
    let rtt_ms: f64 = l.hit_ms.iter().chain(&l.miss_ms).sum();
    out.set("serve.connect_auth_ms", median(&l.connect_auth_ms));
    out.set("serve.key_calls", key_calls as f64);
    out.set("serve.key_ns", per(key_ns, key_calls));
    out.set("serve.simulate_calls", sim_calls as f64);
    out.set("serve.simulate_ms", per(sim_ns, sim_calls) / 1e6);
    out.set("serve.queue_wait_ms", per(wait_ns, sim_calls) / 1e6);
    out.set(
        "serve.other_ms",
        per(rtt_ms - (key_ns + sim_ns + wait_ns) / 1e6, completed),
    );
    out.set("serve.store_hit_rate", stats.hit_rate());
    out.set("serve.inserts", stats.inserts as f64);
    out.set("serve.evictions", stats.evictions as f64);
    out.set("serve.coalesced", coalesced as f64);
    out.set("serve.busy", l.busy as f64);

    // The records the service simulated must equal the direct runs.
    let mut hier = Hierarchy::default();
    let direct: HashMap<(&str, &str), &CellRecord> = pop
        .records
        .iter()
        .map(|(_, r)| ((r.workload.as_str(), r.config.as_str()), r))
        .collect();
    for rec in probe.records.lock().expect("probe lock").iter() {
        let same = direct
            .get(&(rec.workload.as_str(), rec.config.as_str()))
            .is_some_and(|d| d.sim == rec.sim && d.metrics == rec.metrics);
        out.check(same, || {
            format!(
                "{}/{} traced statistics differ from the direct run",
                rec.workload, rec.config
            )
        });
        hier.add(&rec.sim, &rec.metrics, &rec.energy);
    }
    hier.record(out);
    let traced_rps = l.requests as f64 / wall;
    out.set("trace.overhead_frac", untraced_rps / traced_rps - 1.0);
    spans.write(
        &args
            .out_dir
            .join(format!("trace-{}-s{}.json", args.workload, args.seed)),
    );
}
