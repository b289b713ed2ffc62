//! The `fusesim serve` front-end: a bounded job queue and worker pool
//! behind a Unix socket and/or a TCP listener.
//!
//! # Coalescing
//!
//! The point of a batch service over a plain cache is what happens
//! *between* miss and insert: with many concurrent clients the same
//! popular cell is requested again while its first simulation is still
//! running. The server keeps an **in-flight map** from digest to a shared
//! completion slot; a second request for a running cell waits on the
//! first one's slot instead of enqueueing a duplicate job. Two orderings
//! make this race-free. The worker inserts the result into the cache
//! *before* removing the in-flight entry; and a request that missed the
//! lock-free cache probe **re-checks the cache under the in-flight
//! lock** before claiming a fresh slot. A late arrival therefore either
//! finds the in-flight slot or (because the worker's insert happened
//! first) finds the cached record during the under-lock re-check — there
//! is no interleaving where it re-simulates.
//!
//! # Back-pressure and shedding
//!
//! The job queue is bounded ([`ServerConfig::queue_capacity`]). In-process
//! callers ([`Server::resolve_batch`]) block in `enqueue` — back-pressure.
//! Network handlers instead use [`Server::try_resolve_batch`]: a sweep
//! that would block on the full queue is refused whole with
//! `BUSY retry-after=<ms>` so the handler thread stays responsive and the
//! client retries with backoff. Cells of a shed sweep that were already
//! begun keep simulating in the background — the retry finds them in
//! flight or cached, so no work is wasted.
//!
//! # Fault tolerance
//!
//! A panicking [`CellBackend::simulate`] is caught (`catch_unwind`), the
//! in-flight slot is fulfilled with an `Err` so coalesced waiters get an
//! `ERR` reply instead of hanging forever, and the worker thread stays in
//! its loop. Connection handlers run under per-connection read/write
//! deadlines so a dead peer cannot pin a handler thread; the acceptor
//! treats `accept` errors as transient (bounded retries with backoff),
//! reaps finished handler threads eagerly, refuses connections over
//! [`ServeOptions::max_connections`] with a `BUSY` line, and cleans up
//! its socket on every exit path.
//!
//! # The backend seam
//!
//! This crate cannot depend on the experiment runner (the umbrella crate
//! depends on *us*), so simulation capability is injected through
//! [`CellBackend`]: the `fusesim` binary implements it over its run
//! configuration. That seam is also what makes the concurrency machinery
//! testable — the tests below drive it with gated fake backends instead
//! of real multi-second simulations.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::auth;
use crate::key::CellKey;
use crate::proto::{self, CellReply, CellSpec, Request};
use crate::record::CellRecord;
use crate::store::ResultCache;
use crate::transport::{Conn, Endpoint, Listener};

/// How a server derives keys and simulates cells. Implementations must
/// be pure: the same spec always yields the same key and (up to
/// determinism of the engine, which this workspace guarantees) the same
/// record.
pub trait CellBackend: Send + Sync {
    /// Derives the content key for `spec`.
    ///
    /// # Errors
    ///
    /// Unknown workload or configuration names.
    fn key(&self, spec: &CellSpec) -> Result<CellKey, String>;

    /// Runs the simulation for `spec`.
    ///
    /// # Errors
    ///
    /// Backend-specific failures; they are reported to every waiter of
    /// the coalesced request and never poison the cache. A panic is
    /// contained the same way (see the module docs).
    fn simulate(&self, spec: &CellSpec) -> Result<CellRecord, String>;
}

/// Worker-pool and queue sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Simulation worker threads (clamped to at least 1).
    pub workers: usize,
    /// Bounded job-queue capacity (clamped to at least 1).
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
        }
    }
}

/// Per-listener serving policy: authentication, deadlines, connection
/// capacity and shedding.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Shared token every connection must present as its first line
    /// (`AUTH <token>`); `None` disables authentication. Mandatory for
    /// TCP listeners — enforced by the `fusesim` CLI.
    pub auth_token: Option<String>,
    /// Per-connection read deadline: a peer that goes quiet longer than
    /// this is disconnected instead of pinning its handler thread.
    pub read_timeout: Duration,
    /// Per-connection write deadline: a peer that stops draining its
    /// socket is disconnected.
    pub write_timeout: Duration,
    /// Maximum concurrent connection handlers; connections over the
    /// limit get one `BUSY` line and are closed.
    pub max_connections: usize,
    /// The `retry-after` hint (milliseconds) sent with `BUSY` replies.
    pub busy_retry_ms: u64,
    /// Consecutive `accept` failures tolerated (with backoff) before
    /// the serve loop gives up.
    pub max_accept_errors: u32,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            auth_token: None,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_connections: 64,
            busy_retry_ms: 100,
            max_accept_errors: 8,
        }
    }
}

/// A completion slot shared by every request coalesced onto one
/// simulation.
struct InFlight {
    done: Mutex<Option<Result<Arc<CellRecord>, String>>>,
    cv: Condvar,
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, result: Result<Arc<CellRecord>, String>) {
        let mut done = self.done.lock().expect("slot lock");
        *done = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<CellRecord>, String> {
        let mut done = self.done.lock().expect("slot lock");
        loop {
            if let Some(r) = done.as_ref() {
                return r.clone();
            }
            done = self.cv.wait(done).expect("slot lock");
        }
    }
}

enum Job {
    Cell {
        spec: CellSpec,
        key: CellKey,
        slot: Arc<InFlight>,
    },
    Stop,
}

/// How `begin` treats a full job queue: in-process batches apply
/// back-pressure, network sweeps shed.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Block in `enqueue` until the queue has room.
    Block,
    /// Refuse (return `None` from `begin`) instead of blocking.
    Shed,
}

/// A deterministic test hook: a thread calling `pause` while the point
/// is armed blocks until the test releases it, letting tests force
/// specific interleavings. Compiled out of release builds.
#[cfg(test)]
#[derive(Default)]
struct PausePoint {
    state: Mutex<PauseState>,
    cv: Condvar,
}

#[cfg(test)]
#[derive(Default, Debug, PartialEq, Eq, Clone, Copy)]
enum PauseState {
    #[default]
    Inert,
    Armed,
    Reached,
    Released,
}

#[cfg(test)]
impl PausePoint {
    fn arm(&self) {
        *self.state.lock().expect("pause lock") = PauseState::Armed;
    }

    fn pause(&self) {
        let mut st = self.state.lock().expect("pause lock");
        if *st != PauseState::Armed {
            return;
        }
        *st = PauseState::Reached;
        self.cv.notify_all();
        while *st != PauseState::Released {
            st = self.cv.wait(st).expect("pause lock");
        }
        *st = PauseState::Inert;
    }

    fn wait_reached(&self) {
        let mut st = self.state.lock().expect("pause lock");
        while *st != PauseState::Reached {
            st = self.cv.wait(st).expect("pause lock");
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("pause lock");
        *st = PauseState::Released;
        self.cv.notify_all();
    }
}

struct Shared {
    backend: Arc<dyn CellBackend>,
    cache: Arc<ResultCache>,
    queue: Mutex<VecDeque<Job>>,
    queue_capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
    inflight: Mutex<HashMap<String, Arc<InFlight>>>,
    coalesced: AtomicU64,
    panicked: AtomicU64,
    active_conns: AtomicUsize,
    /// Endpoints of every live serve loop; a shutdown pokes each so
    /// acceptors blocked in `accept` observe the flag.
    wakers: Mutex<Vec<Endpoint>>,
    shutdown: AtomicBool,
    /// Sits between the lock-free cache probe and the in-flight lock in
    /// `begin`, where the coalescing race lived.
    #[cfg(test)]
    fresh_pause: PausePoint,
}

enum Begun {
    Hit(CellKey, Arc<CellRecord>),
    /// `bool` = this request enqueued the job (false = coalesced onto an
    /// earlier one).
    Pending(CellKey, Arc<InFlight>, bool),
    Failed(String),
}

impl Shared {
    /// Phase 1 of a batch: classify one cell and, on a fresh miss,
    /// enqueue its job. Does not wait for results; only blocks on a full
    /// queue when `admission` is [`Admission::Block`] — with
    /// [`Admission::Shed`] a full queue returns `None` instead.
    fn begin(&self, spec: &CellSpec, admission: Admission) -> Option<Begun> {
        let key = match self.backend.key(spec) {
            Ok(k) => k,
            Err(e) => return Some(Begun::Failed(e)),
        };
        // Fast path: lock-free cache probe.
        if let Some(rec) = self.cache.get(&key) {
            return Some(Begun::Hit(key, rec));
        }
        #[cfg(test)]
        self.fresh_pause.pause();
        let mut map = self.inflight.lock().expect("inflight lock");
        if let Some(existing) = map.get(&key.hex) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Some(Begun::Pending(key, existing.clone(), false));
        }
        // Re-check the cache *under the in-flight lock*: the probe above
        // may have raced the worker's insert-then-remove window, in which
        // case the record is cached by now and the map is empty. Without
        // this the cell would re-simulate (the coalescing-race bug).
        if let Some(rec) = self.cache.get(&key) {
            return Some(Begun::Hit(key, rec));
        }
        let slot = Arc::new(InFlight::new());
        let job = Job::Cell {
            spec: spec.clone(),
            key: key.clone(),
            slot: slot.clone(),
        };
        match admission {
            Admission::Block => {
                map.insert(key.hex.clone(), slot.clone());
                drop(map);
                self.enqueue(job);
            }
            Admission::Shed => {
                // Holding the in-flight lock across try_enqueue is safe:
                // the only queue-lock hold is brief and no path takes the
                // in-flight lock while holding the queue lock. Inserting
                // the map entry only on success means a shed cell leaves
                // no dead slot for later arrivals to coalesce onto.
                self.try_enqueue(job).ok()?;
                map.insert(key.hex.clone(), slot.clone());
            }
        }
        Some(Begun::Pending(key, slot, true))
    }

    /// Blocks while the queue is at capacity (back-pressure); `Stop`
    /// jobs bypass the bound so shutdown can never deadlock on a full
    /// queue.
    fn enqueue(&self, job: Job) {
        let mut q = self.queue.lock().expect("queue lock");
        if !matches!(job, Job::Stop) {
            while q.len() >= self.queue_capacity {
                q = self.not_full.wait(q).expect("queue lock");
            }
        }
        q.push_back(job);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Non-blocking enqueue for the shedding path.
    ///
    /// # Errors
    ///
    /// Returns the job back when the queue is at capacity.
    fn try_enqueue(&self, job: Job) -> Result<(), Job> {
        let mut q = self.queue.lock().expect("queue lock");
        if q.len() >= self.queue_capacity {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.not_empty.notify_one();
        Ok(())
    }

    fn worker_loop(self: &Arc<Shared>) {
        loop {
            let job = {
                let mut q = self.queue.lock().expect("queue lock");
                loop {
                    if let Some(j) = q.pop_front() {
                        break j;
                    }
                    q = self.not_empty.wait(q).expect("queue lock");
                }
            };
            self.not_full.notify_one();
            let Job::Cell { spec, key, slot } = job else {
                return;
            };
            let simulated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.backend.simulate(&spec)
            }));
            let result = match simulated {
                // Insert into the cache FIRST (see module docs); if the
                // write fails the result is still valid for waiters —
                // only persistence is lost.
                Ok(Ok(record)) => match self.cache.insert(&key, record.clone()) {
                    Ok(arc) => Ok(arc),
                    Err(_) => Ok(Arc::new(record)),
                },
                Ok(Err(e)) => Err(e),
                // A panicking backend must not hang the coalesced
                // waiters or kill the worker: report and carry on.
                Err(payload) => {
                    self.panicked.fetch_add(1, Ordering::Relaxed);
                    Err(format!(
                        "backend panicked simulating {}: {}",
                        spec.token(),
                        panic_message(payload.as_ref())
                    ))
                }
            };
            slot.fulfill(result);
            self.inflight
                .lock()
                .expect("inflight lock")
                .remove(&key.hex);
        }
    }

    fn resolve_batch(&self, specs: &[CellSpec]) -> Vec<CellReply> {
        // Enqueue every miss before waiting on any, so one connection's
        // batch spreads across the whole worker pool.
        let begun: Vec<Begun> = specs
            .iter()
            .map(|s| {
                self.begin(s, Admission::Block)
                    .expect("Block admission never sheds")
            })
            .collect();
        self.finish(specs, begun)
    }

    /// The shedding variant: `None` when any cell of the sweep would
    /// block on the full queue. Cells begun before the shed keep
    /// simulating — the client's retry finds them in flight or cached.
    fn try_resolve_batch(&self, specs: &[CellSpec]) -> Option<Vec<CellReply>> {
        let begun: Option<Vec<Begun>> = specs
            .iter()
            .map(|s| self.begin(s, Admission::Shed))
            .collect();
        Some(self.finish(specs, begun?))
    }

    /// Phase 2: wait for every pending slot and render replies in
    /// request order.
    fn finish(&self, specs: &[CellSpec], begun: Vec<Begun>) -> Vec<CellReply> {
        specs
            .iter()
            .zip(begun)
            .map(|(spec, b)| match b {
                Begun::Hit(key, rec) => reply_ok(spec, true, &key, &rec),
                Begun::Pending(key, slot, fresh) => match slot.wait() {
                    // A coalesced waiter did not cost a simulation, so it
                    // reports as `cached` just like a store hit.
                    Ok(rec) => reply_ok(spec, !fresh, &key, &rec),
                    Err(reason) => CellReply::Err {
                        spec: spec.clone(),
                        reason,
                    },
                },
                Begun::Failed(reason) => CellReply::Err {
                    spec: spec.clone(),
                    reason,
                },
            })
            .collect()
    }

    /// Sets the stop flag and pokes every registered serve loop so
    /// acceptors blocked in `accept` re-check it.
    fn shutdown_and_wake(&self) {
        self.shutdown.store(true, Ordering::Release);
        let wakers: Vec<Endpoint> = self.wakers.lock().expect("wakers lock").clone();
        for endpoint in wakers {
            endpoint.wake();
        }
    }
}

/// Renders a `catch_unwind` payload (almost always a `&str` or `String`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "<non-string panic payload>"
    }
}

fn reply_ok(spec: &CellSpec, cached: bool, key: &CellKey, rec: &CellRecord) -> CellReply {
    CellReply::Ok {
        spec: spec.clone(),
        cached,
        key: key.hex.clone(),
        cycles: rec.sim.cycles,
        instructions: rec.sim.instructions,
    }
}

/// Decrements the live-connection gauge and marks the handler thread
/// reapable — via `Drop`, so a panicking handler still releases its
/// capacity slot.
struct HandlerGuard {
    shared: Arc<Shared>,
    done: Arc<AtomicBool>,
}

impl Drop for HandlerGuard {
    fn drop(&mut self) {
        self.shared.active_conns.fetch_sub(1, Ordering::AcqRel);
        self.done.store(true, Ordering::Release);
    }
}

/// The batch simulation service: worker pool + bounded queue + coalescing
/// front-end, optionally exposed over Unix-socket and TCP listeners.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Builds the server and spawns its worker pool.
    pub fn new(
        backend: Arc<dyn CellBackend>,
        cache: Arc<ResultCache>,
        config: ServerConfig,
    ) -> Server {
        let shared = Arc::new(Shared {
            backend,
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_capacity: config.queue_capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            active_conns: AtomicUsize::new(0),
            wakers: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            #[cfg(test)]
            fresh_pause: PausePoint::default(),
        });
        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let s = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fuse-serve-worker-{i}"))
                .spawn(move || s.worker_loop())
                .expect("spawn worker");
            workers.push(handle);
        }
        Server {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Resolves a batch: cache hits return immediately, misses are
    /// enqueued (all of them, before waiting on any) and awaited. One
    /// reply per requested cell, in request order. Blocks on a full
    /// queue (back-pressure) — the in-process entry point.
    pub fn resolve_batch(&self, specs: &[CellSpec]) -> Vec<CellReply> {
        self.shared.resolve_batch(specs)
    }

    /// The load-shedding variant used by connection handlers: `None`
    /// when the sweep would block on the full job queue, in which case
    /// the caller replies `BUSY` and the client retries.
    pub fn try_resolve_batch(&self, specs: &[CellSpec]) -> Option<Vec<CellReply>> {
        self.shared.try_resolve_batch(specs)
    }

    /// Resolves a single cell.
    pub fn resolve(&self, spec: &CellSpec) -> CellReply {
        self.resolve_batch(std::slice::from_ref(spec))
            .pop()
            .expect("one reply per spec")
    }

    /// Requests coalesced onto an in-flight simulation so far.
    pub fn coalesced(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Backend panics contained by the worker pool so far.
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Live connection handlers across all serve loops.
    pub fn active_connections(&self) -> usize {
        self.shared.active_conns.load(Ordering::Acquire)
    }

    /// The underlying cache (for stats reporting).
    pub fn cache(&self) -> &Arc<ResultCache> {
        &self.shared.cache
    }

    #[cfg(test)]
    fn inflight_len(&self) -> usize {
        self.shared.inflight.lock().expect("inflight lock").len()
    }

    /// Sets the stop flag and wakes every serve loop, as if a client had
    /// sent `SHUTDOWN`. Idempotent.
    pub fn request_shutdown(&self) {
        self.shared.shutdown_and_wake();
    }

    /// Serves the line protocol on `listener` until a `SHUTDOWN` request
    /// (or [`Server::request_shutdown`]) arrives. Several serve loops may
    /// run concurrently on one server — e.g. a Unix socket and a TCP
    /// listener sharing the cache and worker pool. Accept errors are
    /// transient (bounded retries with backoff); finished handler threads
    /// are reaped as the loop runs and all remaining handlers are joined
    /// before this returns, so every accepted batch completes. Call
    /// [`Server::join`] afterwards to retire the worker pool.
    ///
    /// # Errors
    ///
    /// Returns the last `accept` error after
    /// [`ServeOptions::max_accept_errors`] consecutive failures; the
    /// socket is still cleaned up.
    pub fn serve(&self, listener: &Listener, opts: &ServeOptions) -> std::io::Result<()> {
        let endpoint = listener.endpoint();
        self.shared
            .wakers
            .lock()
            .expect("wakers lock")
            .push(endpoint.clone());
        let mut handlers: Vec<(Arc<AtomicBool>, JoinHandle<()>)> = Vec::new();
        let mut consecutive_errors: u32 = 0;
        let result = loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            let conn = match listener.accept() {
                Ok(c) => {
                    consecutive_errors = 0;
                    c
                }
                Err(e) => {
                    if self.shared.shutdown.load(Ordering::Acquire) {
                        break Ok(());
                    }
                    consecutive_errors += 1;
                    if consecutive_errors >= opts.max_accept_errors.max(1) {
                        break Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(10u64 << consecutive_errors.min(6)));
                    continue;
                }
            };
            // A shutdown poke is itself a connection; re-check before
            // spawning a handler for it.
            if self.shared.shutdown.load(Ordering::Acquire) {
                break Ok(());
            }
            reap_finished(&mut handlers);
            if self.shared.active_conns.load(Ordering::Acquire) >= opts.max_connections.max(1) {
                let mut conn = conn;
                let _ = conn.set_write_timeout(Some(opts.write_timeout));
                let _ = writeln!(conn, "{}", proto::busy_line(opts.busy_retry_ms));
                continue;
            }
            self.shared.active_conns.fetch_add(1, Ordering::AcqRel);
            let done = Arc::new(AtomicBool::new(false));
            let guard = HandlerGuard {
                shared: self.shared.clone(),
                done: done.clone(),
            };
            let shared = self.shared.clone();
            let opts = opts.clone();
            let spawned = std::thread::Builder::new()
                .name("fuse-serve-conn".to_string())
                .spawn(move || {
                    let _guard = guard;
                    handle_conn(&shared, conn, &opts);
                });
            match spawned {
                Ok(handle) => handlers.push((done, handle)),
                // Spawn failure dropped the closure (and its guard), so
                // the gauge is already balanced; the connection is gone.
                Err(_) => continue,
            }
        };
        for (_, h) in handlers {
            let _ = h.join();
        }
        self.shared
            .wakers
            .lock()
            .expect("wakers lock")
            .retain(|e| e != &endpoint);
        listener.cleanup();
        result
    }

    /// Serves on a Unix socket at `path` with default [`ServeOptions`]
    /// (no auth). Convenience wrapper over [`Server::serve`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures and fatal accept errors.
    pub fn serve_unix(&self, path: &Path) -> std::io::Result<()> {
        let listener = Listener::bind_unix(path)?;
        self.serve(&listener, &ServeOptions::default())
    }

    /// Stops and joins the worker pool after all queued jobs drain.
    /// Idempotent.
    pub fn join(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut w = self.workers.lock().expect("workers lock");
            std::mem::take(&mut *w)
        };
        for _ in &handles {
            self.shared.enqueue(Job::Stop);
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.join();
    }
}

/// Joins handler threads whose connections have closed, keeping the
/// live set small instead of accumulating finished threads until
/// shutdown.
fn reap_finished(handlers: &mut Vec<(Arc<AtomicBool>, JoinHandle<()>)>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].0.load(Ordering::Acquire) {
            let (_, handle) = handlers.swap_remove(i);
            let _ = handle.join();
        } else {
            i += 1;
        }
    }
}

/// Longest request line a connection may send, `\n` excluded (a `\r`
/// before it counts). A 189-cell `SWEEP` is about 3.5 KB; the cap only
/// stops a peer, authed or not, from growing the line buffer without
/// bound.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// One request line read under [`MAX_LINE_BYTES`].
#[derive(Debug, PartialEq)]
enum LineRead {
    Line(String),
    TooLong,
    /// End of stream, a read error (deadline expiry included) or bytes
    /// that are not UTF-8: the peer is dropped.
    Closed,
}

/// Reads one line, never buffering more than `MAX_LINE_BYTES + 1` bytes.
/// Strips the `\n` or `\r\n` terminator; a final line without one is
/// returned as-is, like [`BufRead::lines`].
fn read_capped_line(reader: &mut impl BufRead) -> LineRead {
    let mut buf = Vec::new();
    let limit = MAX_LINE_BYTES as u64 + 1;
    match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
        Ok(0) | Err(_) => return LineRead::Closed,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_LINE_BYTES {
        return LineRead::TooLong;
    }
    match String::from_utf8(buf) {
        Ok(line) => LineRead::Line(line),
        Err(_) => LineRead::Closed,
    }
}

fn handle_conn(shared: &Arc<Shared>, conn: Conn, opts: &ServeOptions) {
    let _ = conn.set_read_timeout(Some(opts.read_timeout));
    let _ = conn.set_write_timeout(Some(opts.write_timeout));
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(conn);
    let mut authed = opts.auth_token.is_none();
    loop {
        let line = match read_capped_line(&mut reader) {
            LineRead::Line(line) => line,
            LineRead::TooLong => {
                // One ERR line, then the connection is closed, whether
                // or not the peer has authenticated.
                let _ = writeln!(writer, "ERR - line too long");
                let _ = writer.flush();
                return;
            }
            LineRead::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = proto::parse_request(&line);
        if !authed {
            let accepted = matches!(
                &request,
                Ok(Request::Auth(token))
                    if auth::token_eq(token, opts.auth_token.as_deref().unwrap_or_default())
            );
            if !accepted {
                // One ERR line, then the connection is closed — an
                // unauthenticated peer gets nothing else.
                let _ = writeln!(writer, "ERR - authentication required");
                let _ = writer.flush();
                return;
            }
            authed = true;
            if writeln!(writer, "{}", proto::AUTH_OK).is_err() || writer.flush().is_err() {
                break;
            }
            continue;
        }
        let ok = match request {
            Ok(Request::Auth(token)) => match &opts.auth_token {
                Some(expected) if !auth::token_eq(&token, expected) => {
                    let _ = writeln!(writer, "ERR - authentication rejected");
                    let _ = writer.flush();
                    return;
                }
                _ => writeln!(writer, "{}", proto::AUTH_OK).is_ok(),
            },
            Ok(Request::Ping) => writeln!(writer, "PONG").is_ok(),
            Ok(Request::Stats) => {
                let s = shared.cache.stats();
                let c = shared.coalesced.load(Ordering::Relaxed);
                let p = shared.panicked.load(Ordering::Relaxed);
                writeln!(writer, "{}", proto::stats_line(&s, c, p)).is_ok()
            }
            Ok(Request::Shutdown) => {
                let _ = writeln!(writer, "BYE");
                let _ = writer.flush();
                shared.shutdown_and_wake();
                return;
            }
            Ok(Request::Sweep(cells)) => match shared.try_resolve_batch(&cells) {
                Some(replies) => {
                    let mut hits = 0u64;
                    let mut misses = 0u64;
                    let mut errors = 0u64;
                    let mut ok = true;
                    for r in &replies {
                        match r {
                            CellReply::Ok { cached: true, .. } => hits += 1,
                            CellReply::Ok { cached: false, .. } => misses += 1,
                            CellReply::Err { .. } => errors += 1,
                        }
                        ok &= writeln!(writer, "{}", r.line()).is_ok();
                    }
                    ok && writeln!(writer, "{}", proto::done_line(hits, misses, errors)).is_ok()
                }
                None => writeln!(writer, "{}", proto::busy_line(opts.busy_retry_ms)).is_ok(),
            },
            Err(e) => writeln!(writer, "ERR - {e}").is_ok(),
        };
        if !ok || writer.flush().is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, ClientConfig};
    use crate::key::digest_hex;
    use std::os::unix::net::UnixStream;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// A backend that derives keys from the spec token and fabricates
    /// deterministic records; `gate` makes `simulate` block until
    /// released so tests can hold a cell in flight. A `PANIC` workload
    /// panics mid-simulation.
    struct FakeBackend {
        calls: AtomicUsize,
        gate: Option<(Mutex<bool>, Condvar)>,
        started: (Mutex<usize>, Condvar),
    }

    impl FakeBackend {
        fn free() -> FakeBackend {
            FakeBackend {
                calls: AtomicUsize::new(0),
                gate: None,
                started: (Mutex::new(0), Condvar::new()),
            }
        }

        fn gated() -> FakeBackend {
            FakeBackend {
                calls: AtomicUsize::new(0),
                gate: Some((Mutex::new(false), Condvar::new())),
                started: (Mutex::new(0), Condvar::new()),
            }
        }

        fn release(&self) {
            let (lock, cv) = self.gate.as_ref().expect("gated backend");
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }

        fn wait_for_started(&self, n: usize) {
            let (lock, cv) = &self.started;
            let mut count = lock.lock().unwrap();
            while *count < n {
                count = cv.wait(count).unwrap();
            }
        }
    }

    impl CellBackend for FakeBackend {
        fn key(&self, spec: &CellSpec) -> Result<CellKey, String> {
            if spec.workload == "NOPE" {
                return Err(format!("unknown workload {:?}", spec.workload));
            }
            let text = format!("fake-key\n{}\n", spec.token());
            Ok(CellKey {
                hex: digest_hex(&text),
                text,
            })
        }

        fn simulate(&self, spec: &CellSpec) -> Result<CellRecord, String> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            {
                let (lock, cv) = &self.started;
                *lock.lock().unwrap() += 1;
                cv.notify_all();
            }
            if let Some((lock, cv)) = self.gate.as_ref() {
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            }
            if spec.workload == "PANIC" {
                panic!("injected backend panic");
            }
            let mut r = CellRecord {
                workload: spec.workload.clone(),
                config: spec.config.clone(),
                ..CellRecord::default()
            };
            r.sim.cycles = spec.workload.len() as u64 * 1000 + spec.config.len() as u64;
            r.sim.instructions = 7;
            Ok(r)
        }
    }

    fn tmp_cache(tag: &str) -> (PathBuf, Arc<ResultCache>) {
        let dir =
            std::env::temp_dir().join(format!("fuse_server_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ResultCache::open(&dir, None).unwrap());
        (dir, cache)
    }

    fn spec(w: &str, c: &str) -> CellSpec {
        CellSpec {
            workload: w.to_string(),
            config: c.to_string(),
        }
    }

    #[test]
    fn second_request_is_a_cache_hit_not_a_simulation() {
        let (dir, cache) = tmp_cache("hit");
        let backend = Arc::new(FakeBackend::free());
        let server = Server::new(backend.clone(), cache, ServerConfig::default());
        let s = spec("ATAX", "Dy-FUSE");
        let first = server.resolve(&s);
        let second = server.resolve(&s);
        assert!(matches!(first, CellReply::Ok { cached: false, .. }));
        assert!(matches!(second, CellReply::Ok { cached: true, .. }));
        assert_eq!(backend.calls.load(Ordering::SeqCst), 1);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlapping_requests_for_one_cell_share_one_simulation() {
        let (dir, cache) = tmp_cache("coalesce");
        let backend = Arc::new(FakeBackend::gated());
        let server = Arc::new(Server::new(backend.clone(), cache, ServerConfig::default()));
        let s = spec("ATAX", "Dy-FUSE");

        let a = {
            let server = server.clone();
            let s = s.clone();
            std::thread::spawn(move || server.resolve(&s))
        };
        // Hold until the first simulation is genuinely in flight, then
        // issue the overlapping request.
        backend.wait_for_started(1);
        let b = {
            let server = server.clone();
            let s = s.clone();
            std::thread::spawn(move || server.resolve(&s))
        };
        // The second request must coalesce, not start a second
        // simulation; give it until it registers.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.coalesced() == 0 {
            assert!(std::time::Instant::now() < deadline, "never coalesced");
            std::thread::sleep(Duration::from_millis(2));
        }
        backend.release();
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        assert_eq!(
            backend.calls.load(Ordering::SeqCst),
            1,
            "one simulation total"
        );
        let cycles = |r: &CellReply| match r {
            CellReply::Ok { cycles, .. } => *cycles,
            CellReply::Err { reason, .. } => panic!("unexpected error: {reason}"),
        };
        assert_eq!(
            cycles(&ra),
            cycles(&rb),
            "both waiters got the shared result"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_queue_with_one_worker_drains_a_large_batch() {
        let (dir, cache) = tmp_cache("queue");
        let backend = Arc::new(FakeBackend::free());
        let server = Server::new(
            backend.clone(),
            cache,
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
            },
        );
        let specs: Vec<CellSpec> = (0..8).map(|i| spec(&format!("W{i}"), "Dy-FUSE")).collect();
        let replies = server.resolve_batch(&specs);
        assert_eq!(replies.len(), 8);
        assert!(replies.iter().all(|r| matches!(r, CellReply::Ok { .. })));
        assert_eq!(backend.calls.load(Ordering::SeqCst), 8);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_cell_is_an_error_reply_not_a_crash() {
        let (dir, cache) = tmp_cache("err");
        let server = Server::new(
            Arc::new(FakeBackend::free()),
            cache,
            ServerConfig::default(),
        );
        let r = server.resolve(&spec("NOPE", "Dy-FUSE"));
        match r {
            CellReply::Err { reason, .. } => assert!(reason.contains("unknown workload")),
            other => panic!("expected error reply, got {other:?}"),
        }
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unix_socket_end_to_end_with_clean_shutdown() {
        let (dir, cache) = tmp_cache("sock");
        let backend = Arc::new(FakeBackend::free());
        let server = Arc::new(Server::new(backend.clone(), cache, ServerConfig::default()));
        let sock =
            std::env::temp_dir().join(format!("fuse_serve_test_{}.sock", std::process::id()));
        let acceptor = {
            let server = server.clone();
            let sock = sock.clone();
            std::thread::spawn(move || server.serve_unix(&sock))
        };
        // Wait for the socket to appear.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut conn = loop {
            match UnixStream::connect(&sock) {
                Ok(c) => break c,
                Err(_) => {
                    assert!(std::time::Instant::now() < deadline, "socket never bound");
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        fn next(reader: &mut BufReader<UnixStream>) -> String {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }
        fn ask(conn: &mut UnixStream, reader: &mut BufReader<UnixStream>, req: &str) -> String {
            writeln!(conn, "{req}").unwrap();
            conn.flush().unwrap();
            next(reader)
        }
        assert_eq!(ask(&mut conn, &mut reader, "PING"), "PONG");
        let cell = ask(&mut conn, &mut reader, "SWEEP ATAX/Dy-FUSE");
        assert!(
            cell.starts_with("CELL ATAX/Dy-FUSE computed key="),
            "{cell}"
        );
        assert_eq!(next(&mut reader), "DONE hits=0 misses=1 errors=0");
        // Same cell again, now warm.
        let cell = ask(&mut conn, &mut reader, "SWEEP ATAX/Dy-FUSE");
        assert!(cell.starts_with("CELL ATAX/Dy-FUSE cached key="), "{cell}");
        assert_eq!(next(&mut reader), "DONE hits=1 misses=0 errors=0");
        let stats = ask(&mut conn, &mut reader, "STATS");
        assert!(stats.starts_with("STATS entries=1 "), "{stats}");
        assert!(stats.ends_with("panics=0"), "{stats}");
        assert_eq!(
            ask(&mut conn, &mut reader, "SWEEP bogus"),
            "ERR - bad cell \"bogus\": expected <workload>/<config>"
        );
        assert_eq!(ask(&mut conn, &mut reader, "SHUTDOWN"), "BYE");
        acceptor.join().unwrap().unwrap();
        assert!(!sock.exists(), "socket file removed on shutdown");
        assert_eq!(backend.calls.load(Ordering::SeqCst), 1);
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the coalescing race: a request that misses the
    /// lock-free cache probe, then loses the CPU while the worker inserts
    /// the record and removes the in-flight entry, must hit the cache in
    /// the under-lock re-check — not re-simulate.
    #[test]
    fn late_arrival_between_cache_insert_and_inflight_remove_is_a_hit() {
        let (dir, cache) = tmp_cache("race");
        let backend = Arc::new(FakeBackend::gated());
        let server = Arc::new(Server::new(backend.clone(), cache, ServerConfig::default()));
        let s = spec("ATAX", "Dy-FUSE");

        let a = {
            let server = server.clone();
            let s = s.clone();
            std::thread::spawn(move || server.resolve(&s))
        };
        backend.wait_for_started(1);
        // B probes the cache (miss — A has not finished), then parks
        // right before taking the in-flight lock.
        server.shared.fresh_pause.arm();
        let b = {
            let server = server.clone();
            let s = s.clone();
            std::thread::spawn(move || server.resolve(&s))
        };
        server.shared.fresh_pause.wait_reached();
        // Let A's simulation complete fully: cache inserted, slot
        // fulfilled, in-flight entry removed.
        backend.release();
        assert!(matches!(
            a.join().unwrap(),
            CellReply::Ok { cached: false, .. }
        ));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.inflight_len() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "in-flight entry never removed"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // Resume B exactly in the historical race window: empty in-flight
        // map, record only in the cache.
        server.shared.fresh_pause.release();
        let rb = b.join().unwrap();
        assert!(
            matches!(rb, CellReply::Ok { cached: true, .. }),
            "late arrival must be a cache hit, got {rb:?}"
        );
        assert_eq!(
            backend.calls.load(Ordering::SeqCst),
            1,
            "one simulation total across the forced interleaving"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for hung waiters: a panicking backend must yield `ERR`
    /// replies to every coalesced waiter and leave the (single) worker
    /// alive for later cells.
    #[test]
    fn panicking_backend_fulfills_waiters_and_keeps_pool_alive() {
        let (dir, cache) = tmp_cache("panic");
        let backend = Arc::new(FakeBackend::gated());
        let server = Arc::new(Server::new(
            backend.clone(),
            cache,
            ServerConfig {
                workers: 1,
                queue_capacity: 4,
            },
        ));
        let s = spec("PANIC", "Dy-FUSE");
        let a = {
            let server = server.clone();
            let s = s.clone();
            std::thread::spawn(move || server.resolve(&s))
        };
        backend.wait_for_started(1);
        let b = {
            let server = server.clone();
            let s = s.clone();
            std::thread::spawn(move || server.resolve(&s))
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.coalesced() == 0 {
            assert!(std::time::Instant::now() < deadline, "never coalesced");
            std::thread::sleep(Duration::from_millis(2));
        }
        backend.release();
        for handle in [a, b] {
            match handle.join().unwrap() {
                CellReply::Err { reason, .. } => {
                    assert!(reason.contains("panicked"), "{reason}");
                    assert!(reason.contains("injected backend panic"), "{reason}");
                }
                other => panic!("expected ERR reply, got {other:?}"),
            }
        }
        assert_eq!(server.panicked(), 1);
        // The worker fulfills the slot before removing the entry, so give
        // the removal a moment.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.inflight_len() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stale in-flight entry after panic"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The sole worker survived the panic and still simulates.
        let good = server.resolve(&spec("ATAX", "Dy-FUSE"));
        assert!(
            matches!(good, CellReply::Ok { cached: false, .. }),
            "worker pool dead after panic: {good:?}"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With one worker busy and the one-slot queue full, a shedding sweep
    /// returns `None` (the wire `BUSY`) instead of blocking; the shed
    /// work is retryable once the queue drains.
    #[test]
    fn full_queue_sheds_instead_of_blocking_the_handler() {
        let (dir, cache) = tmp_cache("shed");
        let backend = Arc::new(FakeBackend::gated());
        let server = Arc::new(Server::new(
            backend.clone(),
            cache,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
            },
        ));
        let a = {
            let server = server.clone();
            std::thread::spawn(move || server.resolve(&spec("HOLD", "Dy-FUSE")))
        };
        backend.wait_for_started(1);
        // Worker is parked in HOLD; B fills the queue's one slot, C must
        // shed the whole sweep.
        let shed = server.try_resolve_batch(&[spec("B", "Dy-FUSE"), spec("C", "Dy-FUSE")]);
        assert!(shed.is_none(), "full queue must shed, not block");
        backend.release();
        assert!(matches!(a.join().unwrap(), CellReply::Ok { .. }));
        // The retry succeeds once the queue drains: B was already begun
        // (in flight or cached by now), C is fresh. This loop is exactly
        // the client's BUSY-backoff behavior.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let retry = loop {
            if let Some(replies) =
                server.try_resolve_batch(&[spec("B", "Dy-FUSE"), spec("C", "Dy-FUSE")])
            {
                break replies;
            }
            assert!(std::time::Instant::now() < deadline, "queue never drained");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(retry.iter().all(|r| matches!(r, CellReply::Ok { .. })));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tcp_auth_accepts_the_right_token_and_rejects_the_wrong_one() {
        let (dir, cache) = tmp_cache("auth");
        let server = Arc::new(Server::new(
            Arc::new(FakeBackend::free()),
            cache,
            ServerConfig::default(),
        ));
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let opts = ServeOptions {
            auth_token: Some("s3cr3t".to_string()),
            ..ServeOptions::default()
        };
        let acceptor = {
            let server = server.clone();
            let opts = opts.clone();
            std::thread::spawn(move || server.serve(&listener, &opts))
        };
        // Right token: full round trip.
        let mut cfg = ClientConfig::new(endpoint.clone());
        cfg.auth_token = Some("s3cr3t".to_string());
        cfg.io_timeout = Duration::from_secs(10);
        assert_eq!(client::request(&cfg, "PING").unwrap(), vec!["PONG"]);
        let sweep = client::request(&cfg, "SWEEP ATAX/Dy-FUSE").unwrap();
        assert_eq!(sweep.last().unwrap(), "DONE hits=0 misses=1 errors=0");
        // Wrong token: fatal, no retries burned.
        let mut bad = cfg.clone();
        bad.auth_token = Some("wrong".to_string());
        let err = client::request(&bad, "PING").unwrap_err();
        assert!(err.contains("authentication rejected"), "{err}");
        // No token at all: first request is refused and the connection
        // closed.
        let mut raw = endpoint.connect(Duration::from_secs(10)).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        writeln!(raw, "SWEEP ATAX/Dy-FUSE").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR - authentication required");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        client::request(&cfg, "SHUTDOWN").unwrap();
        acceptor.join().unwrap().unwrap();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capped_line_reader_accepts_the_cap_and_refuses_one_byte_more() {
        let at_cap = "A".repeat(MAX_LINE_BYTES);
        let mut r = std::io::Cursor::new(format!("{at_cap}\nPING\r\n"));
        assert_eq!(read_capped_line(&mut r), LineRead::Line(at_cap));
        assert_eq!(read_capped_line(&mut r), LineRead::Line("PING".into()));
        assert_eq!(read_capped_line(&mut r), LineRead::Closed);
        let mut over = std::io::Cursor::new(vec![b'A'; MAX_LINE_BYTES + 1]);
        assert_eq!(read_capped_line(&mut over), LineRead::TooLong);
    }

    /// A peer that has not authenticated cannot grow the line buffer
    /// past the cap: one byte over it, with no newline, earns one `ERR`
    /// and a closed connection.
    #[test]
    fn overlong_line_before_auth_is_refused_and_closed() {
        let (dir, cache) = tmp_cache("longline");
        let server = Arc::new(Server::new(
            Arc::new(FakeBackend::free()),
            cache,
            ServerConfig::default(),
        ));
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let opts = ServeOptions {
            auth_token: Some("s3cr3t".to_string()),
            ..ServeOptions::default()
        };
        let acceptor = {
            let server = server.clone();
            let opts = opts.clone();
            std::thread::spawn(move || server.serve(&listener, &opts))
        };
        let mut raw = endpoint.connect(Duration::from_secs(10)).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        raw.write_all(&vec![b'A'; MAX_LINE_BYTES + 1]).unwrap();
        raw.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "ERR - line too long");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        server.request_shutdown();
        acceptor.join().unwrap().unwrap();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer that connects and then goes quiet is evicted by the read
    /// deadline instead of pinning its handler thread.
    #[test]
    fn stalled_client_is_evicted_by_the_read_deadline() {
        let (dir, cache) = tmp_cache("stall");
        let server = Arc::new(Server::new(
            Arc::new(FakeBackend::free()),
            cache,
            ServerConfig::default(),
        ));
        let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let endpoint = listener.endpoint();
        let opts = ServeOptions {
            read_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        };
        let acceptor = {
            let server = server.clone();
            let opts = opts.clone();
            std::thread::spawn(move || server.serve(&listener, &opts))
        };
        let stalled = endpoint.connect(Duration::from_secs(10)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.active_connections() == 0 {
            assert!(std::time::Instant::now() < deadline, "never accepted");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Send nothing: the 100 ms read deadline must reap the handler.
        while server.active_connections() != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled connection never evicted"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(stalled);
        server.request_shutdown();
        acceptor.join().unwrap().unwrap();
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One server, two transports: a Unix and a TCP client sweeping the
    /// same cell concurrently coalesce onto exactly one simulation, and
    /// one SHUTDOWN stops both serve loops.
    #[test]
    fn unix_and_tcp_clients_share_one_simulation() {
        let (dir, cache) = tmp_cache("dual");
        let backend = Arc::new(FakeBackend::gated());
        let server = Arc::new(Server::new(backend.clone(), cache, ServerConfig::default()));
        let sock =
            std::env::temp_dir().join(format!("fuse_serve_dual_{}.sock", std::process::id()));
        let unix_listener = Listener::bind_unix(&sock).unwrap();
        let tcp_listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
        let unix_endpoint = unix_listener.endpoint();
        let tcp_endpoint = tcp_listener.endpoint();
        let opts = ServeOptions::default();
        let unix_acceptor = {
            let server = server.clone();
            let opts = opts.clone();
            std::thread::spawn(move || server.serve(&unix_listener, &opts))
        };
        let tcp_acceptor = {
            let server = server.clone();
            let opts = opts.clone();
            std::thread::spawn(move || server.serve(&tcp_listener, &opts))
        };
        let sweep = |endpoint: Endpoint| {
            std::thread::spawn(move || {
                let mut cfg = ClientConfig::new(endpoint);
                cfg.io_timeout = Duration::from_secs(30);
                client::request(&cfg, "SWEEP ATAX/Dy-FUSE").unwrap()
            })
        };
        let ua = sweep(unix_endpoint.clone());
        backend.wait_for_started(1);
        let ta = sweep(tcp_endpoint.clone());
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.coalesced() == 0 {
            assert!(std::time::Instant::now() < deadline, "never coalesced");
            std::thread::sleep(Duration::from_millis(2));
        }
        backend.release();
        for handle in [ua, ta] {
            let lines = handle.join().unwrap();
            assert!(
                lines.last().unwrap().ends_with("errors=0"),
                "sweep failed: {lines:?}"
            );
        }
        assert_eq!(
            backend.calls.load(Ordering::SeqCst),
            1,
            "both transports coalesced onto one simulation"
        );
        // One SHUTDOWN (over TCP) wakes and stops both serve loops.
        let cfg = ClientConfig::new(tcp_endpoint);
        assert_eq!(client::request(&cfg, "SHUTDOWN").unwrap(), vec!["BYE"]);
        unix_acceptor.join().unwrap().unwrap();
        tcp_acceptor.join().unwrap().unwrap();
        assert!(!sock.exists(), "socket file removed on shutdown");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
