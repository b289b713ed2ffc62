//! Timing wrappers around the simulator's public trait seams.
//!
//! Each wrapper forwards every trait method — the defaulted ones too —
//! to the wrapped object, so a traced run simulates exactly the program
//! an untraced one does. Keeping the default `next_event` would claim an
//! event every cycle and silently turn cycle skipping off around the L1;
//! not forwarding `as_any` would break the `FuseL1` downcast the runner
//! uses for `L1Metrics`.
//!
//! Hot methods are timed one call in [`SAMPLE`]; every call is counted.
//! Counters live in the wrapper and are flushed into a shared total when
//! it drops, so the simulated hot loop never touches a lock or an atomic.

use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use fuse::cache::line::LineAddr;
use fuse::cache::stats::CacheStats;
use fuse::gpu::l1d::{L1Access, L1Outcome, L1Response, L1dModel, OutgoingReq};
use fuse::gpu::warp::{WarpOp, WarpProgram};
use fuse::mem::energy::EnergyCounters;
use fuse::serve::proto::CellSpec;
use fuse::serve::{CellBackend, CellKey, CellRecord};

/// One call in `SAMPLE` is timed.
const SAMPLE: u64 = 16;

/// Host nanoseconds one `Instant::now()` costs, measured once: a sampled
/// call's duration includes one clock read.
fn clock_ns() -> f64 {
    static CLOCK_NS: OnceLock<f64> = OnceLock::new();
    *CLOCK_NS.get_or_init(|| {
        const READS: u32 = 100_000;
        let start = Instant::now();
        for _ in 0..READS {
            std::hint::black_box(Instant::now());
        }
        start.elapsed().as_nanos() as f64 / f64::from(READS)
    })
}

/// Call count plus sampled host time of one method.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timer {
    pub calls: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl Timer {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !self.calls.is_multiple_of(SAMPLE) {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.sampled_ns += start.elapsed().as_nanos() as u64;
        self.sampled += 1;
        r
    }

    /// Estimated host nanoseconds over all calls, net of the clock read
    /// each sample adds.
    pub fn est_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = self.sampled_ns as f64 / self.sampled as f64 - clock_ns();
        per_call.max(0.0) * self.calls as f64
    }

    fn add(&mut self, other: &Timer) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// L1 controller totals over every probed L1 of a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct L1Totals {
    pub access: Timer,
    pub tick: Timer,
    pub fill: Timer,
    pub drain: Timer,
    pub next_event: Timer,
    pub reserve_fails: u64,
}

impl L1Totals {
    fn add(&mut self, o: &L1Totals) {
        self.access.add(&o.access);
        self.tick.add(&o.tick);
        self.fill.add(&o.fill);
        self.drain.add(&o.drain);
        self.next_event.add(&o.next_event);
        self.reserve_fails += o.reserve_fails;
    }

    /// Estimated host nanoseconds inside the L1 model.
    pub fn total_ns(&self) -> f64 {
        self.access.est_ns()
            + self.tick.est_ns()
            + self.fill.est_ns()
            + self.drain.est_ns()
            + self.next_event.est_ns()
    }
}

/// Times an [`L1dModel`] built by `L1Preset::build_model`.
pub struct L1Probe {
    inner: Box<dyn L1dModel>,
    local: L1Totals,
    // `next_event` takes `&self`.
    next_event: Cell<Timer>,
    sink: Arc<Mutex<L1Totals>>,
}

impl L1Probe {
    pub fn wrap(inner: Box<dyn L1dModel>, sink: Arc<Mutex<L1Totals>>) -> Box<dyn L1dModel> {
        Box::new(L1Probe {
            inner,
            local: L1Totals::default(),
            next_event: Cell::new(Timer::default()),
            sink,
        })
    }
}

impl L1dModel for L1Probe {
    fn access(&mut self, now: u64, acc: L1Access) -> L1Outcome {
        let inner = &mut self.inner;
        let out = self.local.access.time(|| inner.access(now, acc));
        if out == L1Outcome::ReservationFail {
            self.local.reserve_fails += 1;
        }
        out
    }

    fn tick(&mut self, now: u64) {
        let inner = &mut self.inner;
        self.local.tick.time(|| inner.tick(now));
    }

    fn push_response(&mut self, now: u64, rsp: L1Response) {
        let inner = &mut self.inner;
        self.local.fill.time(|| inner.push_response(now, rsp));
    }

    fn drain_outgoing(&mut self, out: &mut Vec<OutgoingReq>) {
        let inner = &mut self.inner;
        self.local.drain.time(|| inner.drain_outgoing(out));
    }

    fn drain_completions(&mut self, out: &mut Vec<u16>) {
        let inner = &mut self.inner;
        self.local.drain.time(|| inner.drain_completions(out));
    }

    fn next_event(&self, now: u64) -> Option<u64> {
        let mut t = self.next_event.get();
        let r = t.time(|| self.inner.next_event(now));
        self.next_event.set(t);
        r
    }

    fn outstanding_misses(&self) -> usize {
        self.inner.outstanding_misses()
    }

    fn outstanding_lines(&self, out: &mut Vec<LineAddr>) {
        self.inner.outstanding_lines(out)
    }

    fn reset_in_flight(&mut self) {
        self.inner.reset_in_flight()
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.inner.energy()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

impl Drop for L1Probe {
    fn drop(&mut self) {
        self.local.next_event = self.next_event.get();
        if let Ok(mut total) = self.sink.lock() {
            total.add(&self.local);
        }
    }
}

/// Times a [`WarpProgram`] built by `WorkloadSpec::program`.
pub struct ProgramProbe {
    inner: Box<dyn WarpProgram>,
    next_op: Timer,
    sink: Arc<Mutex<Timer>>,
}

impl ProgramProbe {
    pub fn wrap(inner: Box<dyn WarpProgram>, sink: Arc<Mutex<Timer>>) -> Box<dyn WarpProgram> {
        Box::new(ProgramProbe {
            inner,
            next_op: Timer::default(),
            sink,
        })
    }
}

impl WarpProgram for ProgramProbe {
    fn next_op(&mut self) -> Option<WarpOp> {
        let inner = &mut self.inner;
        self.next_op.time(|| inner.next_op())
    }
}

impl Drop for ProgramProbe {
    fn drop(&mut self) {
        if let Ok(mut total) = self.sink.lock() {
            total.add(&self.next_op);
        }
    }
}

/// Times a [`CellBackend`] behind the server. Every call is timed: key
/// derivation and simulation cost microseconds to milliseconds, so the
/// clock reads are noise.
pub struct BackendProbe<B> {
    inner: B,
    pub key_calls: AtomicU64,
    pub key_ns: AtomicU64,
    pub simulate_calls: AtomicU64,
    pub simulate_ns: AtomicU64,
    pub queue_wait_ns: AtomicU64,
    /// When each cell's key was last derived; a miss's simulation starts
    /// after its key, the cache probe and the job queue.
    keyed_at: Mutex<HashMap<CellSpec, Instant>>,
    /// Every record the backend simulated.
    pub records: Mutex<Vec<CellRecord>>,
}

impl<B> BackendProbe<B> {
    pub fn new(inner: B) -> BackendProbe<B> {
        BackendProbe {
            inner,
            key_calls: AtomicU64::new(0),
            key_ns: AtomicU64::new(0),
            simulate_calls: AtomicU64::new(0),
            simulate_ns: AtomicU64::new(0),
            queue_wait_ns: AtomicU64::new(0),
            keyed_at: Mutex::new(HashMap::new()),
            records: Mutex::new(Vec::new()),
        }
    }
}

impl<B: CellBackend> CellBackend for BackendProbe<B> {
    fn key(&self, spec: &CellSpec) -> Result<CellKey, String> {
        let start = Instant::now();
        let key = self.inner.key(spec);
        self.key_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.key_calls.fetch_add(1, Ordering::Relaxed);
        self.keyed_at
            .lock()
            .expect("probe lock")
            .insert(spec.clone(), start);
        key
    }

    fn simulate(&self, spec: &CellSpec) -> Result<CellRecord, String> {
        let start = Instant::now();
        if let Some(keyed) = self.keyed_at.lock().expect("probe lock").get(spec) {
            self.queue_wait_ns.fetch_add(
                start.saturating_duration_since(*keyed).as_nanos() as u64,
                Ordering::Relaxed,
            );
        }
        let rec = self.inner.simulate(spec);
        self.simulate_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.simulate_calls.fetch_add(1, Ordering::Relaxed);
        if let Ok(r) = &rec {
            self.records.lock().expect("probe lock").push(r.clone());
        }
        rec
    }
}
