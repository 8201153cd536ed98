//! Two-tier backend: fast-tier acknowledgement, asynchronous drain to a
//! durable tier.
//!
//! Multi-level checkpointing (OpenCHK's per-level semantics, CRAFT's
//! node-local → PFS staging) writes every checkpoint byte twice: once to
//! a fast local tier that acknowledges immediately, and once — in the
//! background — to the slow durable tier the job actually survives on.
//! [`TieredBackend`] composes any two [`Backend`]s into that shape:
//!
//! - **Writes** land in the fast tier and ack as soon as it does. Each
//!   acknowledged range becomes a *drain op*: a fast→durable copy that
//!   the next barrier waits for.
//! - **At-ack copy**: once the durable tier is known to complete writes
//!   asynchronously (`RpcStore`), the write that acks a range also hands
//!   the caller's buffer — the engine's sealed chunk — straight to the
//!   file's cached durable handle through `begin_write_at`, which
//!   consumes it before returning. The range is reserved in flight
//!   *before* the fast write, so no other copy of an overlapping range
//!   can be in flight or queued alongside it. The copy retires on the
//!   durable tier's completion thread; no byte is read back.
//! - **Deferred drain**: every other op — a sync durable tier
//!   (Throttled, Local, Mem), a capability not yet learned, a range
//!   overlapping an in-flight or queued op on its file, or a full
//!   `drain_window` — goes to a FIFO queue. The drain pump copies queued
//!   ranges to the durable tier. It is not a thread pool: the pump runs
//!   on whatever thread is already making progress — the writer that
//!   enqueued the op, the durable tier's completion thread, or a caller
//!   blocked in [`drain_barrier`](Backend::drain_barrier). A CAS guard
//!   keeps exactly one pumper active; `drain_window` bounds the copies
//!   in flight, at-ack and deferred together. A deferred op re-reads
//!   the fast tier at issue time, so re-written ranges always drain the
//!   newest bytes, and two ops with overlapping ranges on one file are
//!   never in flight together (the only order that could leave the
//!   durable tier stale). The pump's first `begin_write_at` is how the
//!   stack learns whether the durable tier is async.
//! - **Watermark backpressure**: when undrained resident bytes reach
//!   `watermark_hi` the backend degrades to write-through — writes go
//!   to both tiers synchronously and ack at durable-tier speed — until
//!   the drain catches back down to `watermark_lo`. Full fast tiers
//!   slow down; they never block indefinitely. A write-through write
//!   waits out in-flight drain copies overlapping its range before its
//!   direct durable write, so a backed-up copy of older bytes can
//!   never land after it.
//! - **Durability contract**: acknowledgement means *fast-tier* placement
//!   only. Data is durable once a [`drain_barrier`](Backend::drain_barrier)
//!   after it returns `Ok`: the barrier drains the queue, syncs every
//!   durable file written since the previous barrier, and fails if any
//!   drain copy failed — which is how a crash mid-drain surfaces. After
//!   such a crash the fast tier holds the acknowledged prefix; the
//!   `crfs-fsck` tier-consistency pass re-drains what the durable tier
//!   is missing (see `fsck::run_tiered`).
//! - **Retention**: by default the fast tier retains everything (a full
//!   mirror, so reads always serve fast bytes). With
//!   [`TieredParams::evict_on_barrier`] the fast copy of fully-drained,
//!   closed files is dropped at the barrier; a later read miss promotes
//!   the file back from the durable tier (`tier_promote`).
//!
//! Observability rides the mount's stats block, attached by
//! `Crfs::mount` through [`Backend::attach_stats`]: `drain_copy`,
//! `drain_wait` and `tier_promote` stage histograms, plus `drain_copy` /
//! `tier_promote` / `write_failed` flight-recorder events.

use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{normalize_path, Backend, BackendFile, CompletionSink, OpenOptions};
use crate::obs::EventKind;
use crate::stats::CrfsStats;

/// Tuning knobs for [`TieredBackend`]. See
/// [`CrfsConfig`](crate::CrfsConfig) for the mount-level builders that
/// produce one.
#[derive(Debug, Clone, Copy)]
pub struct TieredParams {
    /// Undrained resident bytes at which writes degrade to synchronous
    /// write-through (both tiers, durable-speed acks).
    pub watermark_hi: u64,
    /// Resident bytes the drain must fall back to before fast-tier
    /// acknowledgement resumes.
    pub watermark_lo: u64,
    /// Maximum drain copies in flight to the durable tier.
    pub drain_window: usize,
    /// Promote whole files from the durable tier back into the fast
    /// tier when a read-only open misses fast (the re-read path after
    /// eviction or a fast-tier loss).
    pub promote_reads: bool,
    /// Drop the fast-tier copy of fully-drained, closed files at each
    /// successful `drain_barrier` (minimal fast-tier retention). Off by
    /// default: the fast tier keeps a full mirror.
    pub evict_on_barrier: bool,
}

impl Default for TieredParams {
    fn default() -> TieredParams {
        TieredParams {
            watermark_hi: 256 << 20,
            watermark_lo: 64 << 20,
            drain_window: 8,
            promote_reads: true,
            evict_on_barrier: false,
        }
    }
}

/// Point-in-time copy of the tier counters, embedded in `BENCH_tiered`
/// artifacts and decoded by `crfs-stat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Drain copies that reached the durable tier.
    pub drain_ops: u64,
    /// Payload bytes those copies moved.
    pub drain_bytes: u64,
    /// Drain copies that failed (durable-tier error). A barrier after a
    /// failure reports it instead of claiming durability.
    pub drain_failed: u64,
    /// Drain ops dropped because their fast-tier source vanished first
    /// (unlink/truncate raced the drain) — not an error.
    pub drain_dropped: u64,
    /// Writes that took the degraded synchronous write-through path.
    pub write_through_ops: u64,
    /// Whole-file promotions from the durable tier into the fast tier.
    pub tier_promotes: u64,
    /// Fast-tier copies evicted at a barrier.
    pub evictions: u64,
    /// `drain_barrier` calls.
    pub barrier_waits: u64,
    /// Undrained bytes resident in the fast tier right now.
    pub resident_bytes: u64,
}

impl TierCounters {
    /// Every counter by its stable snake_case name — the JSON keys under
    /// the artifact's `"tier"` object and the `crfs-stat` row labels.
    pub fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("drain_ops", self.drain_ops),
            ("drain_bytes", self.drain_bytes),
            ("drain_failed", self.drain_failed),
            ("drain_dropped", self.drain_dropped),
            ("write_through_ops", self.write_through_ops),
            ("tier_promotes", self.tier_promotes),
            ("evictions", self.evictions),
            ("barrier_waits", self.barrier_waits),
            ("resident_bytes", self.resident_bytes),
        ]
    }

    /// The counters as a JSON object (the `"tier"` block of bench
    /// artifacts).
    pub fn to_value(&self) -> serde_json::Value {
        let pairs: Vec<(String, serde_json::Value)> = self
            .named()
            .into_iter()
            .map(|(name, v)| (name.to_string(), serde_json::json!(v)))
            .collect();
        serde_json::Value::Object(pairs)
    }
}

/// One deferred fast→durable copy. The payload is *not* captured here:
/// the pump re-reads the fast tier at issue time, so the newest bytes
/// for the range always win.
struct DrainOp {
    path: String,
    offset: u64,
    len: u64,
}

fn overlaps(a_off: u64, a_len: u64, b_off: u64, b_len: u64) -> bool {
    a_off < b_off + b_len && b_off < a_off + a_len
}

/// Suffix marker of in-progress promotion staging files. They live in
/// the fast-tier namespace next to their target (`{target}.promote-N`)
/// but never hold user-visible data: `TieredBackend::list_dir` hides
/// them, and the `crfs-fsck` tier pass sweeps leftovers from a crash
/// mid-promotion instead of flagging them stranded and re-draining the
/// partial copy.
pub(crate) const PROMOTE_TMP_MARKER: &str = ".promote-";

/// True for `{target}.promote-N` staging names (path or basename); see
/// [`PROMOTE_TMP_MARKER`].
pub(crate) fn is_promote_tmp(name: &str) -> bool {
    name.rfind(PROMOTE_TMP_MARKER).is_some_and(|i| {
        let digits = &name[i + PROMOTE_TMP_MARKER.len()..];
        !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
    })
}

#[derive(Default)]
struct Queue {
    ops: VecDeque<DrainOp>,
    /// Ranges currently copying to the durable tier, per path. An op
    /// overlapping an in-flight range on its own file is never issued —
    /// the one ordering that could complete a stale copy last.
    inflight: HashMap<String, Vec<(u64, u64)>>,
    inflight_total: usize,
}

impl Queue {
    fn inflight_overlaps(&self, path: &str, offset: u64, len: u64) -> bool {
        self.inflight
            .get(path)
            .is_some_and(|rs| rs.iter().any(|&(o, l)| overlaps(o, l, offset, len)))
    }

    fn reserve(&mut self, path: &str, offset: u64, len: u64) {
        self.inflight
            .entry(path.to_string())
            .or_default()
            .push((offset, len));
        self.inflight_total += 1;
    }

    /// Index of the first queued op that may be issued now.
    fn next_issuable(&self, window: usize) -> Option<usize> {
        if self.inflight_total >= window {
            return None;
        }
        self.ops
            .iter()
            .position(|op| !self.inflight_overlaps(&op.path, op.offset, op.len))
    }

    fn issuable(&mut self, window: usize) -> Option<DrainOp> {
        let idx = self.next_issuable(window)?;
        let op = self.ops.remove(idx).expect("index in range");
        self.reserve(&op.path, op.offset, op.len);
        Some(op)
    }

    /// Reserves `[offset, offset+len)` for an at-ack copy: only with
    /// window room and no in-flight *or queued* op on `path` overlapping
    /// the range. A queued op would re-read bytes this copy may still
    /// be overwriting, and must keep its place ahead of it.
    fn try_reserve(&mut self, window: usize, path: &str, offset: u64, len: u64) -> bool {
        if self.inflight_total >= window
            || self.inflight_overlaps(path, offset, len)
            || self
                .ops
                .iter()
                .any(|op| op.path == path && overlaps(op.offset, op.len, offset, len))
        {
            return false;
        }
        self.reserve(path, offset, len);
        true
    }

    fn retire(&mut self, path: &str, offset: u64, len: u64) {
        if let Some(rs) = self.inflight.get_mut(path) {
            if let Some(i) = rs.iter().position(|&r| r == (offset, len)) {
                rs.swap_remove(i);
            }
            if rs.is_empty() {
                self.inflight.remove(path);
            }
        }
        self.inflight_total -= 1;
    }

    fn path_in_flight(&self, path: &str) -> bool {
        self.inflight.contains_key(path)
    }

    fn path_queued(&self, path: &str) -> bool {
        self.ops.iter().any(|op| op.path == path)
    }
}

#[derive(Default)]
struct Counters {
    drain_ops: AtomicU64,
    drain_bytes: AtomicU64,
    drain_failed: AtomicU64,
    drain_dropped: AtomicU64,
    write_through_ops: AtomicU64,
    tier_promotes: AtomicU64,
    evictions: AtomicU64,
    barrier_waits: AtomicU64,
}

/// How one drain op ended.
enum Outcome {
    Copied,
    Dropped,
    Failed,
    /// An at-ack reservation whose fast write failed: nothing was
    /// acknowledged, so there is nothing to drain or count.
    Unacked,
}

/// What the durable tier's `begin_write_at` last answered; see
/// [`Shared::durable_async`]. `CAP_PROBING`: unknown, and one deferred
/// op is on its way to asking.
const CAP_UNKNOWN: u8 = 0;
const CAP_PROBING: u8 = 1;
const CAP_SYNC: u8 = 2;
const CAP_ASYNC: u8 = 3;

/// How long a write waits for the probing op's answer before it gives
/// up and defers.
const PROBE_WAIT: Duration = Duration::from_millis(20);

struct Shared {
    fast: Arc<dyn Backend>,
    durable: Arc<dyn Backend>,
    params: TieredParams,
    queue: Mutex<Queue>,
    cv: Condvar,
    /// Bytes acknowledged fast but not yet copied to the durable tier.
    resident: AtomicU64,
    /// Degraded mode: the fast tier is over `watermark_hi`.
    write_through: AtomicBool,
    /// Single-pumper CAS guard.
    pumping: AtomicBool,
    /// Whether the durable tier completes writes asynchronously
    /// (`CAP_*`), as its last `begin_write_at` answered. Writes copy at
    /// ack time only once it is `CAP_ASYNC`. The first write on a fresh
    /// stack is deferred and its drain copy asks; see
    /// [`Shared::durable_is_async`].
    durable_async: AtomicU8,
    /// Drain copies that failed since the last barrier; a non-zero
    /// count fails the barrier instead of claiming durability.
    failed_since_barrier: AtomicU64,
    /// Durable paths written since the last barrier's sync sweep.
    dirty: Mutex<BTreeSet<String>>,
    /// Open write handles per path — eviction skips files still open.
    writers: Mutex<HashMap<String, usize>>,
    next_token: AtomicU64,
    stats: Mutex<Option<Arc<CrfsStats>>>,
    c: Counters,
}

impl Shared {
    fn stats(&self) -> Option<Arc<CrfsStats>> {
        self.stats.lock().clone()
    }

    fn stage_timer(&self) -> Option<Instant> {
        self.stats().and_then(|s| s.stages.timer())
    }

    /// Counts `len` acknowledged bytes as resident until drained, and
    /// trips write-through at the high watermark.
    fn add_resident(&self, len: u64) {
        let now = self.resident.fetch_add(len, Relaxed) + len;
        if now >= self.params.watermark_hi {
            self.write_through.store(true, Relaxed);
        }
    }

    /// Reserves an at-ack copy of `[offset, offset+len)` on `path`, if
    /// the durable tier is known async and the range can go in flight
    /// now (see [`Queue::try_reserve`]). On `true` the caller owns one
    /// drain op: it must retire it through [`Shared::copy`] or
    /// [`Shared::complete_op`].
    fn reserve_at_ack(&self, path: &str, offset: u64, len: u64) -> bool {
        if !self.durable_is_async()
            || !self
                .queue
                .lock()
                .try_reserve(self.params.drain_window, path, offset, len)
        {
            return false;
        }
        self.add_resident(len);
        true
    }

    /// Whether a write about to ack may copy at ack time. While the
    /// capability is unknown, the first caller claims the probe and
    /// returns `false` (its op is deferred, and the pump's copy of it
    /// asks the durable tier); callers racing the probe wait up to
    /// [`PROBE_WAIT`] for the answer instead of deferring too — on a
    /// fresh stack the probe is a few milliseconds, long enough for
    /// every IO worker to seal a chunk.
    fn durable_is_async(&self) -> bool {
        let deadline = Instant::now() + PROBE_WAIT;
        loop {
            match self.durable_async.load(Relaxed) {
                CAP_ASYNC => return true,
                CAP_SYNC => return false,
                CAP_UNKNOWN => {
                    if self
                        .durable_async
                        .compare_exchange(CAP_UNKNOWN, CAP_PROBING, Relaxed, Relaxed)
                        .is_ok()
                    {
                        return false;
                    }
                }
                _ => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let mut q = self.queue.lock();
                    if self.durable_async.load(Relaxed) == CAP_PROBING
                        && (left.is_zero() || self.cv.wait_for(&mut q, left))
                    {
                        return false;
                    }
                }
            }
        }
    }

    /// Records the durable tier's answer — `Some(async)` — or, for an
    /// op that retired without asking, `None`: a pending probe is then
    /// released for the next write to claim.
    fn learn(&self, answer: Option<bool>) {
        let prev = match answer {
            Some(true) => self.durable_async.swap(CAP_ASYNC, Relaxed),
            Some(false) => self.durable_async.swap(CAP_SYNC, Relaxed),
            None => self
                .durable_async
                .compare_exchange(CAP_PROBING, CAP_UNKNOWN, Relaxed, Relaxed)
                .unwrap_or(CAP_UNKNOWN),
        };
        if prev == CAP_PROBING {
            let _q = self.queue.lock();
            self.cv.notify_all();
        }
    }

    fn enqueue(self: &Arc<Self>, path: &str, offset: u64, len: usize) {
        self.add_resident(len as u64);
        self.queue.lock().ops.push_back(DrainOp {
            path: path.to_string(),
            offset,
            len: len as u64,
        });
        self.pump();
    }

    /// Issues queued drain ops until none can go in flight. Exactly one
    /// thread pumps at a time; everyone else returns immediately, and
    /// the post-release re-check closes the window where an op becomes
    /// issuable between "none issuable" and the flag store. An op held
    /// back by an overlapping in-flight copy is not issuable: that
    /// copy's completion pumps again.
    fn pump(self: &Arc<Self>) {
        loop {
            if self.pumping.swap(true, Relaxed) {
                return;
            }
            loop {
                let op = {
                    let mut q = self.queue.lock();
                    match q.issuable(self.params.drain_window) {
                        Some(op) => op,
                        None => break,
                    }
                };
                self.issue(op);
            }
            self.pumping.store(false, Relaxed);
            let again = self
                .queue
                .lock()
                .next_issuable(self.params.drain_window)
                .is_some();
            if !again {
                return;
            }
        }
    }

    /// Reads the op's current fast-tier bytes. `Ok(None)` means the
    /// source genuinely vanished (unlinked, or truncated below the
    /// range, since the ack) and the op should be dropped. Any other
    /// IO error is *not* a vanished source: it propagates as `Err` so
    /// the copy counts as failed and the next barrier reports the loss
    /// instead of silently claiming durability.
    fn read_fast(&self, op: &DrainOp) -> io::Result<Option<Vec<u8>>> {
        let f = match self.fast.open(&op.path, OpenOptions::read_only()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut buf = vec![0u8; op.len as usize];
        let mut got = 0usize;
        while got < buf.len() {
            match f.read_at(op.offset + got as u64, &mut buf[got..]) {
                Ok(0) => return Ok(None), // truncated under the op
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(Some(buf))
    }

    fn open_durable(&self, path: &str) -> io::Result<Box<dyn BackendFile>> {
        self.durable.open(
            path,
            OpenOptions {
                read: true,
                write: true,
                create: true,
                truncate: false,
            },
        )
    }

    /// Issues one deferred op: re-reads its range from the fast tier,
    /// then copies it. The durable file is opened only once the source
    /// bytes are in hand, so a dropped or failed re-read never creates
    /// it.
    fn issue(self: &Arc<Self>, op: DrainOp) {
        let t0 = self.stage_timer();
        let outcome = match self.read_fast(&op) {
            Ok(Some(data)) => match self.open_durable(&op.path) {
                Ok(dfile) => {
                    self.copy(Arc::from(dfile), &op.path, op.offset, &data, t0);
                    return;
                }
                Err(_) => Outcome::Failed,
            },
            Ok(None) => Outcome::Dropped,
            Err(_) => Outcome::Failed,
        };
        self.learn(None);
        self.complete_op(&op.path, op.offset, op.len, t0, outcome);
    }

    /// Copies `data` — one reserved drain op's bytes — to `dfile` at
    /// `offset`, and retires the op when the durable tier has them: on
    /// its completion thread if it took the asynchronous path, here
    /// otherwise. Records which path the durable tier took, which is
    /// what lets later writes copy at ack time. A completion delivered
    /// inside `begin_write_at` (`ThrottledBackend` charges the device
    /// time, then acks inline) counts as sync: an at-ack copy there
    /// would hold the writer for the durable write.
    fn copy(
        self: &Arc<Self>,
        dfile: Arc<dyn BackendFile>,
        path: &str,
        offset: u64,
        data: &[u8],
        t0: Option<Instant>,
    ) {
        let len = data.len() as u64;
        self.dirty.lock().insert(path.to_string());
        let token = self.next_token.fetch_add(1, Relaxed);
        let sink = Arc::new(DrainSink {
            shared: Arc::clone(self),
            path: path.to_string(),
            offset,
            len,
            t0,
            acked: AtomicBool::new(false),
            _file: Arc::clone(&dfile),
        });
        let dyn_sink: Arc<dyn CompletionSink> = Arc::clone(&sink) as Arc<dyn CompletionSink>;
        match dfile.begin_write_at(token, offset, data, &dyn_sink) {
            Ok(true) => self.learn(Some(!sink.acked.load(Relaxed))),
            Ok(false) => {
                self.learn(Some(false));
                let outcome = match dfile.write_at(offset, data) {
                    Ok(()) => Outcome::Copied,
                    Err(_) => Outcome::Failed,
                };
                self.complete_op(path, offset, len, t0, outcome);
            }
            Err(_) => {
                self.learn(None);
                self.complete_op(path, offset, len, t0, Outcome::Failed);
            }
        }
    }

    /// Retires one drain op (any outcome), updates watermark state, and
    /// keeps the pump moving — on an async durable tier this runs on
    /// its completion thread, which is what makes the drain
    /// self-sustaining without a private thread pool.
    fn complete_op(
        self: &Arc<Self>,
        path: &str,
        offset: u64,
        len: u64,
        t0: Option<Instant>,
        outcome: Outcome,
    ) {
        let now = self.resident.fetch_sub(len, Relaxed) - len;
        if now <= self.params.watermark_lo && self.write_through.load(Relaxed) {
            self.write_through.store(false, Relaxed);
        }
        match outcome {
            Outcome::Copied => {
                self.c.drain_ops.fetch_add(1, Relaxed);
                self.c.drain_bytes.fetch_add(len, Relaxed);
                if let Some(s) = self.stats() {
                    if let Some(t0) = t0 {
                        s.stages.drain_copy.record_dur(t0.elapsed());
                    }
                    s.flight
                        .record(EventKind::DrainCopy, Some(path), offset, len);
                }
            }
            Outcome::Dropped => {
                self.c.drain_dropped.fetch_add(1, Relaxed);
            }
            Outcome::Failed => {
                self.c.drain_failed.fetch_add(1, Relaxed);
                self.failed_since_barrier.fetch_add(1, Relaxed);
                if let Some(s) = self.stats() {
                    s.flight
                        .record(EventKind::WriteFailed, Some(path), offset, len);
                }
            }
            Outcome::Unacked => {}
        }
        {
            let mut q = self.queue.lock();
            q.retire(path, offset, len);
            self.cv.notify_all();
        }
        self.pump();
    }

    /// Drains the queue to empty, syncs every durable file written
    /// since the last barrier, and reports any drain failure instead of
    /// claiming durability. The wait is timeout-looped: a pending async
    /// ack always lands, so the barrier always terminates.
    fn barrier(self: &Arc<Self>) -> io::Result<()> {
        self.c.barrier_waits.fetch_add(1, Relaxed);
        let t0 = self.stage_timer();
        loop {
            self.pump();
            let mut q = self.queue.lock();
            if q.ops.is_empty() && q.inflight_total == 0 {
                break;
            }
            self.cv.wait_for(&mut q, Duration::from_millis(20));
        }
        let dirty: Vec<String> = std::mem::take(&mut *self.dirty.lock())
            .into_iter()
            .collect();
        let mut first_err: Option<io::Error> = None;
        for path in &dirty {
            match self.durable.open(path, OpenOptions::read_write()) {
                Ok(f) => {
                    if let Err(e) = f.sync() {
                        first_err.get_or_insert(e);
                    }
                }
                // Unlinked or renamed since it was drained: nothing left
                // to make durable under this name.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        // A lost drain copy is the root-cause diagnosis; sync errors on
        // a dead durable tier are its symptoms, so check it first.
        let lost = self.failed_since_barrier.swap(0, Relaxed);
        if lost > 0 {
            return Err(io::Error::other(format!(
                "tiered drain: {lost} copies failed to reach the durable tier \
                 (fast-tier data retained; run the fsck tier pass to re-drain)"
            )));
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        if self.params.evict_on_barrier {
            self.evict(&dirty);
        }
        if let (Some(s), Some(t0)) = (self.stats(), t0) {
            s.stages.drain_wait.record_dur(t0.elapsed());
        }
        Ok(())
    }

    /// Drops the fast-tier copy of fully-drained files that are closed
    /// and have nothing queued or in flight — the only state where the
    /// fast bytes are provably redundant.
    fn evict(&self, paths: &[String]) {
        for path in paths {
            let open_writers = self.writers.lock().get(path).copied().unwrap_or(0);
            if open_writers > 0 {
                continue;
            }
            {
                let q = self.queue.lock();
                if q.path_queued(path) || q.path_in_flight(path) {
                    continue;
                }
            }
            if self.fast.unlink(path).is_ok() {
                self.c.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Removes every queued op for `path` and waits out its in-flight
    /// copies — called before unlink/truncate/rename so a late copy
    /// cannot resurrect or corrupt the durable file.
    fn flush_path(self: &Arc<Self>, path: &str) {
        let mut purged = 0u64;
        let mut purged_ops = 0u64;
        let mut q = self.queue.lock();
        q.ops.retain(|op| {
            if op.path == path {
                purged += op.len;
                purged_ops += 1;
                false
            } else {
                true
            }
        });
        while q.path_in_flight(path) {
            self.cv.wait_for(&mut q, Duration::from_millis(20));
        }
        drop(q);
        if purged > 0 {
            let now = self.resident.fetch_sub(purged, Relaxed) - purged;
            self.c.drain_dropped.fetch_add(purged_ops, Relaxed);
            if now <= self.params.watermark_lo && self.write_through.load(Relaxed) {
                self.write_through.store(false, Relaxed);
            }
            self.cv.notify_all();
        }
    }

    /// Waits out in-flight drain copies overlapping `[offset,
    /// offset+len)` on `path`. The write-through path calls this after
    /// its fast write and before its direct durable write: an in-flight
    /// copy holds bytes from *before* this write and could otherwise
    /// land on the durable tier after the newer direct write, leaving it
    /// stale past a successful barrier. Queued-but-unissued ops are
    /// safe — they re-read the fast tier (which already holds the new
    /// bytes) at issue time.
    fn wait_range(self: &Arc<Self>, path: &str, offset: u64, len: u64) {
        let mut q = self.queue.lock();
        while q.inflight_overlaps(path, offset, len) {
            self.cv.wait_for(&mut q, Duration::from_millis(20));
        }
    }

    /// Prepares the drain queue for a resize of `path` to `new_len`:
    /// waits out in-flight copies (a late completion could extend the
    /// durable file past the new length), then *clamps* queued ops to
    /// `[0, new_len)` instead of purging them — acknowledged bytes that
    /// survive the resize still have to reach the durable tier, or the
    /// next barrier would claim durability for data it dropped.
    fn truncate_path(self: &Arc<Self>, path: &str, new_len: u64) {
        let mut q = self.queue.lock();
        while q.path_in_flight(path) {
            self.cv.wait_for(&mut q, Duration::from_millis(20));
        }
        let mut cut = 0u64;
        let mut dropped_ops = 0u64;
        q.ops.retain_mut(|op| {
            if op.path != path {
                return true;
            }
            if op.offset >= new_len {
                cut += op.len;
                dropped_ops += 1;
                return false;
            }
            if op.offset + op.len > new_len {
                cut += op.offset + op.len - new_len;
                op.len = new_len - op.offset;
            }
            true
        });
        drop(q);
        if cut > 0 {
            let now = self.resident.fetch_sub(cut, Relaxed) - cut;
            self.c.drain_dropped.fetch_add(dropped_ops, Relaxed);
            if now <= self.params.watermark_lo && self.write_through.load(Relaxed) {
                self.write_through.store(false, Relaxed);
            }
            self.cv.notify_all();
        }
    }

    fn register_writer(&self, path: &str) {
        *self.writers.lock().entry(path.to_string()).or_insert(0) += 1;
    }

    fn unregister_writer(&self, path: &str) {
        let mut w = self.writers.lock();
        if let Some(n) = w.get_mut(path) {
            *n -= 1;
            if *n == 0 {
                w.remove(path);
            }
        }
    }
}

/// Internal completion sink for one drain copy issued on the durable
/// tier's asynchronous path.
struct DrainSink {
    shared: Arc<Shared>,
    path: String,
    offset: u64,
    len: u64,
    t0: Option<Instant>,
    /// Set once the completion fired; read back by [`Shared::copy`]
    /// right after `begin_write_at` returns. `Relaxed` suffices: an
    /// inline completion ran on that same thread, and a completion on
    /// another thread that is not seen yet is rightly taken as async.
    acked: AtomicBool,
    /// Keeps the durable file handle alive until the ack fires.
    _file: Arc<dyn BackendFile>,
}

impl CompletionSink for DrainSink {
    fn complete(&self, _token: u64, result: io::Result<()>) {
        self.acked.store(true, Relaxed);
        let outcome = if result.is_ok() {
            Outcome::Copied
        } else {
            Outcome::Failed
        };
        self.shared
            .complete_op(&self.path, self.offset, self.len, self.t0, outcome);
    }
}

/// Wraps the engine's completion sink on an async-capable *fast* tier:
/// the drain op must not enqueue until the fast tier has actually
/// landed the bytes it will re-read.
struct TierWriteSink {
    shared: Arc<Shared>,
    path: String,
    offset: u64,
    len: usize,
    inner: Arc<dyn CompletionSink>,
}

impl CompletionSink for TierWriteSink {
    fn complete(&self, token: u64, result: io::Result<()>) {
        if result.is_ok() {
            self.shared.enqueue(&self.path, self.offset, self.len);
        }
        self.inner.complete(token, result);
    }
}

/// A two-tier [`Backend`]: fast-tier acks, background drain to the
/// durable tier. See the module docs for the contract.
pub struct TieredBackend {
    shared: Arc<Shared>,
}

impl TieredBackend {
    /// Stacks `fast` over `durable` with the given knobs.
    pub fn new(
        fast: Arc<dyn Backend>,
        durable: Arc<dyn Backend>,
        params: TieredParams,
    ) -> TieredBackend {
        assert!(
            params.watermark_lo <= params.watermark_hi,
            "watermark_lo must not exceed watermark_hi"
        );
        assert!(params.drain_window >= 1, "drain_window must be >= 1");
        TieredBackend {
            shared: Arc::new(Shared {
                fast,
                durable,
                params,
                queue: Mutex::new(Queue::default()),
                cv: Condvar::new(),
                resident: AtomicU64::new(0),
                write_through: AtomicBool::new(false),
                pumping: AtomicBool::new(false),
                durable_async: AtomicU8::new(CAP_UNKNOWN),
                failed_since_barrier: AtomicU64::new(0),
                dirty: Mutex::new(BTreeSet::new()),
                writers: Mutex::new(HashMap::new()),
                next_token: AtomicU64::new(1),
                stats: Mutex::new(None),
                c: Counters::default(),
            }),
        }
    }

    /// Stacks `fast` over `durable` with the mount config's tier knobs
    /// (`tier_watermark_lo/hi`, `tier_drain_window`,
    /// `tier_promote_reads`, `tier_evict`).
    pub fn from_config(
        fast: Arc<dyn Backend>,
        durable: Arc<dyn Backend>,
        config: &crate::CrfsConfig,
    ) -> TieredBackend {
        TieredBackend::new(fast, durable, config.tiered_params())
    }

    /// The fast tier.
    pub fn fast(&self) -> &Arc<dyn Backend> {
        &self.shared.fast
    }

    /// The durable tier.
    pub fn durable(&self) -> &Arc<dyn Backend> {
        &self.shared.durable
    }

    /// The knobs this stack was built with.
    pub fn params(&self) -> &TieredParams {
        &self.shared.params
    }

    /// Undrained bytes resident in the fast tier.
    pub fn resident_bytes(&self) -> u64 {
        self.shared.resident.load(Relaxed)
    }

    /// Whether writes are currently degraded to write-through.
    pub fn write_through_active(&self) -> bool {
        self.shared.write_through.load(Relaxed)
    }

    /// Snapshot of the tier counters.
    pub fn tier_counters(&self) -> TierCounters {
        let c = &self.shared.c;
        TierCounters {
            drain_ops: c.drain_ops.load(Relaxed),
            drain_bytes: c.drain_bytes.load(Relaxed),
            drain_failed: c.drain_failed.load(Relaxed),
            drain_dropped: c.drain_dropped.load(Relaxed),
            write_through_ops: c.write_through_ops.load(Relaxed),
            tier_promotes: c.tier_promotes.load(Relaxed),
            evictions: c.evictions.load(Relaxed),
            barrier_waits: c.barrier_waits.load(Relaxed),
            resident_bytes: self.shared.resident.load(Relaxed),
        }
    }

    /// Copies the whole durable file into the fast tier (read-miss
    /// promotion). On any failure the partial fast copy is removed so
    /// the fast tier never holds bytes the drain didn't put there.
    fn promote(&self, path: &str) -> io::Result<()> {
        let t0 = self.shared.stage_timer();
        let src = self.shared.durable.open(path, OpenOptions::read_only())?;
        let total = src.len()?;
        // Stage the copy under a unique temp name and rename it into
        // place: a concurrent reader must only ever observe the final
        // path absent or complete, never a half-promoted prefix, and
        // racing promoters each publish a whole file (last one wins).
        static PROMOTE_NONCE: AtomicU64 = AtomicU64::new(0);
        let tmp = format!(
            "{path}{PROMOTE_TMP_MARKER}{}",
            PROMOTE_NONCE.fetch_add(1, Relaxed)
        );
        let copy = || -> io::Result<()> {
            let dst = self
                .shared
                .fast
                .open(&tmp, OpenOptions::create_truncate())?;
            let mut buf = vec![0u8; 1 << 20];
            let mut off = 0u64;
            while off < total {
                let want = buf.len().min((total - off) as usize);
                let got = src.read_at(off, &mut buf[..want])?;
                if got == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "durable tier shrank mid-promotion",
                    ));
                }
                dst.write_at(off, &buf[..got])?;
                off += got as u64;
            }
            drop(dst);
            self.shared.fast.rename(&tmp, path)
        };
        if let Err(e) = copy() {
            let _ = self.shared.fast.unlink(&tmp);
            return Err(e);
        }
        self.shared.c.tier_promotes.fetch_add(1, Relaxed);
        if let Some(s) = self.shared.stats() {
            if let Some(t0) = t0 {
                s.stages.tier_promote.record_dur(t0.elapsed());
            }
            s.flight
                .record(EventKind::TierPromote, Some(path), total, 0);
        }
        Ok(())
    }
}

impl Backend for TieredBackend {
    fn name(&self) -> &str {
        "tiered"
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let path = normalize_path(path)?;
        if opts.write {
            if opts.truncate && self.shared.durable.exists(&path) {
                // Truncation must not race in-flight drains of the old
                // bytes, and the stale durable copy must shrink with the
                // fast one — a durable-only restart may not see bytes
                // the fast tier no longer has.
                self.shared.flush_path(&path);
                let f = self
                    .shared
                    .durable
                    .open(&path, OpenOptions::create_truncate())?;
                drop(f);
                self.shared.dirty.lock().insert(path.clone());
            } else if !self.shared.fast.exists(&path) && self.shared.durable.exists(&path) {
                // The fast copy was evicted (or lost) but the file
                // exists durable: a non-truncating write open must see
                // those contents. Without promotion, create=false would
                // fail NotFound and create=true would shadow the
                // durable copy with a fresh empty fast file.
                self.promote(&path)?;
            }
            let fast = self.shared.fast.open(&path, opts)?;
            self.shared.register_writer(&path);
            return Ok(Box::new(TieredFile {
                path,
                shared: Arc::clone(&self.shared),
                fast: Some(fast),
                durable: Mutex::new(None),
                writer: true,
            }));
        }
        // Read-only: serve the fast tier when it has the file (it is a
        // superset of the durable tier for any file it holds), fall back
        // to the durable tier — optionally promoting the file back into
        // fast first.
        match self.shared.fast.open(&path, opts) {
            Ok(fast) => Ok(Box::new(TieredFile {
                path,
                shared: Arc::clone(&self.shared),
                fast: Some(fast),
                durable: Mutex::new(None),
                writer: false,
            })),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                if self.shared.params.promote_reads && self.promote(&path).is_ok() {
                    let fast = self.shared.fast.open(&path, opts)?;
                    return Ok(Box::new(TieredFile {
                        path,
                        shared: Arc::clone(&self.shared),
                        fast: Some(fast),
                        durable: Mutex::new(None),
                        writer: false,
                    }));
                }
                let durable = self.shared.durable.open(&path, opts)?;
                Ok(Box::new(TieredFile {
                    path,
                    shared: Arc::clone(&self.shared),
                    fast: None,
                    durable: Mutex::new(Some(Arc::from(durable))),
                    writer: false,
                }))
            }
            Err(e) => Err(e),
        }
    }

    fn mkdir(&self, path: &str) -> io::Result<()> {
        self.shared.fast.mkdir(path)?;
        match self.shared.durable.mkdir(path) {
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => Ok(()),
            other => other,
        }
    }

    fn rmdir(&self, path: &str) -> io::Result<()> {
        match self.shared.fast.rmdir(path) {
            Ok(()) => match self.shared.durable.rmdir(path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                other => other,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.shared.durable.rmdir(path),
            Err(e) => Err(e),
        }
    }

    fn unlink(&self, path: &str) -> io::Result<()> {
        let path = normalize_path(path)?;
        self.shared.flush_path(&path);
        self.shared.dirty.lock().remove(&path);
        let fast = self.shared.fast.unlink(&path);
        let durable = self.shared.durable.unlink(&path);
        match (fast, durable) {
            (Err(ef), Err(ed))
                if ef.kind() == io::ErrorKind::NotFound && ed.kind() == io::ErrorKind::NotFound =>
            {
                Err(ef)
            }
            (Err(ef), Err(_)) => Err(ef),
            _ => Ok(()),
        }
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let from = normalize_path(from)?;
        let to = normalize_path(to)?;
        {
            // Redirect queued drains to the new name and wait out
            // in-flight copies, so a late completion cannot land under
            // the old one. Re-run the redirect each wakeup: an op could
            // be requeued while we waited.
            let mut q = self.queue_guard();
            loop {
                for op in q.ops.iter_mut() {
                    if op.path == from {
                        op.path = to.clone();
                    }
                }
                if !q.path_in_flight(&from) {
                    break;
                }
                self.shared.cv.wait_for(&mut q, Duration::from_millis(20));
            }
        }
        {
            let mut d = self.shared.dirty.lock();
            if d.remove(&from) {
                d.insert(to.clone());
            }
        }
        let fast_had = self.shared.fast.exists(&from);
        if fast_had {
            self.shared.fast.rename(&from, &to)?;
        }
        let durable_had = self.shared.durable.exists(&from);
        if durable_had {
            self.shared.durable.rename(&from, &to)?;
        }
        if !fast_had && !durable_had {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{from:?} not found in either tier"),
            ));
        }
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.shared.fast.exists(path) || self.shared.durable.exists(path)
    }

    fn file_len(&self, path: &str) -> io::Result<u64> {
        match self.shared.fast.file_len(path) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::NotFound => self.shared.durable.file_len(path),
            Err(e) => Err(e),
        }
    }

    fn list_dir(&self, path: &str) -> io::Result<Vec<String>> {
        let fast = self.shared.fast.list_dir(path);
        let durable = self.shared.durable.list_dir(path);
        match (fast, durable) {
            (Ok(mut f), Ok(d)) => {
                f.extend(d);
                f.sort();
                f.dedup();
                // Promotion staging files are backend-internal; a crash
                // mid-promotion may leave one behind, but it is never
                // part of the user-visible namespace.
                f.retain(|n| !is_promote_tmp(n));
                Ok(f)
            }
            (Ok(mut f), Err(_)) => {
                f.retain(|n| !is_promote_tmp(n));
                Ok(f)
            }
            (Err(_), Ok(d)) => Ok(d),
            (Err(e), Err(_)) => Err(e),
        }
    }

    fn drain_barrier(&self) -> io::Result<()> {
        self.shared.barrier()
    }

    fn attach_stats(&self, stats: &Arc<CrfsStats>) {
        *self.shared.stats.lock() = Some(Arc::clone(stats));
        self.shared.fast.attach_stats(stats);
        self.shared.durable.attach_stats(stats);
    }
}

impl TieredBackend {
    fn queue_guard(&self) -> parking_lot::MutexGuard<'_, Queue> {
        self.shared.queue.lock()
    }
}

/// An open file on the tiered stack. Write handles always carry a fast
/// handle; read handles carry whichever tier served the open.
struct TieredFile {
    path: String,
    shared: Arc<Shared>,
    fast: Option<Box<dyn BackendFile>>,
    /// Lazily-opened durable handle, shared by at-ack copies,
    /// write-through and `set_len`; each in-flight copy's sink holds a
    /// clone until its ack.
    durable: Mutex<Option<Arc<dyn BackendFile>>>,
    writer: bool,
}

impl TieredFile {
    fn fast_handle(&self) -> io::Result<&dyn BackendFile> {
        self.fast.as_deref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::PermissionDenied,
                "tiered file handle is durable-tier read-only",
            )
        })
    }

    fn durable_handle(&self) -> io::Result<Arc<dyn BackendFile>> {
        let mut guard = self.durable.lock();
        if let Some(d) = guard.as_ref() {
            return Ok(Arc::clone(d));
        }
        let d: Arc<dyn BackendFile> = Arc::from(self.shared.open_durable(&self.path)?);
        *guard = Some(Arc::clone(&d));
        Ok(d)
    }
}

impl BackendFile for TieredFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let fast = self.fast_handle()?;
        if self.shared.write_through.load(Relaxed) {
            // Degraded: the drain is behind the high watermark. Write
            // both tiers synchronously — the fast mirror stays complete
            // for readers, and the ack waits for durable placement, so
            // resident bytes stop growing. Drains are by definition
            // backed up here, so an earlier op overlapping this range
            // may be mid-copy with older bytes: wait it out after the
            // fast write, or it could land on the durable tier *after*
            // the direct write below and leave it stale.
            self.shared.c.write_through_ops.fetch_add(1, Relaxed);
            fast.write_at(offset, data)?;
            self.shared
                .wait_range(&self.path, offset, data.len() as u64);
            self.durable_handle()?.write_at(offset, data)?;
            self.shared.dirty.lock().insert(self.path.clone());
            return Ok(());
        }
        let len = data.len() as u64;
        if !self.shared.reserve_at_ack(&self.path, offset, len) {
            fast.write_at(offset, data)?;
            self.shared.enqueue(&self.path, offset, data.len());
            return Ok(());
        }
        // At-ack copy: the range was reserved before the fast write, so
        // any overlapping write racing this one is deferred and re-reads
        // the fast tier after this copy retires.
        if let Err(e) = fast.write_at(offset, data) {
            self.shared
                .complete_op(&self.path, offset, len, None, Outcome::Unacked);
            return Err(e);
        }
        let t0 = self.shared.stage_timer();
        match self.durable_handle() {
            Ok(d) => self.shared.copy(d, &self.path, offset, data, t0),
            Err(_) => self
                .shared
                .complete_op(&self.path, offset, len, t0, Outcome::Failed),
        }
        Ok(())
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        if self.shared.write_through.load(Relaxed) {
            // Degraded mode acks at durable speed via the sync path.
            return Ok(false);
        }
        let fast = self.fast_handle()?;
        // Forward the fast tier's async capability; the drain op is
        // enqueued only once the fast tier confirms the bytes landed
        // (the pump re-reads them).
        let wrap: Arc<dyn CompletionSink> = Arc::new(TierWriteSink {
            shared: Arc::clone(&self.shared),
            path: self.path.clone(),
            offset,
            len: data.len(),
            inner: Arc::clone(sink),
        });
        fast.begin_write_at(token, offset, data, &wrap)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        match &self.fast {
            Some(f) => f.read_at(offset, buf),
            None => self.durable_handle()?.read_at(offset, buf),
        }
    }

    fn sync(&self) -> io::Result<()> {
        // Syncs the tiers this handle touched. Durable-tier durability
        // for drained writes is the barrier's job, not per-file sync.
        if let Some(f) = &self.fast {
            f.sync()?;
        }
        let durable = self.durable.lock().clone();
        if let Some(d) = durable {
            d.sync()?;
        }
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        match &self.fast {
            Some(f) => f.len(),
            None => self.durable_handle()?.len(),
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let fast = self.fast_handle()?;
        // No in-flight copy may race the resize, and a stale durable
        // tail must not outlive it — but unlike truncate-on-open,
        // queued drains of acked bytes below the new length survive
        // (clamped), so the next barrier still delivers them.
        self.shared.truncate_path(&self.path, len);
        fast.set_len(len)?;
        // Mirror the resize unconditionally (creating the durable file
        // if no drain has reached it yet): a grown file's zero tail is
        // never written, so only set_len can make the durable length
        // match what a durable-only restart expects.
        self.durable_handle()?.set_len(len)?;
        self.shared.dirty.lock().insert(self.path.clone());
        Ok(())
    }
}

impl Drop for TieredFile {
    fn drop(&mut self) {
        if self.writer {
            self.shared.unregister_writer(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        FailureMode, FaultyBackend, MemBackend, ThrottleParams, ThrottledBackend,
    };

    fn mems() -> (Arc<MemBackend>, Arc<MemBackend>) {
        (Arc::new(MemBackend::new()), Arc::new(MemBackend::new()))
    }

    fn tiered(params: TieredParams) -> (TieredBackend, Arc<MemBackend>, Arc<MemBackend>) {
        let (fast, durable) = mems();
        let be = TieredBackend::new(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            params,
        );
        (be, fast, durable)
    }

    #[test]
    fn writes_ack_fast_and_drain_to_durable() {
        let (be, fast, durable) = tiered(TieredParams::default());
        be.mkdir("/ckpt").unwrap();
        let f = be.open("/ckpt/r0", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"alpha").unwrap();
        f.write_at(5, b"beta").unwrap();
        drop(f);
        // The fast tier has the bytes immediately.
        assert_eq!(fast.contents("/ckpt/r0").unwrap(), b"alphabeta");
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/ckpt/r0").unwrap(), b"alphabeta");
        let c = be.tier_counters();
        assert_eq!(c.drain_ops, 2);
        assert_eq!(c.drain_bytes, 9);
        assert_eq!(c.resident_bytes, 0);
        assert_eq!(c.drain_failed, 0);
    }

    #[test]
    fn rewritten_ranges_converge_to_newest_bytes() {
        let (be, _fast, durable) = tiered(TieredParams {
            drain_window: 1,
            ..TieredParams::default()
        });
        let f = be.open("/f", OpenOptions::create_truncate()).unwrap();
        for round in 0..16u8 {
            f.write_at(0, &[round; 64]).unwrap();
        }
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/f").unwrap(), vec![15u8; 64]);
    }

    #[test]
    fn watermark_degrades_to_write_through_and_recovers() {
        // A durable tier slow enough that the queue backs up is not
        // needed: with watermark_hi = 1 byte every enqueue trips the
        // degradation check before the (immediate) drain clears it.
        let (be, _fast, durable) = tiered(TieredParams {
            watermark_hi: 1,
            watermark_lo: 0,
            ..TieredParams::default()
        });
        let f = be.open("/w", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"first").unwrap(); // enqueued, trips the watermark, drains
        assert!(
            !be.write_through_active(),
            "mem durable drains instantly, clearing the degradation"
        );
        // Force the degraded path directly to verify its semantics.
        be.shared.write_through.store(true, Relaxed);
        f.write_at(5, b"second").unwrap();
        assert_eq!(
            durable.contents("/w").unwrap(),
            b"firstsecond",
            "write-through lands in the durable tier synchronously"
        );
        assert!(be.tier_counters().write_through_ops >= 1);
        be.shared.write_through.store(false, Relaxed);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/w").unwrap(), b"firstsecond");
    }

    #[test]
    fn rename_redirects_queued_drains() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be
            .open("/tmp.manifest", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, b"epoch-7").unwrap();
        drop(f);
        // Whether or not the op drained yet, the rename must leave the
        // durable tier converging on the new name only.
        be.rename("/tmp.manifest", "/MANIFEST").unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/MANIFEST").unwrap(), b"epoch-7");
        assert!(!durable.exists("/tmp.manifest"));
    }

    #[test]
    fn unlink_purges_queue_and_both_tiers() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/gone", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"data").unwrap();
        drop(f);
        be.unlink("/gone").unwrap();
        assert!(!fast.exists("/gone"));
        assert!(!durable.exists("/gone"));
        be.drain_barrier().unwrap();
        assert!(!durable.exists("/gone"), "no late drain resurrects it");
        assert_eq!(be.resident_bytes(), 0);
        assert!(be.unlink("/gone").is_err(), "second unlink is NotFound");
    }

    #[test]
    fn read_only_open_falls_back_to_durable_and_promotes() {
        let (be, fast, durable) = tiered(TieredParams {
            promote_reads: true,
            ..TieredParams::default()
        });
        // Simulate a post-crash fast tier: the file exists only durable.
        let d = durable
            .open("/old", OpenOptions::create_truncate())
            .unwrap();
        d.write_at(0, b"survivor").unwrap();
        drop(d);
        let f = be.open("/old", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 8);
        assert_eq!(&buf, b"survivor");
        assert_eq!(be.tier_counters().tier_promotes, 1);
        assert_eq!(
            fast.contents("/old").unwrap(),
            b"survivor",
            "promotion left a fast copy"
        );
    }

    #[test]
    fn no_promotion_serves_durable_directly() {
        let (be, fast, durable) = tiered(TieredParams {
            promote_reads: false,
            ..TieredParams::default()
        });
        let d = durable.open("/o", OpenOptions::create_truncate()).unwrap();
        d.write_at(0, b"direct").unwrap();
        drop(d);
        let f = be.open("/o", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"direct");
        assert_eq!(f.len().unwrap(), 6);
        assert!(!fast.exists("/o"));
        assert_eq!(be.tier_counters().tier_promotes, 0);
    }

    #[test]
    fn evict_on_barrier_drops_closed_drained_fast_copies() {
        let (be, fast, durable) = tiered(TieredParams {
            evict_on_barrier: true,
            ..TieredParams::default()
        });
        let f = be.open("/e", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"evictme").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert!(!fast.exists("/e"), "closed + drained: evicted");
        assert_eq!(durable.contents("/e").unwrap(), b"evictme");
        assert_eq!(be.tier_counters().evictions, 1);
        // Still readable — served (and re-promoted) from durable.
        let f = be.open("/e", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 7];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"evictme");

        // A file with an open writer is never evicted.
        let held = be.open("/held", OpenOptions::create_truncate()).unwrap();
        held.write_at(0, b"busy").unwrap();
        be.drain_barrier().unwrap();
        assert!(fast.exists("/held"), "open writer pins the fast copy");
        drop(held);
    }

    #[test]
    fn crash_during_drain_fails_barrier_and_keeps_fast_prefix() {
        let (fast, durable_mem) = mems();
        let faulty = Arc::new(FaultyBackend::new(
            Arc::clone(&durable_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::new(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&faulty) as Arc<dyn Backend>,
            TieredParams::default(),
        );
        let f = be.open("/c", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"acked-early").unwrap();
        be.drain_barrier().unwrap();
        // Power cut: the durable tier dies; further acks still succeed
        // (fast tier) but the drain copies fail.
        faulty.set_mode(FailureMode::PowerCutAfterBytes(0));
        f.write_at(11, b"+stranded").unwrap();
        drop(f);
        let err = be
            .drain_barrier()
            .expect_err("lost copies fail the barrier");
        assert!(err.to_string().contains("re-drain"), "{err}");
        assert!(be.tier_counters().drain_failed >= 1);
        // The fast tier holds the full acknowledged prefix.
        assert_eq!(fast.contents("/c").unwrap(), b"acked-early+stranded");
        // Reboot the durable tier: it has only the pre-crash prefix.
        faulty.revive();
        assert_eq!(durable_mem.contents("/c").unwrap(), b"acked-early");
        // Reads through the stack still serve the fast superset.
        let r = be.open("/c", OpenOptions::read_only()).unwrap();
        let mut buf = [0u8; 20];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 20);
        assert_eq!(&buf, b"acked-early+stranded");
    }

    #[test]
    fn metadata_ops_union_both_tiers() {
        let (be, fast, durable) = tiered(TieredParams::default());
        be.mkdir("/d").unwrap();
        assert!(fast.exists("/d") && durable.exists("/d"));
        let f = be
            .open("/d/fastonly", OpenOptions::create_truncate())
            .unwrap();
        f.write_at(0, b"x").unwrap();
        drop(f);
        let d = durable
            .open("/d/duronly", OpenOptions::create_truncate())
            .unwrap();
        d.write_at(0, b"yy").unwrap();
        drop(d);
        assert_eq!(be.list_dir("/d").unwrap(), vec!["duronly", "fastonly"]);
        assert!(be.exists("/d/duronly"));
        assert_eq!(be.file_len("/d/duronly").unwrap(), 2);
        assert_eq!(be.file_len("/d/fastonly").unwrap(), 1);
    }

    #[test]
    fn truncate_open_clears_stale_durable_copy() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"a-long-first-generation").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        let f = be.open("/t", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"short").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(
            durable.contents("/t").unwrap(),
            b"short",
            "no stale tail from the first generation"
        );
    }

    #[test]
    fn set_len_shrinks_both_tiers() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/s", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"0123456789").unwrap();
        be.drain_barrier().unwrap();
        f.set_len(4).unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(fast.contents("/s").unwrap(), b"0123");
        assert_eq!(durable.contents("/s").unwrap(), b"0123");
    }

    #[test]
    fn set_len_preserves_queued_drains_of_surviving_bytes() {
        let (be, fast, durable) = tiered(TieredParams::default());
        let f = be.open("/sl", OpenOptions::create_truncate()).unwrap();
        // Stall the pump so the write is still queued when set_len runs.
        be.shared.pumping.store(true, Relaxed);
        f.write_at(0, b"0123456789").unwrap();
        f.set_len(4).unwrap();
        be.shared.pumping.store(false, Relaxed);
        drop(f);
        be.drain_barrier().unwrap();
        // The acked prefix below the new length still reached durable.
        assert_eq!(fast.contents("/sl").unwrap(), b"0123");
        assert_eq!(durable.contents("/sl").unwrap(), b"0123");

        // Growing: the queued drain survives whole, and the durable
        // length matches even though the zero tail is never written.
        let f = be.open("/gr", OpenOptions::create_truncate()).unwrap();
        be.shared.pumping.store(true, Relaxed);
        f.write_at(0, b"abcdef").unwrap();
        f.set_len(9).unwrap();
        be.shared.pumping.store(false, Relaxed);
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(fast.contents("/gr").unwrap(), b"abcdef\0\0\0");
        assert_eq!(durable.contents("/gr").unwrap(), b"abcdef\0\0\0");
    }

    #[test]
    fn write_through_waits_out_inflight_overlapping_drain() {
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be.open("/wt", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"stale").unwrap();
        be.drain_barrier().unwrap();
        // Hand-install an in-flight drain op that has already read the
        // "stale" bytes — the state the pump is in when the queue backs
        // up and write-through engages.
        be.shared.resident.fetch_add(5, Relaxed);
        {
            let mut q = be.shared.queue.lock();
            q.inflight
                .entry("/wt".to_string())
                .or_default()
                .push((0, 5));
            q.inflight_total += 1;
        }
        be.shared.write_through.store(true, Relaxed);
        let shared = Arc::clone(&be.shared);
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            // The stale copy lands on the durable tier only now...
            let d = shared.open_durable("/wt").unwrap();
            d.write_at(0, b"stale").unwrap();
            // ...and then the op retires, releasing the writer.
            shared.complete_op("/wt", 0, 5, None, Outcome::Copied);
        });
        // Must block until the stale in-flight copy fully completed,
        // then land the newer bytes strictly after it.
        f.write_at(0, b"newer").unwrap();
        late.join().unwrap();
        assert_eq!(
            durable.contents("/wt").unwrap(),
            b"newer",
            "write-through bytes must not be overwritten by an older in-flight drain"
        );
        be.shared.write_through.store(false, Relaxed);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/wt").unwrap(), b"newer");
    }

    #[test]
    fn fast_tier_read_error_fails_barrier_instead_of_dropping() {
        let (fast_mem, durable) = mems();
        let faulty_fast = Arc::new(FaultyBackend::new(
            Arc::clone(&fast_mem) as Arc<dyn Backend>,
            FailureMode::None,
        ));
        let be = TieredBackend::new(
            Arc::clone(&faulty_fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            TieredParams::default(),
        );
        let f = be.open("/r", OpenOptions::create_truncate()).unwrap();
        // Stall the pump so the drain re-read happens only after the
        // fast tier starts failing.
        be.shared.pumping.store(true, Relaxed);
        f.write_at(0, b"acked").unwrap();
        faulty_fast.set_mode(FailureMode::FailOpen);
        be.shared.pumping.store(false, Relaxed);
        let err = be
            .drain_barrier()
            .expect_err("a failed fast-tier re-read is a lost copy, not a vanished source");
        assert!(err.to_string().contains("re-drain"), "{err}");
        let c = be.tier_counters();
        assert!(c.drain_failed >= 1);
        assert_eq!(c.drain_dropped, 0, "must not be miscounted as dropped");
        assert!(!durable.exists("/r"));
    }

    #[test]
    fn write_open_promotes_evicted_durable_copy() {
        let (be, fast, durable) = tiered(TieredParams {
            evict_on_barrier: true,
            ..TieredParams::default()
        });
        let f = be.open("/w", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"payload").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert!(!fast.exists("/w"), "evicted");
        // Reopen read_write (create=false): must promote, not NotFound.
        let f = be.open("/w", OpenOptions::read_write()).unwrap();
        assert_eq!(f.len().unwrap(), 7);
        let mut buf = [0u8; 7];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"payload");
        f.write_at(7, b"+more").unwrap();
        drop(f);
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/w").unwrap(), b"payload+more");
        assert!(!fast.exists("/w"), "evicted again");
        // Reopen create=true, truncate=false (the snapshot store_chunk
        // shape): must see the durable bytes, not an empty shadow.
        let f = be
            .open(
                "/w",
                OpenOptions {
                    read: true,
                    write: true,
                    create: true,
                    truncate: false,
                },
            )
            .unwrap();
        assert_eq!(f.len().unwrap(), 12, "no empty fast shadow");
        let mut buf = [0u8; 12];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 12);
        assert_eq!(&buf, b"payload+more");
        drop(f);
        assert_eq!(be.tier_counters().tier_promotes, 2);
    }

    #[test]
    fn promote_staging_names_are_recognized_and_hidden() {
        assert!(is_promote_tmp("/data.promote-3"));
        assert!(is_promote_tmp("data.promote-0"));
        assert!(!is_promote_tmp("/data.promote-"));
        assert!(!is_promote_tmp("/data.promote-x"));
        assert!(!is_promote_tmp("/data"));
        let (be, fast, _durable) = tiered(TieredParams::default());
        let f = be.open("/data", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"real").unwrap();
        drop(f);
        // A crash mid-promotion leaves a staging file in the fast tier;
        // the user-visible namespace never shows it.
        let tmp = fast
            .open("/data.promote-7", OpenOptions::create_truncate())
            .unwrap();
        tmp.write_at(0, b"junk").unwrap();
        drop(tmp);
        assert_eq!(be.list_dir("/").unwrap(), vec!["data"]);
    }

    /// Per-tier state of a [`Gate`], shared with its open files.
    #[derive(Default)]
    struct GateState {
        /// Accepted async writes whose ack the test has not released.
        pending: Mutex<Vec<(u64, Arc<dyn CompletionSink>)>>,
        /// Once set, async writes ack inline instead of waiting.
        open: AtomicBool,
        opens: AtomicU64,
        reads: AtomicU64,
    }

    /// A `MemBackend` tier that counts opens and reads. With
    /// `async_acks` every write takes the asynchronous path: its bytes
    /// land at once, its ack waits until the test releases it.
    struct Gate {
        inner: MemBackend,
        async_acks: bool,
        st: Arc<GateState>,
    }

    impl Gate {
        fn new(async_acks: bool) -> Arc<Gate> {
            Arc::new(Gate {
                inner: MemBackend::new(),
                async_acks,
                st: Arc::default(),
            })
        }

        fn release(&self) {
            loop {
                let acks = std::mem::take(&mut *self.st.pending.lock());
                if acks.is_empty() {
                    return;
                }
                for (token, sink) in acks {
                    sink.complete(token, Ok(()));
                }
            }
        }

        fn open_gate(&self) {
            self.st.open.store(true, Relaxed);
            self.release();
        }

        fn pending(&self) -> usize {
            self.st.pending.lock().len()
        }

        fn opens(&self) -> u64 {
            self.st.opens.load(Relaxed)
        }

        fn reads(&self) -> u64 {
            self.st.reads.load(Relaxed)
        }
    }

    impl Backend for Gate {
        fn name(&self) -> &str {
            "gate"
        }

        fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
            self.st.opens.fetch_add(1, Relaxed);
            Ok(Box::new(GateFile {
                inner: self.inner.open(path, opts)?,
                async_acks: self.async_acks,
                st: Arc::clone(&self.st),
            }))
        }

        crate::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
            file_len, list_dir);
    }

    struct GateFile {
        inner: Box<dyn BackendFile>,
        async_acks: bool,
        st: Arc<GateState>,
    }

    impl BackendFile for GateFile {
        fn begin_write_at(
            &self,
            token: u64,
            offset: u64,
            data: &[u8],
            sink: &Arc<dyn CompletionSink>,
        ) -> io::Result<bool> {
            if !self.async_acks {
                return Ok(false);
            }
            self.inner.write_at(offset, data)?;
            if self.st.open.load(Relaxed) {
                sink.complete(token, Ok(()));
            } else {
                self.st.pending.lock().push((token, Arc::clone(sink)));
            }
            Ok(true)
        }

        fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.st.reads.fetch_add(1, Relaxed);
            self.inner.read_at(offset, buf)
        }

        crate::forward_file_ops!(inner: write_at, sync, len, set_len, is_empty);
    }

    /// A counting sync fast tier over a gated async durable tier.
    fn gated(params: TieredParams) -> (TieredBackend, Arc<Gate>, Arc<Gate>) {
        let (fast, durable) = (Gate::new(false), Gate::new(true));
        let be = TieredBackend::new(
            Arc::clone(&fast) as Arc<dyn Backend>,
            Arc::clone(&durable) as Arc<dyn Backend>,
            params,
        );
        (be, fast, durable)
    }

    /// The first write of a fresh stack is deferred; its drain copy
    /// teaches the stack that the durable tier is async.
    fn learn_async(be: &TieredBackend, f: &dyn BackendFile, durable: &Gate) {
        f.write_at(1 << 20, b"probe").unwrap();
        assert_eq!(be.shared.durable_async.load(Relaxed), CAP_ASYNC);
        durable.release();
    }

    fn converged(be: &TieredBackend, fast: &Gate, durable: &Gate, path: &str) {
        be.drain_barrier().unwrap();
        assert_eq!(
            durable.inner.contents(path).unwrap(),
            fast.inner.contents(path).unwrap(),
            "durable bytes differ from the newest fast bytes"
        );
        assert_eq!(be.resident_bytes(), 0);
    }

    #[test]
    fn at_ack_copy_skips_fast_reread_and_barrier_waits_for_its_ack() {
        let (be, fast, durable) = gated(TieredParams::default());
        let f = be.open("/a", OpenOptions::create_truncate()).unwrap();
        learn_async(&be, f.as_ref(), &durable);
        let (reads, opens) = (fast.reads(), durable.opens());
        f.write_at(0, b"at-ack").unwrap();
        f.write_at(6, b"+again").unwrap();
        // Both writes acked while their durable copies are still out.
        assert_eq!(durable.pending(), 2);
        assert_eq!(be.resident_bytes(), 12);
        assert_eq!(
            fast.reads(),
            reads,
            "an at-ack copy never re-reads the fast tier"
        );
        assert_eq!(
            durable.opens(),
            opens + 1,
            "at-ack copies share the file's one cached durable handle"
        );
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let barrier = s.spawn(|| {
                let r = be.drain_barrier();
                done.store(true, Relaxed);
                r
            });
            std::thread::sleep(Duration::from_millis(50));
            assert!(
                !done.load(Relaxed),
                "barrier returned before the durable ack"
            );
            durable.release();
            barrier.join().unwrap().unwrap();
        });
        assert_eq!(
            &durable.inner.contents("/a").unwrap()[..12],
            b"at-ack+again"
        );
        assert_eq!(be.tier_counters().drain_ops, 3);
        converged(&be, &fast, &durable, "/a");
    }

    #[test]
    fn rewrite_of_in_flight_range_defers_and_drains_newest_bytes() {
        let (be, fast, durable) = gated(TieredParams::default());
        let f = be.open("/b", OpenOptions::create_truncate()).unwrap();
        learn_async(&be, f.as_ref(), &durable);
        let reads = fast.reads();
        f.write_at(0, b"old-bytes").unwrap(); // at-ack, ack held
        f.write_at(0, b"new-bytes-and-more").unwrap(); // overlaps it in flight
        assert_eq!(durable.pending(), 1);
        assert_eq!(
            fast.reads(),
            reads,
            "a deferred op waits out the in-flight copy"
        );
        // Overlaps only the queued op: deferred too, though the pump may
        // issue it at once (it re-reads, so order among deferred ops is
        // free).
        f.write_at(12, b"tail").unwrap();
        assert_eq!(
            fast.reads(),
            reads + 1,
            "the tail op re-read: it was deferred"
        );
        let queued = be.shared.queue.lock().ops.len();
        assert_eq!(queued, 1, "the rewrite still waits for the old copy");
        durable.open_gate();
        converged(&be, &fast, &durable, "/b");
        assert_eq!(fast.reads(), reads + 2);
        assert_eq!(
            &durable.inner.contents("/b").unwrap()[..18],
            b"new-bytes-antailre"
        );
    }

    #[test]
    fn full_drain_window_defers() {
        let (be, fast, durable) = gated(TieredParams {
            drain_window: 1,
            ..TieredParams::default()
        });
        let f = be.open("/c", OpenOptions::create_truncate()).unwrap();
        learn_async(&be, f.as_ref(), &durable);
        let reads = fast.reads();
        f.write_at(0, b"first").unwrap(); // takes the one slot
        f.write_at(5, b"second").unwrap(); // disjoint, but no room
        {
            let q = be.shared.queue.lock();
            assert_eq!((q.inflight_total, q.ops.len()), (1, 1));
        }
        assert_eq!(fast.reads(), reads);
        durable.open_gate();
        converged(&be, &fast, &durable, "/c");
        assert_eq!(fast.reads(), reads + 1, "only the deferred op re-read");
    }

    #[test]
    fn first_op_defers_until_the_durable_tier_answers() {
        let (be, fast, durable) = gated(TieredParams::default());
        let f = be.open("/d", OpenOptions::create_truncate()).unwrap();
        assert_eq!(be.shared.durable_async.load(Relaxed), CAP_UNKNOWN);
        f.write_at(0, b"one").unwrap();
        assert_eq!(fast.reads(), 1, "the first op drained by re-reading");
        assert_eq!(be.shared.durable_async.load(Relaxed), CAP_ASYNC);
        f.write_at(3, b"two").unwrap();
        assert_eq!(fast.reads(), 1, "the next op went at-ack");
        durable.open_gate();
        converged(&be, &fast, &durable, "/d");

        // A probe that cannot answer (pump stalled) holds a racing write
        // back only for PROBE_WAIT; then it defers too.
        let (be, fast, durable) = gated(TieredParams::default());
        let f = be.open("/p", OpenOptions::create_truncate()).unwrap();
        be.shared.pumping.store(true, Relaxed);
        f.write_at(0, b"probe").unwrap();
        let t0 = Instant::now();
        f.write_at(5, b"racer").unwrap();
        assert!(t0.elapsed() >= PROBE_WAIT);
        let queued = be.shared.queue.lock().ops.len();
        assert_eq!(queued, 2);
        be.shared.pumping.store(false, Relaxed);
        durable.open_gate();
        converged(&be, &fast, &durable, "/p");

        // A sync durable tier answers once and every op stays deferred —
        // also one that acks inside `begin_write_at`, as Throttled does.
        let (be, _fast, durable) = tiered(TieredParams::default());
        let f = be.open("/s", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"sync").unwrap();
        assert_eq!(be.shared.durable_async.load(Relaxed), CAP_SYNC);
        f.write_at(4, b"tier").unwrap();
        be.drain_barrier().unwrap();
        assert_eq!(durable.contents("/s").unwrap(), b"synctier");
        let be = TieredBackend::new(
            Arc::new(MemBackend::new()),
            Arc::new(ThrottledBackend::new(
                MemBackend::new(),
                ThrottleParams {
                    bandwidth: 1 << 30,
                    per_op_latency: Duration::ZERO,
                    seek_penalty: Duration::ZERO,
                },
            )),
            TieredParams::default(),
        );
        let f = be.open("/i", OpenOptions::create_truncate()).unwrap();
        f.write_at(0, b"inline").unwrap();
        assert_eq!(be.shared.durable_async.load(Relaxed), CAP_SYNC);
    }
}
