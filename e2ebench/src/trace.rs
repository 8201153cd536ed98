//! Benchmark-side tracing: in-memory spans around public calls, and a
//! transparent backend decorator that times every device operation.
//!
//! Nothing here reaches inside the library. Spans are opened by the
//! benchmark's own code around calls into each layer (`write_image`,
//! `Vfs::write`, `Crfs::advance_epoch`, ...) and by [`TracedBackend`],
//! which is stacked at each device boundary. A span's parent is the span
//! open on the same thread when it started; spans of one rank-phase share
//! that phase's group id. Spans stay in memory until the run ends.

use std::cell::RefCell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crfs_core::backend::{Backend, BackendFile, CompletionSink, OpenOptions};

/// One finished span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span open on the same thread at start; 0 for a root.
    pub parent: u64,
    /// Rank-phase id shared by every span under one phase root; 0 for
    /// background work (IO workers, completion threads).
    pub group: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans on this thread, innermost last: (span id, group).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans for one traced cycle.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span. With `group = Some(g)` the span is the
    /// root of rank-phase `g`; otherwise it nests under (and inherits
    /// the group of) the span open on this thread.
    fn run<R>(
        &self,
        name: &'static str,
        layer: &'static str,
        group: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Relaxed);
        let (parent, group) = STACK.with(|s| {
            let s = s.borrow();
            let (parent, inherited) = s.last().copied().unwrap_or((0, 0));
            (parent, group.unwrap_or(inherited))
        });
        STACK.with(|s| s.borrow_mut().push((id, group)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            group,
            name,
            layer,
            start_ns,
            end_ns,
        });
        out
    }

    /// A new rank-phase group id.
    pub fn group(&self) -> u64 {
        self.next_id.fetch_add(1, Relaxed)
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// A possibly-absent tracer: untraced cycles pay one branch per call.
#[derive(Clone, Default)]
pub struct Trace(pub Option<Arc<Tracer>>);

impl Trace {
    /// Runs `f` in a child span of whatever is open on this thread.
    pub fn span<R>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            Some(t) => t.run(name, layer, None, f),
            None => f(),
        }
    }

    /// Runs `f` as the root span of a fresh rank-phase group.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            Some(t) => {
                let g = t.group();
                t.run(name, "phase", Some(g), f)
            }
            None => f(),
        }
    }
}

/// Per-device operation counters kept by a [`TracedBackend`].
#[derive(Default)]
pub struct DeviceCounters {
    pub write_ops: AtomicU64,
    pub write_bytes: AtomicU64,
    pub write_ns: AtomicU64,
    /// Writes not contiguous with the device's previous write (same file,
    /// next offset): the writes a seeking device charges a seek for.
    pub nonseq_writes: AtomicU64,
    pub read_ops: AtomicU64,
    pub read_bytes: AtomicU64,
    pub read_ns: AtomicU64,
    pub syncs: AtomicU64,
    pub opens: AtomicU64,
    pub errors: AtomicU64,
}

/// Point-in-time copy of [`DeviceCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceSnapshot {
    pub write_ops: u64,
    pub write_bytes: u64,
    pub write_ns: u64,
    pub nonseq_writes: u64,
    pub read_ops: u64,
    pub read_bytes: u64,
    pub read_ns: u64,
    pub syncs: u64,
    pub opens: u64,
    pub errors: u64,
}

impl DeviceCounters {
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            write_ops: self.write_ops.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            write_ns: self.write_ns.load(Relaxed),
            nonseq_writes: self.nonseq_writes.load(Relaxed),
            read_ops: self.read_ops.load(Relaxed),
            read_bytes: self.read_bytes.load(Relaxed),
            read_ns: self.read_ns.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            opens: self.opens.load(Relaxed),
            errors: self.errors.load(Relaxed),
        }
    }
}

impl DeviceSnapshot {
    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &DeviceSnapshot) -> DeviceSnapshot {
        DeviceSnapshot {
            write_ops: self.write_ops - before.write_ops,
            write_bytes: self.write_bytes - before.write_bytes,
            write_ns: self.write_ns - before.write_ns,
            nonseq_writes: self.nonseq_writes - before.nonseq_writes,
            read_ops: self.read_ops - before.read_ops,
            read_bytes: self.read_bytes - before.read_bytes,
            read_ns: self.read_ns - before.read_ns,
            syncs: self.syncs - before.syncs,
            opens: self.opens - before.opens,
            errors: self.errors - before.errors,
        }
    }
}

/// Span names for one device, fixed at construction so spans carry
/// `&'static str` names.
struct OpNames {
    layer: &'static str,
    write: &'static str,
    read: &'static str,
    sync: &'static str,
    open: &'static str,
}

const DURABLE: OpNames = OpNames {
    layer: "backend.durable",
    write: "backend.durable.write",
    read: "backend.durable.read",
    sync: "backend.durable.sync",
    open: "backend.durable.open",
};

const FAST: OpNames = OpNames {
    layer: "backend.fast",
    write: "backend.fast.write",
    read: "backend.fast.read",
    sync: "backend.fast.sync",
    open: "backend.fast.open",
};

/// Which device a [`TracedBackend`] sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    Durable,
    Fast,
}

struct Shared {
    trace: Trace,
    names: &'static OpNames,
    counters: DeviceCounters,
    /// (file id, end offset) of the device's previous write.
    last_write: Mutex<Option<(u64, u64)>>,
    next_file: AtomicU64,
}

impl Shared {
    fn note_write_pos(&self, file: u64, offset: u64, len: usize) {
        let mut last = self.last_write.lock().expect("write cursor poisoned");
        if *last != Some((file, offset)) {
            self.counters.nonseq_writes.fetch_add(1, Relaxed);
        }
        *last = Some((file, offset + len as u64));
    }

    fn note_result<T>(&self, r: &io::Result<T>) {
        if r.is_err() {
            self.counters.errors.fetch_add(1, Relaxed);
        }
    }

    fn finish_write(&self, bytes: usize, t0: Instant, ok: bool) {
        self.counters.write_ops.fetch_add(1, Relaxed);
        self.counters.write_bytes.fetch_add(bytes as u64, Relaxed);
        self.counters
            .write_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        if !ok {
            self.counters.errors.fetch_add(1, Relaxed);
        }
    }
}

/// A transparent [`Backend`] decorator that times every operation,
/// counts non-sequential writes, and records a span per file operation.
/// It forwards `begin_write_at` (timing the completion through a
/// wrapping [`CompletionSink`]) and `drain_barrier`/`attach_stats`, so
/// asynchronous engines and tiered stacks behave exactly as without it.
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    shared: Arc<Shared>,
}

impl TracedBackend {
    pub fn new(inner: Arc<dyn Backend>, device: Device, trace: Trace) -> TracedBackend {
        let names = match device {
            Device::Durable => &DURABLE,
            Device::Fast => &FAST,
        };
        TracedBackend {
            inner,
            shared: Arc::new(Shared {
                trace,
                names,
                counters: DeviceCounters::default(),
                last_write: Mutex::new(None),
                next_file: AtomicU64::new(0),
            }),
        }
    }

    pub fn counters(&self) -> DeviceSnapshot {
        self.shared.counters.snapshot()
    }
}

impl Backend for TracedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn open(&self, path: &str, opts: OpenOptions) -> io::Result<Box<dyn BackendFile>> {
        let s = &self.shared;
        s.counters.opens.fetch_add(1, Relaxed);
        let r = s
            .trace
            .span(s.names.open, s.names.layer, || self.inner.open(path, opts));
        s.note_result(&r);
        let inner = r?;
        Ok(Box::new(TracedFile {
            inner,
            id: s.next_file.fetch_add(1, Relaxed),
            shared: Arc::clone(s),
        }))
    }

    crfs_core::forward_backend_ops!(inner: mkdir, rmdir, unlink, rename, exists,
        file_len, list_dir, drain_barrier, attach_stats);
}

struct TracedFile {
    inner: Box<dyn BackendFile>,
    id: u64,
    shared: Arc<Shared>,
}

/// Times an accepted asynchronous write from issue to completion.
struct TimedSink {
    inner: Arc<dyn CompletionSink>,
    shared: Arc<Shared>,
    bytes: usize,
    t0: Instant,
}

impl CompletionSink for TimedSink {
    fn complete(&self, token: u64, result: io::Result<()>) {
        self.shared
            .finish_write(self.bytes, self.t0, result.is_ok());
        self.inner.complete(token, result);
    }
}

impl BackendFile for TracedFile {
    fn write_at(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let s = &self.shared;
        s.note_write_pos(self.id, offset, data.len());
        let t0 = Instant::now();
        let r = s.trace.span(s.names.write, s.names.layer, || {
            self.inner.write_at(offset, data)
        });
        s.finish_write(data.len(), t0, r.is_ok());
        r
    }

    fn begin_write_at(
        &self,
        token: u64,
        offset: u64,
        data: &[u8],
        sink: &Arc<dyn CompletionSink>,
    ) -> io::Result<bool> {
        let s = &self.shared;
        let timed: Arc<dyn CompletionSink> = Arc::new(TimedSink {
            inner: Arc::clone(sink),
            shared: Arc::clone(s),
            bytes: data.len(),
            t0: Instant::now(),
        });
        let r = s.trace.span(s.names.write, s.names.layer, || {
            self.inner.begin_write_at(token, offset, data, &timed)
        });
        match &r {
            // Accepted: the write happened (its completion is timed by
            // the sink), so it counts toward sequentiality now.
            Ok(true) => s.note_write_pos(self.id, offset, data.len()),
            // No async path: the caller falls back to `write_at`, which
            // counts the op itself.
            Ok(false) => {}
            Err(_) => s.finish_write(data.len(), Instant::now(), false),
        }
        r
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let s = &self.shared;
        let t0 = Instant::now();
        let r = s.trace.span(s.names.read, s.names.layer, || {
            self.inner.read_at(offset, buf)
        });
        s.counters.read_ops.fetch_add(1, Relaxed);
        s.counters
            .read_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        match &r {
            Ok(n) => {
                s.counters.read_bytes.fetch_add(*n as u64, Relaxed);
            }
            Err(_) => {
                s.counters.errors.fetch_add(1, Relaxed);
            }
        }
        r
    }

    fn sync(&self) -> io::Result<()> {
        let s = &self.shared;
        s.counters.syncs.fetch_add(1, Relaxed);
        let r = s
            .trace
            .span(s.names.sync, s.names.layer, || self.inner.sync());
        s.note_result(&r);
        r
    }

    crfs_core::forward_file_ops!(inner: len, set_len, is_empty);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crfs_blcr::{CheckpointWriter, ProcessImage};
    use crfs_core::backend::{MemBackend, TieredBackend, TieredParams};
    use crfs_core::{Crfs, CrfsConfig, EngineKind, StatsSnapshot};
    use std::io::Read;
    use std::time::Duration;
    use storage_model::{RpcStore, RpcStoreParams};

    fn image() -> ProcessImage {
        ProcessImage::synthetic(1, 3 << 20, 42)
    }

    fn stream(img: &ProcessImage) -> Vec<u8> {
        let mut out = Vec::new();
        CheckpointWriter::new().write_image(&mut out, img).unwrap();
        out
    }

    fn config(engine: EngineKind) -> CrfsConfig {
        CrfsConfig::default()
            .with_chunk_size(256 << 10)
            .with_pool_size(2 << 20)
            .with_engine(engine)
    }

    fn traced(inner: Arc<dyn Backend>) -> Arc<TracedBackend> {
        Arc::new(TracedBackend::new(
            inner,
            Device::Durable,
            Trace(Some(Tracer::new())),
        ))
    }

    /// Checkpoints `img` through a mount over `backend`, makes it
    /// durable, and returns the mount's stats.
    fn checkpoint(
        backend: Arc<dyn Backend>,
        cfg: &CrfsConfig,
        img: &ProcessImage,
    ) -> StatsSnapshot {
        let fs = Crfs::mount(backend, cfg.clone()).unwrap();
        let mut f = fs.create("/rank0.img").unwrap();
        CheckpointWriter::new().write_image(&mut f, img).unwrap();
        f.close().unwrap();
        fs.advance_epoch().unwrap();
        let stats = fs.stats();
        fs.unmount().unwrap();
        stats
    }

    /// Every byte a fresh mount over `backend` reads back.
    fn restart(backend: Arc<dyn Backend>, cfg: &CrfsConfig) -> Vec<u8> {
        let fs = Crfs::mount(backend, cfg.clone()).unwrap();
        let mut f = fs.open("/rank0.img").unwrap();
        let mut out = Vec::new();
        f.read_to_end(&mut out).unwrap();
        f.close().unwrap();
        fs.unmount().unwrap();
        out
    }

    #[test]
    fn restart_is_byte_identical_with_and_without_the_decorator() {
        let img = image();
        let cfg = config(EngineKind::Threaded);
        let plain: Arc<dyn Backend> = Arc::new(MemBackend::new());
        checkpoint(Arc::clone(&plain), &cfg, &img);
        let direct = restart(plain, &cfg);

        let dev = traced(Arc::new(MemBackend::new()));
        checkpoint(Arc::clone(&dev) as Arc<dyn Backend>, &cfg, &img);
        let through = restart(Arc::clone(&dev) as Arc<dyn Backend>, &cfg);

        let expected = stream(&img);
        assert!(direct == expected, "restart without the decorator differs");
        assert!(through == expected, "restart through the decorator differs");
        let c = dev.counters();
        assert_eq!(c.write_bytes, expected.len() as u64);
        assert!(c.read_ops > 0);
        assert_eq!(c.errors, 0);
    }

    #[test]
    fn inline_single_writer_issues_the_same_backend_writes() {
        let img = image();
        let cfg = config(EngineKind::Inline);
        let plain = checkpoint(Arc::new(MemBackend::new()), &cfg, &img);
        let dev = traced(Arc::new(MemBackend::new()));
        let through = checkpoint(Arc::clone(&dev) as Arc<dyn Backend>, &cfg, &img);
        assert!(plain.backend_writes > 0);
        assert_eq!(plain.backend_writes, through.backend_writes);
        assert_eq!(dev.counters().write_ops, through.backend_writes);
    }

    #[test]
    fn ring_over_rpc_store_keeps_its_async_completions() {
        let rtt = Duration::from_micros(500);
        let store: Arc<dyn Backend> = Arc::new(RpcStore::new(
            MemBackend::new(),
            RpcStoreParams {
                read_rtt: rtt,
                write_rtt: rtt,
                bandwidth: 4 << 30,
            },
        ));
        let dev = traced(store);
        let stats = checkpoint(
            Arc::clone(&dev) as Arc<dyn Backend>,
            &config(EngineKind::Ring),
            &image(),
        );
        assert!(
            stats.completion_reaps > 0,
            "no async completions: {stats:?}"
        );
        let c = dev.counters();
        assert_eq!(c.write_ops, stats.backend_writes);
        // Timed to the completion callback, each op spans a round trip.
        assert!(c.write_ns >= c.write_ops * rtt.as_nanos() as u64);
    }

    #[test]
    fn barrier_and_stats_reach_a_tiered_stack_below() {
        let durable: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let tiered: Arc<dyn Backend> = Arc::new(TieredBackend::new(
            Arc::new(MemBackend::new()),
            Arc::clone(&durable),
            TieredParams::default(),
        ));
        let img = image();
        let cfg = config(EngineKind::Threaded);
        let stats = checkpoint(traced(tiered) as Arc<dyn Backend>, &cfg, &img);
        // attach_stats reached the tier: it recorded its drain copies.
        assert!(stats.stages.drain_copy.count > 0);
        // drain_barrier reached the tier: the durable tier alone restarts.
        assert!(restart(durable, &cfg) == stream(&img));
    }

    #[test]
    fn counts_writes_that_do_not_continue_the_previous_one() {
        let dev = TracedBackend::new(
            Arc::new(MemBackend::new()),
            Device::Durable,
            Trace::default(),
        );
        let a = dev.open("/a", OpenOptions::create_truncate()).unwrap();
        let b = dev.open("/b", OpenOptions::create_truncate()).unwrap();
        a.write_at(0, &[1; 10]).unwrap(); // first write: a seek
        a.write_at(10, &[1; 10]).unwrap(); // sequential
        a.write_at(100, &[1; 10]).unwrap(); // gap
        b.write_at(0, &[1; 10]).unwrap(); // other file
        a.write_at(110, &[1; 10]).unwrap(); // back to a
        let c = dev.counters();
        assert_eq!(c.write_ops, 5);
        assert_eq!(c.nonseq_writes, 4);
        assert_eq!(c.opens, 2);
    }

    #[test]
    fn spans_nest_under_the_span_open_on_the_thread() {
        let tracer = Tracer::new();
        let trace = Trace(Some(Arc::clone(&tracer)));
        let dev = TracedBackend::new(Arc::new(MemBackend::new()), Device::Fast, trace.clone());
        trace.phase("phase.ckpt", || {
            trace.span("vfs.write", "vfs", || {
                let f = dev.open("/x", OpenOptions::create_truncate()).unwrap();
                f.write_at(0, b"abc").unwrap();
            })
        });
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let root = by_name("phase.ckpt");
        let vfs = by_name("vfs.write");
        let write = by_name("backend.fast.write");
        assert_eq!(root.parent, 0);
        assert_eq!(vfs.parent, root.id);
        assert_eq!(write.parent, vfs.id);
        assert!(spans.iter().all(|s| s.group == root.group && s.group != 0));
        assert!(root.start_ns <= vfs.start_ns && vfs.end_ns <= root.end_ns);
    }
}
