//! The three workloads and one checkpoint → durable → restart cycle.
//!
//! A cycle generates each rank's BLCR process image from the seed,
//! builds the device stack and mounts CRFS under a [`Vfs`] (set-up),
//! writes every image concurrently through `Vfs::write` (checkpoint),
//! calls `Crfs::advance_epoch` (durable), unmounts, and restarts from a
//! fresh mount through `RestartReader`, checking every byte read against
//! the regenerated image (restart).

use std::fmt::Display;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crfs_blcr::image::PAGE_SIZE;
use crfs_blcr::{CheckpointWriter, ProcessImage, RestartReader};
use crfs_core::backend::{
    Backend, MemBackend, OpenOptions, ThrottleParams, ThrottledBackend, TierCounters, TieredBackend,
};
use crfs_core::{CodecKind, Crfs, CrfsConfig, CrfsFile, Fd, StatsSnapshot, Vfs};
use storage_model::{RpcStore, RpcStoreParams};

use crate::layers::{self, PhaseSnapshots};
use crate::trace::{Device, DeviceSnapshot, Span, Trace, TracedBackend, Tracer};

/// Application ranks, one thread each.
pub const RANKS: usize = 2;

/// Where the mount sits in the VFS namespace.
const MOUNT: &str = "/ckpt";

/// Tiered watermarks for `tiered-rpc`: far below the checkpoint's
/// volume, so the run crosses `hi` into write-through.
const TIER_LO: u64 = 8 << 20;
const TIER_HI: u64 = 32 << 20;

/// Restarts per cycle, one after another on the fresh restart mount;
/// each is timed on its own.
pub const RESTARTS: usize = 3;

/// Share of each image's pages an `incr-snapshot` epoch rewrites.
const DIRTY_FRACTION: f64 = 0.125;
/// Dirty pages come in contiguous runs of this many bytes (an updated
/// array segment), so unchanged chunks stay dedup-able.
const DIRTY_RUN: usize = 4 << 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CkptDisk,
    TieredRpc,
    IncrSnapshot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CkptDisk,
        Workload::TieredRpc,
        Workload::IncrSnapshot,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CkptDisk => "ckpt-disk",
            Workload::TieredRpc => "tiered-rpc",
            Workload::IncrSnapshot => "incr-snapshot",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Target size of each rank's process image.
    pub fn image_bytes(self) -> u64 {
        match self {
            Workload::CkptDisk | Workload::TieredRpc => 64 << 20,
            Workload::IncrSnapshot => 32 << 20,
        }
    }

    /// Checkpoint epochs per cycle.
    pub fn epochs(self) -> usize {
        match self {
            Workload::CkptDisk | Workload::TieredRpc => 1,
            Workload::IncrSnapshot => 6,
        }
    }

    /// The default mount configuration, changed only by the settings
    /// that define the workload.
    pub fn config(self) -> CrfsConfig {
        match self {
            Workload::CkptDisk => CrfsConfig::default(),
            Workload::TieredRpc => CrfsConfig::default().with_tier_watermarks(TIER_LO, TIER_HI),
            Workload::IncrSnapshot => CrfsConfig::default()
                .with_codec(CodecKind::Lz)
                .with_dedup(true)
                .with_snapshots(true),
        }
    }

    fn snapshots(self) -> bool {
        self == Workload::IncrSnapshot
    }
}

/// What a cycle runs: a workload at a size. [`Plan::new`] is the size
/// the benchmark measures; tests shrink it.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    /// Target size of each rank's process image.
    pub image_bytes: u64,
    /// Checkpoint epochs per cycle.
    pub epochs: usize,
}

impl Plan {
    pub fn new(workload: Workload) -> Plan {
        Plan {
            workload,
            image_bytes: workload.image_bytes(),
            epochs: workload.epochs(),
        }
    }
}

/// The durable tier of `tiered-rpc`: 2 ms write and 1 ms read round
/// trips, concurrent service.
fn rpc_params() -> RpcStoreParams {
    RpcStoreParams {
        read_rtt: Duration::from_millis(1),
        write_rtt: Duration::from_millis(2),
        bandwidth: 1 << 30,
    }
}

/// splitmix64 finalizer: seeds for images and dirty patterns.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn derive(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |h, &p| mix(h ^ mix(p)))
}

/// Rank `rank`'s base image in cycle `cycle` of a run seeded `seed`.
pub fn base_image(plan: &Plan, seed: u64, cycle: u64, rank: usize) -> ProcessImage {
    ProcessImage::synthetic(
        1000 + rank as u32,
        plan.image_bytes,
        derive(seed, &[cycle, rank as u64]),
    )
}

/// Rewrites `DIRTY_FRACTION` of the image's pages for `epoch`, as
/// page-aligned runs placed by the seed inside regions large enough to
/// hold a run.
pub fn dirty_pages(img: &mut ProcessImage, seed: u64, cycle: u64, rank: usize, epoch: usize) {
    let total: usize = img.vmas.iter().map(|v| v.len()).sum();
    let runs = ((total as f64 * DIRTY_FRACTION) / DIRTY_RUN as f64)
        .round()
        .max(1.0) as usize;
    let mut state = derive(seed, &[cycle, rank as u64, epoch as u64, 0xd1]);
    let mut next = || {
        state = mix(state);
        state
    };
    let big: Vec<usize> = (0..img.vmas.len())
        .filter(|&i| img.vmas[i].len() >= DIRTY_RUN)
        .collect();
    if big.is_empty() {
        return;
    }
    for _ in 0..runs {
        let vma = &mut img.vmas[big[(next() % big.len() as u64) as usize]];
        let pages = (vma.len() - DIRTY_RUN) / PAGE_SIZE + 1;
        let start = (next() % pages as u64) as usize * PAGE_SIZE;
        for word in vma.data[start..start + DIRTY_RUN].chunks_mut(8) {
            let bytes = next().to_le_bytes();
            word.copy_from_slice(&bytes[..word.len()]);
        }
    }
}

/// Rank `rank`'s image as checkpointed in epoch `epoch`.
pub fn image_at(plan: &Plan, seed: u64, cycle: u64, rank: usize, epoch: usize) -> ProcessImage {
    let mut img = base_image(plan, seed, cycle, rank);
    for e in 1..=epoch {
        dirty_pages(&mut img, seed, cycle, rank, e);
    }
    img
}

/// Order-sensitive 64-bit digest of a byte stream, fed in arbitrary
/// pieces. Restart folds every byte it reads into one and compares it
/// with the digest of the stream `CheckpointWriter` produces for the
/// regenerated image: every byte, headers and descriptors included, is
/// checked without keeping the expected image in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    len: u64,
    h: u64,
    carry: [u8; 8],
    ncarry: usize,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest {
            len: 0,
            h: 0x243f_6a88_85a3_08d3,
            carry: [0; 8],
            ncarry: 0,
        }
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.ncarry > 0 {
            let take = (8 - self.ncarry).min(data.len());
            self.carry[self.ncarry..self.ncarry + take].copy_from_slice(&data[..take]);
            self.ncarry += take;
            data = &data[take..];
            if self.ncarry < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.carry));
            self.ncarry = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.carry[..rest.len()].copy_from_slice(rest);
        self.ncarry = rest.len();
    }

    /// (stream length, digest).
    pub fn finish(&self) -> (u64, u64) {
        let mut d = *self;
        let mut tail = [0u8; 8];
        tail[..d.ncarry].copy_from_slice(&d.carry[..d.ncarry]);
        d.word(u64::from_le_bytes(tail));
        d.word(d.len);
        (d.len, d.h)
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The (length, digest) of the checkpoint stream for `img`.
pub fn stream_digest(img: &ProcessImage) -> (u64, u64) {
    let mut d = Digest::default();
    CheckpointWriter::new()
        .write_image(&mut d, img)
        .expect("digest sink never fails");
    d.finish()
}

/// Operations attempted and failed over a run. Every call into the
/// library, every refused chunk or integrity failure and every restart
/// mismatch counts.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Relaxed)
    }

    /// Counts `n` attempted operations of which `failed` failed.
    pub fn add(&self, n: u64, failed: u64) {
        self.attempted.fetch_add(n, Relaxed);
        self.failed.fetch_add(failed, Relaxed);
    }

    /// Counts one check.
    pub fn check(&self, what: &str, ok: bool) -> bool {
        self.add(1, u64::from(!ok));
        if !ok {
            eprintln!("e2ebench: check failed: {what}");
        }
        ok
    }

    /// Counts one operation, reporting its error.
    pub fn op<T, E: Display>(&self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.add(1, 0);
                Some(v)
            }
            Err(e) => {
                self.add(1, 1);
                eprintln!("e2ebench: {what} failed: {e}");
                None
            }
        }
    }
}

/// The application side of a checkpoint: every `CheckpointWriter` put
/// is one timed `Vfs::write` call.
struct AppWriter<'a> {
    vfs: &'a Vfs,
    fd: Fd,
    trace: &'a Trace,
    tally: &'a Tally,
    lat_ns: Vec<u64>,
    bytes: u64,
}

impl Write for AppWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t0 = Instant::now();
        let r = self
            .trace
            .span("vfs.write", "vfs", || self.vfs.write(self.fd, buf));
        self.lat_ns.push(t0.elapsed().as_nanos() as u64);
        let n = self
            .tally
            .op("write", r)
            .ok_or_else(|| io::Error::other("write failed"))?;
        self.bytes += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a restart reads from: a VFS descriptor or a snapshot view.
enum Source<'a> {
    Vfs(&'a Vfs, Fd),
    View(&'a CrfsFile),
}

/// The application side of a restart: every `RestartReader` read is one
/// timed call; every byte read feeds the verification digest.
struct AppReader<'a> {
    src: Source<'a>,
    trace: &'a Trace,
    tally: &'a Tally,
    lat_ns: Vec<u64>,
    digest: Digest,
}

impl Read for AppReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let t0 = Instant::now();
        let r = match self.src {
            Source::Vfs(vfs, fd) => self.trace.span("vfs.read", "vfs", || vfs.read(fd, buf)),
            Source::View(f) => self.trace.span("fs.read", "fs", || f.read(buf)),
        };
        self.lat_ns.push(t0.elapsed().as_nanos() as u64);
        let n = self
            .tally
            .op("read", r)
            .ok_or_else(|| io::Error::other("read failed"))?;
        let digest = &mut self.digest;
        self.trace
            .span("bench.digest", "bench", || digest.update(&buf[..n]));
        Ok(n)
    }
}

fn rank_path(rank: usize) -> String {
    format!("{MOUNT}/rank{rank}.img")
}

/// The device stack one cycle runs on.
struct Stack {
    /// What the checkpoint mount sits on.
    top: Arc<dyn Backend>,
    /// What the restart mount sits on.
    restart: Arc<dyn Backend>,
    /// The durable device, walked for `stored_ratio`.
    durable: Arc<dyn Backend>,
    tiered: Option<Arc<TieredBackend>>,
    durable_dev: Option<Arc<TracedBackend>>,
    fast_dev: Option<Arc<TracedBackend>>,
}

fn device(
    dev: Arc<dyn Backend>,
    which: Device,
    trace: &Trace,
) -> (Arc<dyn Backend>, Option<Arc<TracedBackend>>) {
    if trace.0.is_none() {
        return (dev, None);
    }
    let traced = Arc::new(TracedBackend::new(dev, which, trace.clone()));
    (Arc::clone(&traced) as Arc<dyn Backend>, Some(traced))
}

fn build_stack(w: Workload, config: &CrfsConfig, trace: &Trace) -> Stack {
    let single = |params: ThrottleParams| {
        let dev: Arc<dyn Backend> = Arc::new(ThrottledBackend::new(MemBackend::new(), params));
        let (durable, durable_dev) = device(dev, Device::Durable, trace);
        Stack {
            top: Arc::clone(&durable),
            restart: Arc::clone(&durable),
            durable,
            tiered: None,
            durable_dev,
            fast_dev: None,
        }
    };
    match w {
        Workload::CkptDisk => single(ThrottleParams::sata_disk()),
        Workload::IncrSnapshot => single(ThrottleParams::ssd()),
        Workload::TieredRpc => {
            let store: Arc<dyn Backend> = Arc::new(RpcStore::new(MemBackend::new(), rpc_params()));
            let (durable, durable_dev) = device(store, Device::Durable, trace);
            let (fast, fast_dev) = device(Arc::new(MemBackend::new()), Device::Fast, trace);
            let tiered = Arc::new(TieredBackend::from_config(
                fast,
                Arc::clone(&durable),
                config,
            ));
            Stack {
                top: Arc::clone(&tiered) as Arc<dyn Backend>,
                restart: Arc::clone(&durable),
                durable,
                tiered: Some(tiered),
                durable_dev,
                fast_dev,
            }
        }
    }
}

/// Sum of file lengths under `dir` on `be`.
fn stored_bytes(be: &dyn Backend, dir: &str) -> io::Result<u64> {
    let mut total = 0;
    for name in be.list_dir(dir)? {
        let path = if dir == "/" {
            format!("/{name}")
        } else {
            format!("{dir}/{name}")
        };
        total += match be.list_dir(&path) {
            Ok(_) => stored_bytes(be, &path)?,
            Err(_) => be.file_len(&path)?,
        };
    }
    Ok(total)
}

/// One epoch's checkpoint, all ranks concurrently.
struct CkptPhase {
    first_write: Instant,
    last_close: Instant,
    lat_ns: Vec<u64>,
    write_calls: u64,
    write_bytes: u64,
}

fn checkpoint(vfs: &Vfs, images: &[ProcessImage], trace: &Trace, tally: &Tally) -> CkptPhase {
    let ranks: Vec<(Instant, Instant, Vec<u64>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = images
            .iter()
            .enumerate()
            .map(|(rank, img)| {
                s.spawn(move || {
                    trace.phase("phase.ckpt", || {
                        let created =
                            trace.span("vfs.create", "vfs", || vfs.create(&rank_path(rank)));
                        let t_first = Instant::now();
                        let Some(fd) = tally.op("create", created) else {
                            return (t_first, Instant::now(), Vec::new(), 0);
                        };
                        let mut w = AppWriter {
                            vfs,
                            fd,
                            trace,
                            tally,
                            lat_ns: Vec::new(),
                            bytes: 0,
                        };
                        let wrote = trace.span("blcr.write_image", "blcr", || {
                            CheckpointWriter::new().write_image(&mut w, img)
                        });
                        if let Err(e) = wrote {
                            eprintln!("e2ebench: rank {rank} checkpoint aborted: {e}");
                        }
                        let closed = trace.span("fs.close", "fs", || vfs.close(fd));
                        tally.op("close", closed);
                        (t_first, Instant::now(), w.lat_ns, w.bytes)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    CkptPhase {
        first_write: ranks.iter().map(|r| r.0).min().expect("at least one rank"),
        last_close: ranks.iter().map(|r| r.1).max().expect("at least one rank"),
        write_calls: ranks.iter().map(|r| r.2.len() as u64).sum(),
        write_bytes: ranks.iter().map(|r| r.3).sum(),
        lat_ns: ranks.into_iter().flat_map(|r| r.2).collect(),
    }
}

/// One image a rank must restore: from the live file (`epoch: None`)
/// or from a snapshot view of `epoch`, with the (length, digest) of the
/// stream the regenerated image serializes to.
struct Target {
    rank: usize,
    epoch: Option<u64>,
    digest: (u64, u64),
}

struct RestartPhase {
    first_open: Instant,
    last_verified: Instant,
    lat_ns: Vec<u64>,
}

fn restart_one(vfs: &Vfs, fs: &Arc<Crfs>, t: &Target, trace: &Trace, tally: &Tally) -> Vec<u64> {
    let path = rank_path(t.rank);
    let (mut fd, mut view) = (None, None);
    match t.epoch {
        None => {
            let opened = trace.span("vfs.open", "vfs", || {
                vfs.open_with(&path, OpenOptions::read_only())
            });
            fd = tally.op("open", opened);
        }
        Some(epoch) => {
            let rel = &path[MOUNT.len()..];
            let opened = trace.span("fs.open_restart", "snapshot", || {
                fs.open_restart(rel, epoch)
            });
            view = tally.op("open_restart", opened);
        }
    }
    let src = match (fd, &view) {
        (Some(fd), _) => Source::Vfs(vfs, fd),
        (None, Some(f)) => Source::View(f),
        (None, None) => return Vec::new(),
    };
    let mut r = AppReader {
        src,
        trace,
        tally,
        lat_ns: Vec::new(),
        digest: Digest::default(),
    };
    let restored = trace.span("blcr.read_image", "blcr", || {
        RestartReader::new().read_image(&mut r)
    });
    let at_eof = matches!(r.read(&mut [0u8; 1]), Ok(0));
    // Every byte read went into the digest; the image also had to parse
    // with every region checksum intact.
    let ok = trace.span("bench.verify", "bench", || {
        restored.is_ok() && at_eof && r.digest.finish() == t.digest
    });
    drop(restored);
    tally.check(
        &format!("rank {} epoch {:?} restart byte-exact", t.rank, t.epoch),
        ok,
    );
    let lat_ns = r.lat_ns;
    let closed = match (fd, view) {
        (Some(fd), _) => trace.span("fs.close", "fs", || vfs.close(fd)),
        (None, Some(f)) => trace.span("fs.close", "fs", || f.close()),
        (None, None) => unreachable!("a source was opened above"),
    };
    tally.op("restart close", closed);
    lat_ns
}

fn restart(
    vfs: &Vfs,
    fs: &Arc<Crfs>,
    targets: &[Target],
    trace: &Trace,
    tally: &Tally,
) -> RestartPhase {
    let ranks: Vec<(Instant, Instant, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RANKS)
            .map(|rank| {
                s.spawn(move || {
                    trace.phase("phase.restart", || {
                        let t_open = Instant::now();
                        let mut lat = Vec::new();
                        for t in targets.iter().filter(|t| t.rank == rank) {
                            lat.extend(restart_one(vfs, fs, t, trace, tally));
                        }
                        (t_open, Instant::now(), lat)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    RestartPhase {
        first_open: ranks.iter().map(|r| r.0).min().expect("at least one rank"),
        last_verified: ranks.iter().map(|r| r.1).max().expect("at least one rank"),
        lat_ns: ranks.into_iter().flat_map(|r| r.2).collect(),
    }
}

/// Everything one cycle measured.
pub struct Cycle {
    pub traced: bool,
    pub setup_s: f64,
    pub ckpt_s: f64,
    pub durable_s: f64,
    /// One entry per restart.
    pub restart_s: Vec<f64>,
    pub stored_ratio: f64,
    pub write_lat_ns: Vec<u64>,
    pub read_lat_ns: Vec<u64>,
    pub write_calls: u64,
    pub write_bytes: u64,
    /// Per-layer metrics: traced cycles only.
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Spans: traced cycles only.
    pub spans: Vec<Span>,
}

fn dev_snap(d: &Option<Arc<TracedBackend>>) -> DeviceSnapshot {
    d.as_ref().map(|d| d.counters()).unwrap_or_default()
}

fn tier_snap(t: &Option<Arc<TieredBackend>>) -> TierCounters {
    t.as_ref().map(|t| t.tier_counters()).unwrap_or_default()
}

fn failures(s0: &StatsSnapshot, s1: &StatsSnapshot) -> u64 {
    (s1.integrity_failures - s0.integrity_failures) + (s1.chunks_refused - s0.chunks_refused)
}

/// Runs one checkpoint → durable → restart cycle. `Err` means the cycle
/// could not continue (a mount failed); every failure is also tallied.
pub fn run_cycle(
    plan: &Plan,
    seed: u64,
    cycle: u64,
    traced: bool,
    tally: &Tally,
) -> Result<Cycle, String> {
    let w = plan.workload;
    let tracer = traced.then(Tracer::new);
    let trace = Trace(tracer.clone());
    let config = w.config();

    // Set-up: images from the seed, the device stack, the mount.
    let t_setup = Instant::now();
    let mut images: Vec<ProcessImage> = (0..RANKS)
        .map(|r| base_image(plan, seed, cycle, r))
        .collect();
    let stack = build_stack(w, &config, &trace);
    let fs = tally
        .op("mount", Crfs::mount(Arc::clone(&stack.top), config.clone()))
        .ok_or("mount failed")?;
    let vfs = Vfs::new();
    tally
        .op("vfs mount", vfs.mount(MOUNT, Arc::clone(&fs)))
        .ok_or("vfs mount failed")?;
    let setup_s = t_setup.elapsed().as_secs_f64();

    let ck_stats0 = fs.stats();
    let tier0 = tier_snap(&stack.tiered);
    let durable0 = dev_snap(&stack.durable_dev);
    let fast0 = dev_snap(&stack.fast_dev);

    let mut ckpt_s = 0.0;
    let mut durable_s = 0.0;
    let mut write_lat_ns = Vec::new();
    let mut write_calls = 0;
    let mut write_bytes = 0;
    let mut gc_reclaimed = 0u64;
    // Snapshot epoch id sealed by each checkpoint epoch.
    let mut epoch_ids: Vec<u64> = Vec::new();
    for e in 0..plan.epochs {
        if e > 0 {
            for (rank, img) in images.iter_mut().enumerate() {
                dirty_pages(img, seed, cycle, rank, e);
            }
        }
        let ck = checkpoint(&vfs, &images, &trace, tally);
        let sealed = trace.phase("phase.durable", || {
            trace.span("fs.advance_epoch", "snapshot", || fs.advance_epoch())
        });
        let t_durable = Instant::now();
        tally.op("advance_epoch", sealed);
        ckpt_s += (ck.last_close - ck.first_write).as_secs_f64();
        durable_s += (t_durable - ck.first_write).as_secs_f64();
        write_lat_ns.extend(ck.lat_ns);
        write_calls += ck.write_calls;
        write_bytes += ck.write_bytes;
        if w.snapshots() {
            epoch_ids.push(fs.snapshot_epochs().last().copied().unwrap_or(u64::MAX));
            let gc = trace.phase("phase.gc", || {
                trace.span("fs.snapshot_gc", "snapshot", || fs.snapshot_gc())
            });
            if let Some(report) = tally.op("snapshot_gc", gc) {
                gc_reclaimed += report.reclaimed_chunks as u64;
            }
        }
    }
    let ck_stats1 = fs.stats();
    let tier1 = tier_snap(&stack.tiered);
    let durable1 = dev_snap(&stack.durable_dev);
    let fast1 = dev_snap(&stack.fast_dev);
    let retained = fs.snapshot_epochs();
    tally.op("vfs umount", vfs.umount(MOUNT));
    tally.op("unmount", fs.unmount());
    drop(fs);

    let stored = tally
        .op("walk durable device", stored_bytes(&*stack.durable, "/"))
        .unwrap_or(0);
    let stored_ratio = stored as f64 / write_bytes.max(1) as f64;

    // Expected restart content (not timed): the newest image of every
    // rank, plus on snapshot workloads the oldest retained epoch.
    let mut targets = Vec::new();
    if w.snapshots() {
        let pick = |id: u64| epoch_ids.iter().position(|&x| x == id);
        let newest = retained.last().copied();
        let oldest = retained.first().copied();
        tally.check(
            "retained epochs are the sealed ones",
            newest.and_then(pick) == Some(plan.epochs - 1) && oldest.and_then(pick).is_some(),
        );
        for (rank, image) in images.iter().enumerate() {
            for id in [newest, oldest].into_iter().flatten() {
                let Some(idx) = pick(id) else { continue };
                let digest = if idx == plan.epochs - 1 {
                    stream_digest(image)
                } else {
                    stream_digest(&image_at(plan, seed, cycle, rank, idx))
                };
                targets.push(Target {
                    rank,
                    epoch: Some(id),
                    digest,
                });
            }
        }
    } else {
        for (rank, image) in images.iter().enumerate() {
            targets.push(Target {
                rank,
                epoch: None,
                digest: stream_digest(image),
            });
        }
    }
    drop(images);

    // Restart from a fresh mount (the durable tier alone on tiered-rpc).
    let fs = tally
        .op(
            "restart mount",
            Crfs::mount(Arc::clone(&stack.restart), config.clone()),
        )
        .ok_or("restart mount failed")?;
    let vfs = Vfs::new();
    tally
        .op("vfs mount", vfs.mount(MOUNT, Arc::clone(&fs)))
        .ok_or("vfs mount failed")?;
    let rs_stats0 = fs.stats();
    let mut restart_s = Vec::with_capacity(RESTARTS);
    let mut read_lat_ns = Vec::new();
    for _ in 0..RESTARTS {
        let rs = restart(&vfs, &fs, &targets, &trace, tally);
        restart_s.push((rs.last_verified - rs.first_open).as_secs_f64());
        read_lat_ns.extend(rs.lat_ns);
    }
    let rs_stats1 = fs.stats();
    let durable2 = dev_snap(&stack.durable_dev);
    let fast2 = dev_snap(&stack.fast_dev);
    tally.op("vfs umount", vfs.umount(MOUNT));
    tally.op("unmount", fs.unmount());
    drop(fs);

    // Integrity failures and refused chunks count against correctness.
    let bad = failures(&ck_stats0, &ck_stats1) + failures(&rs_stats0, &rs_stats1);
    tally.add(0, bad);
    // So do device errors the library absorbed.
    let dev_errors = durable2.since(&durable0).errors + fast2.since(&fast0).errors;
    tally.add(0, dev_errors);

    let read_calls = read_lat_ns.len() as u64;
    let mut out = Cycle {
        traced,
        setup_s,
        ckpt_s,
        durable_s,
        restart_s,
        stored_ratio,
        write_lat_ns,
        read_lat_ns,
        write_calls,
        write_bytes,
        layers: Vec::new(),
        spans: Vec::new(),
    };
    if let Some(tracer) = tracer {
        let spans = tracer.spans();
        out.layers = layers::metrics(&layers::Inputs {
            spans: &spans,
            write_calls,
            read_calls,
            write_bytes,
            ckpt: PhaseSnapshots {
                stats: (&ck_stats0, &ck_stats1),
                durable: durable1.since(&durable0),
                fast: fast1.since(&fast0),
            },
            restart: PhaseSnapshots {
                stats: (&rs_stats0, &rs_stats1),
                durable: durable2.since(&durable1),
                fast: fast2.since(&fast1),
            },
            tier: tier_delta(&tier1, &tier0),
            gc_reclaimed,
        });
        out.spans = spans;
    }
    Ok(out)
}

/// Tier counter growth from `b` to `a`; `resident_bytes` is a gauge and
/// keeps its later value.
fn tier_delta(a: &TierCounters, b: &TierCounters) -> TierCounters {
    TierCounters {
        drain_ops: a.drain_ops - b.drain_ops,
        drain_bytes: a.drain_bytes - b.drain_bytes,
        drain_failed: a.drain_failed - b.drain_failed,
        drain_dropped: a.drain_dropped - b.drain_dropped,
        write_through_ops: a.write_through_ops - b.write_through_ops,
        tier_promotes: a.tier_promotes - b.tier_promotes,
        evictions: a.evictions - b.evictions,
        barrier_waits: a.barrier_waits - b.barrier_waits,
        resident_bytes: a.resident_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crfs_blcr::WriteStats;

    fn write_stats(img: &ProcessImage) -> WriteStats {
        CheckpointWriter::new()
            .write_image(&mut io::sink(), img)
            .unwrap()
    }

    /// A small cycle, so tests stay quick.
    fn small(w: Workload) -> Plan {
        Plan {
            image_bytes: 6 << 20,
            epochs: w.epochs().min(5),
            ..Plan::new(w)
        }
    }

    #[test]
    fn same_seed_gives_the_same_images() {
        for w in Workload::ALL {
            let plan = Plan::new(w);
            let a = base_image(&plan, 7, 3, 1);
            let b = base_image(&plan, 7, 3, 1);
            assert!(a == b, "{}: same seed, different image", w.name());
            assert_eq!(stream_digest(&a), stream_digest(&b));
            assert_eq!(write_stats(&a), write_stats(&b));
        }
    }

    #[test]
    fn another_seed_gives_other_bytes_in_the_same_write_shape() {
        let plan = Plan::new(Workload::CkptDisk);
        let a = write_stats(&base_image(&plan, 7, 3, 1));
        let b_img = base_image(&plan, 8, 3, 1);
        let b = write_stats(&b_img);
        assert_ne!(
            stream_digest(&base_image(&plan, 7, 3, 1)),
            stream_digest(&b_img)
        );
        // Small regions are 8-64 KiB by the seed, so a few writes move
        // between size bands; the call count and the big writes do not.
        let shape = |s: &WriteStats| (s.writes, s.tiny_writes, s.huge_writes);
        assert_eq!(shape(&a), shape(&b));
        let close = |x: u64, y: u64| (x as f64 - y as f64).abs() / (x as f64) < 0.02;
        assert!(close(a.bytes, b.bytes), "{a:?} vs {b:?}");
        assert!(close(a.huge_bytes, b.huge_bytes), "{a:?} vs {b:?}");
    }

    #[test]
    fn dirty_epochs_rewrite_the_planned_share_of_pages() {
        let plan = Plan::new(Workload::IncrSnapshot);
        let base = base_image(&plan, 5, 0, 0);
        let next = image_at(&plan, 5, 0, 0, 1);
        let changed: usize = base
            .vmas
            .iter()
            .zip(&next.vmas)
            .map(|(a, b)| {
                a.data
                    .chunks(PAGE_SIZE)
                    .zip(b.data.chunks(PAGE_SIZE))
                    .filter(|(x, y)| x != y)
                    .count()
            })
            .sum();
        let pages = base.total_bytes() as usize / PAGE_SIZE;
        let share = changed as f64 / pages as f64;
        assert!((share - DIRTY_FRACTION).abs() < 0.03, "{share}");
        assert!(image_at(&plan, 5, 0, 0, 1) == next);
    }

    #[test]
    fn digest_does_not_depend_on_how_the_stream_is_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut whole = Digest::default();
        whole.update(&data);
        let mut pieces = Digest::default();
        for piece in data.chunks(13) {
            pieces.update(piece);
        }
        assert_eq!(whole.finish(), pieces.finish());
        let mut flipped = data.clone();
        flipped[500] ^= 1;
        let mut other = Digest::default();
        other.update(&flipped);
        assert_ne!(whole.finish(), other.finish());
    }

    #[test]
    fn same_seed_cycles_agree_and_restart_byte_exact() {
        for w in Workload::ALL {
            let plan = small(w);
            let tally = Tally::default();
            let a = run_cycle(&plan, 11, 1, false, &tally).unwrap();
            let b = run_cycle(&plan, 11, 1, true, &tally).unwrap();
            assert_eq!(tally.failed(), 0, "{}", w.name());
            assert_eq!(a.write_calls, b.write_calls, "{}", w.name());
            assert_eq!(a.write_bytes, b.write_bytes, "{}", w.name());
            if w == Workload::IncrSnapshot {
                assert_eq!(a.stored_ratio, b.stored_ratio);
                assert!(a.stored_ratio < 1.0, "dedup saved nothing");
            }
            let layer = |name: &str| b.layers.iter().find(|l| l.0 == name).unwrap().2;
            assert_eq!(layer("blcr.write_calls"), a.write_calls as f64);
        }
    }
}
