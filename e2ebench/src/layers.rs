//! Per-layer metrics of one traced cycle, and the span attribution that
//! checks them against the rank-phase spans.
//!
//! Counts come from `Crfs::stats()`, `TieredBackend::tier_counters()` and
//! the [`TracedBackend`](crate::trace::TracedBackend) device counters,
//! each read before and after a phase; busy times come from the
//! benchmark's spans around public calls.

use std::collections::{BTreeMap, HashMap};

use crfs_core::backend::TierCounters;
use crfs_core::{HistogramSnapshot, StatsSnapshot};

use crate::trace::{DeviceSnapshot, Span};

/// Counter readings around one phase of a cycle.
pub struct PhaseSnapshots<'a> {
    /// The phase's mount stats, before and after.
    pub stats: (&'a StatsSnapshot, &'a StatsSnapshot),
    /// Device counter growth over the phase.
    pub durable: DeviceSnapshot,
    pub fast: DeviceSnapshot,
}

pub struct Inputs<'a> {
    pub spans: &'a [Span],
    pub write_calls: u64,
    pub read_calls: u64,
    pub write_bytes: u64,
    /// Checkpoint mount: every epoch's checkpoint, barrier and GC.
    pub ckpt: PhaseSnapshots<'a>,
    /// Restart mount.
    pub restart: PhaseSnapshots<'a>,
    /// Tier counter growth over the checkpoint mount's lifetime.
    pub tier: TierCounters,
    pub gc_reclaimed: u64,
}

/// The value at quantile `q` of the samples a histogram gained between
/// two snapshots (bucket lower bound, in the histogram's unit).
pub fn hist_delta_quantile(a: &HistogramSnapshot, b: &HistogramSnapshot, q: f64) -> u64 {
    let before: HashMap<u64, u64> = a.buckets.iter().copied().collect();
    let delta: Vec<(u64, u64)> = b
        .buckets
        .iter()
        .map(|&(low, n)| (low, n - before.get(&low).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let total: u64 = delta.iter().map(|&(_, n)| n).sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0;
    for (low, n) in delta {
        seen += n;
        if seen >= rank {
            return low;
        }
    }
    unreachable!("rank is at most the total")
}

fn ratio(num: u64, den: u64) -> f64 {
    ratio_f(num as f64, den as f64)
}

fn busy_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns())
        .sum::<u64>() as f64
        / 1e9
}

/// Layers a rank-phase's time is attributed to. `backend.durable` and
/// `backend.fast` fold into `backend`.
pub const ATTRIB_LAYERS: [&str; 6] = ["blcr", "vfs", "fs", "snapshot", "backend", "bench"];

fn layer_key(layer: &str) -> &'static str {
    match layer {
        "blcr" => "blcr",
        "vfs" => "vfs",
        "fs" => "fs",
        "snapshot" => "snapshot",
        "bench" => "bench",
        l if l.starts_with("backend") => "backend",
        _ => "phase",
    }
}

/// Self-time attribution of one rank-phase.
#[derive(Debug, Clone)]
pub struct Attribution {
    pub phase: &'static str,
    pub phase_s: f64,
    /// Self seconds per layer, in [`ATTRIB_LAYERS`] order.
    pub self_s: [f64; 6],
    /// Share of the phase no child span covers.
    pub unattributed: f64,
    /// |phase − (Σ layer self + phase self)| / phase: 0 when the spans
    /// nest properly.
    pub residual: f64,
}

/// Per rank-phase: each span's self time is its duration minus its
/// children's; a phase's layer self times plus its own self time add up
/// to its duration.
pub fn attribute(spans: &[Span]) -> Vec<Attribution> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let self_ns = |s: &Span| {
        s.dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
    };
    let mut groups: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.group != 0) {
        groups.entry(s.group).or_default().push(s);
    }
    let mut out = Vec::new();
    for members in groups.into_values() {
        let Some(root) = members.iter().find(|s| s.parent == 0 && s.layer == "phase") else {
            continue;
        };
        let mut self_s = [0.0; 6];
        for s in &members {
            let key = layer_key(s.layer);
            if let Some(i) = ATTRIB_LAYERS.iter().position(|&l| l == key) {
                self_s[i] += self_ns(s) as f64 / 1e9;
            }
        }
        let phase_s = root.dur_ns() as f64 / 1e9;
        let root_self = self_ns(root) as f64 / 1e9;
        let covered: f64 = self_s.iter().sum();
        out.push(Attribution {
            phase: root.name,
            phase_s,
            self_s,
            unattributed: ratio_f(root_self, phase_s),
            residual: ratio_f((phase_s - covered - root_self).abs(), phase_s),
        });
    }
    out
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sums the attribution of every rank-phase named `phase`: (phase
/// seconds, self seconds per layer, unattributed share).
pub fn phase_totals(attrib: &[Attribution], phase: &str) -> (f64, [f64; 6], f64) {
    let mut total = 0.0;
    let mut layers = [0.0; 6];
    for a in attrib.iter().filter(|a| a.phase == phase) {
        total += a.phase_s;
        for (l, v) in layers.iter_mut().zip(a.self_s) {
            *l += v;
        }
    }
    let unattributed = attrib
        .iter()
        .filter(|a| a.phase == phase)
        .map(|a| a.unattributed * a.phase_s)
        .sum::<f64>();
    (total, layers, ratio_f(unattributed, total))
}

fn device(
    out: &mut Vec<(&'static str, &'static str, f64)>,
    names: [&'static str; 9],
    ck: &DeviceSnapshot,
    rs: &DeviceSnapshot,
) {
    let all = DeviceSnapshot {
        write_ops: ck.write_ops + rs.write_ops,
        write_bytes: ck.write_bytes + rs.write_bytes,
        write_ns: ck.write_ns + rs.write_ns,
        nonseq_writes: ck.nonseq_writes + rs.nonseq_writes,
        read_ops: ck.read_ops + rs.read_ops,
        read_bytes: ck.read_bytes + rs.read_bytes,
        read_ns: ck.read_ns + rs.read_ns,
        syncs: ck.syncs + rs.syncs,
        opens: ck.opens + rs.opens,
        errors: ck.errors + rs.errors,
    };
    let vals = [
        ("count", all.write_ops as f64),
        ("KiB", ratio(all.write_bytes, all.write_ops) / 1024.0),
        ("s", all.write_ns as f64 / 1e9),
        ("count", all.nonseq_writes as f64),
        ("count", all.read_ops as f64),
        ("s", all.read_ns as f64 / 1e9),
        ("count", all.syncs as f64),
        ("count", all.opens as f64),
        ("count", all.errors as f64),
    ];
    for (name, (unit, v)) in names.into_iter().zip(vals) {
        out.push((name, unit, v));
    }
}

/// Every per-layer metric of one traced cycle: (name, unit, value).
pub fn metrics(i: &Inputs) -> Vec<(&'static str, &'static str, f64)> {
    let (c0, c1) = i.ckpt.stats;
    let (r0, r1) = i.restart.stats;
    let d = |f: fn(&StatsSnapshot) -> u64| f(c1) - f(c0);
    let dr = |f: fn(&StatsSnapshot) -> u64| f(r1) - f(r0);
    let us = |ns: u64| ns as f64 / 1e3;
    let secs = |ns: u64| ns as f64 / 1e9;
    let stage_sum = |a: &HistogramSnapshot, b: &HistogramSnapshot| secs(b.sum - a.sum);
    let (cs0, cs1) = (&c0.stages, &c1.stages);
    let (rs0, rs1) = (&r0.stages, &r1.stages);

    let attrib = attribute(i.spans);
    let (_, ck_self, ck_unattr) = phase_totals(&attrib, "phase.ckpt");
    let (_, rs_self, rs_unattr) = phase_totals(&attrib, "phase.restart");

    let mut m = vec![
        ("blcr.write_calls", "count", i.write_calls as f64),
        ("blcr.read_calls", "count", i.read_calls as f64),
        ("blcr.write_bytes", "B", i.write_bytes as f64),
        ("vfs.write_busy_s", "s", busy_s(i.spans, "vfs.write")),
        ("vfs.read_busy_s", "s", busy_s(i.spans, "vfs.read")),
        ("fs.close_busy_s", "s", busy_s(i.spans, "fs.close")),
        (
            "fs.writes_per_backend_write",
            "ratio",
            ratio(d(|s| s.writes), d(|s| s.backend_writes)),
        ),
        ("fs.chunks_sealed", "count", d(|s| s.chunks_sealed) as f64),
        ("fs.partial_seals", "count", d(|s| s.partial_seals) as f64),
        (
            "pool.wait_s",
            "s",
            (c1.pool_wait - c0.pool_wait).as_secs_f64(),
        ),
        ("pool.waits", "count", d(|s| s.pool_waits) as f64),
        (
            "pool.wait_p99_us",
            "us",
            us(hist_delta_quantile(&cs0.pool_wait, &cs1.pool_wait, 0.99)),
        ),
        (
            "engine.write_busy_s",
            "s",
            stage_sum(&cs0.write_sync, &cs1.write_sync),
        ),
        (
            "engine.seal_to_submit_p99_us",
            "us",
            us(hist_delta_quantile(
                &cs0.seal_to_submit,
                &cs1.seal_to_submit,
                0.99,
            )),
        ),
        ("engine.inflight_hwm", "count", c1.inflight_hwm as f64),
        (
            "engine.avg_batch_len",
            "ratio",
            ratio(d(|s| s.chunks_sealed), d(|s| s.engine_submits)),
        ),
        (
            "engine.backend_writes",
            "count",
            d(|s| s.backend_writes) as f64,
        ),
        (
            "prefetch.hit_ratio",
            "ratio",
            ratio(
                dr(|s| s.read_hits),
                dr(|s| s.read_hits) + dr(|s| s.read_misses),
            ),
        ),
        (
            "prefetch.useful_ratio",
            "ratio",
            ratio(
                dr(|s| s.prefetch_completed).saturating_sub(dr(|s| s.prefetch_wasted)),
                dr(|s| s.prefetch_issued),
            ),
        ),
        (
            "prefetch.miss_p99_us",
            "us",
            us(hist_delta_quantile(&rs0.read_miss, &rs1.read_miss, 0.99)),
        ),
        (
            "transform.encode_busy_s",
            "s",
            stage_sum(&cs0.transform_encode, &cs1.transform_encode),
        ),
        (
            "transform.decode_busy_s",
            "s",
            stage_sum(&rs0.transform_decode, &rs1.transform_decode),
        ),
        // Frames in the live files (reference records on a snapshot
        // mount) plus chunk payloads in the snapshot content store.
        (
            "transform.stored_per_logical",
            "ratio",
            ratio(
                d(|s| s.bytes_stored) + d(|s| s.snapshot_bytes),
                d(|s| s.bytes_logical),
            ),
        ),
        (
            "transform.dedup_hit_ratio",
            "ratio",
            ratio(d(|s| s.dedup_hits), d(|s| s.chunks_sealed)),
        ),
        (
            "transform.integrity_failures",
            "count",
            (d(|s| s.integrity_failures) + dr(|s| s.integrity_failures)) as f64,
        ),
        (
            "snapshot.seal_busy_s",
            "s",
            busy_s(i.spans, "fs.advance_epoch"),
        ),
        (
            "snapshot.chunks_written",
            "count",
            d(|s| s.snapshot_chunks) as f64,
        ),
        ("snapshot.gc_busy_s", "s", busy_s(i.spans, "fs.snapshot_gc")),
        (
            "snapshot.gc_reclaimed_chunks",
            "count",
            i.gc_reclaimed as f64,
        ),
        (
            "tiered.write_through_ops",
            "count",
            i.tier.write_through_ops as f64,
        ),
        ("tiered.drain_ops", "count", i.tier.drain_ops as f64),
        ("tiered.drain_bytes", "B", i.tier.drain_bytes as f64),
        (
            "tiered.drain_copy_p99_us",
            "us",
            us(hist_delta_quantile(&cs0.drain_copy, &cs1.drain_copy, 0.99)),
        ),
        (
            "tiered.drain_wait_s",
            "s",
            stage_sum(&cs0.drain_wait, &cs1.drain_wait),
        ),
        (
            "tiered.fast_reread_bytes",
            "B",
            i.ckpt.fast.read_bytes as f64,
        ),
        ("tiered.durable_opens", "count", i.ckpt.durable.opens as f64),
    ];
    device(
        &mut m,
        [
            "backend.durable.write_ops",
            "backend.durable.mean_write_kib",
            "backend.durable.write_busy_s",
            "backend.durable.nonseq_writes",
            "backend.durable.read_ops",
            "backend.durable.read_busy_s",
            "backend.durable.syncs",
            "backend.durable.opens",
            "backend.durable.errors",
        ],
        &i.ckpt.durable,
        &i.restart.durable,
    );
    device(
        &mut m,
        [
            "backend.fast.write_ops",
            "backend.fast.mean_write_kib",
            "backend.fast.write_busy_s",
            "backend.fast.nonseq_writes",
            "backend.fast.read_ops",
            "backend.fast.read_busy_s",
            "backend.fast.syncs",
            "backend.fast.opens",
            "backend.fast.errors",
        ],
        &i.ckpt.fast,
        &i.restart.fast,
    );
    const CKPT_SELF: [&str; 6] = [
        "self.ckpt.blcr_s",
        "self.ckpt.vfs_s",
        "self.ckpt.fs_s",
        "self.ckpt.snapshot_s",
        "self.ckpt.backend_s",
        "self.ckpt.bench_s",
    ];
    const RESTART_SELF: [&str; 6] = [
        "self.restart.blcr_s",
        "self.restart.vfs_s",
        "self.restart.fs_s",
        "self.restart.snapshot_s",
        "self.restart.backend_s",
        "self.restart.bench_s",
    ];
    for (name, v) in CKPT_SELF.into_iter().zip(ck_self) {
        m.push((name, "s", v));
    }
    for (name, v) in RESTART_SELF.into_iter().zip(rs_self) {
        m.push((name, "s", v));
    }
    m.push(("attrib.ckpt_unattributed", "ratio", ck_unattr));
    m.push(("attrib.restart_unattributed", "ratio", rs_unattr));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, group: u64, layer: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            group,
            name: layer,
            layer,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_times_add_up_to_the_phase() {
        let spans = vec![
            span(2, 1, 9, "blcr", 10, 90),
            span(3, 2, 9, "vfs", 20, 50),
            span(4, 3, 9, "backend.durable", 30, 40),
            span(5, 1, 9, "fs", 90, 95),
            span(1, 0, 9, "phase", 0, 100),
            span(6, 0, 0, "backend.durable", 0, 500),
        ];
        let a = attribute(&spans);
        assert_eq!(a.len(), 1);
        let a = &a[0];
        assert!((a.phase_s - 100e-9).abs() < 1e-15);
        // blcr 80 - 30 = 50, vfs 30 - 10 = 20, backend 10, fs 5; the
        // phase itself covers 15 of 100.
        assert!((a.self_s[0] - 50e-9).abs() < 1e-15);
        assert!((a.self_s[1] - 20e-9).abs() < 1e-15);
        assert!((a.self_s[2] - 5e-9).abs() < 1e-15);
        assert!((a.self_s[4] - 10e-9).abs() < 1e-15);
        assert!((a.unattributed - 0.15).abs() < 1e-9);
        assert!(a.residual < 1e-9);
    }

    #[test]
    fn histogram_delta_ignores_earlier_samples() {
        let a = HistogramSnapshot {
            buckets: vec![(100, 50)],
            ..Default::default()
        };
        let b = HistogramSnapshot {
            buckets: vec![(100, 50), (1000, 99), (5000, 1)],
            ..Default::default()
        };
        assert_eq!(hist_delta_quantile(&a, &b, 0.5), 1000);
        assert_eq!(hist_delta_quantile(&a, &b, 0.999), 5000);
        assert_eq!(hist_delta_quantile(&a, &a, 0.99), 0);
    }
}
