//! End-to-end checkpoint → durable → restart benchmark for CRFS.
//!
//! ```text
//! e2ebench --workload <ckpt-disk|tiered-rpc|incr-snapshot> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one warm-up cycle, then checkpoint/restart cycles until
//! `--seconds` have passed (at least three), and prints one JSON object
//! as its last line: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! no tracing; with `--trace 1` cycles alternate untraced and traced,
//! and the metrics are the per-layer ones of the traced cycles plus the
//! tracing overhead. Each run also writes a report with its provenance
//! (and, traced, its spans) under `out/` in the benchmark's directory.
//! See README.md there.

mod layers;
mod report;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::{json, Value};

use crate::layers::ATTRIB_LAYERS;
use crate::report::{median, spread, tail};
use crate::workload::{run_cycle, Cycle, Plan, Tally, Workload, RANKS};

const USAGE: &str = "usage: e2ebench --workload <ckpt-disk|tiered-rpc|incr-snapshot> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Measured cycles a run makes at least, whatever `--seconds` says.
const MIN_CYCLES: usize = 3;
/// Of each kind (untraced, traced) in a traced run.
const MIN_TRACED_CYCLES: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `{name: {"value", "unit"}}` for a metric list.
fn metrics(list: &[(String, &str, f64)]) -> Value {
    Value::Object(
        list.iter()
            .map(|(name, unit, v)| (name.clone(), json!({"value": *v, "unit": *unit})))
            .collect(),
    )
}

/// Reads one end-to-end time or ratio from a cycle: one value, or one
/// per restart.
type Column = fn(&Cycle) -> Vec<f64>;

/// The end-to-end metrics taken as medians over cycles. Entries 1..4
/// (checkpoint, durable, restart) also give the tracing overhead.
const COLUMNS: [(&str, &str, Column); 5] = [
    ("setup_s", "s", |c| vec![c.setup_s]),
    ("ckpt_s", "s", |c| vec![c.ckpt_s]),
    ("durable_s", "s", |c| vec![c.durable_s]),
    ("restart_s", "s", |c| c.restart_s.clone()),
    ("stored_ratio", "ratio", |c| vec![c.stored_ratio]),
];

fn column(set: &[&Cycle], f: Column) -> Vec<f64> {
    set.iter().flat_map(|c| f(c)).collect()
}

/// Pins glibc's mmap threshold at its documented default (128 KiB),
/// which also turns off its dynamic adjustment. Without this, every
/// free of a large buffer raises the threshold, later buffers come from
/// thread arenas that keep freed memory, and peak RSS grows with the
/// allocation history of the run instead of with the data it holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
    }
    const M_MMAP_THRESHOLD: std::ffi::c_int = -3;
    // SAFETY: `mallopt` is glibc's documented tuning entry point; it
    // takes two integers, touches only allocator state, and is called
    // once here before the benchmark starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let plan = Plan::new(w);
    let tally = Tally::default();

    // Warm-up: verified and tallied, not measured.
    let mut fatal = run_cycle(&plan, args.seed, 0, false, &tally).err();
    let measure_start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut index = 1;
    while fatal.is_none() {
        let traced_n = cycles.iter().filter(|c| c.traced).count();
        let untraced_n = cycles.len() - traced_n;
        let enough = if args.trace {
            untraced_n >= MIN_TRACED_CYCLES && traced_n >= MIN_TRACED_CYCLES
        } else {
            cycles.len() >= MIN_CYCLES
        };
        if enough && measure_start.elapsed() >= budget {
            break;
        }
        let traced = args.trace && index % 2 == 0;
        match run_cycle(&plan, args.seed, index, traced, &tally) {
            Ok(c) => cycles.push(c),
            Err(e) => fatal = Some(e),
        }
        index += 1;
    }

    let untraced: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();

    // End-to-end metrics: untraced cycles only.
    let mut e2e: Vec<(String, &str, f64)> = Vec::new();
    let mut spreads = Vec::new();
    for (name, unit, f) in COLUMNS {
        let v = column(&untraced, f);
        e2e.push((name.to_string(), unit, median(&v)));
        spreads.push((name.to_string(), json!(spread(&v))));
    }
    let pooled = |f: fn(&Cycle) -> &Vec<u64>| -> Vec<u64> {
        untraced.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let write_tail = tail(&pooled(|c| &c.write_lat_ns));
    let read_tail = tail(&pooled(|c| &c.read_lat_ns));
    for (name, t) in [("write_tail_us", write_tail), ("read_tail_us", read_tail)] {
        if let Some(t) = t {
            e2e.push((name.to_string(), "us", t.value_ns as f64 / 1e3));
        }
    }
    e2e.push(("peak_rss_mib".to_string(), "MiB", report::peak_rss_mib()));

    // Per-layer metrics: medians over traced cycles, plus tracing
    // overhead against the interleaved untraced cycles.
    let mut per_layer: Vec<(String, &str, f64)> = Vec::new();
    if let Some(first) = traced.first() {
        for (k, &(name, unit, _)) in first.layers.iter().enumerate() {
            let v: Vec<f64> = traced.iter().map(|c| c.layers[k].2).collect();
            per_layer.push((name.to_string(), unit, median(&v)));
        }
        for (name, _, f) in &COLUMNS[1..4] {
            let base = median(&column(&untraced, *f));
            let with = median(&column(&traced, *f));
            let over = if base > 0.0 { with / base - 1.0 } else { 0.0 };
            let metric = format!("trace.{}_overhead", name.trim_end_matches("_s"));
            per_layer.push((metric, "ratio", over));
        }
    }

    let attempted = tally.attempted().max(1);
    let failed = tally.failed() + u64::from(fatal.is_some());
    let correct = failed == 0 && fatal.is_none();

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .file_name()
        .expect("benchmark directory name")
        .to_string_lossy()
        .into_owned();
    let tail_json = |t: Option<report::Tail>| match t {
        Some(t) => json!({
            "value_us": t.value_ns as f64 / 1e3,
            "percentile": report::TAIL_PERCENTILE,
            "samples": t.samples,
            "beyond": t.beyond,
        }),
        None => Value::Null,
    };
    let input_bytes = cycles.first().map_or(0, |c| c.write_bytes);
    let provenance = json!({
        "benchmark": "crfs-e2ebench",
        "workload": w.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": report::git_commit(root).unwrap_or_else(|| "unknown".to_string()),
        "source_digest": report::source_digest(root, &bench_dir),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
        "ranks": RANKS,
        "image_bytes_per_rank": plan.image_bytes,
        "epochs_per_cycle": plan.epochs,
        "restarts_per_cycle": workload::RESTARTS,
        "input_bytes_per_cycle": input_bytes,
        "config": format!("{:?}", w.config()),
        "cycles": json!({
            "warmup": 1,
            "untraced": untraced.len(),
            "traced": traced.len(),
        }),
        "measured_s": measure_start.elapsed().as_secs_f64(),
        "write_tail": tail_json(write_tail),
        "read_tail": tail_json(read_tail),
        "spread_iqr_over_median": Value::Object(spreads),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed as f64 / attempted as f64,
        "fatal": fatal.clone(),
    });

    // Human-readable summary on stderr; the report file keeps the rest.
    eprintln!(
        "e2ebench {} seed {}: {} untraced + {} traced cycles, {}/{} failed",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        failed,
        attempted
    );
    for (name, unit, v) in &e2e {
        eprintln!("  {name:<16} {v:>12.4} {unit}");
    }
    let attribution = if args.trace {
        attribution_report(&traced)
    } else {
        Value::Null
    };
    if args.trace {
        eprintln!("  attribution (self seconds per rank-phase, summed over traced cycles):");
        eprintln!(
            "{}",
            serde_json::to_string_pretty(&attribution).expect("infallible")
        );
    }

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    let report_json = json!({
        "provenance": provenance.clone(),
        "end_to_end": metrics(&e2e),
        "per_layer": metrics(&per_layer),
        "attribution": attribution,
        "per_cycle": Value::Array(cycles.iter().map(cycle_json).collect()),
    });
    if let Err(e) = write_outputs(&out_dir, &stem, &report_json, &traced) {
        eprintln!(
            "e2ebench: could not write report under {}: {e}",
            out_dir.display()
        );
    }

    println!("{}", json!({"provenance": provenance}));
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics(if args.trace { &per_layer } else { &e2e }),
        })
    );
    if fatal.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cycle_json(c: &Cycle) -> Value {
    json!({
        "traced": c.traced,
        "setup_s": c.setup_s,
        "ckpt_s": c.ckpt_s,
        "durable_s": c.durable_s,
        "restart_s": c.restart_s.clone(),
        "stored_ratio": c.stored_ratio,
        "write_calls": c.write_calls,
        "read_calls": c.read_lat_ns.len(),
        "write_p99_us": tail(&c.write_lat_ns).map_or(0.0, |t| t.value_ns as f64 / 1e3),
        "read_p99_us": tail(&c.read_lat_ns).map_or(0.0, |t| t.value_ns as f64 / 1e3),
    })
}

/// Per rank-phase kind: summed phase seconds, self seconds per layer,
/// the unattributed share, and the worst nesting residual.
fn attribution_report(traced: &[&Cycle]) -> Value {
    let mut by_phase: BTreeMap<&str, Vec<layers::Attribution>> = BTreeMap::new();
    for c in traced {
        for a in layers::attribute(&c.spans) {
            by_phase.entry(a.phase).or_default().push(a);
        }
    }
    let mut out = Vec::new();
    for (phase, list) in &by_phase {
        let (total, self_s, unattributed) = layers::phase_totals(list, phase);
        let worst = list.iter().map(|a| a.residual).fold(0.0, f64::max);
        let layers: Vec<(String, Value)> = ATTRIB_LAYERS
            .iter()
            .zip(self_s)
            .map(|(l, v)| (l.to_string(), json!(v)))
            .collect();
        out.push((
            phase.to_string(),
            json!({
                "rank_phases": list.len(),
                "phase_s": total,
                "self_s": Value::Object(layers),
                "unattributed": unattributed,
                "max_residual": worst,
            }),
        ));
    }
    Value::Object(out)
}

fn write_outputs(dir: &Path, stem: &str, report: &Value, traced: &[&Cycle]) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{stem}.json")),
        serde_json::to_string_pretty(report).expect("infallible") + "\n",
    )?;
    if traced.is_empty() {
        return Ok(());
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{stem}.spans.jsonl")),
    )?);
    for (k, c) in traced.iter().enumerate() {
        for s in &c.spans {
            let line = json!({
                "cycle": k,
                "id": s.id,
                "parent": s.parent,
                "group": s.group,
                "name": s.name,
                "layer": s.layer,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
            });
            writeln!(f, "{line}")?;
        }
    }
    f.flush()
}
