//! Summaries of a run: medians, quartile spread, tail percentiles,
//! peak memory and the provenance block every result carries.

use std::fs;
use std::path::Path;

use crate::workload::Digest;

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile with the method of Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method).
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The percentile reported as a run's tail latency. p99 is the highest
/// of the standard percentiles (p50, p90, p99, p99.9) that keeps at
/// least ten samples beyond it in every run of every workload; a fixed
/// percentile keeps runs with different cycle counts comparable.
pub const TAIL_PERCENTILE: f64 = 99.0;

/// A tail latency with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    pub value_ns: u64,
    /// Samples strictly above the value.
    pub beyond: usize,
    pub samples: usize,
}

/// The [`TAIL_PERCENTILE`] of `samples` (nearest rank); `None` when
/// empty.
pub fn tail(samples: &[u64]) -> Option<Tail> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    let rank = ((TAIL_PERCENTILE / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let value_ns = s[rank - 1];
    Some(Tail {
        value_ns,
        beyond: s.iter().filter(|&&x| x > value_ns).count(),
        samples: n,
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's commit when it is a git work tree, read without
/// running git; `None` otherwise.
pub fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// Digest of the sources the benchmark builds (`Cargo.*`, `src/`,
/// `crates/` and the benchmark's own sources), so a result names the
/// code it measured even in a checkout that is not a git work tree.
pub fn source_digest(root: &Path, bench_dir: &str) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml".to_string(),
        "Cargo.lock".to_string(),
        "src".to_string(),
        "crates".to_string(),
        format!("{bench_dir}/Cargo.toml"),
        format!("{bench_dir}/Cargo.lock"),
        format!("{bench_dir}/src"),
    ] {
        collect(&root.join(&top), &top, &mut files);
    }
    files.sort();
    let mut d = Digest::default();
    for (rel, path) in &files {
        d.update(rel.as_bytes());
        if let Ok(bytes) = fs::read(path) {
            d.update(&(bytes.len() as u64).to_le_bytes());
            d.update(&bytes);
        }
    }
    let (len, h) = d.finish();
    format!("{h:016x}-{len}")
}

fn collect(path: &Path, rel: &str, out: &mut Vec<(String, std::path::PathBuf)>) {
    if path.is_file() {
        out.push((rel.to_string(), path.to_path_buf()));
        return;
    }
    let Ok(entries) = fs::read_dir(path) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name().to_string_lossy().into_owned();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        let p = e.path();
        let r = format!("{rel}/{name}");
        if p.is_dir() {
            collect(&p, &r, out);
        } else if [".rs", ".toml", ".lock"].iter().any(|x| name.ends_with(x)) {
            out.push((r, p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_the_nearest_rank_p99() {
        let v: Vec<u64> = (1..=1000).rev().collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value_ns, 990);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        assert!(tail(&[]).is_none());
    }
}
