//! Small shared helpers: order statistics, the trace digest, `/proc`
//! readers (peak RSS, CPU time, filesystem type) and seed derivation.

use pasgd_sim::RunTrace;
use std::path::Path;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice — every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending-sorted slice, nearest
/// rank.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// FNV-1a over 64-bit words: the `sim.digest` accumulator. Order-sensitive,
/// so equal digests mean equal traces in equal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in what the issue pins: rounds, then iterations, clock bits
    /// and loss bits of every point.
    pub fn trace(&mut self, trace: &RunTrace) {
        self.word(trace.rounds);
        for p in &trace.points {
            self.word(p.iterations);
            self.word(p.clock.to_bits());
            self.word(u64::from(p.train_loss.to_bits()));
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest as a metric value: the low 52 bits, which an `f64` (and
    /// so a JSON number) carries exactly.
    pub fn as_metric(self) -> f64 {
        (self.0 & ((1 << 52) - 1)) as f64
    }
}

/// SplitMix64 step — derives the independent streams (cluster seeds, data
/// seeds, request orders) the benchmark draws from its one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn proc_file(pid: Option<u32>, name: &str) -> Option<String> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{name}")).ok()
}

/// Peak resident set (`VmHWM`) of `pid` (or this process) in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = proc_file(pid, "status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(user, system)` CPU seconds consumed so far by `pid` (or this
/// process), all threads, from `/proc/<pid>/stat` at the kernel's 100 Hz
/// accounting tick.
pub fn cpu_secs(pid: Option<u32>) -> Option<(f64, f64)> {
    let stat = proc_file(pid, "stat")?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / 100.0, stime / 100.0))
}

/// Filesystem type backing `path`, from the longest matching mount point
/// in `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(mount).then_some((mount.len(), fstype))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// `nproc`, CPU model and the state directory's filesystem — the machine
/// line every report carries, since no number here means anything without
/// it.
pub fn machine_line(state_dir: &Path) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown CPU", str::trim);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "nproc={nproc} cpu=\"{model}\" state_dir={} state_fs={}",
        state_dir.display(),
        fs_type(state_dir)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn derived_streams_differ() {
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }
}
