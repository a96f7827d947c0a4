//! Seeded randomness, order statistics and process counters read from
//! `/proc`.

use std::fs;

/// splitmix64: a tiny, well-mixed generator, so the benchmark's inputs
/// depend on nothing but the seed it is given.
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from this seed and a label.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A placement seed: small enough to read in a report.
    pub fn placement_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Median (mean of the middle pair for even counts); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in 0..=100); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// User + system CPU seconds of this process so far, all threads
/// included. `/proc/self/stat` counts in clock ticks of `USER_HZ`, which
/// Linux fixes at 100 for user space.
pub fn process_cpu_s() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3, utime field 14, stime field 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Machine-wide (steal, total) clock ticks from `/proc/stat`.
pub fn machine_ticks() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Steal ticks over all ticks between two samples.
pub fn steal_share(a: (u64, u64), b: (u64, u64)) -> f64 {
    let total = b.1.saturating_sub(a.1);
    if total == 0 {
        0.0
    } else {
        b.0.saturating_sub(a.0) as f64 / total as f64
    }
}

/// A `kB` field of `/proc/self/status`, in MB (10^6 bytes).
fn status_mb(field: &str) -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// Peak resident set size so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// CPUs this process may run on, as `nproc` counts them.
pub fn nproc() -> usize {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let Some(list) = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))
        .and_then(|l| l.split_whitespace().nth(1))
    else {
        return 0;
    };
    list.split(',')
        .map(|part| match part.split_once('-') {
            Some((a, b)) => match (a.parse::<usize>(), b.parse::<usize>()) {
                (Ok(a), Ok(b)) if b >= a => b - a + 1,
                _ => 0,
            },
            None => usize::from(part.parse::<usize>().is_ok()),
        })
        .sum()
}

/// FNV-1a over bytes: a cheap content tag for the repeat record.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn seeded_streams_repeat() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut v: Vec<usize> = (0..10).collect();
        Rng::stream(3, 1).shuffle(&mut v);
        let mut w: Vec<usize> = (0..10).collect();
        Rng::stream(3, 1).shuffle(&mut w);
        assert_eq!(v, w);
    }
}
