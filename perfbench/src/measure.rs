//! Process-level measurements (CPU time, peak memory), per-metric sample
//! collection and the statistics the report is built from.

use std::collections::BTreeMap;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s followed by 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process, in seconds: every
/// thread, including threads that have already exited (the verifier spawns
/// and joins its workers per exploration level).
pub fn process_cpu_s() -> f64 {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of
    // `struct rusage` on 64-bit Linux, and RUSAGE_SELF is a valid `who`;
    // getrusage writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Named samples gathered during a traced run: span durations, per-call
/// micro-timings and work counts. Each per-layer metric is derived from one
/// name.
#[derive(Debug, Default)]
pub struct Samples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.by_name
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }

    pub fn mean(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().fold(0.0, |a, b| a + b)
    }

    pub fn max(&self, name: &str) -> f64 {
        self.get(name).iter().copied().fold(0.0, f64::max)
    }

    pub fn extend(&mut self, other: Samples) {
        for (name, values) in other.by_name {
            self.by_name.entry(name).or_default().extend(values);
        }
    }
}

/// Exact work counts of one workload, keyed by a stable name. Two runs with
/// the same seed must produce identical maps.
pub type Counts = BTreeMap<String, u64>;

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_measurements_are_positive() {
        let mut x = 0u64;
        for i in 0..1_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
