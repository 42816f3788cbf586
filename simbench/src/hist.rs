//! Span timers: call counts, total time, and a log-linear histogram of
//! per-call durations for percentiles.

use std::time::Instant;

/// Exact buckets below this many nanoseconds.
const EXACT: u64 = 64;
/// Sub-buckets per power of two above [`EXACT`] (≤ 3 % relative error).
const SUB: u64 = 32;
/// Bucket count covering every `u64` duration.
const BUCKETS: usize = (EXACT + (64 - 6) * SUB) as usize;

fn bucket(ns: u64) -> usize {
    if ns < EXACT {
        return ns as usize;
    }
    let e = 63 - u64::from(ns.leading_zeros()); // ≥ 6
    let mantissa = (ns >> (e - 5)) - SUB; // 0..32
    (EXACT + (e - 6) * SUB + mantissa) as usize
}

/// Midpoint of bucket `i`, in ns.
fn value_of(i: usize) -> f64 {
    let i = i as u64;
    if i < EXACT {
        return i as f64;
    }
    let e = (i - EXACT) / SUB + 6;
    let lo = ((i - EXACT) % SUB + SUB) << (e - 5);
    lo as f64 + (1u64 << (e - 5)) as f64 / 2.0
}

/// Calls into one public function, timed by the benchmark around each call.
#[derive(Debug, Clone)]
pub struct Timer {
    /// Calls recorded.
    pub calls: u64,
    /// Summed duration of every recorded span, in ns.
    pub total_ns: u128,
    counts: Vec<u64>,
}

impl Default for Timer {
    fn default() -> Self {
        Timer {
            calls: 0,
            total_ns: 0,
            counts: vec![0; BUCKETS],
        }
    }
}

impl Timer {
    /// Times one call of `f`.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_nanos() as u64);
        out
    }

    /// Records one call that took `ns`.
    pub fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.total_ns += u128::from(ns);
        self.counts[bucket(ns)] += 1;
    }

    /// Records `calls` calls covered by one span of `ns` (a batch too
    /// short per call to time individually): counts and total only.
    pub fn record_batch(&mut self, calls: u64, ns: u64) {
        self.calls += calls;
        self.total_ns += u128::from(ns);
    }

    /// Mean ns per call (0 with no calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    /// The `q`-quantile of individually recorded calls, in ns (0 when
    /// none were recorded individually).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let n: u64 = self.counts.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_of(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Smallest of `xs` (0 when empty).
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_tight() {
        let mut last = 0;
        for ns in (0..100_000u64).chain([1 << 40, u64::MAX]) {
            let b = bucket(ns);
            assert!(b >= last && b < BUCKETS);
            last = b;
            let mid = value_of(b);
            assert!(
                (mid - ns as f64).abs() <= (ns as f64 * 0.031).max(0.5),
                "{ns} -> {mid}"
            );
        }
    }

    #[test]
    fn quantiles_and_medians() {
        let mut t = Timer::default();
        for ns in 1..=100 {
            t.record(ns);
        }
        assert_eq!(t.calls, 100);
        assert!((t.quantile_ns(0.5) - 50.0).abs() <= 2.0);
        assert!((t.quantile_ns(0.99) - 99.0).abs() <= 3.0);
        assert!((t.mean_ns() - 50.5).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }
}
