//! Order statistics, the growing-backlog detector, and the bisection that
//! finds the highest sustainable rate (`max_rps`).

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`); `None`
/// when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Whether latencies (in schedule order, ms) show a backlog that grows
/// through the phase: the median of the last quarter exceeds the median of
/// the first quarter by more than a quarter of the latency limit. A backlog
/// growing that fast crosses the limit within a few more phase lengths, even
/// when this phase's p99 still meets it.
pub fn backlog_grows(latencies_ms: &[f64], limit_ms: f64) -> bool {
    let quarter = latencies_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&latencies_ms[..quarter]);
    let last = median(&latencies_ms[latencies_ms.len() - quarter..]);
    last - first > limit_ms / 4.0
}

/// Whether one rate step is sustainable: its p99 (failed requests counted
/// as infinitely late) meets the limit, at most 1% failed, and the backlog
/// does not grow.
pub fn sustainable(latencies_with_failures_ms: &[f64], limit_ms: f64) -> bool {
    let n = latencies_with_failures_ms.len();
    if n == 0 {
        return false;
    }
    let failed = latencies_with_failures_ms
        .iter()
        .filter(|l| l.is_infinite())
        .count();
    let p99 = percentile(&sorted(latencies_with_failures_ms), 0.99).unwrap_or(f64::INFINITY);
    failed * 100 <= n && p99 <= limit_ms && !backlog_grows(latencies_with_failures_ms, limit_ms)
}

/// Bisect `[lo, hi]` for the highest rate `probe` accepts, assuming `lo`
/// passes and `hi` fails. Probes `steps` rates; the last step's width is
/// `(hi - lo) / 2^steps`.
pub fn find_knee(lo: f64, hi: f64, steps: usize, mut probe: impl FnMut(f64) -> bool) -> f64 {
    let (mut good, mut bad) = (lo, hi);
    for _ in 0..steps {
        let mid = (good + bad) / 2.0;
        if probe(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    good
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), Some(50.0));
        assert_eq!(percentile(&values, 0.99), Some(99.0));
        assert_eq!(percentile(&values, 1.0), Some(100.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    /// Latencies for a synthetic server of capacity `capacity` req/s with a
    /// 5 ms floor: below capacity the latency is flat; above it the backlog
    /// grows by `(rate - capacity)` requests every second.
    fn synthetic_step(rate: f64, capacity: f64) -> Vec<f64> {
        let n = (rate * 1.5) as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / rate;
                let backlog = ((rate - capacity) * t).max(0.0);
                5.0 + 1e3 * backlog / capacity
            })
            .collect()
    }

    #[test]
    fn monotone_knee_is_found_within_one_step() {
        let capacity = 731.0;
        let (lo, hi, steps) = (200.0, 2000.0, 6);
        let mut probes = 0;
        let knee = find_knee(lo, hi, steps, |rate| {
            probes += 1;
            sustainable(&synthetic_step(rate, capacity), 50.0)
        });
        assert_eq!(probes, steps);
        let step = (hi - lo) / f64::powi(2.0, steps as i32);
        assert!(knee <= capacity + step, "knee {knee} above capacity");
        assert!(
            capacity - knee <= step,
            "knee {knee} more than one step below"
        );
    }

    #[test]
    fn flat_p99_with_a_growing_backlog_is_rejected() {
        // Latency climbs steadily from 2 ms to 22 ms: p99 stays far under the
        // 50 ms limit, but the queue is growing.
        let growing: Vec<f64> = (0..2000).map(|i| 2.0 + 0.01 * i as f64).collect();
        let p99 = percentile(&sorted(&growing), 0.99).unwrap();
        assert!(p99 < 50.0);
        assert!(backlog_grows(&growing, 50.0));
        assert!(!sustainable(&growing, 50.0));

        // Noisy but flat latency passes.
        let flat: Vec<f64> = (0..2000).map(|i| 5.0 + (i % 7) as f64).collect();
        assert!(!backlog_grows(&flat, 50.0));
        assert!(sustainable(&flat, 50.0));
    }

    #[test]
    fn failures_miss_the_limit() {
        let mut latencies = vec![5.0; 1000];
        for l in latencies.iter_mut().take(11) {
            *l = f64::INFINITY;
        }
        assert!(!sustainable(&latencies, 50.0));
        latencies[10] = 5.0;
        assert!(sustainable(&latencies, 50.0));
    }
}
