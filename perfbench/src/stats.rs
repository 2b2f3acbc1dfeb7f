//! Order statistics and open-loop latency accounting.

/// Median of `values`: the mean of the two middle values for an even
/// count, 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail rule may pick, in hundredths of a percent,
/// highest first.
const TAIL_LADDER_BP: [u64; 5] = [9999, 9990, 9900, 9000, 5000];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: u64 = 10;

/// The highest percentile of the ladder (p99.99, p99.9, p99, p90, p50)
/// that has at least ten of `n` samples beyond it, in hundredths of a
/// percent; `None` when even the median does not.
pub fn tail_percentile_bp(n: usize) -> Option<u64> {
    let n = n as u64;
    TAIL_LADDER_BP
        .iter()
        .copied()
        .find(|&bp| n * (10_000 - bp) / 10_000 >= MIN_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted`, with `bp` in
/// hundredths of a percent; 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], bp: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * bp).div_ceil(10_000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Latency recorded for a request that failed or was refused: it
/// misses any latency limit, so it sorts above every answered request.
pub const FAILED_US: u64 = u64::MAX;

/// One open-loop request, in microseconds since the phase started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DueTimed {
    /// When the schedule said to send it.
    pub due_us: u64,
    /// When the generator actually sent it.
    pub sent_us: u64,
    /// When a correct answer arrived; `None` if it failed.
    pub done_us: Option<u64>,
}

impl DueTimed {
    /// Latency counted from the due time, so a generator or server
    /// stall is charged to every request it delayed.
    pub fn latency_us(&self) -> u64 {
        self.done_us
            .map_or(FAILED_US, |done| done.saturating_sub(self.due_us))
    }

    /// How late the generator sent the request.
    pub fn lateness_us(&self) -> u64 {
        self.sent_us.saturating_sub(self.due_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile_bp(0), None);
        assert_eq!(tail_percentile_bp(19), None);
        assert_eq!(tail_percentile_bp(20), Some(5000));
        assert_eq!(tail_percentile_bp(99), Some(5000));
        assert_eq!(tail_percentile_bp(100), Some(9000));
        assert_eq!(tail_percentile_bp(999), Some(9000));
        assert_eq!(tail_percentile_bp(1000), Some(9900));
        assert_eq!(tail_percentile_bp(9_999), Some(9900));
        assert_eq!(tail_percentile_bp(10_000), Some(9990));
        assert_eq!(tail_percentile_bp(100_000), Some(9999));
        assert_eq!(tail_percentile_bp(10_000_000), Some(9999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 5000), 50);
        assert_eq!(percentile_sorted(&v, 9000), 90);
        assert_eq!(percentile_sorted(&v, 9900), 99);
        assert_eq!(percentile_sorted(&v, 9999), 100);
        assert_eq!(percentile_sorted(&[7], 5000), 7);
        assert_eq!(percentile_sorted(&[], 5000), 0);
    }

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        // Sent 300 µs late and answered 100 µs after sending: the
        // request waited 400 µs from when it was due.
        let r = DueTimed {
            due_us: 1_000,
            sent_us: 1_300,
            done_us: Some(1_400),
        };
        assert_eq!(r.latency_us(), 400);
        assert_eq!(r.lateness_us(), 300);
        let on_time = DueTimed {
            due_us: 1_000,
            sent_us: 1_000,
            done_us: Some(1_150),
        };
        assert_eq!(on_time.latency_us(), 150);
        assert_eq!(on_time.lateness_us(), 0);
    }

    #[test]
    fn failed_requests_miss_every_latency_limit() {
        let failed = DueTimed {
            due_us: 10,
            sent_us: 10,
            done_us: None,
        };
        assert_eq!(failed.latency_us(), FAILED_US);
        // Half the requests failing drags the median onto a failure.
        let mut lat = vec![100, 120, FAILED_US, FAILED_US];
        lat.sort_unstable();
        assert_eq!(percentile_sorted(&lat, 5000), 120);
        lat.push(FAILED_US);
        lat.sort_unstable();
        assert_eq!(percentile_sorted(&lat, 5000), FAILED_US);
    }
}
