//! The benchmark's own statistics: order statistics, geometric means,
//! failure shares and closed-loop accounting. Everything here is pure and
//! unit-tested, because every reported number passes through it.

/// The smallest number of samples that must lie strictly beyond a
/// reported percentile. A tail percentile with fewer samples past it is
/// an anecdote, not a statistic.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending) at `p` in `[0, 100]`:
/// the smallest sample with at least `p`% of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`
/// of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// [`percentile`], refusing a tail that has fewer than
/// [`MIN_TAIL_SAMPLES`] samples beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let beyond = samples_beyond(sorted.len(), p);
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {} samples has only {beyond} beyond it (need {MIN_TAIL_SAMPLES})",
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p).expect("non-empty"))
}

/// The median of `values` (mean of the middle pair for even counts).
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The geometric mean of strictly positive `values`. `None` when the
/// slice is empty or holds a value that is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Failed operations as a share of attempted ones. An empty run has no
/// share.
pub fn failure_share(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// Accounting for one closed-loop client: each request is sent only
/// after the previous reply arrived, so the client's latencies tile its
/// busy time.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    /// Per-request latency, milliseconds, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Requests that failed (error reply, wrong answer, wrong cache status).
    pub failed: u64,
}

impl ClosedLoop {
    /// Record one completed request.
    pub fn record(&mut self, latency_ms: f64, ok: bool) {
        self.latencies_ms.push(latency_ms);
        if !ok {
            self.failed += 1;
        }
    }

    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies_ms.len() as u64
    }

    /// Sum of the latencies, milliseconds: the time the client spent
    /// waiting on replies. It can never exceed the loop's wall time.
    pub fn busy_ms(&self) -> f64 {
        self.latencies_ms.iter().sum()
    }
}

/// The merged view over every client of one closed loop.
#[derive(Debug, Clone)]
pub struct LoopSummary {
    /// Requests attempted over all clients.
    pub attempted: u64,
    /// Requests failed over all clients.
    pub failed: u64,
    /// Completed requests per second of wall time.
    pub rps: f64,
    /// All latencies, sorted ascending, milliseconds.
    pub sorted_ms: Vec<f64>,
}

impl LoopSummary {
    /// Merge `clients` that ran concurrently for `wall_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics when a client reports more busy time than the wall time,
    /// which would mean the loop was not closed or the clock is wrong.
    pub fn merge(clients: &[ClosedLoop], wall_s: f64) -> LoopSummary {
        for c in clients {
            assert!(
                c.busy_ms() <= wall_s * 1e3 * (1.0 + 1e-9) + 1e-6,
                "a closed-loop client was busy {:.3} ms in a {:.3} ms loop",
                c.busy_ms(),
                wall_s * 1e3
            );
        }
        let mut sorted_ms: Vec<f64> = clients
            .iter()
            .flat_map(|c| c.latencies_ms.iter().copied())
            .collect();
        sorted_ms.sort_by(f64::total_cmp);
        let attempted = clients.iter().map(ClosedLoop::attempted).sum();
        LoopSummary {
            attempted,
            failed: clients.iter().map(|c| c.failed).sum(),
            rps: if wall_s > 0.0 {
                attempted as f64 / wall_s
            } else {
                0.0
            },
            sorted_ms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Ten samples: p50 is the fifth, p90 the ninth.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 50.0), Some(5.0));
        assert_eq!(percentile(&ten, 90.0), Some(9.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond it: allowed.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(tail_percentile(&hundred, 90.0), Ok(90.0));
        // p90 of 99 samples leaves 9: refused.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(tail_percentile(&hundred[..99], 90.0).is_err());
        // p99 needs 1,000 samples.
        assert!(tail_percentile(&hundred, 99.0).is_err());
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(&thousand, 99.0), Ok(990.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geometric_means() {
        assert_eq!(geomean(&[4.0]), Some(4.0));
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
        assert_eq!(geomean(&[-1.0]), None);
    }

    #[test]
    fn failure_shares() {
        assert_eq!(failure_share(0, 10), Some(0.0));
        assert_eq!(failure_share(3, 12), Some(0.25));
        assert_eq!(failure_share(0, 0), None);
    }

    #[test]
    fn closed_loop_accounting() {
        let mut a = ClosedLoop::default();
        a.record(1.0, true);
        a.record(3.0, false);
        let mut b = ClosedLoop::default();
        b.record(2.0, true);
        assert_eq!(a.attempted(), 2);
        assert_eq!(a.failed, 1);
        assert_eq!(a.busy_ms(), 4.0);
        let s = LoopSummary::merge(&[a, b], 0.004);
        assert_eq!(s.attempted, 3);
        assert_eq!(s.failed, 1);
        assert_eq!(s.sorted_ms, vec![1.0, 2.0, 3.0]);
        assert!((s.rps - 750.0).abs() < 1e-9, "{}", s.rps);
    }

    #[test]
    #[should_panic(expected = "closed-loop client")]
    fn closed_loop_rejects_overlapping_requests() {
        let mut a = ClosedLoop::default();
        a.record(5.0, true);
        a.record(5.0, true);
        // Two 5 ms requests cannot both complete in a 6 ms closed loop.
        LoopSummary::merge(&[a], 0.006);
    }
}
