//! Order statistics with the benchmark's tail rule.
//!
//! Tail percentiles are only as good as the samples beyond them, so a tail is
//! capped at the highest percentile that still has at least [`TAIL_MIN`]
//! samples above it: a `p99` over 300 samples is reported at the rank that
//! leaves 10 samples beyond it (about `p96.7`), never from the 3 largest
//! values. The effective percentile is reported next to the value.
//!
//! Central latencies use a *band median* instead of a single order
//! statistic: the mean of the samples ranked between the 40th and the 60th
//! percentile. Serving latencies are multimodal — a request's TTFT is a whole
//! number of prefill-chunk steps, a token gap depends on the batch size — and
//! a nearest-rank median jumps between neighbouring modes from run to run;
//! averaging the middle fifth of the ranks keeps the statistic where the
//! median is while smoothing that jump.

/// Samples a tail percentile must have beyond it.
pub const TAIL_MIN: usize = 10;

/// A percentile as reported: the value, the percentile its rank really
/// corresponds to, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The order statistic.
    pub value: f64,
    /// The percentile (0–1) of the rank actually used.
    pub effective_q: f64,
    /// Samples the statistic was taken over.
    pub n: usize,
}

/// Nearest-rank index (0-based) of percentile `q` in `n` sorted samples.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "no samples");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Nearest-rank percentile `q` of `samples` (any order), without the tail
/// rule — for medians and other central statistics. `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let k = nearest_rank(sorted.len(), q);
    Some(Quantile {
        value: sorted[k],
        effective_q: (k + 1) as f64 / sorted.len() as f64,
        n: sorted.len(),
    })
}

/// Tail percentile `q` of `samples` under the tail rule: the rank is capped
/// so that at least [`TAIL_MIN`] samples lie beyond it. With too few samples
/// for any such rank (`n <= TAIL_MIN`) the maximum is returned and its
/// `effective_q` is 1.0, so the report shows that no tail was resolvable.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    let k = if n > TAIL_MIN {
        nearest_rank(n, q).min(n - 1 - TAIL_MIN)
    } else {
        n - 1
    };
    Some(Quantile {
        value: sorted[k],
        effective_q: (k + 1) as f64 / n as f64,
        n,
    })
}

/// Half-width of the band [`band_median`] averages over, in percentile.
pub const BAND_HALF_WIDTH: f64 = 0.1;

/// Band median of `samples`: the mean of the order statistics ranked in
/// `[(0.5 - BAND_HALF_WIDTH) n, (0.5 + BAND_HALF_WIDTH) n)`, and at least
/// the nearest-rank median itself. `None` when empty.
pub fn band_median(samples: &[f64]) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    let mid = nearest_rank(n, 0.5);
    let lo = (((0.5 - BAND_HALF_WIDTH) * n as f64).floor() as usize).min(mid);
    let hi = (((0.5 + BAND_HALF_WIDTH) * n as f64).ceil() as usize).clamp(mid + 1, n);
    Some(Quantile {
        value: mean(&sorted[lo..hi]),
        effective_q: 0.5,
        n,
    })
}

/// Median by nearest rank (the lower middle for even counts); `None` when
/// empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5).map(|q| q.value)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
