//! Latency summaries: the median and the tail percentile.
//!
//! The tail is "the highest percentile with at least ten samples beyond
//! it": over `n` ascending samples that is the sample at rank `n - 11`
//! (0-based), reported as percentile `100 * (n - 10) / n` together with
//! `n`. A run with ten samples or fewer has no tail.

/// Samples that must lie strictly beyond the reported tail sample.
pub const TAIL_BEYOND: usize = 10;

/// Median and tail of one latency series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail sample (see the module doc).
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: f64,
}

/// Index, into `n` ascending samples, of the highest-ranked sample that
/// still has at least `beyond` samples above it.
pub fn tail_index(n: usize, beyond: usize) -> Option<usize> {
    (n > beyond).then(|| n - 1 - beyond)
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// Nearest-rank percentile `q` (0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Summarizes a latency series; `None` when it is too short to have a
/// tail.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let n = samples.len();
    let idx = tail_index(n, TAIL_BEYOND)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Summary {
        n,
        p50: median(&v)?,
        tail: v[idx],
        tail_pct: 100.0 * (idx + 1) as f64 / n as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_index(10, 10), None);
        assert_eq!(tail_index(11, 10), Some(0));
        assert_eq!(tail_index(100, 10), Some(89));
        assert_eq!(tail_index(1_000, 10), Some(989));
    }

    #[test]
    fn summary_reports_percentile_and_count() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        // Samples 91..=100 lie beyond the tail: exactly ten.
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        let beyond = samples.iter().filter(|&&x| x > s.tail).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn short_series_have_no_tail() {
        assert!(summarize(&[1.0; 10]).is_none());
        assert!(summarize(&[]).is_none());
        let s = summarize(&[3.0; 11]).unwrap();
        assert_eq!((s.tail, s.tail_pct), (3.0, 100.0 / 11.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(18.0));
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(20.0));
        assert_eq!(percentile(&[], 0.9), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
