//! Small statistics the benchmark reports: medians, the tail-percentile
//! rule, and slice slopes and growth ratios.

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail rule chooses from, highest last.
const TAIL_CANDIDATES: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// A distribution reported as its median and its highest percentile that
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile chosen (0 when no candidate qualifies).
    pub pct: f64,
    /// The value at that percentile (0 when none qualifies).
    pub value: f64,
}

/// Nearest-rank value at percentile `pct` of sorted `v`, with the number
/// of samples strictly beyond that rank.
fn nearest_rank(v: &[f64], pct: f64) -> (f64, usize) {
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    (v[rank - 1], v.len() - rank)
}

/// Apply the "≥ 10 samples beyond" rule over p90, p99, p99.9, p99.99.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mut t = Tail { n: v.len(), p50: median(&v), pct: 0.0, value: 0.0 };
    if v.is_empty() {
        return t;
    }
    for pct in TAIL_CANDIDATES {
        let (value, beyond) = nearest_rank(&v, pct);
        if beyond >= 10 {
            t.pct = pct;
            t.value = value;
        }
    }
    t
}

/// Least-squares slope of `ys` against `xs`; 0 with fewer than two
/// distinct x values.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let sxx: f64 = xs[..n].iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs[..n].iter().zip(&ys[..n]).map(|(x, y)| (x - mx) * (y - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// Ratio of the per-unit cost of a last slice to a first slice, given
/// each as (time, work): `(t_last / w_last) / (t_first / w_first)`. 0 when
/// either slice did no work or took no time.
pub fn growth(first: (f64, f64), last: (f64, f64)) -> f64 {
    let (tf, wf) = first;
    let (tl, wl) = last;
    if wf <= 0.0 || wl <= 0.0 || tf <= 0.0 {
        return 0.0;
    }
    (tl / wl) / (tf / wf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 1..=100 is 90 with exactly 10 beyond; p99 has only 1.
        let t = tail(&xs);
        assert_eq!((t.n, t.pct, t.value), (100, 90.0, 90.0));
        assert_eq!(t.p50, 50.5);

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!((tail(&xs).pct, tail(&xs).value), (99.0, 990.0));

        // 999 samples: p99's rank is 990, leaving 9 beyond, so p90 stays.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 90.0);

        // Too few samples for any tail.
        let t = tail(&[1.0, 2.0, 3.0]);
        assert_eq!((t.pct, t.value, t.p50), (0.0, 0.0, 2.0));
    }

    #[test]
    fn slope_of_a_line_and_degenerate_inputs() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [10.0, 12.0, 14.0, 16.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
        assert_eq!(slope(&[1.0], &[5.0]), 0.0);
        assert_eq!(slope(&[2.0, 2.0], &[1.0, 9.0]), 0.0);
    }

    #[test]
    fn growth_compares_unit_costs() {
        // 1 s for 1000 events, then 3 s for 2000: 1 ms → 1.5 ms per event.
        assert!((growth((1.0, 1000.0), (3.0, 2000.0)) - 1.5).abs() < 1e-12);
        assert_eq!(growth((1.0, 0.0), (1.0, 1.0)), 0.0);
    }
}
