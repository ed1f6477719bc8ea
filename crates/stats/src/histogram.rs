//! Fixed-bin histogram for transmission-time distributions.
//!
//! Fig. 3 of the paper shows per-connection transmission times scattering
//! around the mean with a long straggler tail; the experiment code uses this
//! histogram to report that distribution in text form.

/// A histogram over a fixed `[lo, hi)` range with equal-width bins.
///
/// Out-of-range samples are counted in saturating underflow/overflow buckets
/// rather than dropped, so the total count is always the number of pushes.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo` — both indicate programmer error
    /// at experiment-definition time, not data-dependent failure.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, value: f64) {
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Floating-point edge: value just below `hi` can round to len().
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Total number of samples, including under/overflow.
    pub fn count(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Number of samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Number of samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Bin counts, lowest bin first.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// `(lower_edge, upper_edge, count)` per bin.
    pub fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins.iter().enumerate().map(move |(i, &c)| {
            let lo = self.lo + width * i as f64;
            (lo, lo + width, c)
        })
    }

    /// Renders a compact ASCII bar chart, one line per bin.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (lo, hi, c) in self.iter_bins() {
            let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
            out.push_str(&format!(
                "[{lo:>12.6}, {hi:>12.6}) {c:>8} {}\n",
                "#".repeat(bar_len)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_expected_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.push(0.0);
        h.push(0.5);
        h.push(9.99);
        h.push(5.0);
        assert_eq!(h.bins()[0], 2);
        assert_eq!(h.bins()[9], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn out_of_range_counted_not_dropped() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.push(-0.1);
        h.push(1.0); // upper edge is exclusive
        h.push(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn value_just_below_hi_stays_in_last_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        h.push(3.0 - 1e-12);
        assert_eq!(h.bins()[2], 1);
    }

    #[test]
    fn iter_bins_edges_tile_the_range() {
        let h = Histogram::new(1.0, 2.0, 4);
        let edges: Vec<(f64, f64, u64)> = h.iter_bins().collect();
        assert_eq!(edges.len(), 4);
        assert!((edges[0].0 - 1.0).abs() < 1e-12);
        assert!((edges[3].1 - 2.0).abs() < 1e-12);
        for w in edges.windows(2) {
            assert!((w[0].1 - w[1].0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 4.0, 4);
        for i in 0..8 {
            h.push(i as f64 / 2.0);
        }
        let text = h.render_ascii(20);
        assert_eq!(text.lines().count(), 4);
    }
}
