//! The two sample statistics the experiments report: the median of the
//! ping-pong repetitions (robust against a straggling run) and the mean,
//! minimum and maximum of the stress-test figures.

/// Mean and extrema of a sample.
#[derive(Debug, PartialEq)]
pub(crate) struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarises a slice in one pass; `None` if it is empty or holds a
    /// NaN or infinite value.
    pub(crate) fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        // Welford's running mean: one pass, numerically stable.
        let mut mean = 0.0;
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (i, &v) in values.iter().enumerate() {
            mean += (v - mean) / (i + 1) as f64;
            min = min.min(v);
            max = max.max(v);
        }
        Some(Self { mean, min, max })
    }
}

/// Median with linear interpolation between the two middle order
/// statistics of an even-sized sample (type 7, the R/NumPy default);
/// `None` if the slice is empty or holds a NaN or infinite value.
pub(crate) fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = 0.5 * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(
            s,
            Summary {
                mean: 3.0,
                min: 3.0,
                max: 3.0
            }
        );
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[2.0, 1.0, 4.0, 3.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!((s.min, s.max), (1.0, 4.0));
    }

    #[test]
    fn summary_rejects_empty_and_nan() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn median_of_odd_sample_is_middle_element() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    }

    #[test]
    fn median_of_even_sample_interpolates() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
