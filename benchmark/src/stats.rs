//! Order statistics over samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, by linear interpolation
/// between closest ranks. Sorts in place. `None` for an empty slice.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(quantile_sorted(samples, q))
}

/// [`quantile`] over an already sorted, non-empty slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples` (sorts in place); `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let mut v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 0.9), Some(91.0));
        assert_eq!(quantile(&mut v, 1.0), Some(101.0));
        let mut w = vec![10.0, 20.0];
        assert_eq!(quantile(&mut w, 0.25), Some(12.5));
    }

    #[test]
    fn a_single_sample_is_every_quantile() {
        assert_eq!(quantile(&mut [5.0], 0.99), Some(5.0));
    }
}
