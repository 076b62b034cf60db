//! Order statistics and the cost-axis quality summary.

/// Nearest-rank percentile `q` in `[0, 1]` of `xs` (sorted copy).
/// Returns NaN for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Mean of `xs`; NaN when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean of one campaign's RMSE-versus-cumulative-cost step function over
/// the cost window `[lo, hi]`: the area under it divided by `hi - lo`.
/// `points` are the runner's `(cumulative_cost, rmse)` pairs in iteration
/// order; the first RMSE holds before the first point and the last one
/// after the last point.
///
/// The mean over campaigns of this number equals the normalised area
/// under the mean RMSE curve, since the area is linear in the curve.
pub fn rmse_cost_area(points: &[(f64, f64)], (lo, hi): (f64, f64)) -> f64 {
    let Some(&(_, first)) = points.first() else {
        return f64::NAN;
    };
    let (mut area, mut at, mut level) = (0.0, lo, first);
    for &(cost, rmse) in points {
        let c = cost.min(hi);
        if c > at {
            area += (c - at) * level;
            at = c;
        }
        level = rmse;
        if cost >= hi {
            break;
        }
    }
    area += (hi - at).max(0.0) * level;
    area / (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn area_is_the_step_function_mean_over_the_window() {
        // 1.0 until cost 2, then 0.5 until cost 4, then 0.25.
        let pts = [(2.0, 1.0), (4.0, 0.5), (6.0, 0.25)];
        // [0,2]: 1.0 (first value), [2,4]: 1.0, [4,6]: 0.5, [6,8]: 0.25.
        assert_eq!(
            rmse_cost_area(&pts, (0.0, 8.0)),
            (2.0 + 2.0 + 1.0 + 0.5) / 8.0
        );
        assert_eq!(rmse_cost_area(&pts, (0.0, 3.0)), 1.0);
        assert_eq!(rmse_cost_area(&pts, (5.0, 8.0)), (0.5 + 0.5) / 3.0);
    }
}
