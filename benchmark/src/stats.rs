//! Percentiles and the min-over-replays sample.

/// The `p`-quantile by nearest rank (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

pub fn p50(samples: &[f64]) -> f64 {
    percentile(samples, 0.50)
}

pub fn p95(samples: &[f64]) -> f64 {
    percentile(samples, 0.95)
}

/// Median as `statistics.median` computes it (mean of the middle pair).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Keeps, per operation index, the smallest duration seen over replays.
///
/// Every timed operation has a deterministic identity `(workload, op
/// index)`: same bits in, same bits out. What differs between replays is
/// only what the host added, and the host only ever adds.
pub fn merge_min(best: &mut Vec<f64>, replay: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(replay);
    }
    for (b, x) in best.iter_mut().zip(replay) {
        *b = b.min(*x);
    }
}
