//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `samples` by the nearest-rank rule; sorts in
/// place. Returns 0 for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples`, averaging the middle pair of an even sample.
pub fn median(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// The arithmetic mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The median, over equal consecutive windows of `samples` in arrival
/// order, of each window's `q`-quantile. A window holds at least enough
/// samples to put ten beyond its quantile (1000 for p99, 100 for p90);
/// there is one window when there are fewer. A host stall that lands in a
/// few windows moves those windows only.
pub fn windowed_quantile(samples: &[f64], q: f64) -> f64 {
    let min = (10.0 / (1.0 - q)).round() as usize;
    let windows = (samples.len() / min.max(1)).max(1);
    let width = samples.len().div_ceil(windows).max(1);
    let mut per_window: Vec<f64> = samples
        .chunks(width)
        .map(|w| quantile(&mut w.to_vec(), q))
        .collect();
    median(&mut per_window)
}

/// A splitmix64 step: the benchmark's one seeded mixing function, used to
/// derive independent sub-seeds and sample selections from `--seed`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 4.0]), 2.5);
        // Two windows of 1200: p99s 1188 and 2388, median 1788.
        let v: Vec<f64> = (1..=2400).map(f64::from).collect();
        assert_eq!(windowed_quantile(&v, 0.99), 1788.0);
        // Three windows of 100: p90s 90, 190 and 290.
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(windowed_quantile(&v, 0.9), 190.0);
    }
}
