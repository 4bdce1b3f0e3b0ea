//! Order statistics over raw samples. Every percentile is exact
//! (nearest rank over the sorted samples), not a histogram estimate.

/// The `q`-quantile of ascending `sorted` by nearest rank; 0 if empty.
fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `v` and returns its `q`-quantile.
pub fn pct_of(v: &[u64], q: f64) -> u64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    pct(&s, q)
}

/// Smallest of floats; 0 if empty.
pub fn min(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Median of floats; 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Splits `(key_ns, value)` samples into consecutive windows of
/// `window_ns` by key and returns each full window's `q`-quantile of
/// value. Windows with fewer than `min_samples` samples are skipped.
pub fn window_quantiles(
    samples: &[(u64, u64)],
    window_ns: u64,
    q: f64,
    min_samples: usize,
) -> Vec<u64> {
    let mut buckets: Vec<Vec<u64>> = Vec::new();
    for &(key, v) in samples {
        let w = (key / window_ns) as usize;
        if buckets.len() <= w {
            buckets.resize_with(w + 1, Vec::new);
        }
        buckets[w].push(v);
    }
    buckets
        .into_iter()
        .filter(|b| b.len() >= min_samples)
        .map(|b| pct_of(&b, q))
        .collect()
}

/// Splits `(key_ns, value)` samples into consecutive windows of
/// `window_ns` by key and returns, for every window that ended before
/// the last sample, its sample count and the `q`-quantile of its values.
pub fn window_stats(samples: &[(u64, u64)], window_ns: u64, q: f64) -> Vec<(u64, u64)> {
    let Some(last) = samples.iter().map(|s| s.0).max() else {
        return Vec::new();
    };
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); (last / window_ns) as usize];
    for &(key, v) in samples {
        if let Some(b) = buckets.get_mut((key / window_ns) as usize) {
            b.push(v);
        }
    }
    buckets
        .iter()
        .map(|b| (b.len() as u64, pct_of(b, q)))
        .collect()
}

/// FNV-1a step over one 64-bit word (little endian).
pub fn fnv_word(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Nanoseconds to microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}
