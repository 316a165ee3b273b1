//! Sample statistics and the reply hash the correctness oracle uses.

use ibox_trace::FlowTrace;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample ascending (NaN-free by construction: every value is a
/// measured duration or count).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    values
}

/// Median of an unsorted sample, averaging the middle pair.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// `compare` judges spread the way the acceptance driver does. Needs at
/// least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values.to_vec());
    let ld = s.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        // Signed: clamping `j` puts the cut outside the sample on short
        // inputs, and Python extrapolates there too.
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// 64-bit multiply-xorshift hash, eight bytes at a time. Four independent
/// lanes keep the multiplies off each other's critical path, so hashing a
/// 4 MB reply stays far below the op it verifies. Not cryptographic: it
/// only has to tell a correct reply from a wrong one.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [0x243F_6A88_85A3_08D3u64, 0x1319_8A2E_0370_7344, 0xA409_3822_299F_31D0, K];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K);
        h ^= h >> 32;
    }
    let mut tail = blocks.remainder().chunks(8);
    for word in &mut tail {
        let mut buf = [0u8; 8];
        buf[..word.len()].copy_from_slice(word);
        h = (h ^ u64::from_le_bytes(buf)).wrapping_mul(K);
        h ^= h >> 32;
    }
    h
}

/// Two-sample KS distance between the one-way delay distributions of two
/// traces (delivered packets only); `1.0` when either has none.
pub fn delay_ks(a: &FlowTrace, b: &FlowTrace) -> f64 {
    let delays =
        |t: &FlowTrace| -> Vec<f64> { t.records().iter().filter_map(|r| r.delay_secs()).collect() };
    let (da, db) = (delays(a), delays(b));
    if da.is_empty() || db.is_empty() {
        return 1.0;
    }
    ibox_stats::ks_two_sample(&da, &db).statistic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` and
    /// `statistics.quantiles([2.0, 9.5, 4.0, 7.25, 1.0], n=4)`.
    #[test]
    fn quartiles_match_python_statistics() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[2.0, 9.5, 4.0, 7.25, 1.0]), [1.5, 4.0, 8.375]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn hash_tells_replies_apart() {
        let a: Vec<u8> = (0..100_003u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(hash64(&a), hash64(&a.clone()));
        // Any single flipped byte, in a full block or in the tail, shows.
        for at in [0, 31, 32, 50_000, a.len() - 1] {
            let mut b = a.clone();
            b[at] ^= 1;
            assert_ne!(hash64(&a), hash64(&b), "flip at {at}");
        }
        // Length is part of the hash: trailing zeros are not ignored.
        let mut longer = a.clone();
        longer.push(0);
        assert_ne!(hash64(&a), hash64(&longer));
        assert_ne!(hash64(b""), hash64(b"\0"));
        // Swapped words land in different lanes and change the result.
        let mut swapped = a.clone();
        swapped.swap(0, 8);
        assert_ne!(hash64(&a), hash64(&swapped));
    }
}
