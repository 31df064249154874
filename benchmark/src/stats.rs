//! Small numeric helpers shared by every workload: nearest-rank
//! percentiles, medians, and the FNV-1a hash the fingerprints use.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100). The
/// rank is `ceil(p/100 * n)`, so p99 of 1,000 samples is the 990th — ten
/// samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts ascending (NaN-free input).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
}

/// Median of an unsorted sample (upper median for even counts, like the
/// nearest-rank p50 would not be: this is the plain middle element).
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    sort(&mut values);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when the base is 0 (a ratio over nothing is reported
/// as 0, with its base printed beside it).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a, fed in 8-byte words where the input allows: the
/// fingerprints only need to be stable and sensitive, not standard.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(Self::PRIME);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.word(b as u64);
        }
        self.word(bytes.len() as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64 finaliser: derives independent sub-seeds from `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
