//! Zipf-distributed sampling.
//!
//! "Zipf observed that if the terms in a document collection are ranked by
//! decreasing number of occurrences ... there is a constant for the
//! collection that is approximately equal to the product of any given term's
//! size and rank order number. The implication of this is that nearly half
//! of the terms have only one or two occurrences, while some terms occur
//! very many times." (Section 2)
//!
//! The generator draws every token from this distribution so synthetic
//! collections reproduce the inverted-list size distribution of Figure 1 —
//! the property the paper's three-pool design is built on.

use rand::Rng;

/// A pre-computed Zipf(s) distribution over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution `P(rank k) ∝ 1 / (k+1)^s` for `k in 0..n`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "exponent must be positive");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        // Normalise so binary search can use a uniform [0, 1) draw.
        let norm = total;
        for c in &mut cumulative {
            *c /= norm;
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution is degenerate (never: `new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cumulative.partition_point(|&c| c < u).min(self.cumulative.len() - 1)
    }
}

/// An analytic power-law ("continuous Zipf") sampler over ranks `0..n`.
///
/// Where [`Zipf`] tabulates an exact distribution, `PowerLaw` inverts the
/// continuous CDF of `p(k) ∝ 1/(k+1)^s`, so vocabularies of tens of
/// millions of ranks cost no memory — which is what reproducing the paper's
/// hapax-heavy tail ("nearly half of the terms have only one or two
/// occurrences") requires at TIPSTER scale.
#[derive(Debug, Clone, Copy)]
pub struct PowerLaw {
    n: f64,
    s: f64,
}

impl PowerLaw {
    /// Builds the sampler for `n` ranks and exponent `s > 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a power law needs at least one rank");
        assert!(s.is_finite() && s > 0.0, "exponent must be positive");
        PowerLaw { n: n as f64, s }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Never empty (`new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        let x = if (self.s - 1.0).abs() < 1e-9 {
            // s = 1: the CDF is logarithmic → log-uniform inverse.
            (self.n + 1.0).powf(u)
        } else {
            // CDF(x) = (1 - x^(1-s)) / (1 - (n+1)^(1-s)) for x in [1, n+1].
            let tail = (self.n + 1.0).powf(1.0 - self.s);
            (1.0 - u * (1.0 - tail)).powf(1.0 / (1.0 - self.s))
        };
        ((x - 1.0) as usize).min(self.n as usize - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn low_ranks_dominate() {
        let z = Zipf::new(10_000, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u32; 10_000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9], "rank 0 must beat rank 9");
        assert!(counts[0] > counts[99] * 10, "rank 0 must dwarf rank 99");
        // Rank 0 of Zipf(1.0, 10k) has mass ~1/H(10k) ≈ 1/9.8 ≈ 10%.
        assert!(counts[0] > 80_000 / 10 && counts[0] < 130_000 / 10);
    }

    #[test]
    fn heavy_tail_produces_many_singletons() {
        // The property behind the small object pool: with a vocabulary much
        // larger than needed, a large fraction of *observed* terms occur
        // exactly once.
        let z = Zipf::new(200_000, 1.0);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(z.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let singletons = counts.values().filter(|&&c| c == 1).count();
        let fraction = singletons as f64 / counts.len() as f64;
        assert!(
            fraction > 0.35 && fraction < 0.75,
            "singleton fraction {fraction} should be near one half"
        );
    }

    #[test]
    fn mass_sums_to_one_and_decreases() {
        let z = Zipf::new(100, 1.2);
        let c: Vec<f64> = std::iter::once(0.0).chain(z.cumulative.iter().copied()).collect();
        assert!((c[100] - 1.0).abs() < 1e-9);
        assert!(c.windows(3).all(|w| w[2] - w[1] <= w[1] - w[0] + 1e-12));
        assert_eq!(z.len(), 100);
        assert!(!z.is_empty());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn power_law_matches_table_zipf_at_s1() {
        // The continuous sampler must produce the same rank-frequency shape
        // as the exact table for s = 1.
        let n = 10_000;
        let table = Zipf::new(n, 1.0);
        let continuous = PowerLaw::new(n, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 200_000;
        let mut c_table = vec![0u32; n];
        let mut c_cont = vec![0u32; n];
        for _ in 0..draws {
            c_table[table.sample(&mut rng)] += 1;
            c_cont[continuous.sample(&mut rng)] += 1;
        }
        // Compare mass of the top-10 ranks: within 20% of each other.
        let top_t: u32 = c_table[..10].iter().sum();
        let top_c: u32 = c_cont[..10].iter().sum();
        let ratio = top_t as f64 / top_c as f64;
        assert!((0.8..1.25).contains(&ratio), "top-10 mass ratio {ratio}");
    }

    #[test]
    fn power_law_supports_huge_vocabularies() {
        let p = PowerLaw::new(50_000_000, 1.25);
        let mut rng = StdRng::seed_from_u64(9);
        let mut max = 0usize;
        for _ in 0..10_000 {
            let r = p.sample(&mut rng);
            assert!(r < 50_000_000);
            max = max.max(r);
        }
        assert!(max > 100_000, "the tail must actually be reachable, saw max {max}");
        assert_eq!(p.len(), 50_000_000);
        assert!(!p.is_empty());
    }

    #[test]
    fn steeper_exponents_concentrate_mass() {
        let shallow = PowerLaw::new(1_000_000, 1.0);
        let steep = PowerLaw::new(1_000_000, 1.6);
        let mut rng = StdRng::seed_from_u64(4);
        let head =
            |p: &PowerLaw, rng: &mut StdRng| (0..50_000).filter(|_| p.sample(rng) < 100).count();
        let h_shallow = head(&shallow, &mut rng);
        let h_steep = head(&steep, &mut rng);
        assert!(h_steep > h_shallow, "s=1.6 head {h_steep} must exceed s=1.0 head {h_shallow}");
    }
}
