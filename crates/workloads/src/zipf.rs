//! Constant-space Zipfian sampler (the YCSB construction).
//!
//! Real-world index workloads are skewed: the paper's Fig. 3 shows that
//! >96.65 % of tree traversals touch only 5 % of ART nodes. A Zipfian
//! > popularity distribution over keys reproduces that skew.

use rand::Rng;

/// Samples ranks `0..n` with Zipfian popularity (rank 0 most popular).
///
/// Uses the Gray et al. constant-time method popularized by YCSB: after an
/// `O(n)` harmonic precomputation, each sample is `O(1)`.
///
/// # Examples
///
/// ```
/// use dcart_workloads::Zipfian;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = Zipfian::new(1000, 0.99);
/// let mut rng = StdRng::seed_from_u64(7);
/// let hot = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
/// assert!(hot > 3000, "top-10 ranks draw a large share: {hot}");
/// ```
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    method: Method,
}

/// How samples are drawn: Gray's closed form covers `theta < 1` (the YCSB
/// regime) in constant space; at `theta >= 1` that form's exponent
/// `1 / (1 - theta)` blows up, so the sampler falls back to an explicit
/// cumulative table and inverts it by binary search — `O(n)` memory,
/// `O(log n)` per sample, any positive skew.
#[derive(Clone, Debug)]
enum Method {
    Gray { alpha: f64, zetan: f64, eta: f64 },
    Table { cdf: Vec<f64> },
}

impl Zipfian {
    /// Creates a sampler over `n` ranks with skew `theta` (YCSB default
    /// 0.99; larger = more skewed). Any positive finite `theta` is
    /// accepted; `theta >= 1` switches to a tabulated inverse CDF that
    /// costs `O(n)` memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not positive and finite.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "domain must be non-empty");
        assert!(theta > 0.0 && theta.is_finite(), "theta must be positive and finite");
        let method = if theta < 1.0 {
            let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let zeta2 = 1.0 + 0.5f64.powf(theta);
            let alpha = 1.0 / (1.0 - theta);
            let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
            Method::Gray { alpha, zetan, eta }
        } else {
            let mut cdf: Vec<f64> = Vec::with_capacity(n as usize);
            let mut acc = 0.0f64;
            for i in 1..=n {
                acc += 1.0 / (i as f64).powf(theta);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            Method::Table { cdf }
        };
        Zipfian { n, theta, method }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        match &self.method {
            Method::Gray { alpha, zetan, eta } => {
                let uz = u * zetan;
                if uz < 1.0 {
                    return 0;
                }
                if uz < 1.0 + 0.5f64.powf(self.theta) {
                    return 1;
                }
                let rank = (self.n as f64 * (eta * u - eta + 1.0).powf(*alpha)) as u64;
                rank.min(self.n - 1)
            }
            Method::Table { cdf } => {
                let rank = cdf.partition_point(|&c| c < u) as u64;
                rank.min(self.n - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_in_range() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 100);
        }
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert_eq!(counts[0], max);
        // Theoretical share of rank 0 at theta=0.99, n=1000 is ~13 %.
        assert!(counts[0] > 80_000 / 10);
    }

    #[test]
    fn skew_concentrates_mass() {
        let z = Zipfian::new(10_000, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let total = 100_000;
        let in_top5pct = (0..total).filter(|_| z.sample(&mut rng) < 500).count();
        // The paper observes >96 % of accesses on 5 % of nodes; Zipf 0.99
        // over keys concentrates the op stream comparably (>60 % here;
        // node-level concentration is higher because paths share nodes).
        assert!(in_top5pct * 100 / total > 60, "{in_top5pct}");
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let mut rng = StdRng::seed_from_u64(4);
        let mild = Zipfian::new(1000, 0.5);
        let sharp = Zipfian::new(1000, 0.95);
        let head =
            |z: &Zipfian, rng: &mut StdRng| (0..50_000).filter(|_| z.sample(rng) < 10).count();
        let mild_head = head(&mild, &mut rng);
        let sharp_head = head(&sharp, &mut rng);
        assert!(sharp_head > 2 * mild_head, "{sharp_head} vs {mild_head}");
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn nonpositive_theta_rejected() {
        let _ = Zipfian::new(10, 0.0);
    }

    #[test]
    fn theta_at_and_above_one_uses_the_table_path() {
        // theta >= 1 breaks Gray's closed form; the tabulated inverse CDF
        // must keep sampling in range with the right head concentration.
        let mut rng = StdRng::seed_from_u64(6);
        for theta in [1.0, 1.2, 2.0] {
            let z = Zipfian::new(1000, theta);
            let mut counts = vec![0u64; 1000];
            for _ in 0..50_000 {
                counts[z.sample(&mut rng) as usize] += 1;
            }
            let max = *counts.iter().max().expect("non-empty");
            assert_eq!(counts[0], max, "rank 0 most popular at theta={theta}");
        }
        // Steeper theta concentrates more mass on the head.
        let head = |theta: f64, rng: &mut StdRng| {
            let z = Zipfian::new(1000, theta);
            (0..50_000).filter(|_| z.sample(rng) < 10).count()
        };
        let at_one = head(1.0, &mut rng);
        let steep = head(1.2, &mut rng);
        assert!(steep > at_one, "{steep} vs {at_one}");
    }

    #[test]
    fn gray_and_table_agree_near_the_boundary() {
        // The two methods approximate the same distribution: just below
        // and just above theta=1 the top-rank share must be close.
        let share = |theta: f64, seed: u64| {
            let z = Zipfian::new(1000, theta);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100_000).filter(|_| z.sample(&mut rng) < 10).count() as f64 / 100_000.0
        };
        let below = share(0.999, 8);
        let above = share(1.001, 9);
        assert!((below - above).abs() < 0.05, "{below} vs {above}");
    }
}
