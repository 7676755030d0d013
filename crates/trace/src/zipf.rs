//! A small deterministic Zipf sampler.
//!
//! Row popularity in real memory traces is heavily skewed: a few hot
//! rows (stack, hot heap pages, code) absorb most activations.  The
//! workload generator models this with a Zipf distribution over the hot
//! set; the skew is what makes TiVaPRoMi's 32-entry history table
//! effective, so it is a first-class calibration knob.

use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Rank counts from which a sampler searches through a guide table;
/// below it a binary search over the CDF is faster (the 8-rank hot set
/// of the SPEC-like workload measured 2× slower with a guide table).
const GUIDE_MIN_RANKS: usize = 64;

/// The shared tables, by `(ranks, exponent bits)`.
type SharedTables = BTreeMap<(usize, u64), Arc<ZipfTable>>;

/// Zipf distribution over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ (k + 1)^-s`.
///
/// A guided table (`n` ≥ 64) is built once per `(n, s)` and shared
/// (`Arc`) by every sampler of that shape, so constructing one is cheap
/// after the first; the map holding them grows only with the distinct
/// large shapes a program builds.  Smaller tables cost a few `powf`
/// calls and are built per sampler.
///
/// ```
/// use mem_trace::Zipf;
/// use rand::SeedableRng;
///
/// let zipf = Zipf::new(100, 1.4);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut counts = vec![0u32; 100];
/// for _ in 0..10_000 {
///     counts[zipf.sample(&mut rng)] += 1;
/// }
/// assert!(counts[0] > counts[50]); // rank 0 is the hottest
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    table: Arc<ZipfTable>,
}

/// The immutable sampling table of one `(n, s)`.
#[derive(Debug)]
struct ZipfTable {
    /// Cumulative probabilities, `cdf[k] = P(rank ≤ k)`.
    cdf: Vec<f64>,
    /// Guide table over the same CDF (empty below
    /// [`GUIDE_MIN_RANKS`]): entry `j` of its power-of-two length `m`
    /// is the first rank with `cdf ≥ j / m`.
    guide: Vec<u32>,
}

impl ZipfTable {
    fn new(n: usize, s: f64) -> Self {
        Self::build(n, s, n >= GUIDE_MIN_RANKS)
    }

    /// The table, with a guide table when `guided`.
    fn build(n: usize, s: f64, guided: bool) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let guide = if guided {
            let buckets = n.next_power_of_two();
            let scale = 1.0 / buckets as f64;
            let mut rank = 0usize;
            (0..buckets)
                .map(|j| {
                    // `j / buckets` is exact: the bucket count is a power
                    // of two far below 2^53.
                    let edge = j as f64 * scale;
                    while rank < n && cdf[rank] < edge {
                        rank += 1;
                    }
                    u32::try_from(rank).expect("zipf rank count fits u32")
                })
                .collect()
        } else {
            Vec::new()
        };
        ZipfTable { cdf, guide }
    }

    /// The first rank whose cdf is `≥ u`, clamped to the last rank.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let last = self.cdf.len() - 1;
        if self.guide.is_empty() {
            return self.cdf.partition_point(|&c| c < u).min(last);
        }
        // `u · m` is exact for a power-of-two `m`, so bucket `j` is the
        // one with `j / m ≤ u`: every rank before its start has
        // `cdf < j / m ≤ u`, and the answer lies at or after it.
        // Truncation is the floor of a value in `[0, m)`.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bucket = (u * self.guide.len() as f64) as usize;
        let mut rank = (self.guide[bucket] as usize).min(last);
        while rank < last && self.cdf[rank] < u {
            rank += 1;
        }
        rank
    }
}

impl Zipf {
    /// Builds the sampler for `n` ranks with exponent `s`, sharing the
    /// guided table of any earlier sampler of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be ≥ 0");
        if n < GUIDE_MIN_RANKS {
            return Zipf {
                table: Arc::new(ZipfTable::new(n, s)),
            };
        }
        static TABLES: OnceLock<Mutex<SharedTables>> = OnceLock::new();
        let tables = TABLES.get_or_init(Mutex::default);
        let key = (n, s.to_bits());
        // A poisoned lock still guards a consistent map: entries are
        // inserted whole.
        let mut shared = tables
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(table) = shared.get(&key) {
            return Zipf {
                table: Arc::clone(table),
            };
        }
        let table = Arc::new(ZipfTable::new(n, s));
        shared.insert(key, Arc::clone(&table));
        Zipf { table }
    }

    /// Draws a rank in `0..n`: the first rank whose cumulative
    /// probability reaches one uniform draw.
    #[inline]
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        self.table.rank(rng.random())
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.table.cdf.len()
    }

    /// Whether the distribution is degenerate (single rank).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability mass of the `k` hottest ranks — used to calibrate the
    /// workload's top-k coverage against the paper's trace statistics.
    pub fn top_k_mass(&self, k: usize) -> f64 {
        if k == 0 {
            0.0
        } else {
            self.table.cdf[k.min(self.table.cdf.len()) - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cdf_is_monotone_and_normalised() {
        let z = Zipf::new(64, 1.2);
        for w in z.table.cdf.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!((z.table.cdf.last().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(z.len(), 64);
    }

    /// The binary search the guide table replaces.
    fn searched_rank(table: &ZipfTable, u: f64) -> usize {
        table
            .cdf
            .partition_point(|&c| c < u)
            .min(table.cdf.len() - 1)
    }

    /// The guide-table rank equals the binary-search rank at every CDF
    /// value, every bucket edge and one ulp either side of each, and at
    /// random uniforms — for rank counts on both sides of the guide
    /// threshold (guided here regardless) and several exponents.
    #[test]
    fn guide_table_rank_equals_the_searched_rank() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 3, 8, 3000, 20_000] {
            for s in [0.0, 0.5, 0.9, 1.1, 2.0, 4.0] {
                let table = ZipfTable::build(n, s, true);
                let buckets = table.guide.len();
                assert!(buckets.is_power_of_two() && buckets >= n);
                let edges = (0..buckets).map(|j| j as f64 / buckets as f64);
                let points: Vec<f64> = table
                    .cdf
                    .iter()
                    .copied()
                    .chain(edges)
                    .flat_map(|x| [x.next_down(), x, x.next_up()])
                    .chain((0..20_000).map(|_| rng.random::<f64>()))
                    .filter(|u| (0.0..1.0).contains(u))
                    .collect();
                for u in points {
                    assert_eq!(
                        table.rank(u),
                        searched_rank(&table, u),
                        "n {n}, s {s}, u {u:e}"
                    );
                }
            }
        }
    }

    /// Guided samplers of one shape share one table; small samplers
    /// own an unguided table, searched by the binary search itself.
    #[test]
    fn guided_tables_are_shared_per_shape() {
        let a = Zipf::new(3000, 1.1);
        let b = Zipf::new(3000, 1.1);
        assert!(Arc::ptr_eq(&a.table, &b.table));
        assert!(!Arc::ptr_eq(&a.table, &Zipf::new(3000, 0.9).table));
        assert!(!a.table.guide.is_empty());
        let small = Zipf::new(8, 1.1);
        assert!(small.table.guide.is_empty());
        assert!(!Arc::ptr_eq(&small.table, &Zipf::new(8, 1.1).table));
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        assert!((z.top_k_mass(1) - 0.25).abs() < 1e-12);
        assert!((z.top_k_mass(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_follow_skew() {
        let z = Zipf::new(50, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u32; 50];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[10]);
        // Empirical top-8 share should be near the analytic mass.
        let top8: u32 = counts[..8].iter().sum();
        let empirical = f64::from(top8) / 50_000.0;
        assert!((empirical - z.top_k_mass(8)).abs() < 0.02);
    }

    #[test]
    fn sample_never_exceeds_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
