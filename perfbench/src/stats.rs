//! Sample statistics: medians, the tail percentile rule, and the
//! attempted / failed / degraded tallies every workload keeps.

/// Samples beyond a reported tail percentile: the tail is the highest
/// percentile that still leaves at least this many samples above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two for an even count).
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Share of samples dropped from each end by [`trimmed_mean`].
pub const TRIM: f64 = 0.1;

/// Mean of the samples left after dropping the lowest and the highest
/// [`TRIM`] of them (0 when empty). Unlike a median it moves smoothly
/// when the samples come from a mixture of modes, and unlike a plain mean
/// a few extreme samples cannot drag it.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let cut = (sorted.len() as f64 * TRIM).floor() as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// The percentile, in whole percent (e.g. 99 for p99).
    pub percentile: u32,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The highest whole percentile in `1..=99` whose nearest-rank position
/// leaves at least [`TAIL_MIN_BEYOND`] samples above it. `None` with at
/// most `TAIL_MIN_BEYOND` samples, where no percentile qualifies.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    (1..=99u32).rev().find_map(|p| {
        // Nearest-rank: the smallest rank r (1-based) with r >= p% of n.
        let rank = (u64::from(p) * n as u64).div_ceil(100).max(1) as usize;
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            value: sorted[rank - 1],
            percentile: p,
            samples: n,
            beyond,
        })
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operation tallies behind `failed_frac` and `degraded_frac`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Client operations attempted: queries, churn ops and restarts.
    pub attempted: u64,
    /// Operations that returned an error or were shed for good.
    pub failed: u64,
    /// Queries that carried a work budget.
    pub budgeted: u64,
    /// Budgeted queries answered `Partial` or `StaleCache`.
    pub degraded: u64,
}

impl Tally {
    /// Records one attempted operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records one answered budgeted query and whether it was degraded.
    pub fn budgeted(&mut self, degraded: bool) {
        self.budgeted += 1;
        if degraded {
            self.degraded += 1;
        }
    }

    /// Failed operations over attempted ones (0 when nothing ran).
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Degraded budgeted answers over budgeted queries (0 when none ran).
    pub fn degraded_frac(&self) -> f64 {
        ratio(self.degraded, self.budgeted)
    }
}

/// `num / den`, or 0 for an empty denominator.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (0..n).rev().map(|i| i as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[]), 0.0);
        // 10 samples: the 1 and the 1000 go, the middle eight average 5.5.
        let v = [1000.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(trimmed_mean(&v), 5.5);
        // Fewer than 10 samples: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0]), 4.0);
    }

    #[test]
    fn tail_needs_more_samples_than_the_beyond_floor() {
        assert_eq!(tail(&ramp(10)), None);
        let t = tail(&ramp(11)).unwrap();
        // 11 samples: only the lowest rank leaves 10 above it.
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert_eq!(t.percentile, 9);
    }

    #[test]
    fn tail_picks_the_highest_qualifying_percentile() {
        // 1000 samples: p99 has rank 990 and leaves exactly 10 beyond.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!(t.percentile, 99);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        // 100 samples: p90 is rank 90 with 10 beyond; p91 leaves only 9.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90, 90.0, 10));
        // 200 samples: p95 → rank 190, 10 beyond.
        let t = tail(&ramp(200)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95, 190.0, 10));
    }

    #[test]
    fn tally_counts_failures_and_degraded_answers() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert_eq!(t.degraded_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.op(ok);
        }
        t.budgeted(true);
        t.budgeted(false);
        t.budgeted(false);
        t.budgeted(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        assert_eq!((t.budgeted, t.degraded), (4, 2));
        assert_eq!(t.degraded_frac(), 0.5);
    }
}
