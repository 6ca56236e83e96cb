//! Order statistics, the percentile rule, and stage reconciliation.

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one
/// operation before asking.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentile rule: the highest percentile (as a fraction) that has at
/// least [`TAIL_SAMPLES`] of `n` samples beyond it, or `None` when `n` is
/// too small for any percentile above the minimum.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| 1.0 - TAIL_SAMPLES as f64 / n as f64)
}

/// Whether percentile `q` is supported by `n` samples under the rule.
pub fn supports(n: usize, q: f64) -> bool {
    tail_percentile(n).is_some_and(|t| t + 1e-12 >= q)
}

/// How a set of separately timed stages accounts for one end-to-end time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// The end-to-end time the stages should add up to.
    pub total: f64,
    /// The sum of the timed stages.
    pub stages: f64,
}

impl Reconciliation {
    pub fn new(total: f64, stages: &[f64]) -> Reconciliation {
        Reconciliation {
            total,
            stages: stages.iter().sum(),
        }
    }

    /// Time no stage covers (negative when the stages overshoot the total).
    pub fn unattributed(&self) -> f64 {
        self.total - self.stages
    }

    /// The stages' share of the total.
    pub fn stages_frac(&self) -> f64 {
        if self.total > 0.0 {
            self.stages / self.total
        } else {
            0.0
        }
    }

    /// Whether the stages add up to the total within `tolerance` (a share
    /// of the total), in either direction.
    pub fn within(&self, tolerance: f64) -> bool {
        self.unattributed().abs() <= tolerance * self.total
    }
}

/// Operations attempted and failed, where a failure is an errored or
/// refused operation or a failed output check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok` is false when it errored, was refused, or
    /// its output failed a check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a failed check on an operation already attempted.
    pub fn fail_check(&mut self) {
        self.failed = (self.failed + 1).min(self.attempted.max(1));
        self.attempted = self.attempted.max(1);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert!(supports(100, 0.90));
        assert!(!supports(99, 0.90));
        assert!(supports(1_000, 0.99));
        assert!(!supports(999, 0.99));
        let q = tail_percentile(400).unwrap();
        assert!((q - 0.975).abs() < 1e-12);
        // Exactly ten samples lie beyond the reported percentile.
        let n = 400usize;
        let beyond = n - (q * n as f64).round() as usize;
        assert_eq!(beyond, TAIL_SAMPLES);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        let s: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.9), 91.0);
    }

    #[test]
    fn reconciliation_arithmetic() {
        let r = Reconciliation::new(10.0, &[6.0, 2.5, 1.0]);
        assert!((r.unattributed() - 0.5).abs() < 1e-12);
        assert!((r.stages_frac() - 0.95).abs() < 1e-12);
        assert!(r.within(0.05));
        assert!(!r.within(0.04));
        let over = Reconciliation::new(10.0, &[8.0, 3.0]);
        assert!((over.unattributed() + 1.0).abs() < 1e-12);
        assert!(over.within(0.10));
        assert!(!over.within(0.09));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(true);
        t.record(false); // a refused or errored request
        t.record(true);
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 1
            }
        );
        t.fail_check(); // one of the successes failed its output check
        assert_eq!(
            t,
            Tally {
                attempted: 3,
                failed: 2
            }
        );
        let mut u = Tally::default();
        u.fail_check(); // a check with no operation still counts one attempt
        assert_eq!(
            u,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
        t.merge(u);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 3
            }
        );
    }
}
