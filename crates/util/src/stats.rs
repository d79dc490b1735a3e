//! Streaming statistics used by the profiler and the experiment harness.
//!
//! * [`Ewma`] — exponentially weighted moving average, the execution-time
//!   estimator used by peer Profilers (§3.2 of the paper: peers track local
//!   computation and communication times).
//! * [`Summary`] — exact small-sample summary (keeps all values), used by
//!   experiment tables where sample counts are modest.

use serde::{Deserialize, Serialize};

/// Exponentially weighted moving average.
///
/// `alpha` is the weight of a *new* observation; typical profiler settings
/// use 0.1–0.3 to smooth transient spikes while tracking drift.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an estimator with the given new-sample weight `alpha ∈ (0,1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range: {alpha}");
        Self { alpha, value: None }
    }

    /// Feeds one observation.
    #[inline]
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => v + self.alpha * (x - v),
        });
    }

    /// Current estimate, or `None` before the first observation.
    #[inline]
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Exact summary that retains every sample. For experiment tables where the
/// sample count is modest and exact percentiles are preferred.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Summary {
    values: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Exact quantile by nearest-rank (0 if empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in Summary"));
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.values[rank - 1]
    }

    /// Minimum (0 if empty).
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    /// Maximum (0 if empty).
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// Standard deviation (population).
    pub fn std_dev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64).sqrt()
    }

    /// Pools another summary's samples into this one. Quantiles over the
    /// merged summary are exact, as if every observation had been fed to
    /// one summary.
    pub fn merge(&mut self, other: &Summary) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.2);
        assert_eq!(e.value(), None);
        e.observe(10.0);
        assert_eq!(e.value(), Some(10.0));
    }

    #[test]
    fn ewma_converges_to_constant() {
        let mut e = Ewma::new(0.3);
        for _ in 0..100 {
            e.observe(5.0);
        }
        assert!((e.value().unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_tracks_step_change() {
        let mut e = Ewma::new(0.5);
        e.observe(0.0);
        for _ in 0..20 {
            e.observe(10.0);
        }
        assert!((e.value().unwrap() - 10.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn summary_exact_quantiles() {
        let mut s = Summary::new();
        for i in (1..=100).rev() {
            s.observe(i as f64);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn summary_empty_is_zero() {
        let mut s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn summary_std_dev() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(x);
        }
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }
}
