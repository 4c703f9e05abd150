//! Percentiles and medians over measured samples.

use std::time::Duration;

/// Samples of one timed operation.
#[derive(Default)]
pub struct Samples(Vec<f64>);

/// The smallest sample count at which p99 has ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64());
    }

    pub fn push_value(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.sum() / n as f64,
        }
    }

    /// Nearest-rank percentile (`p` in `0..=1`); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(0.5)
    }
}
