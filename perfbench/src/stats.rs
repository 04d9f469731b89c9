//! Exact quantiles over raw samples.
//!
//! Every timing the benchmark reports keeps all of its samples, so a
//! quantile is an observed value (nearest rank), never a bucket ceiling;
//! only the median of an even count is the mean of two observed values.

/// Raw samples of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// The percentiles tried, highest first, when picking a supported tail.
const TAILS: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least `q * n`
    /// samples at or below it. `0.0` for an empty set.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        self.values[rank(q, self.values.len()) - 1]
    }

    /// Samples strictly above the nearest-rank position of `q`.
    pub fn beyond(&self, q: f64) -> usize {
        self.values.len() - rank(q, self.values.len()).min(self.values.len())
    }

    /// The middle sample, or the mean of the two middle samples when `n`
    /// is even (so a median of a few samples rests on two of them, not
    /// on the lower one alone). `0.0` for an empty set.
    pub fn median(&mut self) -> f64 {
        let n = self.values.len();
        if n % 2 == 1 || n == 0 {
            return self.quantile(0.5);
        }
        self.sort();
        (self.values[n / 2 - 1] + self.values[n / 2]) / 2.0
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// The highest tried percentile with at least ten samples beyond it.
    /// Below 20 samples no percentile has that support, and the tail is
    /// the mean of the slower half (the ⌈n/2⌉ largest samples): unlike
    /// the maximum of a handful of samples, it does not rest on the one
    /// slowest reading. Returns the value and a label such as `"p95"` or
    /// `"upper-half mean"`.
    pub fn supported_tail(&mut self) -> (f64, String) {
        for q in TAILS {
            if self.beyond(q) >= 10 {
                return (self.quantile(q), format!("p{}", q * 100.0));
            }
        }
        (self.upper_half_mean(), "upper-half mean".to_string())
    }

    /// Mean of the ⌈n/2⌉ largest samples; `0.0` for an empty set.
    fn upper_half_mean(&mut self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let top = &self.values[self.values.len() / 2..];
        top.iter().sum::<f64>() / top.len() as f64
    }

    /// `p50=… p99=… n=…` for the human-readable report, in `unit`.
    pub fn describe(&mut self, unit: &str) -> String {
        if self.values.is_empty() {
            return "n=0".to_string();
        }
        let (tail, label) = self.supported_tail();
        format!(
            "p50={:.3}{unit} p99={:.3}{unit} ({} beyond) {label}={:.3}{unit} max={:.3}{unit} n={}",
            self.median(),
            self.quantile(0.99),
            self.beyond(0.99),
            tail,
            self.max(),
            self.values.len()
        )
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.beyond(0.99), 1);
        assert_eq!(s.supported_tail(), (90.0, "p90".to_string()));
    }

    #[test]
    fn tail_falls_back_to_upper_half_mean() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0, 6.0] {
            s.push(v);
        }
        assert_eq!(s.supported_tail(), (4.5, "upper-half mean".to_string()));
        s.push(4.0);
        assert_eq!(
            s.supported_tail(),
            (13.0 / 3.0, "upper-half mean".to_string())
        );
    }
}
