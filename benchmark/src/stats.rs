//! Location and spread of a handful of repeated measurements.

use crate::json::{obj, Json};

/// Minimum, median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarize `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            min: sorted[0],
            median,
            q1,
            q3,
        })
    }

    /// Interquartile distance as a share of the median — the run-to-run spread
    /// a bound is judged against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        obj([
            ("n", Json::from(self.n)),
            ("min", Json::from(self.min)),
            ("median", Json::from(self.median)),
            ("q1", Json::from(self.q1)),
            ("q3", Json::from(self.q3)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Summary> {
        let field = |name| json.get(name).and_then(Json::as_f64);
        Some(Summary {
            n: json.get("n")?.as_u64()? as usize,
            min: field("min")?,
            median: field("median")?,
            q1: field("q1")?,
            q3: field("q3")?,
        })
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// (exclusive method), so spreads computed here match the ones the driver of
/// BENCHMARK.json computes.  One value is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

pub fn median(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.median)
}

pub fn min(values: &[f64]) -> Option<f64> {
    Summary::of(values).map(|s| s.min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.n), (1.0, 10));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        let one = Summary::of(&[4.5]).unwrap();
        assert_eq!((one.min, one.q1, one.median, one.q3), (4.5, 4.5, 4.5, 4.5));
        assert_eq!(one.spread(), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(min(&[5.0, 1.0, 3.0]), Some(1.0));
        let s = Summary::of(&[1.0, 2.0, 4.0]).unwrap();
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }
}
