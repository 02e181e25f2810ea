//! Order statistics and the result line.

use std::fmt::Write as _;

/// Percentile `q` in `[0, 1]` of unsorted samples (0 for no samples).
///
/// Mid-distribution quantile: each distinct value sits at the middle of
/// its share of the sorted samples, and `q` interpolates linearly between
/// neighbouring values (clamped to the extremes). On distinct samples
/// this is the common "Hazen" percentile; on the few distinct values a
/// modelled clock produces, it still moves when the share of a value
/// moves, where the nearest-rank percentile would stick to one value.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    // (mid-point of the value's share, value)
    let mut pts: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < v.len() {
        let j = i + v[i..].partition_point(|&x| x == v[i]);
        pts.push(((i + j) as f64 / 2.0 / n, v[i]));
        i = j;
    }
    let k = pts.partition_point(|p| p.0 <= q);
    if k == 0 {
        return pts[0].1;
    }
    if k == pts.len() {
        return pts[k - 1].1;
    }
    let ((m0, v0), (m1, v1)) = (pts[k - 1], pts[k]);
    v0 + (q - m0) / (m1 - m0) * (v1 - v0)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// ln of the bucket growth factor: bucket `i` of a [`Hist`] holds values
/// in `[e^(i·LN_G), e^((i+1)·LN_G))`, a 0.1% wide band.
const LN_G: f64 = 0.001;

/// Log-bucketed histogram of positive samples: percentiles within 0.1%
/// of exact, at a few hundred kilobytes however many samples it holds.
#[derive(Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Hist {
    pub fn add(&mut self, v: f64) {
        let i = (v.max(1.0).ln() / LN_G) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sample at rank `q·(n-1)`, placed within its bucket by its
    /// rank among the bucket's samples (0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        let target = q * self.n.saturating_sub(1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > target {
                let within = (target - below as f64 + 0.5) / c as f64;
                return ((i as f64 + within) * LN_G).exp();
            }
            below += c;
        }
        0.0
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// What the value was computed from, for the human-readable report
    /// (sample counts, the base of a ratio).
    pub basis: String,
}

/// Ordered metric list.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, basis: impl Into<String>) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            basis: basis.into(),
        });
    }

    /// A ratio, reported with both of its counts.
    pub fn ratio(&mut self, name: &str, num: f64, den: f64, unit: &'static str, base: &str) {
        let value = if den == 0.0 { 0.0 } else { num / den };
        self.add(name, value, unit, format!("{num} / {den} {base}"));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u}, ...}`
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.25), 1.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_percentiles_are_within_a_tenth_of_a_percent() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        for i in 1..=10_000u32 {
            let v = f64::from(i % 977 + 100) * 3.0;
            h.add(v);
            exact.push(v);
        }
        for q in [0.5, 0.99] {
            let (a, b) = (h.percentile(q), percentile(&exact, q));
            assert!((a / b - 1.0).abs() < 2e-3, "q {q}: {a} vs {b}");
        }
        let mut two = Hist::default();
        two.merge(&h);
        two.merge(&h);
        assert_eq!(two.len(), 20_000);
        assert_eq!(two.percentile(0.5), h.percentile(0.5));
        assert_eq!(Hist::default().percentile(0.5), 0.0);
    }

    #[test]
    fn tied_values_move_the_percentile_by_their_share() {
        // 1 holds the first 60% of samples: mid 0.3; 2 the rest: mid 0.8.
        let a = [1.0, 1.0, 1.0, 2.0, 2.0];
        assert!((median(&a) - 1.4).abs() < 1e-12);
        // 1 now holds 80%: mid 0.4; 2 the rest: mid 0.9.
        let b = [1.0, 1.0, 1.0, 1.0, 2.0];
        assert!((median(&b) - 1.2).abs() < 1e-12);
        assert_eq!(percentile(&b, 0.99), 2.0);
    }
}
