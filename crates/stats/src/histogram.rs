//! Power-of-two-bucketed histograms for per-stage distributions.
//!
//! Bucket `i` counts samples in `[2^(i-1), 2^i)` (bucket 0 counts zeros
//! and ones... precisely: bucket of sample `v` is `64 - (v.leading_zeros)`
//! clamped, i.e. `v=0 → 0`, `v=1 → 1`, `2..3 → 2`, `4..7 → 3`, …). The
//! exact sum and count are kept alongside, so means stay exact even
//! though the distribution is bucketed.

/// A log2 histogram with exact count/sum/max.
#[derive(Debug, Clone)]
pub struct Histogram {
    name: &'static str,
    buckets: [u64; 32],
    count: u64,
    sum: u64,
    max: u64,
}

/// An owned snapshot of a histogram, as carried by the JSON export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name (the JSON key).
    pub name: String,
    /// Trailing-zero-trimmed log2 buckets.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Exact mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another snapshot of the same distribution into this one.
    ///
    /// Buckets add element-wise (the shorter vector is zero-extended),
    /// `count`/`sum` add, `max` takes the maximum — so merging the
    /// snapshots of N disjoint shards equals the snapshot of one run
    /// that saw every sample. The operation is commutative and
    /// associative: any merge order produces the same snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

impl HistogramSnapshot {
    /// This snapshot, taken at some point of one run, advanced by what a
    /// second run recorded between its snapshots `before` and `after`:
    /// buckets, count and sum add the second run's change. The largest
    /// sample after the cut is known only when the second run's max rose
    /// (it is then `after.max`) or when `self.max` already reaches
    /// `before.max`; otherwise, or when `after` is not a continuation of
    /// `before`, the result is `None`.
    pub fn advanced_by(
        &self,
        before: &HistogramSnapshot,
        after: &HistogramSnapshot,
    ) -> Option<HistogramSnapshot> {
        let delta = |a: u64, b: u64| a.checked_sub(b);
        let at = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let len = self.buckets.len().max(after.buckets.len()).max(before.buckets.len());
        let mut buckets = (0..len)
            .map(|i| {
                let change = delta(at(&after.buckets, i), at(&before.buckets, i))?;
                Some(at(&self.buckets, i) + change)
            })
            .collect::<Option<Vec<u64>>>()?;
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let max = if after.max > before.max {
            self.max.max(after.max)
        } else if self.max >= before.max {
            self.max
        } else {
            return None;
        };
        Some(HistogramSnapshot {
            name: self.name.clone(),
            buckets,
            count: self.count + delta(after.count, before.count)?,
            sum: self.sum + delta(after.sum, before.sum)?,
            max,
        })
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new(name: &'static str) -> Histogram {
        Histogram { name, buckets: [0; 32], count: 0, sum: 0, max: 0 }
    }

    /// The histogram's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index of a sample value.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(31)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Snapshot for export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let used = self.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
        HistogramSnapshot {
            name: self.name.to_string(),
            buckets: self.buckets[..used].to_vec(),
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn of(samples: &[u64]) -> HistogramSnapshot {
        let mut h = Histogram::new("h");
        samples.iter().for_each(|&v| h.record(v));
        h.snapshot()
    }

    #[test]
    fn advancing_by_a_shared_suffix_equals_the_whole_run() {
        // One run records `head` then `tail`; another records `other`
        // then the same `tail`. Advancing the first run's snapshot after
        // `head` by the second run's change gives the first run's whole
        // snapshot whenever the max is derivable, and the derivable cases
        // are exactly the rule's.
        let mut rng = SplitMix64::new(9);
        let (mut derived, mut refused) = (0, 0);
        for _ in 0..2_000 {
            let mut draw = |n: usize| -> Vec<u64> {
                (0..rng.gen_range(0..n)).map(|_| rng.gen_range(0..300u64)).collect()
            };
            let (head, other, tail) = (draw(6), draw(6), draw(6));
            let whole = of(&[head.clone(), tail.clone()].concat());
            let before = of(&other);
            let after = of(&[other.clone(), tail.clone()].concat());
            let cut = of(&head);
            match cut.advanced_by(&before, &after) {
                Some(advanced) => {
                    assert_eq!(advanced, whole, "{head:?} {other:?} {tail:?}");
                    derived += 1;
                }
                None => {
                    assert!(after.max == before.max && cut.max < before.max);
                    refused += 1;
                }
            }
        }
        assert!(derived > 1_000 && refused > 0, "{derived} derived, {refused} refused");
    }

    #[test]
    fn advancing_refuses_a_run_that_went_backwards() {
        let (before, after) = (of(&[5, 9]), of(&[5]));
        assert_eq!(of(&[1]).advanced_by(&before, &after), None);
    }

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new("h");
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1049);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 1, "zero");
        assert_eq!(s.buckets[1], 1, "one");
        assert_eq!(s.buckets[2], 2, "2..3");
        assert_eq!(s.buckets[3], 2, "4..7");
        assert_eq!(s.buckets[4], 1, "8..15");
        assert_eq!(s.buckets[11], 1, "1024..2047");
        assert_eq!(s.buckets.len(), 12, "trailing zeros trimmed");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new("m");
        h.record(10);
        h.record(20);
        assert!((h.mean() - 15.0).abs() < 1e-12);
        assert!((h.snapshot().mean() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_merge_equals_single_histogram() {
        let samples = [0u64, 1, 2, 3, 9, 100, 5000, 7, 7, 63];
        let mut whole = Histogram::new("w");
        let mut left = Histogram::new("w");
        let mut right = Histogram::new("w");
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        assert_eq!(merged, whole.snapshot());
        // The other merge order gives the same snapshot.
        let mut swapped = right.snapshot();
        swapped.merge(&left.snapshot());
        assert_eq!(swapped, merged);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new("e");
        assert_eq!(h.mean(), 0.0);
        assert!(h.snapshot().buckets.is_empty());
    }
}
