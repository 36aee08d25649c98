//! Streaming summary statistics with exact percentiles.

use std::cell::{Cell, RefCell};

use hyscale_sim::{SnapReader, SnapWriter, SnapshotError};

/// Accumulates samples and answers count/mean/min/max/std-dev/percentile
/// queries.
///
/// The summary keeps one record per [`Summary::record_n`] call: a value
/// and the number of members that share it. A flow cohort whose members
/// finished together is one record, so memory grows with the number of
/// completed flows, not with the members they carry. The weight column
/// stays empty while every record has weight 1, so per-request runs pay
/// nothing for it.
///
/// The mean and variance are maintained streamingly (weighted Welford);
/// percentiles are exact over the records, as if each record were
/// repeated once per member.
///
/// # Example
///
/// ```
/// use hyscale_metrics::Summary;
///
/// let s: Summary = (1..=100).map(f64::from).collect();
/// assert_eq!(s.count(), 100);
/// assert_eq!(s.mean(), 50.5);
/// assert_eq!(s.percentile(50.0), 50.5);
/// assert_eq!(s.percentile(100.0), 100.0);
///
/// let mut cohort = Summary::new();
/// cohort.record_n(0.5, 1_000_000);
/// assert_eq!(cohort.count(), 1_000_000);
/// assert_eq!(cohort.records().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Summary {
    values: Vec<f64>,
    /// Weight of each record in `values`; empty while every record has
    /// weight 1, otherwise exactly as long as `values`.
    weights: Vec<u64>,
    /// Total weight recorded (the member count).
    total: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Whether `values` is known to be sorted (lazily maintained).
    sorted: Cell<bool>,
    /// NaN samples rejected at record time (see [`Summary::record_n`]).
    nan_dropped: u64,
    /// Sorted copy of `values`, built lazily for percentile queries on
    /// unsorted unweighted data and reused (no reallocation) until
    /// invalidated by the next record.
    cache: RefCell<Vec<f64>>,
    /// The weighted counterpart of `cache`: records sorted by value, each
    /// carrying the running total of the weights up to and including it.
    weighted_cache: RefCell<Vec<(f64, u64)>>,
    cache_valid: Cell<bool>,
}

impl Default for Summary {
    /// Identical to [`Summary::new`] (an empty summary with proper
    /// `min`/`max` sentinels, not zeroed fields).
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            values: Vec::new(),
            weights: Vec::new(),
            total: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sorted: Cell::new(true),
            nan_dropped: 0,
            cache: RefCell::new(Vec::new()),
            weighted_cache: RefCell::new(Vec::new()),
            cache_valid: Cell::new(false),
        }
    }

    /// Records one sample (a record of weight 1).
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples sharing one value as a single record, in O(1)
    /// amortized time whatever `n` is. A weight of 0 records nothing.
    ///
    /// NaN values are **dropped**, not recorded: a NaN sample would
    /// poison the mean and every percentile sort. Drops are counted in
    /// [`Summary::nan_dropped`] (`n` per call) so callers can notice a
    /// polluted input stream instead of failing deep inside a later
    /// report query.
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if value.is_nan() {
            self.nan_dropped += n;
            return;
        }
        self.cache_valid.set(false);
        // Weighted Welford (West, 1979). With n = 1 the products by `w`
        // are exact, so these are the unweighted updates bit for bit.
        self.total += n;
        let w = n as f64;
        let delta = value - self.mean;
        self.mean += delta * w / self.total as f64;
        self.m2 += delta * w * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.sorted.get() {
            if let Some(&last) = self.values.last() {
                if value < last {
                    self.sorted.set(false);
                }
            }
        }
        if n != 1 || !self.weights.is_empty() {
            if self.weights.is_empty() {
                // First weighted record: the unweighted cache is dead.
                *self.cache.get_mut() = Vec::new();
            }
            // Back-fills weight 1 for the records before the first
            // weighted one (none when that record is the very first).
            self.weights.resize(self.values.len(), 1);
            self.weights.push(n);
        }
        self.values.push(value);
    }

    /// Number of recorded samples: the total weight of the records.
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// The `(value, weight)` records in insertion order, one per
    /// [`Summary::record_n`] call that kept a value.
    ///
    /// Replaying these through [`Summary::record_n`] in order — plus
    /// [`Summary::nan_dropped`] NaN records — rebuilds a bit-identical
    /// summary, because Welford's updates are order-deterministic.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (f64, u64)> + '_ {
        (0..self.values.len()).map(|i| (self.values[i], self.weights.get(i).copied().unwrap_or(1)))
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.max
        }
    }

    /// Population standard deviation; 0.0 when fewer than two samples.
    pub fn std_dev(&self) -> f64 {
        if self.total < 2 {
            0.0
        } else {
            (self.m2 / self.total as f64).sqrt()
        }
    }

    /// Exact percentile (nearest-rank with linear interpolation).
    ///
    /// The rank `p` is defined for every `f64`:
    ///
    /// * out-of-range `p` is clamped into `[0, 100]`, so `p < 0` returns
    ///   the minimum and `p > 100` the maximum — never an interpolation
    ///   with a negative or past-the-end rank;
    /// * a NaN `p` is treated as 0 (the minimum), keeping the return
    ///   value a real sample instead of poisoning downstream arithmetic;
    /// * an empty summary returns 0.0 for every `p`, matching
    ///   [`Summary::mean`]/[`Summary::min`]/[`Summary::max`].
    pub fn percentile(&self, p: f64) -> f64 {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        if self.is_empty() {
            return 0.0;
        }
        if !self.weights.is_empty() {
            return self.weighted_percentile(p);
        }
        if self.sorted.get() {
            return Self::percentile_of(&self.values, p);
        }
        // Unsorted: consult the cached sorted copy, (re)building it at
        // most once per batch of records. `clone_from` reuses the cache's
        // existing allocation, so repeated report queries after the first
        // allocate nothing.
        if !self.cache_valid.get() {
            let mut cache = self.cache.borrow_mut();
            cache.clone_from(&self.values);
            cache.sort_unstable_by(f64::total_cmp);
            self.cache_valid.set(true);
        }
        Self::percentile_of(&self.cache.borrow(), p)
    }

    /// Nearest-rank with linear interpolation over a sorted slice.
    fn percentile_of(sorted: &[f64], p: f64) -> f64 {
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// [`Summary::percentile_of`] over the records expanded one sample
    /// per member, without expanding them: the ranks are found by binary
    /// search over running weight totals.
    fn weighted_percentile(&self, p: f64) -> f64 {
        if !self.cache_valid.get() {
            let mut cache = self.weighted_cache.borrow_mut();
            cache.clear();
            cache.extend(self.records());
            cache.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut running = 0;
            for (_, w) in cache.iter_mut() {
                running += *w;
                *w = running;
            }
            self.cache_valid.set(true);
        }
        let cum = self.weighted_cache.borrow();
        // The sample at expanded rank `k` is the first record whose
        // running total exceeds `k`.
        let at = |k: u64| cum[cum.partition_point(|&(_, upto)| upto <= k)].0;
        let rank = p / 100.0 * (self.total - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        if lo == hi {
            at(lo)
        } else {
            let frac = rank - lo as f64;
            at(lo) * (1.0 - frac) + at(hi) * frac
        }
    }

    /// NaN samples dropped at record time.
    pub fn nan_dropped(&self) -> u64 {
        self.nan_dropped
    }

    /// Median (the 50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Number of samples strictly greater than `threshold`: the total
    /// weight of the records above it.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.records()
            .filter(|&(v, _)| v > threshold)
            .map(|(_, w)| w)
            .sum::<u64>() as usize
    }

    /// Serializes the records and the NaN drop count (mirrored by
    /// [`Summary::snapshot_read`]).
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_usize(self.values.len());
        for (v, n) in self.records() {
            w.put_f64(v);
            w.put_u64(n);
        }
        w.put_u64(self.nan_dropped);
    }

    /// Rebuilds a summary written by [`Summary::snapshot_write`]. Each
    /// record replays through [`Summary::record_n`] as the original call
    /// did, so the restored summary is bit-identical.
    pub fn snapshot_read(r: &mut SnapReader<'_>) -> Result<Summary, SnapshotError> {
        let mut s = Summary::new();
        for _ in 0..r.get_usize()? {
            let value = r.get_f64()?;
            s.record_n(value, r.get_u64()?);
        }
        s.nan_dropped = r.get_u64()?;
        Ok(s)
    }

    /// Merges another summary's records into this one, weights included
    /// (and its count of dropped NaN inputs).
    pub fn merge(&mut self, other: &Summary) {
        for (v, n) in other.records() {
            self.record_n(v, n);
        }
        self.nan_dropped += other.nan_dropped;
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.percentile(50.0), 0.0);
    }

    #[test]
    fn moments_match_closed_form() {
        let s: Summary = (1..=10).map(f64::from).collect();
        assert_eq!(s.count(), 10);
        assert_eq!(s.mean(), 5.5);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        // population std dev of 1..=10 = sqrt(8.25)
        assert!((s.std_dev() - 8.25_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let s: Summary = vec![10.0, 20.0, 30.0, 40.0].into_iter().collect();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_on_unsorted_input() {
        let s: Summary = vec![5.0, 1.0, 4.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
    }

    #[test]
    fn merge_combines_sample_sets() {
        let mut a: Summary = vec![1.0, 2.0].into_iter().collect();
        let b: Summary = vec![3.0, 4.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.max(), 4.0);
    }

    #[test]
    fn nan_is_dropped_and_counted() {
        let mut s = Summary::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
        assert_eq!(s.nan_dropped(), 1);
        s.record(2.0);
        s.record(f64::NAN);
        s.record(4.0);
        assert_eq!(s.count(), 2);
        assert_eq!(s.nan_dropped(), 2);
        // Queries stay finite and ignore the dropped samples entirely.
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 4.0);
        assert!(s.median().is_finite());
    }

    #[test]
    fn merge_propagates_nan_dropped() {
        let mut a = Summary::new();
        a.record(f64::NAN);
        let mut b = Summary::new();
        b.record(f64::NAN);
        b.record(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.nan_dropped(), 2);
    }

    #[test]
    fn default_matches_new() {
        // A derived Default would zero min/max instead of using the
        // ±infinity sentinels; the first sample must win outright.
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        let mut neg = Summary::default();
        neg.record(-3.0);
        assert_eq!(neg.max(), -3.0);
    }

    #[test]
    fn percentile_queries_do_not_reallocate() {
        let mut s = Summary::new();
        // Descending input keeps `samples` unsorted, forcing cache use.
        s.extend((0..1000).rev().map(f64::from));
        let _ = s.percentile(50.0);
        let ptr = s.cache.borrow().as_ptr();
        // Repeated queries reuse the already-sorted cache: same buffer,
        // no clone-and-sort per call (the old behaviour).
        for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let _ = s.percentile(p);
        }
        assert_eq!(s.cache.borrow().as_ptr(), ptr, "query reallocated cache");
        // Record/query cycles rebuild the cache via clone_from, reusing
        // the buffer once its capacity has settled.
        s.record(-1.0);
        assert_eq!(s.percentile(0.0), -1.0);
        let (settled_ptr, settled_cap) = {
            let c = s.cache.borrow();
            (c.as_ptr(), c.capacity())
        };
        s.record(-2.0);
        assert_eq!(s.percentile(0.0), -2.0);
        let c = s.cache.borrow();
        assert_eq!(c.as_ptr(), settled_ptr, "rebuild reallocated cache");
        assert_eq!(c.capacity(), settled_cap, "rebuild changed capacity");
    }

    #[test]
    fn unit_records_keep_the_weight_column_empty() {
        let mut s: Summary = (0..100).map(f64::from).collect();
        s.record_n(7.0, 1);
        s.record_n(f64::NAN, 5);
        assert!(s.weights.is_empty());
        assert_eq!(s.count(), 101);
        assert_eq!(s.nan_dropped(), 5);
    }

    #[test]
    fn weight_column_starts_at_the_first_weighted_record() {
        // The very first record weighted: no back-fill, yet the column
        // must start, or its members would read as weight 1.
        let mut first = Summary::new();
        first.record_n(2.0, 3);
        first.record(1.0);
        assert_eq!(first.weights, [3, 1]);
        assert_eq!(first.count(), 4);
        assert_eq!(first.median(), 2.0);

        // A later weighted record back-fills weight 1 for the earlier
        // ones and drops the now-unused unweighted cache.
        let mut late: Summary = vec![3.0, 1.0].into_iter().collect();
        assert_eq!(late.median(), 2.0);
        late.record_n(2.0, 4);
        assert_eq!(late.weights, [1, 1, 4]);
        assert_eq!(late.cache.borrow().capacity(), 0);
        assert_eq!(late.count(), 6);
        assert_eq!(late.percentile(0.0), 1.0);
        assert_eq!(late.median(), 2.0);
        assert_eq!(late.percentile(100.0), 3.0);
        assert_eq!(late.count_above(1.5), 5);
    }

    #[test]
    fn weighted_moments_match_the_expanded_stream() {
        let mut s = Summary::new();
        s.record_n(1.0, 3);
        s.record_n(4.0, 1);
        // Expanded: 1, 1, 1, 4 — mean 1.75, population variance 1.6875.
        assert_eq!(s.mean(), 1.75);
        assert!((s.std_dev() - 1.6875_f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.percentile(50.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
        // Rank 2.7 of [1, 1, 1, 4] interpolates between 1 and 4.
        assert!((s.percentile(90.0) - 3.1).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut s: Summary = vec![0.5, 0.25].into_iter().collect();
        s.record_n(0.75, 9);
        s.record(f64::NAN);
        s.record(0.1);
        let mut w = SnapWriter::new();
        s.snapshot_write(&mut w);
        let bytes = w.finish();
        let restored = Summary::snapshot_read(&mut SnapReader::open(&bytes).unwrap()).unwrap();
        assert!(restored.records().eq(s.records()));
        assert_eq!(restored.count(), s.count());
        assert_eq!(restored.nan_dropped(), 1);
        assert_eq!(restored.mean().to_bits(), s.mean().to_bits());
        assert_eq!(restored.std_dev().to_bits(), s.std_dev().to_bits());
        assert_eq!(
            restored.percentile(37.0).to_bits(),
            s.percentile(37.0).to_bits()
        );
    }

    #[test]
    fn out_of_range_percentile_clamps() {
        let s: Summary = vec![1.0, 2.0, 3.0].into_iter().collect();
        // Below 0 clamps to the minimum, above 100 to the maximum.
        assert_eq!(s.percentile(-5.0), 1.0);
        assert_eq!(s.percentile(-0.0), 1.0);
        assert_eq!(s.percentile(101.0), 3.0);
        assert_eq!(s.percentile(f64::INFINITY), 3.0);
        assert_eq!(s.percentile(f64::NEG_INFINITY), 1.0);
        // NaN ranks are treated as 0 — a real sample, never NaN out.
        assert_eq!(s.percentile(f64::NAN), 1.0);
    }

    #[test]
    fn empty_summary_percentile_is_zero_for_every_rank() {
        let s = Summary::new();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0, f64::NAN] {
            assert_eq!(s.percentile(p), 0.0);
        }
    }

    #[test]
    fn single_sample() {
        let s: Summary = vec![42.0].into_iter().collect();
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.median(), 42.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn count_above_threshold() {
        let s: Summary = vec![0.5, 1.0, 1.5, 2.0].into_iter().collect();
        assert_eq!(s.count_above(1.0), 2); // strictly greater
        assert_eq!(s.count_above(0.0), 4);
        assert_eq!(s.count_above(5.0), 0);
        assert_eq!(Summary::new().count_above(0.0), 0);
    }

    #[test]
    fn extend_appends() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }
}
