//! Streaming summary statistics with exact percentiles.
//!
//! A [`Summary`] keeps exactly one copy of its records. The first
//! percentile query sorts that copy in place, so a report that asks for
//! p50, p95 and p99 pays one sort and no second buffer.

use std::cell::{Cell, Ref, RefCell};

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
/// repeated once per member. The first percentile query after an
/// out-of-order record sorts the records in place, weights alongside;
/// on unweighted records that query allocates nothing.
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
    /// The records, behind a `RefCell` so that a percentile query (which
    /// takes `&self`) can sort them in place.
    columns: RefCell<Columns>,
    /// Total weight recorded (the member count).
    total: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Whether the records are in ascending value order. A record below
    /// the last one clears it; the next percentile query sorts and sets
    /// it again.
    sorted: Cell<bool>,
    /// NaN samples rejected at record time (see [`Summary::record_n`]).
    nan_dropped: u64,
}

/// The record columns of a [`Summary`].
#[derive(Debug, Clone, Default)]
struct Columns {
    values: Vec<f64>,
    /// Weight of each record in `values`; empty while every record has
    /// weight 1, otherwise exactly as long as `values`.
    weights: Vec<u64>,
}

impl Columns {
    /// Appends one record; `n` is at least 1.
    fn push(&mut self, value: f64, n: u64) {
        if n != 1 || !self.weights.is_empty() {
            // Back-fills weight 1 for the records before the first
            // weighted one (none when that record is the very first).
            self.weights.resize(self.values.len(), 1);
            self.weights.push(n);
        }
        self.values.push(value);
    }

    /// Sorts the records by value in place, co-sorting the weights when
    /// the weight column exists.
    fn sort(&mut self) {
        if self.weights.is_empty() {
            self.values.sort_unstable_by(f64::total_cmp);
            return;
        }
        // Weighted records are few (one per cohort), so a scratch pair
        // buffer is cheap.
        let mut pairs: Vec<(f64, u64)> = self
            .values
            .iter()
            .copied()
            .zip(self.weights.iter().copied())
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        for ((value, weight), (v, w)) in self.values.iter_mut().zip(&mut self.weights).zip(pairs) {
            *value = v;
            *weight = w;
        }
    }

    /// Nearest-rank with linear interpolation over the sorted records,
    /// expanded one sample per member without expanding them. Queries
    /// come at report time and weighted records are few (one per
    /// cohort), so each rank is found by a walk over the weights.
    fn weighted_percentile(&self, p: f64, total: u64) -> f64 {
        // The sample at expanded rank `k` is the first record whose
        // running weight total exceeds `k`.
        let at = |k: u64| {
            let mut upto = 0;
            let i = self.weights.iter().position(|&w| {
                upto += w;
                upto > k
            });
            self.values[i.expect("rank below the total weight")]
        };
        let rank = p / 100.0 * (total - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        if lo == hi {
            at(lo)
        } else {
            let frac = rank - lo as f64;
            at(lo) * (1.0 - frac) + at(hi) * frac
        }
    }
}

/// Iterator over a summary's `(value, weight)` records in stored order.
struct RecordIter<'a> {
    columns: Ref<'a, Columns>,
    next: usize,
}

impl Iterator for RecordIter<'_> {
    type Item = (f64, u64);

    fn next(&mut self) -> Option<(f64, u64)> {
        let value = *self.columns.values.get(self.next)?;
        let weight = self.columns.weights.get(self.next).copied().unwrap_or(1);
        self.next += 1;
        Some((value, weight))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.columns.values.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RecordIter<'_> {}

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
            columns: RefCell::default(),
            total: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sorted: Cell::new(true),
            nan_dropped: 0,
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
        // Weighted Welford. With n = 1 the products by `w` are exact, so
        // the mean and `m2` take the unweighted updates bit for bit.
        let before = self.total as f64;
        self.total += n;
        let w = n as f64;
        let delta = value - self.mean;
        self.mean += delta * w / self.total as f64;
        if n == 1 {
            self.m2 += delta * (value - self.mean);
        } else {
            // The pairwise form (Chan et al., 1979) for a record of `n`
            // equal samples. West's `delta * w * (value - mean)` would
            // multiply the new mean's rounding error by `w`: one record
            // of weight n can miss `value` by an ulp, so its zero spread
            // would read as ~1e-8 relative.
            self.m2 += delta * delta * (w * before / self.total as f64);
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let columns = self.columns.get_mut();
        if columns.values.last().is_some_and(|&last| value < last) {
            self.sorted.set(false);
        }
        columns.push(value, n);
    }

    /// Number of recorded samples: the total weight of the records.
    pub fn count(&self) -> usize {
        self.total as usize
    }

    /// The `(value, weight)` records in stored order, one per
    /// [`Summary::record_n`] call that kept a value.
    ///
    /// Stored order is insertion order until the first percentile query
    /// that finds the records out of order; that query sorts them by
    /// value in place. Replaying never-queried records through
    /// [`Summary::record_n`] in order — plus [`Summary::nan_dropped`]
    /// NaN records — rebuilds a bit-identical summary, because Welford's
    /// updates are order-deterministic. A replay of sorted records has
    /// the same count, extremes and percentiles, but its mean and
    /// variance may differ in the last ulps.
    ///
    /// The iterator borrows the records: a percentile query made while
    /// it is alive panics if it has to sort them.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (f64, u64)> + '_ {
        RecordIter {
            columns: self.columns.borrow(),
            next: 0,
        }
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
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
    ///
    /// The first query after an out-of-order record sorts the records in
    /// place (see [`Summary::records`]); later queries reuse that order.
    pub fn percentile(&self, p: f64) -> f64 {
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        if self.is_empty() {
            return 0.0;
        }
        if !self.sorted.get() {
            self.columns.borrow_mut().sort();
            self.sorted.set(true);
        }
        let columns = self.columns.borrow();
        if columns.weights.is_empty() {
            Self::percentile_of(&columns.values, p)
        } else {
            columns.weighted_percentile(p, self.total)
        }
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

    /// Releases the record columns' spare capacity. Reports call this
    /// once a run is over and no more records are coming.
    pub fn shrink_to_fit(&mut self) {
        let columns = self.columns.get_mut();
        columns.values.shrink_to_fit();
        columns.weights.shrink_to_fit();
    }

    /// Serializes the moments, the NaN drop count and the sorted flag,
    /// then the records in stored order (mirrored by
    /// [`Summary::snapshot_read`]).
    pub fn snapshot_write(&self, w: &mut SnapWriter) {
        w.put_u64(self.total);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
        w.put_u64(self.nan_dropped);
        w.put_bool(self.sorted.get());
        let records = self.records();
        w.put_usize(records.len());
        for (v, n) in records {
            w.put_f64(v);
            w.put_u64(n);
        }
    }

    /// Rebuilds a summary written by [`Summary::snapshot_write`]. The
    /// moments are restored as written rather than replayed, so the
    /// restored summary is bit-identical whatever order its records are
    /// in.
    pub fn snapshot_read(r: &mut SnapReader<'_>) -> Result<Summary, SnapshotError> {
        // Field initializers run in the order written, matching the writer.
        let mut s = Summary {
            columns: RefCell::default(),
            total: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            min: r.get_f64()?,
            max: r.get_f64()?,
            nan_dropped: r.get_u64()?,
            sorted: Cell::new(r.get_bool()?),
        };
        let columns = s.columns.get_mut();
        for _ in 0..r.get_usize()? {
            let value = r.get_f64()?;
            columns.push(value, r.get_u64()?);
        }
        Ok(s)
    }

    /// Merges another summary's records into this one, weights included
    /// (and its count of dropped NaN inputs).
    ///
    /// The records replay through [`Summary::record_n`] in `other`'s
    /// stored order (see [`Summary::records`]). Merging never-queried
    /// summaries is therefore bit-identical to recording both streams
    /// back to back; after a percentile query has sorted `other`, the
    /// merged mean and variance may differ from that in the last ulps.
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
    fn unit_records_keep_the_weight_column_empty() {
        let mut s: Summary = (0..100).map(f64::from).collect();
        s.record_n(7.0, 1);
        s.record_n(f64::NAN, 5);
        assert!(s.columns.borrow().weights.is_empty());
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
        assert_eq!(first.columns.borrow().weights, [3, 1]);
        assert_eq!(first.count(), 4);
        assert_eq!(first.median(), 2.0);

        // A later weighted record back-fills weight 1 for the earlier
        // ones, which the median query has already sorted.
        let mut late: Summary = vec![3.0, 1.0].into_iter().collect();
        assert_eq!(late.median(), 2.0);
        late.record_n(2.0, 4);
        assert_eq!(late.columns.borrow().weights, [1, 1, 4]);
        assert_eq!(late.count(), 6);
        assert_eq!(late.percentile(0.0), 1.0);
        assert_eq!(late.median(), 2.0);
        assert_eq!(late.percentile(100.0), 3.0);
        assert_eq!(late.count_above(1.5), 5);
    }

    #[test]
    fn percentile_sorts_the_records_in_place() {
        let mut s: Summary = vec![3.0, 1.0, 2.0].into_iter().collect();
        assert!(s.records().eq([(3.0, 1), (1.0, 1), (2.0, 1)]));
        assert_eq!(s.median(), 2.0);
        assert!(s.records().eq([(1.0, 1), (2.0, 1), (3.0, 1)]));
        // An append in order keeps the records sorted; one below the
        // last value waits for the next query to sort it in.
        s.record(4.0);
        assert!(s.sorted.get());
        s.record_n(0.5, 3);
        assert!(!s.sorted.get());
        assert!(s
            .records()
            .eq([(1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1), (0.5, 3)]));
        // Expanded: 0.5, 0.5, 0.5, 1, 2, 3, 4.
        assert_eq!(s.median(), 1.0);
        assert!(s
            .records()
            .eq([(0.5, 3), (1.0, 1), (2.0, 1), (3.0, 1), (4.0, 1)]));
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
    fn equal_weighted_records_have_zero_spread() {
        // 0.1 * 3 / 3 rounds above 0.1, which West's update would
        // amplify into a spread of ~1e-9.
        let mut s = Summary::new();
        s.record_n(0.1, 3);
        assert_eq!(s.std_dev(), 0.0);
        // The next record sees that one-ulp miss as its whole spread.
        s.record_n(0.1, 7);
        assert!(s.std_dev() < 0.1 * f64::EPSILON);
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
