//! Property test: a summary of weighted records answers every query as
//! the expanded stream would, one sample per member.
//!
//! The reference is the unweighted algorithm the summary used before it
//! kept weights: a `Vec<f64>` of every sample, Welford's update per
//! sample, and percentiles over a sorted copy. Each random
//! `(value, weight)` stream is fed to [`Summary::record_n`] once per
//! record and to the reference (and to a `Summary` built with a
//! [`Summary::record`] loop) once per member.
//!
//! Percentile queries sort a summary's records in place, so the tests
//! also interleave queries with records, round-trip the snapshot codec
//! on both sides of a query, and merge queried and never-queried
//! summaries.

use hyscale_metrics::Summary;
use hyscale_sim::{SimRng, SnapReader, SnapWriter};

/// The pre-weights summary, one retained sample per member.
#[derive(Default)]
struct Reference {
    samples: Vec<f64>,
    mean: f64,
    m2: f64,
    min: Option<f64>,
    max: Option<f64>,
    nan_dropped: u64,
}

impl Reference {
    fn record(&mut self, value: f64) {
        if value.is_nan() {
            self.nan_dropped += 1;
            return;
        }
        let n = self.samples.len() as f64 + 1.0;
        let delta = value - self.mean;
        self.mean += delta / n;
        self.m2 += delta * (value - self.mean);
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        self.samples.push(value);
    }

    fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            0.0
        } else {
            (self.m2 / self.samples.len() as f64).sqrt()
        }
    }

    /// The retained samples, sorted once for a batch of percentile
    /// queries.
    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        sorted
    }

    fn count_above(&self, threshold: f64) -> usize {
        self.samples.iter().filter(|&&v| v > threshold).count()
    }
}

/// The shapes of random stream the test draws.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every record has weight 1: the unweighted path.
    Unit,
    /// Random weights from the first record on.
    FirstWeighted,
    /// Weight 1 for a while, then random weights.
    LateWeighted,
    /// Random weights over a handful of distinct values.
    Duplicates,
}

const SHAPES: [Shape; 4] = [
    Shape::Unit,
    Shape::FirstWeighted,
    Shape::LateWeighted,
    Shape::Duplicates,
];

/// Draws one `(value, weight)` stream. About one record in twenty is NaN.
fn stream(rng: &mut SimRng, shape: Shape) -> Vec<(f64, u64)> {
    let len = 1 + rng.uniform_usize(120);
    let switch = rng.uniform_usize(len);
    (0..len)
        .map(|i| {
            let value = if rng.chance(0.05) {
                f64::NAN
            } else if matches!(shape, Shape::Duplicates) {
                [0.25, 0.5, 1.0, 1.5, 3.0][rng.uniform_usize(5)]
            } else {
                rng.uniform_range(0.001, 10.0)
            };
            let weighted = match shape {
                Shape::Unit => false,
                Shape::FirstWeighted => true,
                Shape::LateWeighted => i >= switch,
                Shape::Duplicates => true,
            };
            let weight = if !weighted {
                1
            } else if i == 0 {
                // A weighted stream's first record is never weight 1, so
                // those streams start the weight column on record one.
                2 + rng.uniform_usize(40) as u64
            } else {
                1 + rng.uniform_usize(40) as u64
            };
            (value, weight)
        })
        .collect()
}

fn percentile_grid() -> impl Iterator<Item = f64> {
    (0..=200).map(|i| f64::from(i) * 0.5)
}

/// Nearest-rank percentile with linear interpolation over `sorted`.
fn percentile_of(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
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

fn close(actual: f64, expected: f64, scale: f64) -> bool {
    (actual - expected).abs() <= 1e-12 * expected.abs().max(scale)
}

/// Asserts `s` answers every query as `r` does: bit-equal counts,
/// extremes and percentiles; mean and std-dev bit-equal when `exact`,
/// otherwise within 1e-12 relative (to the larger of the expected value
/// and the data's magnitude, so a zero spread compares sensibly).
fn assert_matches(s: &Summary, r: &Reference, exact: bool, ctx: &str) {
    assert_eq!(s.count(), r.samples.len(), "{ctx}: count");
    assert_eq!(s.is_empty(), r.samples.is_empty(), "{ctx}: is_empty");
    assert_eq!(s.nan_dropped(), r.nan_dropped, "{ctx}: nan_dropped");
    assert_eq!(
        s.min().to_bits(),
        r.min.unwrap_or(0.0).to_bits(),
        "{ctx}: min"
    );
    assert_eq!(
        s.max().to_bits(),
        r.max.unwrap_or(0.0).to_bits(),
        "{ctx}: max"
    );
    for t in [0.0, 0.5, 1.0, 2.5, 5.0, 9.99] {
        assert_eq!(
            s.count_above(t),
            r.count_above(t),
            "{ctx}: count_above({t})"
        );
    }
    let sorted = r.sorted();
    for p in percentile_grid() {
        let (actual, expected) = (s.percentile(p), percentile_of(&sorted, p));
        assert_eq!(
            actual.to_bits(),
            expected.to_bits(),
            "{ctx}: p{p}: {actual} vs {expected}"
        );
    }
    let mean = if r.samples.is_empty() { 0.0 } else { r.mean };
    if exact {
        assert_eq!(s.mean().to_bits(), mean.to_bits(), "{ctx}: mean");
        assert_eq!(
            s.std_dev().to_bits(),
            r.std_dev().to_bits(),
            "{ctx}: std_dev"
        );
    } else {
        let scale = r.max.unwrap_or(0.0).abs();
        assert!(
            close(s.mean(), mean, scale),
            "{ctx}: mean {} vs {mean}",
            s.mean()
        );
        assert!(
            close(s.std_dev(), r.std_dev(), scale),
            "{ctx}: std_dev {} vs {}",
            s.std_dev(),
            r.std_dev()
        );
    }
}

#[test]
fn weighted_records_answer_as_the_expanded_stream() {
    let mut rng = SimRng::seed_from(0x5eed_0015);
    for case in 0..400 {
        let shape = SHAPES[case % SHAPES.len()];
        let records = stream(&mut rng, shape);
        let exact = matches!(shape, Shape::Unit);
        let mut weighted = Summary::new();
        let mut looped = Summary::new();
        let mut reference = Reference::default();
        for (i, &(value, n)) in records.iter().enumerate() {
            weighted.record_n(value, n);
            for _ in 0..n {
                looped.record(value);
                reference.record(value);
            }
            // Queries between records must see the records so far: the
            // sorted caches are rebuilt after every record, including
            // across the switch from unit to weighted records.
            if i % 16 == 5 {
                let ctx = format!("case {case} ({shape:?}) after record {i}");
                assert_matches(&weighted, &reference, exact, &ctx);
            }
        }
        let ctx = format!("case {case} ({shape:?})");
        assert_matches(&weighted, &reference, exact, &ctx);
        assert_matches(&looped, &reference, true, &format!("{ctx}, record loop"));
        let non_nan = records.iter().filter(|(v, _)| !v.is_nan()).count();
        assert_eq!(
            weighted.records().len(),
            non_nan,
            "{ctx}: one record per call"
        );
    }
}

#[test]
fn merge_replays_records_and_conserves_count() {
    let mut rng = SimRng::seed_from(99);
    for case in 0..200 {
        let left = stream(&mut rng, SHAPES[case % SHAPES.len()]);
        let right = stream(&mut rng, SHAPES[(case / 4) % SHAPES.len()]);
        let build = |records: &[(f64, u64)]| {
            let mut s = Summary::new();
            for &(v, n) in records {
                s.record_n(v, n);
            }
            s
        };
        let mut merged = build(&left);
        let other = build(&right);
        merged.merge(&other);
        let whole: Vec<_> = left.iter().chain(&right).copied().collect();
        let whole = build(&whole);
        assert_eq!(merged.count(), build(&left).count() + other.count());
        assert_eq!(merged.nan_dropped(), whole.nan_dropped());
        // Merging never-queried summaries replays the other side's
        // records in insertion order, so it is the same summary as
        // recording both streams back to back.
        assert!(merged.records().eq(whole.records()), "case {case}");
        assert_eq!(merged.mean().to_bits(), whole.mean().to_bits());
        assert_eq!(merged.std_dev().to_bits(), whole.std_dev().to_bits());
        for p in percentile_grid() {
            assert_eq!(
                merged.percentile(p).to_bits(),
                whole.percentile(p).to_bits()
            );
        }
    }
}

#[test]
fn merging_a_queried_summary_keeps_counts_and_percentiles_exact() {
    let mut rng = SimRng::seed_from(0x6e76);
    for case in 0..200 {
        let left = stream(&mut rng, SHAPES[case % SHAPES.len()]);
        let right = stream(&mut rng, SHAPES[(case / 4) % SHAPES.len()]);
        let mut reference = Reference::default();
        let mut merged = Summary::new();
        let mut other = Summary::new();
        for &(v, n) in &left {
            merged.record_n(v, n);
        }
        for &(v, n) in &right {
            other.record_n(v, n);
        }
        for &(v, n) in left.iter().chain(&right) {
            for _ in 0..n {
                reference.record(v);
            }
        }
        // Both sides sorted in place before the merge: the replay order
        // is value order, so only the moments may move, in the last ulps.
        let _ = merged.percentile(50.0);
        let _ = other.percentile(50.0);
        merged.merge(&other);
        assert_matches(&merged, &reference, false, &format!("case {case}"));
    }
}

/// Asserts that `s` stores exactly the non-NaN records of `inserted`, as
/// a multiset, and that they are in value order.
fn assert_sorted_permutation(s: &Summary, inserted: &[(f64, u64)], ctx: &str) {
    let stored: Vec<(f64, u64)> = s.records().collect();
    assert!(
        stored.windows(2).all(|w| w[0].0.total_cmp(&w[1].0).is_le()),
        "{ctx}: records not in value order after a query"
    );
    let key = |&(v, n): &(f64, u64)| (v.to_bits(), n);
    let mut stored: Vec<_> = stored.iter().map(key).collect();
    let mut expected: Vec<_> = inserted
        .iter()
        .filter(|(v, _)| !v.is_nan())
        .map(key)
        .collect();
    stored.sort_unstable();
    expected.sort_unstable();
    assert_eq!(stored, expected, "{ctx}: records lost or changed");
}

#[test]
fn interleaved_queries_sort_in_place_and_answer_as_the_expanded_stream() {
    let mut rng = SimRng::seed_from(0x1a7e_0016);
    for case in 0..400 {
        let shape = SHAPES[case % SHAPES.len()];
        let records = stream(&mut rng, shape);
        // Some cases query after every record, the rest now and then.
        let query_odds = if case % 5 == 0 { 1.0 } else { 0.2 };
        let mut s = Summary::new();
        let mut reference = Reference::default();
        for (i, &(value, n)) in records.iter().enumerate() {
            s.record_n(value, n);
            for _ in 0..n {
                reference.record(value);
            }
            if rng.chance(query_odds) {
                let ctx = format!("case {case} ({shape:?}) after record {i}");
                assert_matches(&s, &reference, matches!(shape, Shape::Unit), &ctx);
                assert_sorted_permutation(&s, &records[..=i], &ctx);
            }
        }
    }
}

fn snapshot_bytes(s: &Summary) -> Vec<u8> {
    let mut w = SnapWriter::new();
    s.snapshot_write(&mut w);
    w.finish()
}

fn restore(bytes: &[u8]) -> Summary {
    Summary::snapshot_read(&mut SnapReader::open(bytes).expect("frame")).expect("summary")
}

#[test]
fn codec_round_trips_bit_exactly_on_both_sides_of_a_query() {
    let mut rng = SimRng::seed_from(0xc0de_c006);
    for case in 0..400 {
        let shape = SHAPES[case % SHAPES.len()];
        let records = stream(&mut rng, shape);
        let cut = rng.uniform_usize(records.len() + 1);
        let queried = case % 2 == 1;
        let mut original = Summary::new();
        for &(v, n) in &records[..cut] {
            original.record_n(v, n);
        }
        if queried {
            let _ = original.percentile(95.0);
        }
        let bytes = snapshot_bytes(&original);
        let mut twin = restore(&bytes);
        let ctx = format!("case {case} ({shape:?}, queried {queried}, cut {cut})");
        assert_eq!(snapshot_bytes(&twin), bytes, "{ctx}: re-written bytes");
        assert!(twin.records().eq(original.records()), "{ctx}: records");
        assert_eq!(twin.mean().to_bits(), original.mean().to_bits(), "{ctx}");
        assert_eq!(
            twin.std_dev().to_bits(),
            original.std_dev().to_bits(),
            "{ctx}"
        );
        // Both twins keep recording, and querying at the same points:
        // their states, and so their snapshots, must never drift apart.
        for (i, &(v, n)) in records[cut..].iter().enumerate() {
            original.record_n(v, n);
            twin.record_n(v, n);
            if rng.chance(0.1) {
                for p in [0.0, 50.0, 99.0] {
                    assert_eq!(
                        twin.percentile(p).to_bits(),
                        original.percentile(p).to_bits(),
                        "{ctx}: p{p} after {i} more"
                    );
                }
            }
        }
        assert_eq!(
            snapshot_bytes(&twin),
            snapshot_bytes(&original),
            "{ctx}: bytes after recording on"
        );
    }
}

#[test]
fn zero_weight_records_nothing() {
    let mut s = Summary::new();
    s.record_n(1.0, 0);
    s.record_n(f64::NAN, 0);
    assert!(s.is_empty());
    assert_eq!(s.nan_dropped(), 0);
    assert_eq!(s.records().len(), 0);
}
