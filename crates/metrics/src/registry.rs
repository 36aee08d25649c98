//! A small counters registry with deterministic ordering.
//!
//! The simulation driver registers its run totals once, at the horizon,
//! and dumps them into the trace journal. Snapshots iterate in
//! registration order, so the dump is deterministic by construction.

/// Index handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Named monotonic counters for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) the counter named `name` and returns its
    /// handle. Registering the same name twice returns the same handle.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(idx) = self.counters.iter().position(|&(n, _)| n == name) {
            return CounterId(idx);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Current value of a counter.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// All counters as `(name, value)`, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// Number of registered counters.
    pub fn counter_count(&self) -> usize {
        self.counters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_bump_and_snapshot_in_order() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("alpha");
        let b = reg.counter("beta");
        reg.inc(a);
        reg.add(b, 5);
        reg.inc(a);
        assert_eq!(reg.get(a), 2);
        assert_eq!(reg.get(b), 5);
        let snap: Vec<_> = reg.counters().collect();
        assert_eq!(snap, vec![("alpha", 2), ("beta", 5)]);
        assert_eq!(reg.counter_count(), 2);
    }

    #[test]
    fn duplicate_registration_returns_the_same_handle() {
        let mut reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        assert_eq!(a, b);
        reg.inc(a);
        reg.inc(b);
        assert_eq!(reg.get(a), 2);
        assert_eq!(reg.counter_count(), 1);
    }
}
