//! Metric names, units, and the result line.

/// End-to-end metrics (tracing off), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ns_per_member", "ns"),
    ("peak_rss_mb", "MB"),
    ("sim_mean_response_ms", "ms"),
    ("sim_p99_response_ms", "ms"),
    ("sim_failed_pct", "%"),
];

/// Per-layer metrics (traced run), in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("workload.arrivals_s", "s"),
    ("workload.arrivals", "count"),
    ("balancer.route_s", "s"),
    ("balancer.routes", "count"),
    ("balancer.unrouted", "count"),
    ("balancer.route_ns_p99", "ns"),
    ("cluster.advance_s", "s"),
    ("cluster.ticks", "count"),
    ("cluster.tick_ns_p50", "ns"),
    ("cluster.tick_ns_p99", "ns"),
    ("cluster.admit_s", "s"),
    ("cluster.active_nodes_mean", "nodes"),
    ("cluster.in_flight_peak", "count"),
    ("metrics.record_s", "s"),
    ("metrics.report_s", "s"),
    ("metrics.samples_held", "count"),
    ("monitor.period_s", "s"),
    ("monitor.periods", "count"),
    ("monitor.period_ns_p99", "ns"),
    ("monitor.actions", "count"),
    ("graph.roots", "count"),
    ("graph.hops", "count"),
    ("graph.hop_queue_ms_p99", "ms"),
    ("graph.hop_service_ms_p99", "ms"),
    ("resilience.retries", "count"),
    ("resilience.shed_members", "count"),
    ("resilience.goodput_pct", "%"),
    ("controlplane.reports_lost", "count"),
    ("controlplane.actuation_retries", "count"),
    ("recovery.respawns", "count"),
    ("faults.applied", "count"),
    ("snapshot.write_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("runner.sweep_efficiency", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.export_s", "s"),
    ("trace.jsonl_bytes", "bytes"),
    ("layer.uncovered_s", "s"),
    ("layer.loop_s", "s"),
];

/// What one benchmark invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: correctness checks made on the runs' outputs.
    pub attempted: u64,
    /// Failed correctness checks and runs that returned an error.
    pub errors: Vec<String>,
    /// Metric values by name; units come from the tables above.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Counts one checked operation, recording its error if it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Renders the result line: `correct`, `attempted`, `failed` and the
    /// `expected` metrics by name with their units.
    ///
    /// # Errors
    ///
    /// Fails if an expected metric is missing or not a finite number.
    pub fn json(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(expected.len());
        for &(name, unit) in expected {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.errors.len(),
            fields.join(", ")
        ))
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The machine and build a result belongs to.
pub fn machine_line() -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "machine: hardware_threads={threads} tick_workers=1 commit={} source_digest={} rustc=\"{}\"",
        env!("E2E_COMMIT"),
        env!("E2E_SOURCE_DIGEST"),
        env!("E2E_RUSTC_VERSION"),
    )
}
