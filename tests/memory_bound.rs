//! Outcome memory grows with completed flows, not with the members they
//! carry: a cohort whose members finish together is one weighted
//! response-time record, whatever its size.

use hyscale::cluster::MemMb;
use hyscale::core::{AlgorithmKind, RunReport, ScenarioBuilder, SimulationDriver};
use hyscale::workload::{LoadPattern, ServiceProfile, ServiceSpec};

/// Two cheap cohort-mode services on fixed replicas (no autoscaler), so
/// the flows admitted per tick do not depend on the arrival rate.
fn cohort_run(rate: f64) -> RunReport {
    let mut builder = ScenarioBuilder::new("memory-bound")
        .nodes(2)
        .duration_secs(30.0)
        .algorithm(AlgorithmKind::None)
        .initial_replicas(2)
        .seed(11)
        .cohort_arrivals(true);
    for i in 0..2 {
        let spec =
            ServiceSpec::synthetic(i, ServiceProfile::CpuBound, LoadPattern::Constant { rate })
                .with_demands(0.0005, MemMb(0.01), 0.001);
        builder = builder.service(spec);
    }
    SimulationDriver::run(&builder.build()).expect("scenario runs")
}

#[test]
fn response_time_records_do_not_grow_with_member_count() {
    let base = cohort_run(100.0);
    let flood = cohort_run(1000.0);
    let records = |r: &RunReport| r.requests.response_times.records().len() as f64;
    let completed = |r: &RunReport| r.requests.completed as f64;
    assert!(
        completed(&flood) > 5.0 * completed(&base),
        "10x the rate must complete over 5x the members: {} vs {}",
        completed(&flood),
        completed(&base)
    );
    assert!(
        records(&flood) < 2.0 * records(&base),
        "response-time records grew with members: {} vs {}",
        records(&flood),
        records(&base)
    );
    for r in [&base, &flood] {
        // Every completed member is still counted, once.
        assert_eq!(
            r.requests.response_times.count() as u64,
            r.requests.completed
        );
        for o in r.per_service.values() {
            assert_eq!(o.response_times.count() as u64, o.completed);
            assert!(o.response_times.records().len() as u64 <= o.completed);
        }
    }
}
