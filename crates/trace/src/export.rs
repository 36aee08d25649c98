//! JSONL and CSV journal exporters.
//!
//! Exports are pure functions of the sink contents. Numbers are written
//! with Rust's `Display` (shortest round-trip representation for `f64`),
//! so two bit-identical event streams always serialize to byte-identical
//! journals — the property the determinism gate compares.

use std::fmt::Write as _;

use crate::event::{EventKind, TraceEvent};
use crate::sink::TraceSink;

/// Run identification written into the journal header line.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMeta<'a> {
    /// Scenario name (free text; escaped on export).
    pub scenario: &'a str,
    /// Master seed of the run.
    pub seed: u64,
    /// Algorithm label of the run.
    pub algorithm: &'a str,
}

/// Escapes a string for inclusion inside a JSON string literal
/// (quotes, backslashes, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Quotes a CSV field if it contains a comma, quote, or newline
/// (doubling embedded quotes, per RFC 4180).
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn push_opt_u32(out: &mut String, key: &str, v: Option<u32>) {
    match v {
        Some(v) => {
            let _ = write!(out, ",\"{key}\":{v}");
        }
        None => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

fn push_opt_f64(out: &mut String, key: &str, v: Option<f64>) {
    match v {
        Some(v) => {
            let _ = write!(out, ",\"{key}\":{v}");
        }
        None => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

fn jsonl_event(out: &mut String, event: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"t_us\":{},\"ev\":\"{}\"",
        event.seq,
        event.time_us,
        event.kind.label()
    );
    match event.kind {
        EventKind::RunStart { seed, algorithm } => {
            let _ = write!(
                out,
                ",\"seed\":{seed},\"algorithm\":\"{}\"",
                json_escape(algorithm)
            );
        }
        EventKind::Evaluation {
            algorithm,
            service,
            metric,
            value,
            target,
            verdict,
        } => {
            let _ = write!(
                out,
                ",\"algorithm\":\"{}\",\"service\":{service},\"metric\":\"{}\",\"value\":{value},\"target\":{target},\"verdict\":\"{}\"",
                json_escape(algorithm),
                metric.label(),
                verdict.label()
            );
        }
        EventKind::Decision {
            algorithm,
            service,
            action,
            container,
            node,
            cpu,
            mem,
        } => {
            let _ = write!(
                out,
                ",\"algorithm\":\"{}\",\"service\":{service},\"action\":\"{}\"",
                json_escape(algorithm),
                action.label()
            );
            push_opt_u32(out, "container", container);
            push_opt_u32(out, "node", node);
            push_opt_f64(out, "cpu", cpu);
            push_opt_f64(out, "mem", mem);
        }
        EventKind::AllocatorPressure {
            node,
            free_cpu,
            free_mem,
            containers,
        } => {
            let _ = write!(
                out,
                ",\"node\":{node},\"free_cpu\":{free_cpu},\"free_mem\":{free_mem},\"containers\":{containers}"
            );
        }
        EventKind::Fault {
            fault,
            node,
            service,
            magnitude,
        } => {
            let _ = write!(out, ",\"fault\":\"{}\"", fault.label());
            push_opt_u32(out, "node", node);
            push_opt_u32(out, "service", service);
            let _ = write!(out, ",\"magnitude\":{magnitude}");
        }
        EventKind::ReplicaDeath { service, container } => {
            let _ = write!(out, ",\"service\":{service},\"container\":{container}");
        }
        EventKind::RecoveryRespawn { service, node } => {
            let _ = write!(out, ",\"service\":{service},\"node\":{node}");
        }
        EventKind::RecoveryBackoff {
            service,
            retry_at_us,
        } => {
            let _ = write!(out, ",\"service\":{service},\"retry_at_us\":{retry_at_us}");
        }
        EventKind::BalancerStats {
            service,
            routed,
            rejected,
        } => {
            let _ = write!(
                out,
                ",\"service\":{service},\"routed\":{routed},\"rejected\":{rejected}"
            );
        }
        EventKind::Counter { name, value } => {
            let _ = write!(out, ",\"name\":\"{}\",\"value\":{value}", json_escape(name));
        }
        EventKind::ReportLink {
            link,
            node,
            delay_periods,
        } => {
            let _ = write!(
                out,
                ",\"link\":\"{}\",\"node\":{node},\"delay_periods\":{delay_periods}",
                link.label()
            );
        }
        EventKind::Actuation {
            outcome,
            key,
            attempt,
            retry_at_us,
        } => {
            let _ = write!(
                out,
                ",\"outcome\":\"{}\",\"key\":{key},\"attempt\":{attempt},\"retry_at_us\":{retry_at_us}",
                outcome.label()
            );
        }
        EventKind::Breaker {
            state,
            container,
            until_us,
        } => {
            let _ = write!(
                out,
                ",\"state\":\"{}\",\"container\":{container},\"until_us\":{until_us}",
                state.label()
            );
        }
        EventKind::SafeMode {
            entered,
            fresh_nodes,
            total_nodes,
        } => {
            let _ = write!(
                out,
                ",\"entered\":{entered},\"fresh_nodes\":{fresh_nodes},\"total_nodes\":{total_nodes}"
            );
        }
        EventKind::CohortFlow {
            service,
            count,
            routed,
            rejected,
        } => {
            let _ = write!(
                out,
                ",\"service\":{service},\"count\":{count},\"routed\":{routed},\"rejected\":{rejected}"
            );
        }
        EventKind::Snapshot { tick, now_us } => {
            let _ = write!(out, ",\"tick\":{tick},\"now_us\":{now_us}");
        }
        EventKind::Span {
            root,
            entry,
            service,
            depth,
            count,
            queue_us,
            service_us,
        } => {
            let _ = write!(
                out,
                ",\"root\":{root},\"entry\":{entry},\"service\":{service},\"depth\":{depth},\"count\":{count},\"queue_us\":{queue_us},\"service_us\":{service_us}"
            );
        }
        EventKind::Retry {
            root,
            service,
            attempt,
            count,
            retry_at_us,
        } => {
            let _ = write!(
                out,
                ",\"root\":{root},\"service\":{service},\"attempt\":{attempt},\"count\":{count},\"retry_at_us\":{retry_at_us}"
            );
        }
        EventKind::Shed {
            service,
            count,
            in_flight,
        } => {
            let _ = write!(
                out,
                ",\"service\":{service},\"count\":{count},\"in_flight\":{in_flight}"
            );
        }
        EventKind::BudgetExhausted {
            root,
            service,
            count,
        } => {
            let _ = write!(
                out,
                ",\"root\":{root},\"service\":{service},\"count\":{count}"
            );
        }
        EventKind::DeadlineExceeded {
            root,
            service,
            deadline_us,
        } => {
            let _ = write!(
                out,
                ",\"root\":{root},\"service\":{service},\"deadline_us\":{deadline_us}"
            );
        }
        EventKind::StaleVeto {
            algorithm,
            service,
            age_ticks,
            budget_ticks,
        } => {
            let _ = write!(
                out,
                ",\"algorithm\":\"{}\",\"service\":{service},\"age_ticks\":{age_ticks},\"budget_ticks\":{budget_ticks}",
                json_escape(algorithm)
            );
        }
    }
    out.push_str("}\n");
}

/// Serializes the journal as JSON Lines: one meta header line followed by
/// one object per retained event, oldest first.
pub fn jsonl(sink: &TraceSink, meta: &RunMeta<'_>) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"record\":\"meta\",\"scenario\":\"{}\",\"seed\":{},\"algorithm\":\"{}\",\"events\":{},\"total\":{},\"dropped\":{}}}",
        json_escape(meta.scenario),
        meta.seed,
        json_escape(meta.algorithm),
        sink.len(),
        sink.total_emitted(),
        sink.dropped()
    );
    for event in sink.events() {
        jsonl_event(&mut out, event);
    }
    out
}

const CSV_HEADER: &str =
    "seq,t_us,event,algorithm,detail,service,node,container,value_a,value_b,value_c\n";

fn fmt_u32(v: Option<u32>) -> String {
    v.map(|v| v.to_string()).unwrap_or_default()
}

fn fmt_f64(v: Option<f64>) -> String {
    v.map(|v| v.to_string()).unwrap_or_default()
}

/// Serializes the journal as a flat CSV timeseries, one row per retained
/// event, with variant-specific payloads flattened into the generic
/// `detail` / `value_*` columns.
pub fn csv(sink: &TraceSink) -> String {
    let mut out = String::from(CSV_HEADER);
    for event in sink.events() {
        // (algorithm, detail, service, node, container, value_a, value_b, value_c)
        let row: (
            String,
            String,
            String,
            String,
            String,
            String,
            String,
            String,
        ) = match event.kind {
            EventKind::RunStart { seed, algorithm } => (
                algorithm.into(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                seed.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::Evaluation {
                algorithm,
                service,
                metric,
                value,
                target,
                verdict,
            } => (
                algorithm.into(),
                format!("{}:{}", metric.label(), verdict.label()),
                service.to_string(),
                String::new(),
                String::new(),
                value.to_string(),
                target.to_string(),
                String::new(),
            ),
            EventKind::Decision {
                algorithm,
                service,
                action,
                container,
                node,
                cpu,
                mem,
            } => (
                algorithm.into(),
                action.label().into(),
                service.to_string(),
                fmt_u32(node),
                fmt_u32(container),
                fmt_f64(cpu),
                fmt_f64(mem),
                String::new(),
            ),
            EventKind::AllocatorPressure {
                node,
                free_cpu,
                free_mem,
                containers,
            } => (
                String::new(),
                String::new(),
                String::new(),
                node.to_string(),
                String::new(),
                free_cpu.to_string(),
                free_mem.to_string(),
                containers.to_string(),
            ),
            EventKind::Fault {
                fault,
                node,
                service,
                magnitude,
            } => (
                String::new(),
                fault.label().into(),
                fmt_u32(service),
                fmt_u32(node),
                String::new(),
                magnitude.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::ReplicaDeath { service, container } => (
                String::new(),
                String::new(),
                service.to_string(),
                String::new(),
                container.to_string(),
                String::new(),
                String::new(),
                String::new(),
            ),
            EventKind::RecoveryRespawn { service, node } => (
                String::new(),
                String::new(),
                service.to_string(),
                node.to_string(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
            ),
            EventKind::RecoveryBackoff {
                service,
                retry_at_us,
            } => (
                String::new(),
                String::new(),
                service.to_string(),
                String::new(),
                String::new(),
                retry_at_us.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::BalancerStats {
                service,
                routed,
                rejected,
            } => (
                String::new(),
                String::new(),
                service.to_string(),
                String::new(),
                String::new(),
                routed.to_string(),
                rejected.to_string(),
                String::new(),
            ),
            EventKind::Counter { name, value } => (
                String::new(),
                csv_field(name),
                String::new(),
                String::new(),
                String::new(),
                value.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::ReportLink {
                link,
                node,
                delay_periods,
            } => (
                String::new(),
                link.label().into(),
                String::new(),
                node.to_string(),
                String::new(),
                delay_periods.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::Actuation {
                outcome,
                key,
                attempt,
                retry_at_us,
            } => (
                String::new(),
                outcome.label().into(),
                String::new(),
                String::new(),
                String::new(),
                key.to_string(),
                attempt.to_string(),
                retry_at_us.to_string(),
            ),
            EventKind::Breaker {
                state,
                container,
                until_us,
            } => (
                String::new(),
                state.label().into(),
                String::new(),
                String::new(),
                container.to_string(),
                until_us.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::SafeMode {
                entered,
                fresh_nodes,
                total_nodes,
            } => (
                String::new(),
                if entered {
                    "enter".into()
                } else {
                    "exit".into()
                },
                String::new(),
                String::new(),
                String::new(),
                fresh_nodes.to_string(),
                total_nodes.to_string(),
                String::new(),
            ),
            EventKind::CohortFlow {
                service,
                count,
                routed,
                rejected,
            } => (
                String::new(),
                String::new(),
                service.to_string(),
                String::new(),
                String::new(),
                count.to_string(),
                routed.to_string(),
                rejected.to_string(),
            ),
            EventKind::Snapshot { tick, now_us } => (
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                String::new(),
                tick.to_string(),
                now_us.to_string(),
                String::new(),
            ),
            EventKind::Span {
                root,
                entry,
                service,
                depth,
                count,
                queue_us,
                service_us,
            } => (
                String::new(),
                format!("root{root}.entry{entry}.d{depth}"),
                service.to_string(),
                String::new(),
                String::new(),
                count.to_string(),
                queue_us.to_string(),
                service_us.to_string(),
            ),
            EventKind::Retry {
                root,
                service,
                attempt,
                count,
                retry_at_us,
            } => (
                String::new(),
                format!("root{root}.a{attempt}"),
                service.to_string(),
                String::new(),
                String::new(),
                count.to_string(),
                retry_at_us.to_string(),
                String::new(),
            ),
            EventKind::Shed {
                service,
                count,
                in_flight,
            } => (
                String::new(),
                String::new(),
                service.to_string(),
                String::new(),
                String::new(),
                count.to_string(),
                in_flight.to_string(),
                String::new(),
            ),
            EventKind::BudgetExhausted {
                root,
                service,
                count,
            } => (
                String::new(),
                format!("root{root}"),
                service.to_string(),
                String::new(),
                String::new(),
                count.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::DeadlineExceeded {
                root,
                service,
                deadline_us,
            } => (
                String::new(),
                format!("root{root}"),
                service.to_string(),
                String::new(),
                String::new(),
                deadline_us.to_string(),
                String::new(),
                String::new(),
            ),
            EventKind::StaleVeto {
                algorithm,
                service,
                age_ticks,
                budget_ticks,
            } => (
                algorithm.into(),
                String::new(),
                service.to_string(),
                String::new(),
                String::new(),
                age_ticks.to_string(),
                budget_ticks.to_string(),
                String::new(),
            ),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            event.seq,
            event.time_us,
            event.kind.label(),
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            row.5,
            row.6,
            row.7,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ActionTag, FaultTag, Metric, Verdict};
    use hyscale_sim::SimTime;

    fn sample_sink() -> TraceSink {
        let mut sink = TraceSink::with_capacity(64);
        sink.emit(
            SimTime::ZERO,
            EventKind::RunStart {
                seed: 7,
                algorithm: "hybrid",
            },
        );
        sink.emit(
            SimTime::from_secs(5.0),
            EventKind::Evaluation {
                algorithm: "hybrid",
                service: 0,
                metric: Metric::Cpu,
                value: 0.35,
                target: 0.5,
                verdict: Verdict::ScaleUp,
            },
        );
        sink.emit(
            SimTime::from_secs(5.0),
            EventKind::Decision {
                algorithm: "hybrid",
                service: 0,
                action: ActionTag::Spawn,
                container: None,
                node: Some(2),
                cpu: Some(0.5),
                mem: Some(256.0),
            },
        );
        sink.emit(
            SimTime::from_secs(30.0),
            EventKind::Fault {
                fault: FaultTag::NodeCrash,
                node: Some(0),
                service: None,
                magnitude: 20.0,
            },
        );
        sink
    }

    #[test]
    fn jsonl_has_meta_then_one_line_per_event() {
        let sink = sample_sink();
        let meta = RunMeta {
            scenario: "chaos",
            seed: 7,
            algorithm: "hybrid",
        };
        let journal = jsonl(&sink, &meta);
        let lines: Vec<&str> = journal.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("{\"record\":\"meta\",\"scenario\":\"chaos\""));
        assert!(lines[1].contains("\"ev\":\"run_start\""));
        assert!(lines[2].contains("\"verdict\":\"scale_up\""));
        assert!(lines[3].contains("\"container\":null"));
        assert!(lines[3].contains("\"node\":2"));
        assert!(lines[4].contains("\"fault\":\"node_crash\""));
        assert!(lines[4].contains("\"magnitude\":20"));
    }

    #[test]
    fn csv_is_one_row_per_event_with_header() {
        let sink = sample_sink();
        let out = csv(&sink);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("seq,t_us,event"));
        assert!(lines[1].contains("run_start"));
        assert!(lines[2].contains("cpu:scale_up"));
        assert!(lines[3].contains("spawn"));
        assert!(lines[4].contains("node_crash"));
    }

    #[test]
    fn json_escaping_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("back\\slash"), "back\\\\slash");
        assert_eq!(json_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(json_escape("tab\there"), "tab\\there");
        assert_eq!(json_escape("bell\u{07}"), "bell\\u0007");
    }

    #[test]
    fn scenario_name_is_escaped_in_meta() {
        let sink = sample_sink();
        let meta = RunMeta {
            scenario: "evil \"name\"\nwith newline",
            seed: 1,
            algorithm: "hybrid",
        };
        let journal = jsonl(&sink, &meta);
        let first = journal.lines().next().unwrap();
        assert!(first.contains("evil \\\"name\\\"\\nwith newline"));
        // Still exactly one physical line for the meta record.
        assert!(!first.is_empty());
    }

    #[test]
    fn csv_field_quotes_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn identical_sinks_serialize_identically() {
        let a = jsonl(&sample_sink(), &RunMeta::default());
        let b = jsonl(&sample_sink(), &RunMeta::default());
        assert_eq!(a, b);
        assert_eq!(csv(&sample_sink()), csv(&sample_sink()));
    }

    #[test]
    fn every_event_kind_serializes() {
        let mut sink = TraceSink::with_capacity(32);
        let kinds = [
            EventKind::AllocatorPressure {
                node: 1,
                free_cpu: 3.25,
                free_mem: 7168.0,
                containers: 4,
            },
            EventKind::ReplicaDeath {
                service: 2,
                container: 9,
            },
            EventKind::RecoveryRespawn {
                service: 2,
                node: 3,
            },
            EventKind::RecoveryBackoff {
                service: 2,
                retry_at_us: 45_000_000,
            },
            EventKind::BalancerStats {
                service: 0,
                routed: 120,
                rejected: 3,
            },
            EventKind::Counter {
                name: "requests.issued",
                value: 500,
            },
            EventKind::ReportLink {
                link: crate::event::LinkTag::Lost,
                node: 3,
                delay_periods: 0,
            },
            EventKind::Actuation {
                outcome: crate::event::ActuationTag::Deduped,
                key: 11,
                attempt: 2,
                retry_at_us: 0,
            },
            EventKind::Breaker {
                state: crate::event::BreakerTag::Open,
                container: 6,
                until_us: 15_000_000,
            },
            EventKind::SafeMode {
                entered: true,
                fresh_nodes: 1,
                total_nodes: 4,
            },
            EventKind::StaleVeto {
                algorithm: "hybrid",
                service: 1,
                age_ticks: 2,
                budget_ticks: 1,
            },
            EventKind::CohortFlow {
                service: 4,
                count: 2_048,
                routed: 2_000,
                rejected: 48,
            },
            EventKind::Snapshot {
                tick: 450,
                now_us: 45_000_000,
            },
            EventKind::Span {
                root: 9,
                entry: 0,
                service: 2,
                depth: 1,
                count: 16,
                queue_us: 250_000,
                service_us: 1_750_000,
            },
            EventKind::Retry {
                root: 9,
                service: 2,
                attempt: 2,
                count: 16,
                retry_at_us: 2_500_000,
            },
            EventKind::Shed {
                service: 0,
                count: 64,
                in_flight: 9_000,
            },
            EventKind::BudgetExhausted {
                root: 9,
                service: 2,
                count: 16,
            },
            EventKind::DeadlineExceeded {
                root: 9,
                service: 2,
                deadline_us: 30_000_000,
            },
        ];
        for kind in kinds {
            sink.emit(SimTime::from_secs(1.0), kind);
        }
        let journal = jsonl(&sink, &RunMeta::default());
        for needle in [
            "\"free_cpu\":3.25",
            "\"ev\":\"replica_death\"",
            "\"ev\":\"recovery_respawn\"",
            "\"retry_at_us\":45000000",
            "\"routed\":120",
            "\"name\":\"requests.issued\"",
            "\"link\":\"lost\"",
            "\"outcome\":\"deduped\"",
            "\"state\":\"open\",\"container\":6,\"until_us\":15000000",
            "\"entered\":true,\"fresh_nodes\":1,\"total_nodes\":4",
            "\"age_ticks\":2,\"budget_ticks\":1",
            "\"ev\":\"cohort_flow\"",
            "\"count\":2048,\"routed\":2000,\"rejected\":48",
            "\"ev\":\"snapshot\"",
            "\"tick\":450,\"now_us\":45000000",
            "\"ev\":\"span\"",
            "\"root\":9,\"entry\":0,\"service\":2,\"depth\":1,\"count\":16,\"queue_us\":250000,\"service_us\":1750000",
            "\"ev\":\"retry\"",
            "\"root\":9,\"service\":2,\"attempt\":2,\"count\":16,\"retry_at_us\":2500000",
            "\"ev\":\"shed\"",
            "\"service\":0,\"count\":64,\"in_flight\":9000",
            "\"ev\":\"budget_exhausted\"",
            "\"ev\":\"deadline_exceeded\"",
            "\"root\":9,\"service\":2,\"deadline_us\":30000000",
        ] {
            assert!(journal.contains(needle), "missing {needle} in {journal}");
        }
        let table = csv(&sink);
        assert_eq!(table.lines().count(), 19);
        assert!(table.contains("root9.entry0.d1"));
        assert!(table.contains("root9.a2"));
    }
}
