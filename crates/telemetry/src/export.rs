//! Exporters: JSONL trace files and a Prometheus-style text snapshot.
//!
//! JSON is hand-rolled here because the workspace's vendored `serde` is a
//! no-op marker-trait stub. The emitted JSON is deliberately minimal —
//! flat objects of string/integer/bool fields — and every field is
//! written in a fixed order so two identical journals render to
//! byte-identical files.

use std::fmt::Write as _;

use crate::metrics::{MetricSample, MetricValue};
use crate::probe::{ProbeEvent, RunTrace};

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// Renders one probe event as a single-line JSON object. Field order is
/// fixed: `event`, `run`, then the event's own fields in declaration
/// order.
fn event_json(label: &str, event: &ProbeEvent) -> String {
    let head = format!(
        "{{\"event\":\"{}\",\"run\":\"{}\"",
        event.kind(),
        json_escape(label)
    );
    match event {
        ProbeEvent::Array {
            cycle,
            array,
            active_states,
            powered_tiles,
            stalled,
        } => format!(
            "{head},\"cycle\":{cycle},\"array\":{array},\"active_states\":{active_states},\
             \"powered_tiles\":{powered_tiles},\"stalled\":{stalled}}}"
        ),
        ProbeEvent::Bank {
            cycle,
            min_consumed,
            max_consumed,
            input_fifo_bytes,
            output_fifo_records,
            interrupts,
        } => format!(
            "{head},\"cycle\":{cycle},\"min_consumed\":{min_consumed},\
             \"max_consumed\":{max_consumed},\"input_fifo_bytes\":{input_fifo_bytes},\
             \"output_fifo_records\":{output_fifo_records},\"interrupts\":{interrupts}}}"
        ),
        ProbeEvent::ArrayEnd {
            array,
            cycles,
            stall_cycles,
            powered_tile_cycles,
            matches,
        } => format!(
            "{head},\"array\":{array},\"cycles\":{cycles},\"stall_cycles\":{stall_cycles},\
             \"powered_tile_cycles\":{powered_tile_cycles},\"matches\":{matches}}}"
        ),
        ProbeEvent::RunEnd {
            input_bytes,
            cycles,
            stall_cycles,
            powered_tile_cycles,
            matches,
        } => format!(
            "{head},\"input_bytes\":{input_bytes},\"cycles\":{cycles},\
             \"stall_cycles\":{stall_cycles},\"powered_tile_cycles\":{powered_tile_cycles},\
             \"matches\":{matches}}}"
        ),
    }
}

/// Renders run traces as JSONL: one `run_start` line per trace (carrying
/// the drop count), then one line per event. Traces are rendered in the
/// caller-supplied order; [`crate::Telemetry::drain_traces`] sorts by
/// label, then content, so parallel-grid interleaving doesn't perturb the
/// bytes.
pub fn traces_to_jsonl(traces: &[RunTrace]) -> String {
    let mut out = String::new();
    for trace in traces {
        let _ = writeln!(
            out,
            "{{\"event\":\"run_start\",\"run\":\"{}\",\"events\":{},\"dropped\":{}}}",
            json_escape(&trace.label),
            trace.events.len(),
            trace.dropped
        );
        for event in &trace.events {
            out.push_str(&event_json(&trace.label, event));
            out.push('\n');
        }
    }
    out
}

/// Renders label pairs as `{k="v",…}` (empty string when no labels).
fn label_block(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", json_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", json_escape(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders a registry snapshot in the Prometheus text exposition format.
/// Counters and gauges become single samples; histograms become
/// cumulative `_bucket{le=…}` series plus `_sum` and `_count`.
pub fn snapshot_to_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for sample in samples {
        if sample.name != last_name {
            let kind = match sample.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            let _ = writeln!(out, "# TYPE {} {kind}", sample.name);
            last_name = &sample.name;
        }
        match &sample.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {v}",
                    sample.name,
                    label_block(&sample.labels, None)
                );
            }
            MetricValue::Histogram {
                buckets,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (bound, n) in buckets {
                    cumulative += n;
                    let le = if *bound == u64::MAX {
                        "+Inf".to_string()
                    } else {
                        bound.to_string()
                    };
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        sample.name,
                        label_block(&sample.labels, Some(("le", le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {sum}",
                    sample.name,
                    label_block(&sample.labels, None)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {count}",
                    sample.name,
                    label_block(&sample.labels, None)
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn escapes_json_strings() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jsonl_one_line_per_event_plus_header() {
        let trace = RunTrace {
            label: "rap/snort".to_string(),
            events: vec![
                ProbeEvent::Array {
                    cycle: 0,
                    array: 2,
                    active_states: 5,
                    powered_tiles: 3,
                    stalled: false,
                },
                ProbeEvent::RunEnd {
                    input_bytes: 100,
                    cycles: 104,
                    stall_cycles: 4,
                    powered_tile_cycles: 312,
                    matches: 1,
                },
            ],
            dropped: 0,
        };
        let jsonl = traces_to_jsonl(&[trace]);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"run_start\""));
        assert!(lines[0].contains("\"events\":2"));
        assert!(lines[1].contains("\"cycle\":0"));
        assert!(lines[1].contains("\"array\":2"));
        assert!(lines[2].contains("\"event\":\"run_end\""));
        assert!(lines[2].contains("\"powered_tile_cycles\":312"));
    }

    #[test]
    fn prometheus_renders_all_kinds() {
        let reg = Registry::new();
        reg.counter("rap_runs_total", &[("machine", "rap")]).add(3);
        reg.gauge("rap_workers", &[]).set(8);
        reg.histogram("rap_stage_ns", &[("stage", "compile")])
            .record(5);
        let text = snapshot_to_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE rap_runs_total counter"));
        assert!(text.contains("rap_runs_total{machine=\"rap\"} 3"));
        assert!(text.contains("rap_workers 8"));
        assert!(text.contains("# TYPE rap_stage_ns histogram"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("rap_stage_ns_sum{stage=\"compile\"} 5"));
        assert!(text.contains("rap_stage_ns_count{stage=\"compile\"} 1"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[]);
        h.record(1);
        h.record(2);
        let text = snapshot_to_prometheus(&reg.snapshot());
        // Bucket le="1" holds the value 1; le="3" adds the value 2.
        assert!(text.contains("h_bucket{le=\"1\"} 1"));
        assert!(text.contains("h_bucket{le=\"3\"} 2"));
        assert!(text.contains("h_bucket{le=\"+Inf\"} 2"));
    }
}
