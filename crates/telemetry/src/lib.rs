//! # rap-telemetry — unified tracing, metrics, and cycle-level profiling
//!
//! The observability subsystem for the RAP reproduction. It has three
//! planes, all zero-cost when no [`Telemetry`] handle is attached:
//!
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histogram`]) —
//!   process-wide named counters and log2-bucketed histograms behind
//!   relaxed atomics. The pipeline's per-stage timings and cache
//!   hit/miss tallies live here, exported as a Prometheus-style text
//!   snapshot ([`Telemetry::prometheus`]).
//! * **Spans** ([`SpanTimer`], [`time`]) — wall-clock interval timing for
//!   pipeline stages, recorded into registry histograms. Timings are
//!   nondeterministic, so they stay out of the event journal.
//! * **Probes** ([`SimProbe`], [`ProbeEvent`]) — cycle-sampled simulator
//!   observations (active states, powered tiles, stalls, buffer
//!   occupancy) collected into bounded per-run ring buffers and flushed
//!   into a shared journal. Because every event is keyed by simulator
//!   cycle, a fixed-seed run replays to an identical JSONL trace
//!   ([`Telemetry::drain_jsonl`]).
//!
//! Enable via [`Telemetry::from_env`] (`RAP_TRACE=1`) or construct
//! explicitly and attach with `Simulator::with_telemetry` /
//! `Pipeline::with_telemetry`.

mod export;
mod metrics;
mod probe;
mod span;

pub use export::{snapshot_to_prometheus, traces_to_jsonl};
pub use metrics::{
    Counter, Gauge, Histogram, MetricSample, MetricValue, Registry, HISTOGRAM_BUCKETS,
};
pub use probe::{ProbeEvent, RunTrace, SimProbe};
pub use span::{time, SpanTimer};

use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`Telemetry`] instance.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Cycle-sampling period for simulator probes: an `Array`/`Bank`
    /// sample is emitted every `sample_every` cycles.
    pub sample_every: u32,
    /// Per-run ring-buffer capacity; the oldest events are evicted (and
    /// counted) beyond this.
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            sample_every: 64,
            ring_capacity: 65_536,
        }
    }
}

/// The shared observability context: one metrics registry plus one event
/// journal. Cheap to clone behind an `Arc`; the simulator, pipeline,
/// bench harness, and CLI all hold the same instance.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    registry: Registry,
    journal: Arc<Mutex<Vec<RunTrace>>>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// A telemetry context with the given knobs.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            config,
            registry: Registry::new(),
            journal: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Builds a context from the environment, or `None` when tracing is
    /// not requested. `RAP_TRACE=1` (or any value other than `0`/empty)
    /// enables it; `RAP_TRACE_SAMPLE` overrides the sampling period and
    /// `RAP_TRACE_RING` the ring capacity.
    pub fn from_env() -> Option<Arc<Telemetry>> {
        let on = std::env::var("RAP_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
        if !on {
            return None;
        }
        let mut config = TelemetryConfig::default();
        if let Ok(v) = std::env::var("RAP_TRACE_SAMPLE") {
            if let Ok(n) = v.parse::<u32>() {
                config.sample_every = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("RAP_TRACE_RING") {
            if let Ok(n) = v.parse::<usize>() {
                config.ring_capacity = n.max(1);
            }
        }
        Some(Arc::new(Telemetry::new(config)))
    }

    /// The configuration this context was built with.
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// The metrics registry (clone is cheap and shares the cells).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Opens a probe for one simulator run; events flush into this
    /// context's journal when the probe finishes or is dropped.
    pub fn probe(&self, label: &str) -> SimProbe {
        SimProbe::new(
            label,
            self.config.ring_capacity,
            self.config.sample_every,
            Arc::clone(&self.journal),
        )
    }

    /// Takes all completed run traces out of the journal, sorted by run
    /// label and, for equal labels, by their rendered JSONL, so that
    /// parallel-grid scheduling cannot perturb the export.
    pub fn drain_traces(&self) -> Vec<RunTrace> {
        let mut traces = match self.journal.lock() {
            Ok(mut journal) => std::mem::take(&mut *journal),
            Err(_) => Vec::new(),
        };
        let jsonl = |t: &RunTrace| traces_to_jsonl(std::slice::from_ref(t));
        traces.sort_by(|a, b| a.label.cmp(&b.label).then_with(|| jsonl(a).cmp(&jsonl(b))));
        traces
    }

    /// Number of completed run traces waiting in the journal.
    pub fn trace_count(&self) -> usize {
        self.journal.lock().map_or(0, |j| j.len())
    }

    /// Drains the journal and renders it as a JSONL trace (see
    /// [`traces_to_jsonl`]).
    pub fn drain_jsonl(&self) -> String {
        traces_to_jsonl(&self.drain_traces())
    }

    /// Renders the current metrics registry in the Prometheus text
    /// exposition format.
    pub fn prometheus(&self) -> String {
        snapshot_to_prometheus(&self.registry.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_roundtrip_through_journal() {
        let tel = Telemetry::default();
        let mut probe = tel.probe("b/run");
        probe.push(ProbeEvent::RunEnd {
            input_bytes: 4,
            cycles: 4,
            stall_cycles: 0,
            powered_tile_cycles: 8,
            matches: 0,
        });
        probe.finish();
        let mut probe = tel.probe("a/run");
        probe.push(ProbeEvent::RunEnd {
            input_bytes: 2,
            cycles: 2,
            stall_cycles: 0,
            powered_tile_cycles: 2,
            matches: 1,
        });
        probe.finish();
        assert_eq!(tel.trace_count(), 2);
        let traces = tel.drain_traces();
        // Sorted by label regardless of completion order.
        assert_eq!(traces[0].label, "a/run");
        assert_eq!(traces[1].label, "b/run");
        assert_eq!(tel.trace_count(), 0);
    }

    #[test]
    fn drain_jsonl_is_deterministic_for_same_events() {
        let render = || {
            let tel = Telemetry::default();
            for label in ["z", "m", "a"] {
                let mut probe = tel.probe(label);
                probe.push(ProbeEvent::Array {
                    cycle: 0,
                    array: 1,
                    active_states: 2,
                    powered_tiles: 2,
                    stalled: false,
                });
                probe.finish();
            }
            tel.drain_jsonl()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn same_label_traces_drain_in_content_order() {
        let render = |cycles: [u64; 2]| {
            let tel = Telemetry::default();
            for cycle in cycles {
                let mut probe = tel.probe("rap/snort");
                probe.push(ProbeEvent::Array {
                    cycle,
                    array: 0,
                    active_states: 1,
                    powered_tiles: 1,
                    stalled: false,
                });
                probe.finish();
            }
            tel.drain_jsonl()
        };
        assert_eq!(render([3, 7]), render([7, 3]));
    }

    #[test]
    fn config_defaults() {
        let tel = Telemetry::default();
        assert_eq!(tel.config().sample_every, 64);
        assert!(tel.config().ring_capacity > 0);
        assert_eq!(tel.probe("x").sample_every(), 64);
    }
}
