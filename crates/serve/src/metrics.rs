//! The `rap_serve_*` ops surface.
//!
//! Every cell lives in the server's [`Registry`], so the existing
//! Prometheus and JSONL exporters pick the service up without changes.
//! Global (unlabeled) cells are the source of truth for totals; the
//! per-shard and per-tenant labeled series exist for operators slicing
//! the same quantities.

use rap_telemetry::{Counter, Gauge, Histogram, Registry};

/// Handles to the service's registry cells.
///
/// Cells are shared interior-mutable handles (`Arc` inside), so cloning
/// this struct clones cheap references to the same counters.
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// `rap_serve_sessions_active`: sessions currently registered.
    pub sessions_active: Gauge,
    /// `rap_serve_sessions_total{verdict="admitted"}`.
    pub sessions_admitted: Counter,
    /// `rap_serve_sessions_total{verdict="rejected"}`.
    pub sessions_rejected: Counter,
    /// `rap_serve_bytes_scanned_total`: bytes the scan plane consumed.
    pub bytes_scanned: Counter,
    /// `rap_serve_matches_delivered_total`: demuxed events handed to
    /// tenants.
    pub matches_delivered: Counter,
    /// `rap_serve_backpressure_events_total`: times a producer was told
    /// to slow down (budget half-crossings and sheds both count).
    pub backpressure_events: Counter,
    /// `rap_serve_chunks_scanned_total`: scan batches executed.
    pub chunks_scanned: Counter,
    /// `rap_serve_chunks_shed_total`: chunks rejected over budget.
    pub chunks_shed: Counter,
    /// `rap_serve_chunk_scan_ns`: per-batch scan latency histogram.
    pub scan_ns: Histogram,
    /// `rap_serve_register_ns`: registration (admission) latency.
    pub register_ns: Histogram,
    /// `rap_serve_recompose_ns`: latency of one successful shard
    /// recomposition (re-admission and certification) on a join, a
    /// leave, or a hot swap's re-registration.
    pub recompose_ns: Histogram,
    /// `rap_serve_swaps_total{verdict="completed"}`: certified hot
    /// swaps executed (outgoing drained, replacement attached).
    pub swaps_completed: Counter,
    /// `rap_serve_swaps_total{verdict="rejected"}`: hot swaps refused
    /// by the Q-rule analyzer.
    pub swaps_rejected: Counter,
    /// `rap_serve_swap_ns`: end-to-end hot-swap latency (analysis +
    /// drain + re-registration).
    pub swap_ns: Histogram,
    registry: Registry,
}

impl ServeMetrics {
    /// Registers (or recalls — cell identity is name + labels) the
    /// service's cells on `registry`.
    pub fn on(registry: &Registry) -> ServeMetrics {
        ServeMetrics {
            sessions_active: registry.gauge("rap_serve_sessions_active", &[]),
            sessions_admitted: registry
                .counter("rap_serve_sessions_total", &[("verdict", "admitted")]),
            sessions_rejected: registry
                .counter("rap_serve_sessions_total", &[("verdict", "rejected")]),
            bytes_scanned: registry.counter("rap_serve_bytes_scanned_total", &[]),
            matches_delivered: registry.counter("rap_serve_matches_delivered_total", &[]),
            backpressure_events: registry.counter("rap_serve_backpressure_events_total", &[]),
            chunks_scanned: registry.counter("rap_serve_chunks_scanned_total", &[]),
            chunks_shed: registry.counter("rap_serve_chunks_shed_total", &[]),
            scan_ns: registry.histogram("rap_serve_chunk_scan_ns", &[]),
            register_ns: registry.histogram("rap_serve_register_ns", &[]),
            recompose_ns: registry.histogram("rap_serve_recompose_ns", &[]),
            swaps_completed: registry.counter("rap_serve_swaps_total", &[("verdict", "completed")]),
            swaps_rejected: registry.counter("rap_serve_swaps_total", &[("verdict", "rejected")]),
            swap_ns: registry.histogram("rap_serve_swap_ns", &[]),
            registry: registry.clone(),
        }
    }

    /// Per-shard slice of `rap_serve_bytes_scanned_total`.
    pub(crate) fn shard_bytes(&self, shard: usize) -> Counter {
        self.registry.counter(
            "rap_serve_shard_bytes_scanned_total",
            &[("shard", &shard.to_string())],
        )
    }

    /// Per-shard slice of `rap_serve_sessions_active`.
    pub(crate) fn shard_sessions(&self, shard: usize) -> Gauge {
        self.registry.gauge(
            "rap_serve_shard_sessions_active",
            &[("shard", &shard.to_string())],
        )
    }

    /// Per-tenant slice of `rap_serve_matches_delivered_total`.
    pub(crate) fn tenant_matches(&self, tenant: &str) -> Counter {
        self.registry.counter(
            "rap_serve_tenant_matches_delivered_total",
            &[("tenant", tenant)],
        )
    }
}
