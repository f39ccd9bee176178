//! Per-stage instrumentation.
//!
//! Every [`crate::Pipeline`] accumulates wall-clock per stage, cache
//! hit/miss counters, and work-volume counters; a [`PipelineReport`] is a
//! cheap snapshot that renders as a small table — the artifact CI prints
//! so pipeline regressions and cache breakage are visible in plain log
//! output.
//!
//! Since the telemetry subsystem landed, the cells live in a
//! [`rap_telemetry::Registry`] (per-stage span histograms named
//! `rap_pipeline_stage_ns{stage=…}`, work counters, cache gauges) rather
//! than hand-rolled atomics. A standalone pipeline owns a private
//! registry; `Pipeline::with_telemetry` rebinds onto the shared one, so
//! the same numbers also appear in the Prometheus snapshot.

use crate::cache::CacheStats;
use crate::store::TierStats;
use rap_telemetry::{Counter, Gauge, Histogram, Registry};
use std::fmt;

/// The pipeline's stages, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Workload materialization (generate + parse + input synthesis).
    Generate,
    /// Regex-to-hardware compilation.
    Compile,
    /// Array placement.
    Map,
    /// Static legality verification.
    Verify,
    /// Multi-tenant admission analysis (opt-in).
    Admit,
    /// Hot-swap safety analysis and certificate construction (opt-in).
    Swap,
    /// Cycle-accurate simulation.
    Simulate,
}

/// All stages in execution order.
pub const STAGES: [Stage; 7] = [
    Stage::Generate,
    Stage::Compile,
    Stage::Map,
    Stage::Verify,
    Stage::Admit,
    Stage::Swap,
    Stage::Simulate,
];

impl Stage {
    /// Iterates all stages in execution order — the canonical way for
    /// downstream consumers (telemetry labels, report tables) to
    /// enumerate them without hand-rolling [`STAGES`].
    pub fn iter() -> impl Iterator<Item = Stage> {
        STAGES.into_iter()
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Generate => "generate",
            Stage::Compile => "compile",
            Stage::Map => "map",
            Stage::Verify => "verify",
            Stage::Admit => "admit",
            Stage::Swap => "swap",
            Stage::Simulate => "simulate",
        }
    }

    /// Position in [`STAGES`]: the declaration order.
    fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Lock-free accumulation cells shared by pipeline workers: handles into
/// a telemetry registry, registered once at pipeline construction.
#[derive(Debug)]
pub(crate) struct Metrics {
    stage_ns: [Histogram; STAGES.len()],
    admitted: Counter,
    rejected: Counter,
    swaps_certified: Counter,
    swaps_rejected: Counter,
    patterns: Counter,
    states: Counter,
    cells: Counter,
    workers: Gauge,
    grid_ns: Counter,
    plan_cache_hits: Gauge,
    plan_cache_misses: Gauge,
    corpus_cache_hits: Gauge,
    corpus_cache_misses: Gauge,
    store_hits: Gauge,
    store_misses: Gauge,
    store_writes: Gauge,
    store_corrupt: Gauge,
    store_stale: Gauge,
    store_evictions: Gauge,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics::on(&Registry::new())
    }
}

impl Metrics {
    /// Registers the pipeline's cells on `registry`. Registering twice on
    /// the same registry shares the cells (registry identity semantics).
    pub fn on(registry: &Registry) -> Metrics {
        Metrics {
            stage_ns: STAGES.map(|stage| {
                registry.histogram("rap_pipeline_stage_ns", &[("stage", stage.name())])
            }),
            admitted: registry.counter(
                "rap_pipeline_compositions_total",
                &[("verdict", "admitted")],
            ),
            rejected: registry.counter(
                "rap_pipeline_compositions_total",
                &[("verdict", "rejected")],
            ),
            swaps_certified: registry
                .counter("rap_pipeline_swaps_total", &[("verdict", "certified")]),
            swaps_rejected: registry
                .counter("rap_pipeline_swaps_total", &[("verdict", "rejected")]),
            patterns: registry.counter("rap_pipeline_patterns_compiled_total", &[]),
            states: registry.counter("rap_pipeline_states_compiled_total", &[]),
            cells: registry.counter("rap_pipeline_cells_evaluated_total", &[]),
            workers: registry.gauge("rap_pipeline_grid_workers_max", &[]),
            grid_ns: registry.counter("rap_pipeline_grid_ns_total", &[]),
            plan_cache_hits: registry.gauge("rap_pipeline_plan_cache_hits", &[]),
            plan_cache_misses: registry.gauge("rap_pipeline_plan_cache_misses", &[]),
            corpus_cache_hits: registry.gauge("rap_pipeline_corpus_cache_hits", &[]),
            corpus_cache_misses: registry.gauge("rap_pipeline_corpus_cache_misses", &[]),
            store_hits: registry.gauge("rap_store_hits", &[("tier", "disk")]),
            store_misses: registry.gauge("rap_store_misses", &[("tier", "disk")]),
            store_writes: registry.gauge("rap_store_writes", &[("tier", "disk")]),
            store_corrupt: registry.gauge("rap_store_corrupt", &[("tier", "disk")]),
            store_stale: registry.gauge("rap_store_stale", &[("tier", "disk")]),
            store_evictions: registry.gauge("rap_store_evictions", &[("tier", "disk")]),
        }
    }

    /// Times `f`, charging the elapsed wall-clock to `stage`'s span
    /// histogram (one observation per call, so the histogram also carries
    /// the per-invocation latency distribution).
    pub fn timed<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        rap_telemetry::time(&self.stage_ns[stage.index()], f)
    }

    pub fn add_compiled(&self, patterns: u64, states: u64) {
        self.patterns.add(patterns);
        self.states.add(states);
    }

    pub fn add_cell(&self) {
        self.cells.inc();
    }

    /// Charges one Admit-stage verdict.
    pub fn record_admission(&self, admitted: bool) {
        if admitted {
            self.admitted.inc();
        } else {
            self.rejected.inc();
        }
    }

    /// Charges one Swap-stage verdict.
    pub fn record_swap(&self, certified: bool) {
        if certified {
            self.swaps_certified.inc();
        } else {
            self.swaps_rejected.inc();
        }
    }

    pub fn record_grid(&self, workers: u64, ns: u64) {
        self.workers.set_max(workers);
        self.grid_ns.add(ns);
    }

    pub fn snapshot(
        &self,
        plan_cache: CacheStats,
        disk_store: Option<TierStats>,
        corpus_cache: CacheStats,
    ) -> PipelineReport {
        // Mirror the cache stats onto the registry so the Prometheus
        // snapshot carries them too.
        self.plan_cache_hits.set(plan_cache.hits);
        self.plan_cache_misses.set(plan_cache.misses);
        self.corpus_cache_hits.set(corpus_cache.hits);
        self.corpus_cache_misses.set(corpus_cache.misses);
        if let Some(disk) = disk_store {
            self.store_hits.set(disk.hits);
            self.store_misses.set(disk.misses);
            self.store_writes.set(disk.writes);
            self.store_corrupt.set(disk.corrupt);
            self.store_stale.set(disk.stale);
            self.store_evictions.set(disk.evictions);
        }
        let mut stage_ns = [0u64; STAGES.len()];
        for (out, hist) in stage_ns.iter_mut().zip(&self.stage_ns) {
            *out = hist.sum();
        }
        PipelineReport {
            stage_ns,
            plan_cache,
            disk_store,
            corpus_cache,
            patterns_compiled: self.patterns.get(),
            states_compiled: self.states.get(),
            compositions_admitted: self.admitted.get(),
            compositions_rejected: self.rejected.get(),
            swaps_certified: self.swaps_certified.get(),
            swaps_rejected: self.swaps_rejected.get(),
            cells_evaluated: self.cells.get(),
            max_workers: self.workers.get(),
            grid_ns: self.grid_ns.get(),
        }
    }
}

/// Snapshot of one pipeline's instrumentation.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineReport {
    /// Cumulative wall-clock nanoseconds per stage, summed across workers
    /// (parallel stage time can exceed elapsed real time).
    pub stage_ns: [u64; STAGES.len()],
    /// Verified-plan memory-tier hits/misses. Without a disk store, a
    /// miss is a distinct compile; with one, disk hits answer some misses
    /// without compiling (see [`PipelineReport::disk_store`]).
    pub plan_cache: CacheStats,
    /// Persistent disk-tier counters, when a store is attached
    /// ([`crate::Pipeline::with_store`]).
    pub disk_store: Option<TierStats>,
    /// Process-wide workload memo hits/misses.
    pub corpus_cache: CacheStats,
    /// Patterns compiled (cache misses only — cache hits compile nothing).
    pub patterns_compiled: u64,
    /// Hardware states produced by those compiles.
    pub states_compiled: u64,
    /// Multi-tenant compositions the Admit stage certified.
    pub compositions_admitted: u64,
    /// Multi-tenant compositions the Admit stage rejected.
    pub compositions_rejected: u64,
    /// Hot swaps the Swap stage certified.
    pub swaps_certified: u64,
    /// Hot swaps the Swap stage rejected.
    pub swaps_rejected: u64,
    /// (machine × suite) cells simulated.
    pub cells_evaluated: u64,
    /// Largest worker count used by a grid fan-out.
    pub max_workers: u64,
    /// Cumulative wall-clock nanoseconds inside grid fan-outs.
    pub grid_ns: u64,
}

impl PipelineReport {
    /// Wall-clock charged to `stage`, in seconds.
    pub fn stage_secs(&self, stage: Stage) -> f64 {
        self.stage_ns[stage.index()] as f64 / 1e9
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline report")?;
        writeln!(f, "  stage      cumulative wall-clock")?;
        for stage in STAGES {
            writeln!(
                f,
                "  {:<9} {:>12.3} s",
                stage.name(),
                self.stage_secs(stage)
            )?;
        }
        writeln!(
            f,
            "  plan cache   : {} hits, {} misses",
            self.plan_cache.hits, self.plan_cache.misses
        )?;
        if let Some(disk) = &self.disk_store {
            writeln!(
                f,
                "  disk store   : {} hits, {} misses, {} writes ({} corrupt, {} stale, {} evicted)",
                disk.hits, disk.misses, disk.writes, disk.corrupt, disk.stale, disk.evictions
            )?;
        }
        writeln!(
            f,
            "  corpus memo  : {} hits, {} misses",
            self.corpus_cache.hits, self.corpus_cache.misses
        )?;
        writeln!(
            f,
            "  compiled     : {} patterns -> {} states",
            self.patterns_compiled, self.states_compiled
        )?;
        if self.compositions_admitted + self.compositions_rejected > 0 {
            writeln!(
                f,
                "  admission    : {} composition(s) admitted, {} rejected",
                self.compositions_admitted, self.compositions_rejected
            )?;
        }
        if self.swaps_certified + self.swaps_rejected > 0 {
            writeln!(
                f,
                "  hot swaps    : {} certified, {} rejected",
                self.swaps_certified, self.swaps_rejected
            )?;
        }
        writeln!(
            f,
            "  simulated    : {} cells (grid workers <= {}, {:.3} s in fan-outs)",
            self.cells_evaluated,
            self.max_workers,
            self.grid_ns as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_accumulates() {
        let m = Metrics::default();
        m.timed(Stage::Compile, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        m.add_compiled(3, 17);
        m.add_cell();
        m.record_grid(4, 1_000);
        let r = m.snapshot(CacheStats::default(), None, CacheStats::default());
        assert!(r.stage_secs(Stage::Compile) > 0.0);
        assert_eq!(r.stage_secs(Stage::Map), 0.0);
        assert_eq!(r.patterns_compiled, 3);
        assert_eq!(r.states_compiled, 17);
        assert_eq!(r.cells_evaluated, 1);
        assert_eq!(r.max_workers, 4);
    }

    #[test]
    fn stage_iter_matches_stages_in_order() {
        assert_eq!(Stage::iter().collect::<Vec<_>>(), STAGES.to_vec());
        // The new ordering derives follow execution order.
        assert!(Stage::Generate < Stage::Compile);
        assert!(Stage::Verify < Stage::Simulate);
        let set: std::collections::HashSet<Stage> = Stage::iter().collect();
        assert_eq!(set.len(), STAGES.len());
    }

    #[test]
    fn metrics_shared_through_registry() {
        let registry = Registry::new();
        let a = Metrics::on(&registry);
        let b = Metrics::on(&registry);
        a.add_cell();
        b.add_cell();
        let r = a.snapshot(CacheStats::default(), None, CacheStats::default());
        assert_eq!(r.cells_evaluated, 2, "cells registered twice must share");
    }

    #[test]
    fn report_renders_every_stage() {
        let r = PipelineReport::default();
        let s = r.to_string();
        for stage in STAGES {
            assert!(s.contains(stage.name()), "{s}");
        }
        assert!(s.contains("plan cache"), "{s}");
    }
}
