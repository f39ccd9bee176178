//! Evaluation harness for the RAP reproduction (§5 of the paper).
//!
//! Each table and figure of the paper's evaluation is a function in
//! [`experiments`], driven by one shared [`Pipeline`] (see `rap-pipeline`)
//! whose content-addressed plan cache compiles each (suite,
//! machine-config) pattern set exactly once per process and whose grid
//! driver fans independent (machine × suite) cells out over worker
//! threads. The `src/bin/*` binaries are thin wrappers.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p rap-bench --bin table2
//! cargo run --release -p rap-bench --bin ablation
//! cargo run --release -p rap-bench --bin all_experiments
//! ```
//!
//! Results are also written as CSV under `results/`; `all_experiments`
//! finishes with the pipeline's stage-timing and cache-counter report.
//!
//! Setting `RAP_TRACE=1` additionally attaches the telemetry subsystem:
//! each experiment then writes `results/<name>_trace.jsonl` (cycle-sampled
//! simulator probe events) and `results/<name>_metrics.prom` (a
//! Prometheus-style metrics snapshot) next to its CSVs.

pub mod eval;
pub mod experiments;
pub mod tables;

pub use eval::{eval_machine, eval_rap_by_mode, BenchConfig, EvalError, ModeSplit, RunSummary};
pub use rap_pipeline::{Pipeline, PipelineReport, StoreConfig};
pub use rap_telemetry::Telemetry;

use std::sync::Arc;

/// Standard scale knobs for the harness, overridable via environment
/// variables so CI can run quick versions:
///
/// * `RAP_BENCH_PATTERNS` — patterns per suite (default 300),
/// * `RAP_BENCH_INPUT` — input length in bytes (default 100 000, matching
///   the paper's §5.4 streams),
/// * `RAP_BENCH_SEED` — RNG seed (default 42).
pub fn config_from_env() -> eval::BenchConfig {
    let get = |key: &str, default: usize| -> usize {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    eval::BenchConfig {
        patterns_per_suite: get("RAP_BENCH_PATTERNS", 300),
        input_len: get("RAP_BENCH_INPUT", 100_000),
        match_rate: 0.02,
        seed: get("RAP_BENCH_SEED", 42) as u64,
    }
}

/// The environment-gated telemetry context (`RAP_TRACE=1`, with
/// `RAP_TRACE_SAMPLE` / `RAP_TRACE_RING` tuning), or `None` when tracing
/// is off.
pub fn telemetry_from_env() -> Option<Arc<Telemetry>> {
    Telemetry::from_env()
}

/// The environment-gated persistent artifact store: `RAP_STORE_DIR`
/// names the directory (with `RAP_STORE_MAX_BYTES` optionally bounding
/// it for LRU eviction), or `None` when unset — harness runs stay
/// self-contained unless the caller opts in.
pub fn store_from_env() -> Option<StoreConfig> {
    let dir = std::env::var_os("RAP_STORE_DIR").filter(|v| !v.is_empty())?;
    let mut config = StoreConfig::at(std::path::PathBuf::from(dir));
    if let Some(max) = std::env::var("RAP_STORE_MAX_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        config = config.with_max_bytes(max);
    }
    Some(config)
}

/// A pipeline at the [`config_from_env`] scale with telemetry attached
/// when `RAP_TRACE` enables it and the persistent artifact store
/// attached when `RAP_STORE_DIR` names one — the constructor every
/// `src/bin/*` harness binary uses. With a store, a warm re-run of the
/// full evaluation loads every plan from disk and compiles nothing.
///
/// # Panics
///
/// Panics when `RAP_STORE_DIR` is set but the directory cannot be
/// created (the harness treats setup I/O errors as fatal).
pub fn pipeline_from_env() -> Pipeline {
    let mut pipe = Pipeline::new(config_from_env());
    if let Some(telemetry) = telemetry_from_env() {
        pipe = pipe.with_telemetry(telemetry);
    }
    if let Some(config) = store_from_env() {
        let dir = config.dir.clone();
        pipe = pipe
            .with_store(config)
            .unwrap_or_else(|e| panic!("open artifact store at {}: {e}", dir.display()));
    }
    pipe
}

/// Writes the experiment's trace artifacts under `results/`:
/// `<name>_trace.jsonl` with the probe events journalled since the last
/// export (the journal drains, so back-to-back experiments get disjoint
/// traces) and `<name>_metrics.prom` with the cumulative metrics
/// snapshot. A no-op when the pipeline has no telemetry attached.
///
/// # Panics
///
/// Panics on I/O errors (the harness treats them as fatal).
pub fn export_trace(pipe: &Pipeline, name: &str) {
    let Some(telemetry) = pipe.telemetry() else {
        return;
    };
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results/");
    let trace = dir.join(format!("{name}_trace.jsonl"));
    std::fs::write(&trace, telemetry.drain_jsonl())
        .unwrap_or_else(|e| panic!("write {trace:?}: {e}"));
    println!("[written {}]", trace.display());
    let prom = dir.join(format!("{name}_metrics.prom"));
    std::fs::write(&prom, telemetry.prometheus()).unwrap_or_else(|e| panic!("write {prom:?}: {e}"));
    println!("[written {}]", prom.display());
}
