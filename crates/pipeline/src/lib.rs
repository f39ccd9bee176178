//! Staged evaluation pipeline for the RAP reproduction.
//!
//! The paper's evaluation (§5.2–§5.5) runs the same flow — parse →
//! compile → map → verify → simulate — for four machines across seven
//! suites. This crate extracts that flow into one engine with three
//! load-bearing properties:
//!
//! 1. **Typed stage artifacts.** The flow is a chain of owning types
//!    ([`PatternSet`] → [`CompiledSet`] → \[[`AnalyzedSet`] →\]
//!    [`MappedPlan`] → [`VerifiedPlan`] → [`rap_sim::RunResult`]); each
//!    transition is the only way to obtain the next artifact, so illegal
//!    orderings — e.g. simulating an unverified plan — are
//!    unrepresentable at compile time. The bracketed Analyze stage is
//!    opt-in ([`Pipeline::with_analysis`]): it lints the compiled images
//!    and, in prune mode, hands the mapper a semantically equivalent but
//!    smaller automaton.
//! 2. **Content-addressed caching.** Verified plans live in a tiered
//!    [`TieredStore`] keyed by a stable FNV-1a/128 hash of (pattern
//!    sources, machine, forced mode, `CompilerConfig`, `MapperConfig`):
//!    an in-memory tier means each distinct configuration compiles
//!    exactly once per process, and an optional persistent disk tier
//!    ([`Pipeline::with_store`]) carries plans across processes — a warm
//!    second run compiles nothing. Disk artifacts are untrusted: they
//!    re-enter through [`MappedPlan::verify`], so corruption is rejected,
//!    never simulated. Workload corpora are memoized process-wide
//!    ([`suite_corpus`]). Certified multi-tenant compositions
//!    ([`Pipeline::admit`]) live in the same store, addressed by an
//!    order-insensitive key over the tenants' plan keys; its analysis
//!    half, [`Pipeline::certify`], and the hot-swap analysis
//!    ([`Pipeline::swap`]) cache nothing.
//! 3. **Parallel fan-out with instrumentation.** Independent
//!    (machine × suite) cells run on scoped worker threads
//!    ([`Pipeline::grid`]), and every stage's wall-clock plus cache
//!    hit/miss and work-volume counters surface through a
//!    [`PipelineReport`].
//!
//! # Example
//!
//! ```
//! use rap_circuit::Machine;
//! use rap_pipeline::{BenchConfig, Pipeline};
//! use rap_workloads::Suite;
//!
//! let pipe = Pipeline::new(BenchConfig {
//!     patterns_per_suite: 8,
//!     input_len: 1_000,
//!     match_rate: 0.02,
//!     seed: 1,
//! });
//! let corpus = pipe.corpus(Suite::Snort);
//! let summary = pipe
//!     .eval(Machine::Rap, Suite::Snort, corpus.patterns(), corpus.input(), None)
//!     .expect("suite evaluates");
//! assert!(summary.throughput_gchps > 0.0);
//! // A second eval of the same cell hits the plan cache.
//! pipe.eval(Machine::Rap, Suite::Snort, corpus.patterns(), corpus.input(), None)
//!     .expect("cached");
//! assert_eq!(pipe.report().plan_cache.hits, 1);
//! ```

pub mod artifact;
pub mod cache;
pub mod driver;
pub mod error;
pub mod report;
pub mod store;
pub mod summary;
pub mod workload;

pub use artifact::{
    build_plan, build_plan_sim, AnalyzedSet, CompiledSet, MappedPlan, PatternSet, PlanStream,
    VerifiedPlan,
};
pub use cache::{CacheKey, CacheStats, StableHasher};
pub use driver::{default_workers, par_map, Admission, Pipeline};
pub use error::EvalError;
pub use report::{PipelineReport, Stage, STAGES};
pub use store::{
    ArtifactTier, DiskStore, DiskTier, MemoryTier, Persist, PersistError, StoreConfig, StoreEntry,
    TierLoad, TierStats, TieredStore, STORE_FORMAT_VERSION,
};
pub use summary::RunSummary;
pub use workload::{corpus_stats, suite_corpus, BenchConfig, SuiteCorpus};

pub use rap_admit::AdmitOptions;
pub use rap_analyze::{AnalyzeOptions, SoundnessConfig};
pub use rap_swap::{SwapAnalysis, SwapOptions};
