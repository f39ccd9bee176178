//! The pipeline orchestrator and its parallel grid driver.
//!
//! [`Pipeline`] ties the stages together: it materializes suite corpora
//! through the process-wide memo, compiles/maps/verifies through the
//! content-addressed plan cache, simulates, and fans independent
//! (machine × suite) cells out over scoped worker threads — all while
//! charging wall-clock and work counters to a [`PipelineReport`].

use crate::artifact::{CompiledSet, MappedPlan, PatternSet, VerifiedPlan};
use crate::error::EvalError;
use crate::report::{Metrics, PipelineReport, Stage};
use crate::store::{DiskTier, StoreConfig, TieredStore};
use crate::summary::RunSummary;
use crate::workload::{self, BenchConfig, SuiteCorpus};
use rap_circuit::Machine;
use rap_compiler::Mode;
use rap_sim::{par_map, Simulator};
use rap_telemetry::Telemetry;
use rap_workloads::Suite;
use std::sync::Arc;
use std::time::Instant;

/// Default grid worker count: every available core, but never fewer than
/// two, so the (machine × suite) grid always actually overlaps work.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map_or(2, usize::from)
        .max(2)
}

/// The outcome of one [`Pipeline::admit`] request: the
/// [`Pipeline::certify`] analysis plus the composed plan built from it.
///
/// `analysis` always carries the full S-rule report and per-tenant
/// decisions; `plan` is the certified composed plan, present exactly
/// when admission succeeded. The composed plan re-entered the typed
/// artifact chain through [`crate::MappedPlan::verify`], so a certified
/// composition is also a structurally verified plan — and it lives in
/// the same tiered plan store as solo plans, addressed by a key derived
/// from the tenants' plan keys (order-insensitive). Callers that only
/// need the certificate (rap-serve) call [`Pipeline::certify`] and build
/// no composed plan.
#[derive(Clone, Debug)]
pub struct Admission {
    /// The static interference analysis (S001–S008 findings, fabric
    /// sizing, per-bank loads, per-tenant summaries).
    pub analysis: rap_admit::AdmissionAnalysis,
    /// The certified, verified composed plan — `None` when rejected.
    pub plan: Option<Arc<VerifiedPlan>>,
}

impl Admission {
    /// Whether the composition was certified.
    pub fn admitted(&self) -> bool {
        self.plan.is_some()
    }
}

/// The staged evaluation engine.
///
/// One `Pipeline` per process is the intended shape: its plan cache is
/// what lets seven suites × four machines × several experiments compile
/// each distinct configuration exactly once.
#[derive(Debug)]
pub struct Pipeline {
    spec: BenchConfig,
    workers: usize,
    plans: TieredStore<VerifiedPlan>,
    metrics: Metrics,
    telemetry: Option<Arc<Telemetry>>,
}

impl Pipeline {
    /// Creates a pipeline for one workload scale, with one grid worker
    /// per available core, and at least two.
    pub fn new(spec: BenchConfig) -> Pipeline {
        Pipeline {
            spec,
            workers: default_workers(),
            plans: TieredStore::new(),
            metrics: Metrics::default(),
            telemetry: None,
        }
    }

    /// Overrides the grid worker count (floored at 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Pipeline {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a persistent disk tier behind the in-memory plan cache:
    /// plans built in this process are written through to `config.dir`,
    /// and later processes sharing the directory load them back instead
    /// of compiling — a warm run of the full evaluation compiles nothing.
    ///
    /// Loaded plans are untrusted: they re-enter through the full
    /// [`crate::MappedPlan::verify`] path, so a corrupt or tampered file
    /// is rejected, counted ([`crate::TierStats::corrupt`]), and rebuilt
    /// from source.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the store directory cannot be created.
    pub fn with_store(mut self, config: StoreConfig) -> std::io::Result<Pipeline> {
        let tier = DiskTier::<VerifiedPlan>::open(config)?;
        self.plans = std::mem::take(&mut self.plans).with_disk(tier);
        Ok(self)
    }

    /// Attaches an observability context: per-stage spans and cache
    /// gauges land in its registry (instead of a pipeline-private one),
    /// and every evaluated cell emits a cycle-sampled trace labeled
    /// `{machine}/{suite}` into its journal. Telemetry only observes —
    /// results and plan cache keys are unchanged.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Pipeline {
        self.metrics = Metrics::on(telemetry.registry());
        self.telemetry = Some(telemetry);
        self
    }

    /// The attached observability context, if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// The workload scale knobs.
    pub fn spec(&self) -> &BenchConfig {
        &self.spec
    }

    /// The grid worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Materializes (or recalls) a suite's corpus.
    pub fn corpus(&self, suite: Suite) -> Arc<SuiteCorpus> {
        self.metrics
            .timed(Stage::Generate, || {
                workload::suite_corpus(suite, &self.spec)
            })
            .0
    }

    /// Builds a simulator with a suite's DSE-chosen knobs for `machine`.
    pub fn simulator_for(&self, machine: Machine, suite: Suite) -> Simulator {
        Simulator::new(machine)
            .with_bv_depth(suite.chosen_bv_depth())
            .with_bin_size(suite.chosen_bin_size())
    }

    /// Returns the verified plan for `(patterns, machine, configs)`,
    /// compiling/mapping/verifying on a cache miss and recalling the
    /// shared artifact on a hit. With a disk store attached, a miss first
    /// probes the store: a disk hit re-verifies the loaded plan instead
    /// of compiling.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure; failures are not cached.
    pub fn plan(
        &self,
        sim: &Simulator,
        patterns: &PatternSet,
        forced: Option<Mode>,
    ) -> Result<Arc<VerifiedPlan>, EvalError> {
        let key = patterns.cache_key(sim, forced);
        self.plans.get_or_build(key, || {
            let compiled = self
                .metrics
                .timed(Stage::Compile, || patterns.compile(sim, forced))?;
            self.metrics
                .add_compiled(patterns.len() as u64, compiled.state_count());
            let mapped = self.metrics.timed(Stage::Map, || compiled.map(sim));
            self.metrics.timed(Stage::Verify, || mapped.verify())
        })
    }

    /// Evaluates one (machine × suite) cell: plan (cached) + simulate.
    ///
    /// # Errors
    ///
    /// Propagates compile/verify failures as [`EvalError`]; the simulate
    /// stage itself is total.
    pub fn eval(
        &self,
        machine: Machine,
        suite: Suite,
        patterns: &PatternSet,
        input: &[u8],
        forced: Option<Mode>,
    ) -> Result<RunSummary, EvalError> {
        let label = format!("{machine}/{}", suite.name());
        self.eval_labeled(
            &self.simulator_for(machine, suite),
            patterns,
            input,
            forced,
            &label,
        )
    }

    /// Like [`Pipeline::eval`] but with explicit simulator knobs (the DSE
    /// sweeps of Fig. 10 vary BV depth / bin size away from the
    /// suite-chosen values). The knobs are part of the cache key, so each
    /// swept configuration is its own artifact.
    ///
    /// # Errors
    ///
    /// Propagates compile/verify failures as [`EvalError`].
    pub fn eval_with(
        &self,
        sim: &Simulator,
        patterns: &PatternSet,
        input: &[u8],
        forced: Option<Mode>,
    ) -> Result<RunSummary, EvalError> {
        let label = sim.machine.to_string();
        self.eval_labeled(sim, patterns, input, forced, &label)
    }

    /// Core cell evaluation with an explicit trace label (the label only
    /// matters when telemetry is attached; it names the run's trace in
    /// the JSONL journal, e.g. `"rap/snort"`).
    ///
    /// # Errors
    ///
    /// Propagates compile/verify failures as [`EvalError`].
    pub fn eval_labeled(
        &self,
        sim: &Simulator,
        patterns: &PatternSet,
        input: &[u8],
        forced: Option<Mode>,
        label: &str,
    ) -> Result<RunSummary, EvalError> {
        let plan = self.plan(sim, patterns, forced)?;
        let result = self
            .metrics
            .timed(Stage::Simulate, || match &self.telemetry {
                Some(tel) => plan.simulate_traced(input, tel, label),
                None => plan.simulate(input),
            });
        self.metrics.add_cell();
        Ok(RunSummary::of(&result, plan.compiled().state_count()))
    }

    /// Runs the multi-tenant admission analyzer over named tenants,
    /// each `(name, simulator knobs, patterns)`: every tenant's solo plan
    /// is built (or recalled) through the ordinary cached plan path, then
    /// [`Pipeline::certify`] decides co-residency. On certification the
    /// composed plan re-enters the typed chain (assemble →
    /// map-from-parts → verify) and is cached/persisted under an
    /// order-insensitive composition key, so re-admitting the same tenant
    /// set — in any order — recalls the artifact.
    ///
    /// # Errors
    ///
    /// Propagates per-tenant compile/verify failures, and verification
    /// failure of the composed plan itself (which would indicate an
    /// admission soundness bug).
    ///
    /// # Panics
    ///
    /// Panics when `tenants` is empty or mixes target machines.
    pub fn admit(
        &self,
        tenants: &[(&str, &Simulator, &PatternSet)],
        options: &rap_admit::AdmitOptions,
    ) -> Result<Admission, EvalError> {
        let mut plans = Vec::with_capacity(tenants.len());
        for (name, sim, patterns) in tenants {
            plans.push((*name, self.plan(sim, patterns, None)?));
        }
        let views: Vec<(&str, &VerifiedPlan)> =
            plans.iter().map(|(name, plan)| (*name, &**plan)).collect();
        let analysis = self.certify(&views, options);
        let plan = match &analysis.composed {
            Some(composed) => {
                let pairs: Vec<(&str, crate::cache::CacheKey)> = plans
                    .iter()
                    .map(|(name, plan)| (*name, plan.compiled().key()))
                    .collect();
                let key = crate::cache::compose_key(&pairs);
                let machine = plans[0].1.compiled().machine();
                Some(self.plans.get_or_build(key, || {
                    let compiled = CompiledSet::assemble(machine, key, composed.images.clone());
                    self.metrics.timed(Stage::Verify, || {
                        MappedPlan::from_parts(compiled, composed.mapping.clone()).verify()
                    })
                })?)
            }
            None => None,
        };
        Ok(Admission { analysis, plan })
    }

    /// The analysis half of [`Pipeline::admit`]: runs
    /// [`rap_admit::admit`] over named, already-built plans under the
    /// fabric architecture of the *first* plan's mapping, timed as the
    /// Admit stage and counted as one admission verdict. It builds no
    /// composed plan: the certificate (`composed`) is the whole result,
    /// and a tenant's slot range in it runs exactly as its solo plan.
    ///
    /// # Panics
    ///
    /// Panics when `tenants` is empty or mixes target machines.
    pub fn certify(
        &self,
        tenants: &[(&str, &VerifiedPlan)],
        options: &rap_admit::AdmitOptions,
    ) -> rap_admit::AdmissionAnalysis {
        assert!(!tenants.is_empty(), "admission needs at least one tenant");
        let machine = tenants[0].1.compiled().machine();
        assert!(
            tenants
                .iter()
                .all(|(_, plan)| plan.compiled().machine() == machine),
            "admission tenants must target one machine"
        );
        let arch = tenants[0].1.mapping().config.arch;
        // A plan's per-array bounds are built at its first admission, so
        // that build is part of the Admit stage's time.
        let analysis = self.metrics.timed(Stage::Admit, || {
            let views: Vec<rap_admit::Tenant<'_>> = tenants
                .iter()
                .map(|(name, plan)| plan.tenant(name))
                .collect();
            rap_admit::admit(&views, &arch, options)
        });
        self.metrics.record_admission(analysis.admitted());
        analysis
    }

    /// Runs the hot-swap safety analyzer against a certified admission:
    /// replace resident tenant `outgoing` with the `incoming`
    /// `(name, plan)` tenant while everyone else keeps scanning.
    /// [`rap_swap::analyze_swap`] issues or refuses the certificate, timed
    /// as the Swap stage and counted as one swap verdict. The analysis is
    /// the whole result: its Q007 check already verified the post-swap
    /// composition, and nothing is built or cached for it.
    ///
    /// # Panics
    ///
    /// Panics when `admission` was not certified.
    pub fn swap(
        &self,
        admission: &Admission,
        outgoing: &str,
        incoming: (&str, &VerifiedPlan),
        options: &rap_swap::SwapOptions,
    ) -> rap_swap::SwapAnalysis {
        let resident = admission
            .analysis
            .composed
            .as_ref()
            .expect("hot swap requires a certified admission");
        let (name, plan) = incoming;
        let arch = resident.mapping.config.arch;
        let analysis = self.metrics.timed(Stage::Swap, || {
            rap_swap::analyze_swap(resident, outgoing, &plan.tenant(name), &arch, options)
        });
        self.metrics.record_swap(analysis.certified());
        analysis
    }

    /// Number of plans (solo and composed) held in the in-memory tier.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Fans independent grid cells out over this pipeline's workers (the
    /// calling thread is one of them, see [`rap_sim::par_map`]), recording
    /// worker count and fan-out wall-clock in the report.
    pub fn grid<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let workers = self.workers.clamp(1, items.len().max(1));
        let start = Instant::now();
        let out = par_map(items, workers, f);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.metrics.record_grid(workers as u64, ns);
        out
    }

    /// Snapshots the instrumentation accumulated so far.
    pub fn report(&self) -> PipelineReport {
        self.metrics.snapshot(
            self.plans.stats(),
            self.plans.disk_stats(),
            workload::corpus_stats(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_hits_on_second_request() {
        let pipe = Pipeline::new(BenchConfig {
            patterns_per_suite: 4,
            input_len: 256,
            match_rate: 0.02,
            seed: 3,
        });
        let corpus = pipe.corpus(Suite::Snort);
        let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);
        let a = pipe.plan(&sim, corpus.patterns(), None).expect("plans");
        let b = pipe.plan(&sim, corpus.patterns(), None).expect("plans");
        assert!(Arc::ptr_eq(&a, &b));
        let report = pipe.report();
        assert_eq!(report.plan_cache.misses, 1);
        assert_eq!(report.plan_cache.hits, 1);
        assert!(report.stage_secs(Stage::Compile) > 0.0);
    }

    #[test]
    fn telemetry_observes_without_changing_results() {
        let spec = BenchConfig {
            patterns_per_suite: 4,
            input_len: 512,
            match_rate: 0.02,
            seed: 9,
        };
        let tel = Arc::new(Telemetry::default());
        let traced_pipe = Pipeline::new(spec).with_telemetry(Arc::clone(&tel));
        let corpus = traced_pipe.corpus(Suite::Snort);
        let traced = traced_pipe
            .eval(
                Machine::Rap,
                Suite::Snort,
                corpus.patterns(),
                corpus.input(),
                None,
            )
            .expect("evals");

        let plain_pipe = Pipeline::new(spec);
        let corpus = plain_pipe.corpus(Suite::Snort);
        let plain = plain_pipe
            .eval(
                Machine::Rap,
                Suite::Snort,
                corpus.patterns(),
                corpus.input(),
                None,
            )
            .expect("evals");
        assert_eq!(traced, plain, "telemetry must only observe");

        let traces = tel.drain_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].label, "RAP/Snort");
        assert!(traces[0]
            .events
            .iter()
            .any(|e| matches!(e, rap_telemetry::ProbeEvent::RunEnd { .. })));
        let prom = tel.prometheus();
        assert!(prom.contains("rap_pipeline_stage_ns"), "{prom}");
        assert!(prom.contains("rap_sim_runs_total"), "{prom}");
    }

    #[test]
    fn warm_pipeline_loads_plans_from_disk_without_compiling() {
        let dir = std::env::temp_dir().join(format!(
            "rap-pipe-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BenchConfig {
            patterns_per_suite: 4,
            input_len: 256,
            match_rate: 0.02,
            seed: 3,
        };

        // Cold: compiles and writes through to disk.
        let cold = Pipeline::new(spec)
            .with_store(StoreConfig::at(&dir))
            .expect("store opens");
        let corpus = cold.corpus(Suite::Snort);
        let sim = cold.simulator_for(Machine::Rap, Suite::Snort);
        let cold_plan = cold.plan(&sim, corpus.patterns(), None).expect("plans");
        let report = cold.report();
        assert_eq!(report.patterns_compiled, 4);
        let disk = report.disk_store.expect("disk tier attached");
        assert_eq!((disk.hits, disk.misses, disk.writes), (0, 1, 1));

        // Warm (fresh pipeline = fresh process-alike): loads from disk,
        // re-verifies, compiles nothing.
        let warm = Pipeline::new(spec)
            .with_store(StoreConfig::at(&dir))
            .expect("store opens");
        let warm_plan = warm.plan(&sim, corpus.patterns(), None).expect("plans");
        let report = warm.report();
        assert_eq!(report.patterns_compiled, 0, "warm run must not compile");
        assert_eq!(report.stage_secs(Stage::Compile), 0.0);
        let disk = report.disk_store.expect("disk tier attached");
        assert_eq!((disk.hits, disk.misses, disk.corrupt), (1, 0, 0));
        // The loaded plan is behaviourally identical to the built one.
        assert_eq!(
            warm_plan.compiled().state_count(),
            cold_plan.compiled().state_count()
        );
        let input = corpus.input();
        assert_eq!(
            warm_plan.simulate(input).matches,
            cold_plan.simulate(input).matches
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_certifies_and_caches_composed_plans() {
        let pipe = Pipeline::new(BenchConfig {
            patterns_per_suite: 4,
            input_len: 512,
            match_rate: 0.02,
            seed: 5,
        });
        let snort = pipe.corpus(Suite::Snort);
        let yara = pipe.corpus(Suite::Yara);
        let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);
        let tenants = [
            ("snort", &sim, snort.patterns()),
            ("yara", &sim, yara.patterns()),
        ];
        let first = pipe
            .admit(&tenants, &rap_admit::AdmitOptions::default())
            .expect("admits");
        assert!(first.admitted(), "{}", first.analysis.report);
        let plan = first.plan.as_ref().expect("certified plan");
        assert_eq!(
            plan.mapping().arrays.len(),
            first.analysis.total_arrays as usize
        );

        // Re-admitting the same tenants in the other order recalls the
        // composed artifact from the plan cache (order-insensitive key).
        let misses = pipe.report().plan_cache.misses;
        let swapped = [tenants[1], tenants[0]];
        let second = pipe
            .admit(&swapped, &rap_admit::AdmitOptions::default())
            .expect("admits");
        assert!(Arc::ptr_eq(plan, second.plan.as_ref().expect("cached")));
        assert_eq!(pipe.report().plan_cache.misses, misses);
        let report = pipe.report();
        assert_eq!(report.compositions_admitted, 2);
        assert_eq!(report.compositions_rejected, 0);
        assert!(report.stage_secs(Stage::Admit) > 0.0);

        // The composed run demultiplexes back to each tenant's solo run.
        let input = snort.input();
        let composed = first.analysis.composed.as_ref().expect("certified");
        let merged = plan.simulate(input);
        for (i, (name, sim, patterns)) in tenants.iter().enumerate() {
            let solo = pipe.plan(sim, patterns, None).expect("plans");
            let solo_run = solo.simulate(input);
            let mine = composed.tenant_matches(
                composed
                    .tenants
                    .iter()
                    .position(|t| t.name == *name)
                    .expect("tenant present"),
                &merged.matches,
            );
            assert_eq!(mine, solo_run.matches, "tenant {i} diverges");
        }
    }

    #[test]
    fn rejected_admission_reports_without_a_plan() {
        let pipe = Pipeline::new(BenchConfig {
            patterns_per_suite: 4,
            input_len: 256,
            match_rate: 0.02,
            seed: 5,
        });
        let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);
        let corpora: Vec<_> = [Suite::Snort, Suite::Yara, Suite::ClamAv, Suite::Prosite]
            .iter()
            .map(|&s| pipe.corpus(s))
            .collect();
        let tenants: Vec<(&str, &Simulator, &PatternSet)> = corpora
            .iter()
            .map(|c| (c.suite().name(), &sim, c.patterns()))
            .collect();
        // One bank cannot host four tenants' arrays.
        let options = rap_admit::AdmitOptions {
            banks: Some(1),
            ..rap_admit::AdmitOptions::default()
        };
        let rejected = pipe.admit(&tenants, &options).expect("analyzes");
        assert!(!rejected.admitted());
        assert!(rejected.plan.is_none());
        assert!(!rejected.analysis.report.is_legal());
        let report = pipe.report();
        assert_eq!(report.compositions_rejected, 1);
    }

    #[test]
    fn composed_plans_persist_and_reload_from_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "rap-pipe-store-admit-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = BenchConfig {
            patterns_per_suite: 4,
            input_len: 256,
            match_rate: 0.02,
            seed: 5,
        };
        let make = || {
            Pipeline::new(spec)
                .with_store(StoreConfig::at(&dir))
                .expect("store opens")
        };

        let cold = make();
        let snort = cold.corpus(Suite::Snort);
        let yara = cold.corpus(Suite::Yara);
        let sim = cold.simulator_for(Machine::Rap, Suite::Snort);
        let tenants = [
            ("snort", &sim, snort.patterns()),
            ("yara", &sim, yara.patterns()),
        ];
        let first = cold
            .admit(&tenants, &rap_admit::AdmitOptions::default())
            .expect("admits");
        assert!(first.admitted());
        // Two solo plans + one composed plan written through.
        assert_eq!(cold.report().disk_store.expect("disk").writes, 3);

        // A warm pipeline recalls all three; the composed plan still
        // re-enters through verification.
        let warm = make();
        let second = warm
            .admit(&tenants, &rap_admit::AdmitOptions::default())
            .expect("admits");
        assert!(second.admitted());
        let report = warm.report();
        assert_eq!(
            report.patterns_compiled, 0,
            "warm admission compiles nothing"
        );
        let disk = report.disk_store.expect("disk");
        assert_eq!((disk.hits, disk.misses, disk.corrupt), (3, 0, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn certified_swap_builds_a_verified_post_swap_plan() {
        let pipe = Pipeline::new(BenchConfig::default());
        let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);
        let alpha =
            PatternSet::parse(&["needle".to_string(), "ne+dle".to_string()]).expect("parses");
        let bravo = PatternSet::parse(&["haystack".to_string()]).expect("parses");
        let tenants: Vec<(&str, &Simulator, &PatternSet)> =
            vec![("alpha", &sim, &alpha), ("bravo", &sim, &bravo)];
        let admission = pipe
            .admit(&tenants, &rap_admit::AdmitOptions::default())
            .expect("admits");
        assert!(admission.admitted());

        let charlie = PatternSet::parse(&["beacon".to_string()]).expect("parses");
        let charlie = pipe.plan(&sim, &charlie, None).expect("plans");
        let cached = pipe.cached_plans();
        let analysis = pipe.swap(
            &admission,
            "bravo",
            ("charlie", &charlie),
            &rap_swap::SwapOptions::default(),
        );
        assert!(analysis.certified(), "{}", analysis.report);
        let cert = analysis.plan.as_ref().expect("certified");
        assert!(cert.drain.cycles > 0);
        // A swap builds and caches nothing.
        assert_eq!(pipe.cached_plans(), cached);
        let report = pipe.report();
        assert_eq!(report.swaps_certified, 1);
        assert!(report.stage_secs(Stage::Swap) > 0.0);

        // A rejected swap (unbounded replacement footprint on a pinned
        // one-bank fabric) reports without a certificate.
        let big_sources: Vec<String> = (0..64).map(|i| format!("pattern{i:03}xyz")).collect();
        let big = PatternSet::parse(&big_sources).expect("parses");
        let big = pipe.plan(&sim, &big, None).expect("plans");
        let rejected = pipe.swap(
            &admission,
            "bravo",
            ("delta", &big),
            &rap_swap::SwapOptions {
                banks: Some(1),
                ..rap_swap::SwapOptions::default()
            },
        );
        if !rejected.certified() {
            assert!(!rejected.report.is_legal());
            assert_eq!(pipe.report().swaps_rejected, 1);
        }
    }

    #[test]
    fn eval_produces_sane_summary() {
        let pipe = Pipeline::new(BenchConfig {
            patterns_per_suite: 6,
            input_len: 1_000,
            match_rate: 0.02,
            seed: 11,
        });
        let corpus = pipe.corpus(Suite::Yara);
        let s = pipe
            .eval(
                Machine::Rap,
                Suite::Yara,
                corpus.patterns(),
                corpus.input(),
                None,
            )
            .expect("evals");
        assert!(s.energy_uj > 0.0);
        assert!(s.states > 0);
        assert_eq!(pipe.report().cells_evaluated, 1);
    }
}
