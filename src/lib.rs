//! # RAP — Reconfigurable Automata Processor (reproduction)
//!
//! A from-scratch Rust reproduction of *RAP: Reconfigurable Automata
//! Processor* (ISCA 2025): the first reconfigurable in-memory automata
//! processor, supporting NFA, NBVA (nondeterministic bit vector automata)
//! and LNFA (linear NFA) execution modes through reconfiguration of the
//! same 8T-CAM/FCB fabric, plus the regex-to-hardware compiler that picks
//! the best mode per pattern.
//!
//! This crate is the facade: it re-exports the layered workspace crates
//! and offers [`Rap`], a one-stop engine that compiles a pattern set, maps
//! it onto arrays, and runs input streams through the cycle-accurate
//! simulator.
//!
//! ```
//! use rap::Rap;
//!
//! // Virus-scanner flavored patterns: a big bounded gap (NBVA mode), a
//! // literal signature (LNFA mode), and a general regex (NFA mode).
//! let rap = Rap::compile(&[
//!     "EVIL.{24,96}PAYLOAD".to_string(),
//!     "deadbeef".to_string(),
//!     "GET /.*HTTP".to_string(),
//! ])?;
//! let report = rap.scan(b"xx deadbeef GET /index HTTP yy");
//! assert_eq!(report.matches.len(), 2);
//! println!("energy: {:.3} uJ over {} cycles", report.metrics.energy_uj, report.metrics.cycles);
//! # Ok::<(), rap::SimError>(())
//! ```
//!
//! Layered crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`regex`] | PCRE-subset parser, character classes, rewriters (§2.1, §4) |
//! | [`automata`] | Glushkov NFA, NBVA, LNFA models + reference executors (§2.1) |
//! | [`circuit`] | 28nm circuit cost models of Table 1 |
//! | [`arch`] | tile/array/bank geometry, the CAM CC encoding, per-array FIFOs (§3) |
//! | [`compiler`] | the Fig. 9 decision graph and per-mode compilation (§4) |
//! | [`mapper`] | greedy array packing and multi-LNFA binning (§4.3) |
//! | [`sim`] | cycle-accurate RAP + CA/CAMA/BVAP baselines (§5) |
//! | [`diag`] | shared diagnostic vocabulary (severity, location, report, JSON) |
//! | [`verify`] | static legality verifier for plans (rules V001–V012) |
//! | [`analyze`] | dataflow static analyzer over compiled IRs (rules A001–A011) + pruning |
//! | [`bound`] | abstract-interpretation worst-case bounds over mapped plans (rules B001–B008) |
//! | [`admit`] | static multi-tenant interference analyzer with certified co-residency admission (rules S001–S008) |
//! | [`serve`] | multi-tenant streaming scan service on the admitted-composition fabric (rules R001–R004) |
//! | [`telemetry`] | metrics registry, span timing, cycle-sampled simulator probes, JSONL/Prometheus export |
//! | [`pipeline`] | typed parse → compile → map → verify → simulate stages, plan cache, grid driver |
//! | [`workloads`] | synthetic stand-ins for the seven benchmark suites (§5.1) |
//! | [`engines`] | software matcher baselines (Hyperscan/HybridSA stand-ins, §5.5) |

pub use rap_admit as admit;
pub use rap_analyze as analyze;
pub use rap_arch as arch;
pub use rap_automata as automata;
pub use rap_bound as bound;
pub use rap_circuit as circuit;
pub use rap_compiler as compiler;
pub use rap_diag as diag;
pub use rap_engines as engines;
pub use rap_mapper as mapper;
pub use rap_pipeline as pipeline;
pub use rap_regex as regex;
pub use rap_serve as serve;
pub use rap_sim as sim;
pub use rap_telemetry as telemetry;
pub use rap_verify as verify;
pub use rap_workloads as workloads;

pub use rap_circuit::{Machine, Metrics};
pub use rap_compiler::Mode;
pub use rap_pipeline::{PatternSet, VerifiedPlan};
pub use rap_sim::{MatchEvent, RunResult, SimError, Simulator};

use rap_compiler::Compiled;

/// A compiled-and-mapped RAP instance, ready to scan input streams.
///
/// `Rap` holds a [`VerifiedPlan`] — the pipeline's stage-4 artifact, whose
/// existence proves the placement passed every static legality rule;
/// [`Rap::scan`] runs the cycle-accurate simulator and returns both the
/// matches and the modeled hardware metrics.
#[derive(Clone, Debug)]
pub struct Rap {
    plan: VerifiedPlan,
}

/// The outcome of one [`Rap::scan`].
#[derive(Clone, Debug)]
pub struct ScanReport {
    /// Matches as `(pattern index, end offset)`, sorted and deduplicated.
    pub matches: Vec<MatchEvent>,
    /// Modeled hardware metrics (cycles, energy, area, throughput, power).
    pub metrics: Metrics,
    /// Energy breakdown by category.
    pub energy: rap_circuit::EnergyMeter,
}

impl Rap {
    /// Compiles a pattern set with the full decision graph and paper-default
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] when a pattern fails to parse or
    /// exceeds one array's capacity.
    pub fn compile(patterns: &[String]) -> Result<Rap, SimError> {
        Rap::with_simulator(Simulator::new(Machine::Rap), patterns)
    }

    /// Compiles with a custom [`Simulator`] (machine choice, BV depth, bin
    /// size, unfold threshold, …), running the typed pipeline chain:
    /// parse → compile → map → verify. The returned instance holds a
    /// [`VerifiedPlan`], so every scan runs a provably legal placement.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] when a pattern fails to parse or
    /// compile, and [`SimError::IllegalMapping`] when the placement
    /// violates a hardware legality rule.
    pub fn with_simulator(simulator: Simulator, patterns: &[String]) -> Result<Rap, SimError> {
        let pats = PatternSet::parse(patterns).map_err(SimError::from)?;
        let plan = pipeline::build_plan_sim(&simulator, &pats)?;
        Ok(Rap { plan })
    }

    /// Compiles through a shared [`pipeline::Pipeline`], so the plan
    /// lands in (and can be recalled from) its caches — including the
    /// persistent disk store when one is attached
    /// ([`pipeline::Pipeline::with_store`]): a pattern set compiled by an
    /// earlier process loads from disk instead of recompiling.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Compile`] when a pattern fails to parse or
    /// compile, and [`SimError::IllegalMapping`] when the placement
    /// violates a hardware legality rule.
    pub fn with_pipeline(
        pipe: &pipeline::Pipeline,
        simulator: &Simulator,
        patterns: &[String],
    ) -> Result<Rap, SimError> {
        let pats = PatternSet::parse(patterns).map_err(SimError::from)?;
        let plan = pipe.plan(simulator, &pats, None).map_err(SimError::from)?;
        Ok(Rap {
            plan: std::sync::Arc::unwrap_or_clone(plan),
        })
    }

    /// The verified plan (compile product + placement + advisories).
    pub fn plan(&self) -> &VerifiedPlan {
        &self.plan
    }

    /// The execution mode each pattern compiled to.
    pub fn modes(&self) -> Vec<Mode> {
        self.plan
            .compiled()
            .images()
            .iter()
            .map(Compiled::mode)
            .collect()
    }

    /// Total hardware states (STEs / chain positions) allocated.
    pub fn state_count(&self) -> u64 {
        self.plan.compiled().state_count()
    }

    /// Tiles allocated across arrays.
    pub fn tiles_used(&self) -> u32 {
        self.plan.mapping().tiles_used()
    }

    /// Column utilization of the allocated tiles.
    pub fn utilization(&self) -> f64 {
        self.plan.mapping().utilization()
    }

    /// Non-fatal verifier findings (warnings/infos) for the plan; an empty
    /// report means the plan is provably legal with no advisories. Plans
    /// with legality *errors* never construct — [`Rap::with_simulator`]
    /// rejects them with [`SimError::IllegalMapping`].
    pub fn lint(&self) -> verify::Report {
        self.plan.advisories().clone()
    }

    /// Scans an input stream through the cycle-accurate simulator.
    pub fn scan(&self, input: &[u8]) -> ScanReport {
        let result = self.plan.simulate(input);
        ScanReport {
            matches: result.matches,
            metrics: result.metrics,
            energy: result.energy,
        }
    }

    /// Scans through the §3.3 bank buffer hierarchy (ping-pong input pages,
    /// per-array FIFOs, output buffers with host interrupts), returning
    /// buffer statistics alongside the report.
    pub fn scan_streaming(&self, input: &[u8]) -> (ScanReport, sim::BankStats) {
        let (result, stats) = self.plan.simulate_streaming(input);
        (
            ScanReport {
                matches: result.matches,
                metrics: result.metrics,
                energy: result.energy,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_end_to_end() {
        let rap = Rap::compile(&[
            "ab{20,60}c".to_string(),
            "hello world".to_string(),
            "x.*yz".to_string(),
        ])
        .expect("compiles");
        assert_eq!(rap.modes(), vec![Mode::Nbva, Mode::Lnfa, Mode::Nfa]);
        assert!(rap.state_count() > 0);
        assert!(rap.tiles_used() > 0);
        assert!(rap.lint().is_empty(), "{}", rap.lint());
        let report = rap.scan(b"hello world xqqyz");
        assert_eq!(report.matches.len(), 2);
        assert!(report.metrics.energy_uj > 0.0);
    }

    #[test]
    fn facade_propagates_errors() {
        let err = Rap::compile(&["(oops".to_string()]).expect_err("parse error");
        assert!(matches!(err, SimError::Compile { pattern: 0, .. }));
    }

    #[test]
    fn facade_compiles_through_shared_pipeline_store() {
        let dir = std::env::temp_dir().join(format!(
            "rap-facade-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = pipeline::BenchConfig {
            patterns_per_suite: 2,
            input_len: 64,
            match_rate: 0.02,
            seed: 1,
        };
        let patterns = vec!["hello world".to_string(), "x.*yz".to_string()];
        let sim = Simulator::new(Machine::Rap);

        let cold_pipe = pipeline::Pipeline::new(spec)
            .with_store(pipeline::StoreConfig::at(&dir))
            .expect("store opens");
        let cold = Rap::with_pipeline(&cold_pipe, &sim, &patterns).expect("compiles");

        // A fresh pipeline over the same directory recalls the plan from
        // disk: zero compiles, identical scan results.
        let warm_pipe = pipeline::Pipeline::new(spec)
            .with_store(pipeline::StoreConfig::at(&dir))
            .expect("store opens");
        let warm = Rap::with_pipeline(&warm_pipe, &sim, &patterns).expect("loads");
        assert_eq!(warm_pipe.report().patterns_compiled, 0);
        let input = b"hello world xqqyz";
        assert_eq!(
            warm.scan(input).matches,
            cold.scan(input).matches,
            "disk-loaded plan must scan identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
