//! Typed stage artifacts.
//!
//! The end-to-end flow is a chain of owning types, one per stage:
//!
//! ```text
//! PatternSet --compile--> CompiledSet --map--> MappedPlan --verify--> VerifiedPlan --simulate--> RunResult
//! ```
//!
//! A verified plan also opens a resumable [`PlanStream`], which feeds a
//! stream through the bank chunk by chunk.
//!
//! Each transition consumes the previous artifact (or borrows it
//! immutably), so illegal stage orderings are unrepresentable at the type
//! level: [`VerifiedPlan::simulate`] is the *only* road to a
//! [`rap_sim::RunResult`], and a [`VerifiedPlan`] can only be obtained
//! through [`MappedPlan::verify`], which refuses hardware-illegal plans.

use crate::cache::{hash_configs, CacheKey, StableHasher};
use crate::error::EvalError;
use crate::store::{Persist, PersistError};
use rap_bound::ArrayBound;
use rap_circuit::Machine;
use rap_compiler::{Compiled, Mode};
use rap_mapper::Mapping;
use rap_regex::{Pattern, Regex};
use rap_sim::{BankStats, Lowered, MatchEvent, RunResult, SimError, Simulator, StreamRun};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Stage 1 artifact: a parse-validated pattern set with its source text.
///
/// Keeping the sources alongside the parsed forms gives every later stage
/// a stable content identity to hash (regex ASTs have no guaranteed
/// canonical byte form; their source text does).
#[derive(Clone, Debug)]
pub struct PatternSet {
    sources: Vec<String>,
    parsed: Vec<Pattern>,
}

impl PatternSet {
    /// Parses pattern strings, honouring `^`/`$` anchors.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Parse`] for the first malformed pattern.
    pub fn parse(sources: &[String]) -> Result<PatternSet, EvalError> {
        let parsed = sources
            .iter()
            .enumerate()
            .map(|(i, s)| {
                rap_regex::parse_pattern(s).map_err(|error| EvalError::Parse { pattern: i, error })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PatternSet {
            sources: sources.to_vec(),
            parsed,
        })
    }

    /// Wraps already-parsed patterns (e.g. the CLI's front-end output).
    ///
    /// # Panics
    ///
    /// Panics if `sources` and `parsed` differ in length.
    pub fn from_parsed(sources: Vec<String>, parsed: Vec<Pattern>) -> PatternSet {
        assert_eq!(sources.len(), parsed.len(), "source/parsed length mismatch");
        PatternSet { sources, parsed }
    }

    /// Wraps bare regexes as unanchored patterns, recovering source text
    /// from their canonical rendering.
    pub fn from_regexes(regexes: &[Regex]) -> PatternSet {
        PatternSet {
            sources: regexes.iter().map(|r| r.to_string()).collect(),
            parsed: regexes
                .iter()
                .map(|r| Pattern {
                    regex: r.clone(),
                    anchored_start: false,
                    anchored_end: false,
                })
                .collect(),
        }
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.parsed.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.parsed.is_empty()
    }

    /// The original pattern strings.
    pub fn sources(&self) -> &[String] {
        &self.sources
    }

    /// The parsed patterns.
    pub fn parsed(&self) -> &[Pattern] {
        &self.parsed
    }

    /// The bare regexes (anchors stripped), cloned.
    pub fn regexes(&self) -> Vec<Regex> {
        self.parsed.iter().map(|p| p.regex.clone()).collect()
    }

    /// Absorbs the set's content identity (sources + anchor flags).
    pub fn hash_into(&self, h: &mut StableHasher) {
        h.write_u64(self.sources.len() as u64);
        for (src, p) in self.sources.iter().zip(&self.parsed) {
            h.write_str(src);
            h.write(&[u8::from(p.anchored_start), u8::from(p.anchored_end)]);
        }
    }

    /// The content address a compile of this set would have for the given
    /// simulator and forced mode.
    pub fn cache_key(&self, sim: &Simulator, forced: Option<Mode>) -> CacheKey {
        let mut h = StableHasher::new();
        self.hash_into(&mut h);
        h.write_str(sim.machine.name());
        match forced {
            None => h.write(&[0]),
            Some(mode) => {
                h.write(&[1]);
                h.write_str(&mode.to_string());
            }
        }
        hash_configs(&mut h, &sim.compiler, &sim.mapper);
        h.finish()
    }

    /// Stage transition: compiles the set for `sim`'s machine.
    ///
    /// `forced` compiles every pattern in one mode (the RAP-NFA columns of
    /// Tables 2/3); `None` uses the machine's native mode decision and
    /// honours anchors.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Compile`] for the first failing pattern.
    pub fn compile(&self, sim: &Simulator, forced: Option<Mode>) -> Result<CompiledSet, EvalError> {
        let images = match forced {
            Some(mode) => sim.compile_forced(&self.regexes(), mode),
            None => sim.compile_parsed(&self.parsed),
        }
        .map_err(|e| EvalError::from_sim(sim.machine, e))?;
        Ok(CompiledSet {
            machine: sim.machine,
            forced,
            key: self.cache_key(sim, forced),
            images,
        })
    }
}

/// Stage 2 artifact: hardware images for one machine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompiledSet {
    machine: Machine,
    forced: Option<Mode>,
    key: CacheKey,
    images: Vec<Compiled>,
}

impl CompiledSet {
    /// Assembles a compile product from already-compiled images under an
    /// externally derived content address. This is the composition path's
    /// re-entry into the typed chain: the pipeline's Admit stage merges
    /// tenant images under a `compose_key` and the merged plan must still
    /// earn [`VerifiedPlan`] status through [`MappedPlan::verify`].
    pub(crate) fn assemble(machine: Machine, key: CacheKey, images: Vec<Compiled>) -> CompiledSet {
        CompiledSet {
            machine,
            forced: None,
            key,
            images,
        }
    }

    /// The machine the images target.
    pub fn machine(&self) -> Machine {
        self.machine
    }

    /// The forced mode, if compilation bypassed the decision graph.
    pub fn forced(&self) -> Option<Mode> {
        self.forced
    }

    /// The content address of this compile product.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// The per-pattern hardware images.
    pub fn images(&self) -> &[Compiled] {
        &self.images
    }

    /// Total hardware states (STEs / chain positions) across images.
    pub fn state_count(&self) -> u64 {
        self.images.iter().map(Compiled::state_count).sum()
    }

    /// Total CAM columns across images.
    pub fn column_count(&self) -> u64 {
        self.images.iter().map(Compiled::column_count).sum()
    }

    /// Stage transition: places the images onto arrays.
    pub fn map(self, sim: &Simulator) -> MappedPlan {
        let mapping = sim.map(&self.images);
        MappedPlan {
            compiled: self,
            mapping,
        }
    }
}

/// Stage 3 artifact: images plus their array placement — *not yet checked
/// for hardware legality*, so it cannot be simulated.
///
/// `MappedPlan` is the wire artifact of the persistent store: a plan read
/// back from disk deserializes into this *unverified* shape and must earn
/// back its [`VerifiedPlan`] status through [`MappedPlan::verify`], so a
/// corrupt or tampered payload is rejected by the V-rules, never trusted.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MappedPlan {
    compiled: CompiledSet,
    mapping: Mapping,
}

impl MappedPlan {
    /// Assembles a plan from an externally produced placement (a loaded,
    /// hand-edited, or otherwise untrusted mapping) so it can be linted
    /// like any mapper output. No legality is assumed: the result still
    /// has to pass [`MappedPlan::verify`] before it can be simulated.
    pub fn from_parts(compiled: CompiledSet, mapping: Mapping) -> MappedPlan {
        MappedPlan { compiled, mapping }
    }

    /// The compile product this plan places.
    pub fn compiled(&self) -> &CompiledSet {
        &self.compiled
    }

    /// The array placement.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Runs every static legality rule, returning the full report
    /// (including non-fatal advisories) without consuming the plan.
    pub fn lint(&self) -> rap_verify::Report {
        rap_verify::verify(
            &self.compiled.images,
            &self.mapping,
            &self.mapping.config.arch,
        )
    }

    /// Stage transition: verifies legality, yielding the only artifact the
    /// simulator accepts.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::IllegalMapping`] when any rule reports an
    /// error; warnings and infos are retained as
    /// [`VerifiedPlan::advisories`].
    pub fn verify(self) -> Result<VerifiedPlan, EvalError> {
        let report = self.lint();
        if report.is_legal() {
            Ok(VerifiedPlan {
                compiled: self.compiled,
                mapping: self.mapping,
                advisories: report,
                array_bounds: OnceLock::new(),
                lowered: OnceLock::new(),
            })
        } else {
            Err(EvalError::IllegalMapping {
                machine: self.compiled.machine,
                report,
            })
        }
    }
}

/// Stage 4 artifact: a plan that passed every legality rule.
///
/// There is no public constructor — the only way to obtain one is
/// [`MappedPlan::verify`] — so holding a `VerifiedPlan` *is* the proof
/// that the plan is hardware-legal.
///
/// The plan keeps its simulator images ([`rap_sim::Lowered`]) once the
/// first `simulate*` or [`VerifiedPlan::stream`] call has built them, so
/// repeated simulation of one plan lowers its arrays once. Its per-array
/// bounds ([`VerifiedPlan::array_bounds`]) are kept the same way, so
/// every admission the plan joins sums them without re-deriving them.
/// Clones share both; they are never persisted and never part of a cache
/// key.
#[derive(Clone, Debug)]
pub struct VerifiedPlan {
    compiled: CompiledSet,
    mapping: Mapping,
    advisories: rap_verify::Report,
    array_bounds: OnceLock<Arc<[ArrayBound]>>,
    lowered: OnceLock<Arc<Lowered>>,
}

impl VerifiedPlan {
    /// The compile product this plan places.
    pub fn compiled(&self) -> &CompiledSet {
        &self.compiled
    }

    /// The array placement.
    pub fn mapping(&self) -> &Mapping {
        &self.mapping
    }

    /// Non-fatal findings (warnings/infos) from verification.
    pub fn advisories(&self) -> &rap_verify::Report {
        &self.advisories
    }

    /// The per-array worst-case bounds ([`rap_bound::array_bounds`]),
    /// index-aligned with the mapping's arrays, derived on first use and
    /// kept.
    pub fn array_bounds(&self) -> &[ArrayBound] {
        self.array_bounds
            .get_or_init(|| rap_bound::array_bounds(&self.compiled.images, &self.mapping).into())
    }

    /// The per-array bounds, if [`VerifiedPlan::array_bounds`] has built
    /// them yet.
    pub fn cached_array_bounds(&self) -> Option<&Arc<[ArrayBound]>> {
        self.array_bounds.get()
    }

    /// The plan as the admission tenant `name`: its images, placement
    /// and per-array bounds, with slots and match IDs left to admission.
    pub fn tenant<'a>(&'a self, name: &'a str) -> rap_admit::Tenant<'a> {
        rap_admit::Tenant {
            name,
            images: &self.compiled.images,
            mapping: &self.mapping,
            bounds: self.array_bounds(),
            match_base: None,
            slot: None,
        }
    }

    /// The simulator images, if a `simulate*` or [`VerifiedPlan::stream`]
    /// call has built them yet.
    pub fn lowered(&self) -> Option<&Arc<Lowered>> {
        self.lowered.get()
    }

    /// The simulator images, built on first use.
    fn image(&self) -> &Arc<Lowered> {
        self.lowered.get_or_init(|| {
            Arc::new(Lowered::new(
                &self.compiled.images,
                &self.mapping,
                self.compiled.machine,
            ))
        })
    }

    /// Stage transition: runs the cycle-accurate simulator over `input`.
    pub fn simulate(&self, input: &[u8]) -> RunResult {
        self.image().simulate(&self.compiled.images, input)
    }

    /// Like [`VerifiedPlan::simulate`], with cycle-sampled probe events
    /// and run totals recorded into `telemetry` under `label`. Tracing
    /// only observes; the result is identical to [`VerifiedPlan::simulate`].
    pub fn simulate_traced(
        &self,
        input: &[u8],
        telemetry: &rap_telemetry::Telemetry,
        label: &str,
    ) -> RunResult {
        self.image()
            .simulate_traced(&self.compiled.images, input, telemetry, label)
    }

    /// Like [`VerifiedPlan::simulate`], but through the §3.3 bank buffer
    /// hierarchy, returning buffer statistics alongside the result.
    pub fn simulate_streaming(&self, input: &[u8]) -> (RunResult, BankStats) {
        self.image()
            .simulate_streaming(&self.compiled.images, input)
    }

    /// Stage transition: opens a resumable §3.3 bank run over this plan
    /// at stream offset 0 (see [`rap_sim::StreamRun`]). Feeding it a
    /// stream in any chunking hands out exactly the matches of
    /// [`VerifiedPlan::simulate_streaming`] over the whole stream.
    pub fn stream(self: &Arc<Self>) -> PlanStream {
        PlanStream {
            run: StreamRun::on(Arc::clone(self.image()), &self.compiled.images),
            plan: Arc::clone(self),
        }
    }
}

/// A resumable bank run that owns the verified plan it executes, so
/// chunks are fed without handing the plan in again. Obtained through
/// [`VerifiedPlan::stream`].
pub struct PlanStream {
    plan: Arc<VerifiedPlan>,
    run: StreamRun,
}

impl PlanStream {
    /// Streams the next chunk; see [`StreamRun::feed`].
    pub fn feed(&mut self, chunk: &[u8]) -> Vec<MatchEvent> {
        self.run.feed(&self.plan.compiled.images, chunk)
    }

    /// The buffer statistics accumulated so far.
    pub fn stats(&self) -> BankStats {
        self.run.stats()
    }

    /// Ends the stream; see [`StreamRun::finish`].
    pub fn finish(self) -> (Vec<MatchEvent>, RunResult, BankStats) {
        self.run.finish()
    }
}

/// Disk-tier persistence for verified plans.
///
/// Only the durable state — the compile product and its placement — is
/// encoded. Verification advisories are *recomputed* on load rather than
/// trusted from disk, and a loaded plan derives its simulator images and
/// per-array bounds on first use, exactly like a freshly built one.
/// `from_payload` therefore decodes into the unverified [`MappedPlan`]
/// shape and re-runs the full V-rule verifier: a payload that decodes but
/// describes an illegal plan (stale encoding, bit rot the checksum
/// missed, deliberate tampering) is rejected here and the store counts it
/// as corrupt.
impl Persist for VerifiedPlan {
    fn to_payload(&self) -> Vec<u8> {
        let mut e = serde::bin::Encoder::new();
        self.compiled.serialize(&mut e);
        self.mapping.serialize(&mut e);
        e.into_bytes()
    }

    fn from_payload(payload: &[u8]) -> Result<VerifiedPlan, PersistError> {
        let mut d = serde::bin::Decoder::new(payload);
        let compiled = CompiledSet::deserialize(&mut d)?;
        let mapping = Mapping::deserialize(&mut d)?;
        d.finish()?;
        MappedPlan::from_parts(compiled, mapping)
            .verify()
            .map_err(|e| PersistError::Rejected(e.to_string()))
    }
}

/// Runs the full typed chain for one simulator: compile → map → verify.
///
/// # Errors
///
/// Propagates the first stage failure as [`EvalError`].
pub fn build_plan(
    sim: &Simulator,
    patterns: &PatternSet,
    forced: Option<Mode>,
) -> Result<VerifiedPlan, EvalError> {
    patterns.compile(sim, forced)?.map(sim).verify()
}

/// Lifts a [`SimError`]-returning front-end into the typed chain (used by
/// the facade, which keeps [`SimError`] as its public error type).
///
/// # Errors
///
/// Returns the underlying [`SimError`], with illegal plans surfaced as
/// [`SimError::IllegalMapping`].
pub fn build_plan_sim(sim: &Simulator, patterns: &PatternSet) -> Result<VerifiedPlan, SimError> {
    build_plan(sim, patterns, None).map_err(SimError::from)
}
