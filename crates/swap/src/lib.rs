//! `rap-swap` — static hot-swap safety analyzer and certified live
//! partial reconfiguration.
//!
//! RAP's headline property is reconfigurability, and `rap-admit` already
//! certifies *static* co-residency. This crate certifies the *dynamic*
//! step: replacing one resident tenant with a new verified plan while
//! every other tenant keeps scanning. [`analyze_swap`] takes a resident
//! certified [`ComposedPlan`], the outgoing tenant's name, and the
//! replacement plan, and either emits a certified [`ReconfigPlan`] or
//! rejects with `Q`-rule findings on the shared `rap-diag` schema:
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `Q001-footprint-slots` | error | the swap footprint (freed + free slots) cannot host the replacement without touching a staying tenant |
//! | `Q002-bank-interference` | error | a post-swap shared bank's worst-case burst exceeds its output capacity |
//! | `Q003-port-interference` | error | a post-swap shared bank's summed fan-in exceeds its port budget |
//! | `Q004-column-budget` | error | post-swap counter/BV columns exceed the fabric budget |
//! | `Q005-drain-unbounded` | error | the outgoing tenant's match span is unbounded: no finite drain bound exists |
//! | `Q006-demux-discontinuity` | error | the replacement's inherited match-ID range or its name collides with a staying tenant |
//! | `Q007-readmission-failed` | error | the re-admitted post-swap composition fails the verify gate |
//! | `Q008-reconfig-overrun` | warning | reprogramming the footprint takes longer than the certified drain window |
//!
//! The analysis is a **pinned re-admission**: the swap chooses the
//! replacement's footprint (Q001), bounds the outgoing tenant's drain
//! (Q005), and then hands the post-swap tenant set to one
//! [`rap_admit::admit`] call. Every staying tenant is pinned to its
//! current slots and match-ID base, and the replacement to the chosen
//! footprint and the outgoing tenant's base, so admission's placement,
//! interference, column and namespace checks (S001–S004, S006) are the
//! swap's Q001–Q004 and Q006 findings; its warnings are dropped.
//! Staying tenants' images are borrowed out of the resident plan, never
//! recompiled, and their per-array bounds are derived from those images
//! ([`rap_bound::array_bounds`]). Pinning is what makes the swap
//! invisible to them: they keep their slots and match-ID ranges
//! verbatim, so their arrays scan on untouched.
//!
//! The drain bound is derived from certified quantities only: the
//! outgoing tenant's `max_match_span` (how many bytes an in-flight match
//! can still need), the bytes its lanes may hold admitted but unscanned
//! at the swap (the input FIFOs plus the ping-pong window, see
//! [`BankBound`]), a conservative bit-vector stall allowance, and its
//! worst-case output-FIFO occupancy flushed at one record per cycle.
//! Reconfiguration cost is accounted through the `rap-circuit` component
//! models: one CAM row write and one local-switch row write per cycle
//! per tile (both fit the 2.08 GHz clock period), local/global
//! controller energy per tile/array.
//!
//! [`execute`] spends a certificate. The certificate proves every
//! tenant's slot range runs exactly as its solo plan, so `execute` runs
//! one batch `rap_sim::simulate` per tenant: each staying tenant over the
//! whole stream, the outgoing tenant over the pre-swap prefix, and the
//! replacement over the post-swap suffix. It returns per-tenant match
//! streams, so callers can check the certified promise — staying tenants
//! bit-identical to an unswapped run — end to end.

use rap_admit::{admit, AdmitOptions, ComposedPlan, TenantSummary};
use rap_arch::config::ArchConfig;
use rap_bound::{array_bounds, max_match_span, ArrayBound, BankBound};
use rap_circuit::models::{CAM_32X128, GLOBAL_CONTROLLER, LOCAL_CONTROLLER, SRAM_128X128};
use rap_circuit::Machine;
use rap_compiler::Compiled;
use rap_diag::{Location, RuleCode, Severity};
use rap_mapper::Mapping;
use rap_sim::{simulate, MatchEvent};

pub use rap_admit::Tenant;

/// The hot-swap report type.
pub type Report = rap_diag::Report<Rule>;

/// The hot-swap rules (`Q` series; see the crate docs for the table).
/// Codes are stable and append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Q001: the swap footprint cannot host the replacement — the
    /// outgoing tenant's freed slots plus the free slots hold no
    /// contiguous run of the required size, the replacement was mapped
    /// for a different geometry, or the outgoing tenant is not resident.
    FootprintSlots,
    /// Q002: after the swap, a bank shared by two or more tenants has a
    /// worst-case simultaneous match burst exceeding its total output
    /// FIFO capacity (re-admission's S002).
    BankInterference,
    /// Q003: after the swap, a shared bank's summed per-tile
    /// global-switch fan-in exceeds its port budget (S003).
    PortInterference,
    /// Q004: post-swap counter/BV columns exceed the fabric budget (S004).
    ColumnBudget,
    /// Q005: the outgoing tenant's match span is unbounded (cyclic
    /// automaton): the cycles to quiesce its arrays cannot be bounded,
    /// so no drain certificate exists.
    DrainUnbounded,
    /// Q006: the replacement's match-ID namespace (the outgoing
    /// tenant's base, kept for demux continuity) collides with a
    /// staying tenant's range, or its name is a staying tenant's (S006).
    DemuxDiscontinuity,
    /// Q007: the re-admitted post-swap composition fails the static
    /// verify gate — the certificate cannot be issued.
    ReadmissionFailed,
    /// Q008: reprogramming the swap footprint outlasts the certified
    /// drain window; the freed slots idle while the stream continues.
    ReconfigOverrun,
}

impl Rule {
    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::FootprintSlots => "Q001-footprint-slots",
            Rule::BankInterference => "Q002-bank-interference",
            Rule::PortInterference => "Q003-port-interference",
            Rule::ColumnBudget => "Q004-column-budget",
            Rule::DrainUnbounded => "Q005-drain-unbounded",
            Rule::DemuxDiscontinuity => "Q006-demux-discontinuity",
            Rule::ReadmissionFailed => "Q007-readmission-failed",
            Rule::ReconfigOverrun => "Q008-reconfig-overrun",
        }
    }

    /// The fixed severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            Rule::FootprintSlots
            | Rule::BankInterference
            | Rule::PortInterference
            | Rule::ColumnBudget
            | Rule::DrainUnbounded
            | Rule::DemuxDiscontinuity
            | Rule::ReadmissionFailed => Severity::Error,
            Rule::ReconfigOverrun => Severity::Warning,
        }
    }

    /// Every rule, in code order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::FootprintSlots,
            Rule::BankInterference,
            Rule::PortInterference,
            Rule::ColumnBudget,
            Rule::DrainUnbounded,
            Rule::DemuxDiscontinuity,
            Rule::ReadmissionFailed,
            Rule::ReconfigOverrun,
        ]
    }

    /// The rule reporting an error of the pinned re-admission; `None`
    /// for admission's warnings, which a swap does not surface.
    fn of_admission(rule: rap_admit::Rule) -> Option<Rule> {
        match rule {
            rap_admit::Rule::PlacementOverlap => Some(Rule::FootprintSlots),
            rap_admit::Rule::BankOversubscribed => Some(Rule::BankInterference),
            rap_admit::Rule::FaninOverBudget => Some(Rule::PortInterference),
            rap_admit::Rule::BvColumnsExhausted => Some(Rule::ColumnBudget),
            rap_admit::Rule::MatchIdCollision => Some(Rule::DemuxDiscontinuity),
            rap_admit::Rule::OutputOvercommit
            | rap_admit::Rule::ReconfigInfeasible
            | rap_admit::Rule::PrefixOverlap => None,
        }
    }
}

impl RuleCode for Rule {
    fn code(&self) -> &'static str {
        Rule::code(*self)
    }
}

/// Hot-swap analysis knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapOptions {
    /// Banks in the resident fabric. `None` uses the smallest fabric
    /// covering every resident slot — the fabric that is actually
    /// scanning. `Some(n)` fixes it (e.g. to leave staging headroom).
    pub banks: Option<u32>,
    /// Fabric-wide counter/BV column budget; `None` uses the fabric's
    /// full column capacity.
    pub bv_column_budget: Option<u64>,
}

/// The certified drain bound for the outgoing tenant, in fabric cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainBound {
    /// The outgoing tenant's certified maximum match span in bytes.
    pub span_bytes: u64,
    /// Bytes possibly admitted but unscanned at the swap offset: the
    /// outgoing lanes' input FIFOs plus the ping-pong input window,
    /// `lanes × array_input_entries + 2 × bank_input_entries`.
    pub window_bytes: u64,
    /// Match records to flush from the outgoing lanes' output FIFOs and
    /// the bank buffer, `lanes × array_output_entries +
    /// bank_output_entries`, at one record per cycle.
    pub output_records: u64,
    /// Conservative per-byte cycle allowance: 1 plus the outgoing
    /// arrays' placed counter/BV columns (a bit-vector processing phase
    /// stalls intake at most one cycle per placed column).
    pub stall_allowance: u64,
    /// The bound: `(window + span) × allowance + records`.
    pub cycles: u64,
}

/// Reconfiguration cost of the swap, through the `rap-circuit` models.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReconfigCost {
    /// Tiles reprogrammed (the replacement arrays' allocated tiles).
    pub tiles: u64,
    /// CAM row writes (32 rows per tile).
    pub cam_writes: u64,
    /// Local-switch SRAM row writes (128 rows per tile).
    pub switch_writes: u64,
    /// Cycles to reprogram: tiles program in parallel across arrays,
    /// serialized within an array by its local controller, one row
    /// write per cycle (CAM and switch write delays both fit the clock
    /// period).
    pub cycles: u64,
    /// Energy in picojoules: row writes plus per-tile local-controller
    /// and per-array global-controller transactions.
    pub energy_pj: f64,
}

/// A certified plan for one live partial reconfiguration.
#[derive(Clone, Debug)]
pub struct ReconfigPlan {
    /// The tenant leaving the fabric.
    pub outgoing: String,
    /// The tenant taking over the footprint.
    pub incoming: String,
    /// Banks in the fabric the swap was certified against.
    pub banks: u32,
    /// Slots the replacement occupies (reprogrammed during the swap).
    pub slots: Vec<u32>,
    /// Outgoing slots the replacement does not reuse (power-gated).
    pub freed_slots: Vec<u32>,
    /// The certified drain bound.
    pub drain: DrainBound,
    /// The reconfiguration cost.
    pub cost: ReconfigCost,
    /// The post-swap certificate, as `rap_admit::admit` issued it for the
    /// pinned tenant set: staying tenants keep their slots and match-ID
    /// ranges verbatim, the replacement holds [`ReconfigPlan::slots`]
    /// and the outgoing tenant's match-ID base. Like every admitted
    /// composition, its pattern namespace is laid out in tenant-name
    /// order.
    pub composed: ComposedPlan,
}

/// Everything the hot-swap analyzer produces.
#[derive(Clone, Debug)]
pub struct SwapAnalysis {
    /// The Q-rule findings.
    pub report: Report,
    /// Names of the tenants that stay resident across the swap.
    pub staying: Vec<String>,
    /// The certificate: present exactly when no error was found.
    pub plan: Option<ReconfigPlan>,
}

impl SwapAnalysis {
    /// Whether the swap was certified.
    pub fn certified(&self) -> bool {
        self.plan.is_some()
    }
}

/// Array indices (into a composed mapping, which lists arrays in slot
/// order) of the slots `tenant` holds among `tenants`.
fn tenant_arrays(tenants: &[TenantSummary], tenant: &TenantSummary) -> Vec<usize> {
    let mut occupied: Vec<u32> = tenants
        .iter()
        .flat_map(|t| t.slots.iter().copied())
        .collect();
    occupied.sort_unstable();
    tenant
        .slots
        .iter()
        .map(|slot| {
            occupied
                .binary_search(slot)
                .expect("tenant slot is occupied")
        })
        .collect()
}

/// A tenant's solo plan inside a composition: its images, sliced out of
/// the composed plan's, and its arrays re-based to the tenant's own
/// pattern namespace. The certificate proves this plan runs exactly as
/// the tenant's slot range of the composed plan.
fn solo<'a>(composed: &'a ComposedPlan, tenant: &TenantSummary) -> (&'a [Compiled], Mapping) {
    let (lo, hi) = tenant.pattern_range;
    let mapping = Mapping {
        arrays: tenant_arrays(&composed.tenants, tenant)
            .into_iter()
            .map(|a| composed.mapping.arrays[a].remap_patterns(|p| p - lo))
            .collect(),
        config: composed.mapping.config,
    };
    (&composed.images[lo..hi], mapping)
}

/// Statically analyzes replacing resident tenant `outgoing` with
/// `incoming` on the fabric the resident [`ComposedPlan`] occupies, and
/// certifies a [`ReconfigPlan`] when the swap is safe.
///
/// The replacement needs a contiguous run of slots, preferring the
/// outgoing tenant's base so a same-shape update reprograms in place.
/// The post-swap tenant set is then re-admitted through one
/// [`rap_admit::admit`] call on that fabric, with every staying tenant
/// pinned to its slots and match-ID base and the replacement to the
/// chosen run and the outgoing tenant's base; the `incoming` tenant's own
/// `match_base` and `slot` fields are ignored. The certificate is the
/// admitted composition, re-verified.
///
/// # Panics
///
/// Panics when the resident plan's summaries are inconsistent with its
/// mapping, or a staying tenant holds non-contiguous slots (neither
/// happens to a plan produced by `rap_admit::admit` or by this function).
pub fn analyze_swap(
    resident: &ComposedPlan,
    outgoing: &str,
    incoming: &Tenant<'_>,
    arch: &ArchConfig,
    options: &SwapOptions,
) -> SwapAnalysis {
    let mut report = Report::default();
    let staying: Vec<&TenantSummary> = resident
        .tenants
        .iter()
        .filter(|t| t.name != outgoing)
        .collect();
    let staying_names: Vec<String> = staying.iter().map(|t| t.name.clone()).collect();
    let reject = |report: Report| SwapAnalysis {
        report,
        staying: staying_names.clone(),
        plan: None,
    };

    let Some(leaving) = resident.tenants.iter().find(|t| t.name == outgoing) else {
        report.push(
            Rule::FootprintSlots,
            Rule::FootprintSlots.severity(),
            Location::default(),
            format!("tenant {outgoing:?} is not resident in the composition"),
        );
        return reject(report);
    };
    let need = incoming.mapping.arrays.len();
    if need == 0 || incoming.images.is_empty() {
        report.push(
            Rule::FootprintSlots,
            Rule::FootprintSlots.severity(),
            Location::default(),
            format!("replacement tenant {:?} carries no arrays", incoming.name),
        );
    }

    // The fabric under analysis: the smallest one covering every
    // resident slot, unless pinned. Live reconfiguration happens on the
    // fabric that is scanning — it does not grow mid-stream.
    let apb = arch.arrays_per_bank.max(1);
    let max_slot = resident
        .tenants
        .iter()
        .flat_map(|t| t.slots.iter().copied())
        .max()
        .unwrap_or(0);
    let banks = options
        .banks
        .unwrap_or_else(|| (max_slot + 1).div_ceil(apb).max(1));
    let slot_count = banks * apb;

    // Footprint: the outgoing tenant's slots (freed at quiescence) plus
    // the fabric's free slots, as one contiguous run.
    let held: Vec<u32> = staying
        .iter()
        .flat_map(|t| t.slots.iter().copied())
        .collect();
    let run_fits = |base: u32| {
        (base..base + need as u32).all(|slot| slot < slot_count && !held.contains(&slot))
    };
    let base = leaving
        .slots
        .iter()
        .copied()
        .min()
        .filter(|&b| run_fits(b))
        .or_else(|| (0..slot_count).find(|&b| run_fits(b)));
    let Some(base) = base else {
        report.push(
            Rule::FootprintSlots,
            Rule::FootprintSlots.severity(),
            Location::default(),
            format!(
                "replacement tenant {:?} needs {need} contiguous slot(s) but \
                 the {slot_count}-slot fabric's freed+free set holds no such \
                 run (staying tenants hold {} slot(s))",
                incoming.name,
                held.len()
            ),
        );
        return reject(report);
    };
    let slots: Vec<u32> = (base..base + need as u32).collect();
    let freed_slots: Vec<u32> = leaving
        .slots
        .iter()
        .copied()
        .filter(|s| !slots.contains(s))
        .collect();

    // Drain bound over the outgoing tenant's images and lanes.
    let leaving_images = &resident.images[leaving.pattern_range.0..leaving.pattern_range.1];
    let drain = match max_match_span(leaving_images) {
        None => {
            report.push(
                Rule::DrainUnbounded,
                Rule::DrainUnbounded.severity(),
                Location::default(),
                format!(
                    "outgoing tenant {outgoing:?} has an unbounded match span \
                     (cyclic automaton): its arrays cannot be certified to \
                     quiesce in bounded cycles"
                ),
            );
            None
        }
        Some(span) => {
            let buffers = BankBound::new(leaving.slots.len() as u64, arch);
            let window_bytes = buffers.input_fifo_bytes + buffers.max_skew;
            let stall_allowance = 1 + leaving_images.iter().map(Compiled::bv_columns).sum::<u64>();
            Some(DrainBound {
                span_bytes: span as u64,
                window_bytes,
                output_records: buffers.output_fifo_records,
                stall_allowance,
                cycles: (window_bytes + span as u64) * stall_allowance
                    + buffers.output_fifo_records,
            })
        }
    };

    // Re-admission: staying tenants pinned where they are, as their solo
    // plans (images borrowed from the resident plan); the replacement
    // pinned to the footprint and the outgoing tenant's match-ID base
    // (demux continuity).
    let solo_plans: Vec<(&[Compiled], Mapping, Vec<ArrayBound>)> = staying
        .iter()
        .map(|t| {
            assert!(
                t.slots.windows(2).all(|w| w[1] == w[0] + 1),
                "staying tenant {:?} holds non-contiguous slots {:?}",
                t.name,
                t.slots
            );
            let (images, mapping) = solo(resident, t);
            let bounds = array_bounds(images, &mapping);
            (images, mapping, bounds)
        })
        .collect();
    let mut tenants: Vec<Tenant<'_>> = staying
        .iter()
        .zip(&solo_plans)
        .map(|(t, (images, mapping, bounds))| Tenant {
            name: &t.name,
            images,
            mapping,
            bounds,
            match_base: Some(t.match_ids.0),
            slot: t.slots.first().copied(),
        })
        .collect();
    tenants.push(Tenant {
        match_base: Some(leaving.match_ids.0),
        slot: Some(base),
        ..*incoming
    });
    let admission = admit(
        &tenants,
        arch,
        &AdmitOptions {
            banks: Some(banks),
            bv_column_budget: options.bv_column_budget,
            overlap: None,
            reconfig: false,
        },
    );
    for d in admission.report.diagnostics {
        if let Some(rule) = Rule::of_admission(d.rule) {
            report.push(
                rule,
                rule.severity(),
                d.location,
                format!("post-swap composition: {}", d.message),
            );
        }
    }

    // Reconfiguration cost through the circuit models.
    let tiles: u64 = incoming
        .mapping
        .arrays
        .iter()
        .map(|a| u64::from(a.tiles_used))
        .sum();
    let max_array_tiles: u64 = incoming
        .mapping
        .arrays
        .iter()
        .map(|a| u64::from(a.tiles_used))
        .max()
        .unwrap_or(0);
    let cam_writes = tiles * 32;
    let switch_writes = tiles * 128;
    let cost = ReconfigCost {
        tiles,
        cam_writes,
        switch_writes,
        cycles: max_array_tiles * (32 + 128) + 1,
        energy_pj: cam_writes as f64 * CAM_32X128.access_energy_pj(1.0)
            + switch_writes as f64 * SRAM_128X128.access_energy_pj(1.0)
            + tiles as f64 * LOCAL_CONTROLLER.access_energy_pj(1.0)
            + incoming.mapping.arrays.len() as f64 * GLOBAL_CONTROLLER.access_energy_pj(1.0),
    };
    if let Some(d) = &drain {
        if cost.cycles > d.cycles {
            report.push(
                Rule::ReconfigOverrun,
                Rule::ReconfigOverrun.severity(),
                Location::default(),
                format!(
                    "reprogramming the footprint takes {} cycle(s) but the \
                     certified drain window is {}: the swap slots idle for {} \
                     extra cycle(s)",
                    cost.cycles,
                    d.cycles,
                    cost.cycles - d.cycles
                ),
            );
        }
    }

    if !report.is_legal() {
        return reject(report);
    }
    let drain = drain.expect("legal report implies a bounded drain");
    let composed = admission
        .composed
        .expect("an error-free re-admission carries a certificate");

    // Re-verification gate: the certificate must pass the same static
    // verifier every solo plan passes before simulation.
    let verdict = rap_verify::verify(&composed.images, &composed.mapping, arch);
    if !verdict.is_legal() {
        report.push(
            Rule::ReadmissionFailed,
            Rule::ReadmissionFailed.severity(),
            Location::default(),
            format!(
                "re-admitted post-swap composition fails the verify gate \
                 with {} finding(s)",
                verdict.len()
            ),
        );
        return reject(report);
    }

    SwapAnalysis {
        report,
        staying: staying_names,
        plan: Some(ReconfigPlan {
            outgoing: outgoing.to_string(),
            incoming: incoming.name.to_string(),
            banks,
            slots,
            freed_slots,
            drain,
            cost,
            composed,
        }),
    }
}

/// Per-tenant match streams of one executed hot swap.
#[derive(Clone, Debug)]
pub struct SwapExecution {
    /// Staying tenants' full-stream matches (tenant-local pattern
    /// indices, global end offsets), in resident order.
    pub staying: Vec<(String, Vec<MatchEvent>)>,
    /// The outgoing tenant's matches, all ending at or before the swap
    /// offset.
    pub outgoing: Vec<MatchEvent>,
    /// The replacement tenant's post-swap matches (global offsets).
    pub incoming: Vec<MatchEvent>,
    /// Cycles the outgoing tenant's solo run over the pre-swap prefix
    /// took beyond the swap offset. The batch model has no bank window,
    /// so this is not a drain: it counts the tenant's bit-vector stalls
    /// over the whole prefix, not the cycles after the swap, and can
    /// exceed the certified [`DrainBound`] on a long, stall-heavy prefix.
    pub observed_drain_cycles: u64,
}

/// Spends a certificate: applies `plan` to the resident composition
/// mid-stream at byte offset `swap_at`. The certificate proves each
/// tenant's slot range runs exactly as its solo plan, so each tenant runs
/// alone: staying tenants over the whole stream, the outgoing tenant
/// over `input[..swap_at]` (its stream ends at the swap, so its
/// `$`-anchored patterns report there), and the replacement over
/// `input[swap_at..]`, its match ends shifted to global offsets.
///
/// # Panics
///
/// Panics when `swap_at` exceeds the input length or `plan` was not
/// produced for `resident`.
pub fn execute(
    plan: &ReconfigPlan,
    resident: &ComposedPlan,
    input: &[u8],
    swap_at: usize,
    machine: Machine,
) -> SwapExecution {
    assert!(swap_at <= input.len(), "swap offset beyond the stream");
    let run = |composed: &ComposedPlan, tenant: &TenantSummary, segment: &[u8]| {
        let (images, mapping) = solo(composed, tenant);
        simulate(images, &mapping, segment, machine)
    };
    let staying = resident
        .tenants
        .iter()
        .filter(|t| t.name != plan.outgoing)
        .map(|t| (t.name.clone(), run(resident, t, input).matches))
        .collect();
    let leaving = resident
        .tenants
        .iter()
        .find(|t| t.name == plan.outgoing)
        .expect("plan's outgoing tenant is resident");
    let drained = run(resident, leaving, &input[..swap_at]);
    let fresh = plan
        .composed
        .tenants
        .iter()
        .find(|t| t.name == plan.incoming)
        .expect("plan's replacement is in the certificate");
    let mut incoming = run(&plan.composed, fresh, &input[swap_at..]).matches;
    for m in &mut incoming {
        m.end += swap_at;
    }
    SwapExecution {
        staying,
        outgoing: drained.matches,
        incoming,
        observed_drain_cycles: drained.metrics.cycles.saturating_sub(swap_at as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_admit::{admit, AdmitOptions, Tenant};
    use rap_bound::{analyze_bounds, BoundOptions};
    use rap_compiler::{Compiler, CompilerConfig};
    use rap_mapper::{map_workload, MapperConfig};
    use rap_regex::Pattern;

    struct Owned {
        name: String,
        images: Vec<Compiled>,
        mapping: Mapping,
        bounds: Vec<ArrayBound>,
    }

    /// Bounds come from the full `analyze_bounds` pass, the independent
    /// reference for what a plan caches through `array_bounds`.
    fn owned(name: &str, sources: &[&str], config: &MapperConfig) -> Owned {
        let compiler = Compiler::new(CompilerConfig::default());
        let patterns: Vec<Pattern> = sources
            .iter()
            .map(|s| rap_regex::parse_pattern(s).expect("parses"))
            .collect();
        let images: Vec<Compiled> = patterns
            .iter()
            .map(|p| compiler.compile_anchored(p).expect("compiles"))
            .collect();
        let mapping = map_workload(&images, config);
        let bounds = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
        Owned {
            name: name.to_string(),
            images,
            mapping,
            bounds: bounds.arrays,
        }
    }

    fn view(o: &Owned) -> Tenant<'_> {
        Tenant {
            name: &o.name,
            images: &o.images,
            mapping: &o.mapping,
            bounds: &o.bounds,
            match_base: None,
            slot: None,
        }
    }

    fn compose(tenants: &[&Owned], config: &MapperConfig) -> ComposedPlan {
        let views: Vec<Tenant<'_>> = tenants.iter().map(|o| view(o)).collect();
        let analysis = admit(&views, &config.arch, &AdmitOptions::default());
        assert!(analysis.admitted(), "{}", analysis.report);
        analysis.composed.expect("certified")
    }

    /// Asserts that the swap was refused with a `rule` finding.
    fn assert_rejects(analysis: &SwapAnalysis, rule: Rule) {
        assert!(!analysis.certified());
        assert!(
            !analysis.report.by_rule(rule).is_empty(),
            "{}",
            analysis.report
        );
    }

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
        assert_eq!(codes[0], "Q001-footprint-slots");
        assert_eq!(codes.len(), 8);
        for w in codes.windows(2) {
            assert!(w[0] < w[1], "codes out of order: {w:?}");
        }
    }

    #[test]
    fn same_shape_swap_certifies_in_place() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle", "b{3,9}c"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        let c = owned("charlie", &["beacon"], &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&c),
            &config.arch,
            &SwapOptions::default(),
        );
        assert!(analysis.certified(), "{}", analysis.report);
        let plan = analysis.plan.expect("certified");
        // Same shape: the replacement reuses the freed base in place.
        let bravo = resident.tenants.iter().find(|t| t.name == "bravo").unwrap();
        assert_eq!(plan.slots[0], bravo.slots[0]);
        assert_eq!(plan.drain.span_bytes, "haystack".len() as u64);
        assert!(plan.drain.cycles > 0);
        assert!(plan.cost.tiles > 0);
        // Staying tenant's slots and match IDs survive verbatim.
        let alpha_pre = resident.tenants.iter().find(|t| t.name == "alpha").unwrap();
        let alpha_post = plan
            .composed
            .tenants
            .iter()
            .find(|t| t.name == "alpha")
            .unwrap();
        assert_eq!(alpha_pre.slots, alpha_post.slots);
        assert_eq!(alpha_pre.match_ids, alpha_post.match_ids);
    }

    #[test]
    fn executed_swap_keeps_staying_tenants_bit_identical() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle", "ne+dle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        let c = owned("charlie", &["beacon"], &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&c),
            &config.arch,
            &SwapOptions::default(),
        );
        let plan = analysis.plan.expect("certified");
        let input = b"a needle in the haystack, then a beacon, then a neeedle".to_vec();
        let swap_at = 25;
        let exec = execute(&plan, &resident, &input, swap_at, Machine::Rap);

        // Staying tenant: bit-identical to the unswapped composed run.
        let unswapped =
            rap_sim::simulate(&resident.images, &resident.mapping, &input, Machine::Rap);
        let alpha_idx = resident
            .tenants
            .iter()
            .position(|t| t.name == "alpha")
            .unwrap();
        let want = resident.tenant_matches(alpha_idx, &unswapped.matches);
        let got = &exec.staying.iter().find(|(n, _)| n == "alpha").unwrap().1;
        assert_eq!(got, &want);

        // Replacement: bit-identical to a cold re-admitted composition
        // over the post-swap suffix.
        let cold = compose(&[&a, &c], &config);
        let cold_run =
            rap_sim::simulate(&cold.images, &cold.mapping, &input[swap_at..], Machine::Rap);
        let c_idx = cold
            .tenants
            .iter()
            .position(|t| t.name == "charlie")
            .unwrap();
        let mut want_in = cold.tenant_matches(c_idx, &cold_run.matches);
        for m in &mut want_in {
            m.end += swap_at;
        }
        assert_eq!(exec.incoming, want_in);

        // Outgoing tenant reports only before the swap.
        assert!(exec.outgoing.iter().all(|m| m.end <= swap_at));
    }

    #[test]
    fn unbounded_span_rejects_with_q005() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["x.*y"], &config);
        let resident = compose(&[&a, &b], &config);
        let c = owned("charlie", &["beacon"], &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&c),
            &config.arch,
            &SwapOptions::default(),
        );
        assert!(!analysis.certified());
        assert!(!analysis.report.by_rule(Rule::DrainUnbounded).is_empty());
    }

    #[test]
    fn oversized_replacement_rejects_with_q001() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        // Many patterns -> more arrays than the freed+free footprint on
        // the minimal resident fabric.
        let sources: Vec<String> = (0..64).map(|i| format!("pattern{i:03}xyz")).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let big = owned("charlie", &refs, &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&big),
            &config.arch,
            &SwapOptions::default(),
        );
        if big.mapping.arrays.len() > resident.mapping.arrays.len() {
            assert!(!analysis.certified());
            assert!(!analysis.report.by_rule(Rule::FootprintSlots).is_empty());
        }
    }

    #[test]
    fn bursty_replacement_sharing_a_bank_rejects_with_q002() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        // ~90 literals report in one cycle at worst: more records than
        // the shared bank's lane FIFOs plus bank buffer can hold.
        let sources: Vec<String> = (0..90).map(|i| format!("lit{i:03}")).collect();
        let refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let loud = owned("charlie", &refs, &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&loud),
            &config.arch,
            &SwapOptions::default(),
        );
        assert_rejects(&analysis, Rule::BankInterference);
    }

    #[test]
    fn column_hungry_replacement_rejects_with_q004() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        let c = owned("charlie", &["a[bc]{2,24}d"], &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&c),
            &config.arch,
            &SwapOptions {
                bv_column_budget: Some(1),
                ..SwapOptions::default()
            },
        );
        assert_rejects(&analysis, Rule::ColumnBudget);
    }

    #[test]
    fn wider_replacement_colliding_with_a_staying_range_rejects_with_q006() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        // alpha holds match IDs [0, 1) and bravo [1, 2): a two-pattern
        // replacement inheriting alpha's base runs into bravo's range.
        let c = owned("charlie", &["beacon", "lantern"], &config);
        let analysis = analyze_swap(
            &resident,
            "alpha",
            &view(&c),
            &config.arch,
            &SwapOptions::default(),
        );
        assert_rejects(&analysis, Rule::DemuxDiscontinuity);
    }

    #[test]
    fn replacement_taking_a_staying_name_rejects_with_q006() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        let impostor = owned("alpha", &["beacon"], &config);
        let analysis = analyze_swap(
            &resident,
            "bravo",
            &view(&impostor),
            &config.arch,
            &SwapOptions::default(),
        );
        assert_rejects(&analysis, Rule::DemuxDiscontinuity);
    }

    #[test]
    fn missing_outgoing_tenant_rejects_with_q001() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle"], &config);
        let b = owned("bravo", &["haystack"], &config);
        let resident = compose(&[&a, &b], &config);
        let c = owned("charlie", &["beacon"], &config);
        let analysis = analyze_swap(
            &resident,
            "nobody",
            &view(&c),
            &config.arch,
            &SwapOptions::default(),
        );
        assert!(!analysis.certified());
        assert!(!analysis.report.by_rule(Rule::FootprintSlots).is_empty());
        assert_eq!(analysis.staying.len(), 2);
    }
}
