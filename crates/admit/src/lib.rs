//! `rap-admit` — static multi-tenant composition and interference
//! analyzer.
//!
//! A RAP fabric is reconfigurable per array, which only pays off if
//! independently built plans can *share* it: `rap-serve`-style
//! multi-tenancy and live rule-set hot-swap both need a static answer to
//! "can these N verified plans co-reside without colliding?". This crate
//! is that answer. It takes N tenants — each a name plus the compiled
//! images, verified [`Mapping`] and per-array `rap-bound` bounds of one
//! plan — and an [`ArchConfig`] describing the shared fabric, assigns
//! every tenant array an exclusive slot, sums the per-tenant worst-case
//! bounds against the fabric's shared capacities, and either
//! certifies a conflict-free [`ComposedPlan`] or explains the conflict
//! through the shared `rap-diag` schema:
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `S001-placement-overlap` | error | tenants collide on array slots, exceed the fabric, or disagree on geometry |
//! | `S002-bank-oversubscribed` | error | a shared bank's worst-case match burst exceeds its total output FIFO capacity |
//! | `S003-fanin-over-budget` | error | a shared bank's summed global-switch fan-in exceeds its port budget |
//! | `S004-bv-columns-exhausted` | error | summed counter/BV columns exceed the fabric budget |
//! | `S005-output-overcommit` | warning | a shared bank's burst overruns the shared output buffer into lane FIFOs |
//! | `S006-match-id-collision` | error | tenant names or match-ID ranges are not disjoint |
//! | `S007-reconfig-infeasible` | warning | a tenant cannot be hot-swapped while the others keep scanning |
//! | `S008-prefix-overlap` | warning | two tenants can report a match at the same input position (opt-in probe) |
//!
//! The certificate is *sound by construction*: slots are exclusive, so a
//! composed plan runs every tenant's arrays bit-identically to its solo
//! plan over the same stream, and every summed budget is a sum of
//! `rap-bound` certified worst cases — the companion cross-validation
//! tests use the traced simulator as an oracle. S008 reuses the exact
//! product construction of `rap-analyze::soundness` pair-wise across
//! tenants ([`rap_analyze::check_overlap`]) to find streams on which two
//! tenants report simultaneously — legal, but an ambiguity worth
//! surfacing when tenants share a demultiplexed match stream.

use rap_analyze::{check_overlap, Overlap, SoundnessConfig};
use rap_arch::config::ArchConfig;
use rap_bound::{ArrayBound, BankBound};
use rap_compiler::Compiled;
use rap_diag::{Location, RuleCode, Severity};
use rap_mapper::{ArrayPlan, MapperConfig, Mapping};
use rap_sim::MatchEvent;

/// The admission report type.
pub type Report = rap_diag::Report<Rule>;

/// The admission rules (`S` series; `V` = verifier, `A` = analyzer,
/// `B` = bounds, `C` = cache). Codes are stable and append-only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// S001: tenants collide on array slots, exceed the fabric's
    /// capacity, or were mapped for a different geometry.
    PlacementOverlap,
    /// S002: a bank shared by two or more tenants has worst-case
    /// simultaneous match records exceeding the total output FIFO
    /// capacity (lane FIFOs + bank buffer). Banks held by one tenant are
    /// exempt — their load is the tenant's own verified solo behaviour.
    BankOversubscribed,
    /// S003: a bank shared by two or more tenants has summed per-tile
    /// global-switch fan-in exceeding the bank's port budget
    /// (single-tenant banks are exempt, as for S002).
    FaninOverBudget,
    /// S004: summed counter/BV columns across tenants exceed the fabric
    /// column budget.
    BvColumnsExhausted,
    /// S005: a shared bank's worst-case burst overruns the bank output
    /// buffer and spills into per-lane FIFOs (backpressure risk;
    /// single-tenant banks are exempt, as for S002).
    OutputOvercommit,
    /// S006: tenant names or match-ID ranges are not pairwise disjoint.
    MatchIdCollision,
    /// S007: a tenant's arrays cannot be reconfigured while the other
    /// tenants keep scanning (no free slots to stage the swap).
    ReconfigInfeasible,
    /// S008: two tenants can report a match ending at the same input
    /// position (exact cross-tenant product construction, opt-in).
    PrefixOverlap,
}

impl Rule {
    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::PlacementOverlap => "S001-placement-overlap",
            Rule::BankOversubscribed => "S002-bank-oversubscribed",
            Rule::FaninOverBudget => "S003-fanin-over-budget",
            Rule::BvColumnsExhausted => "S004-bv-columns-exhausted",
            Rule::OutputOvercommit => "S005-output-overcommit",
            Rule::MatchIdCollision => "S006-match-id-collision",
            Rule::ReconfigInfeasible => "S007-reconfig-infeasible",
            Rule::PrefixOverlap => "S008-prefix-overlap",
        }
    }

    /// The fixed severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            Rule::PlacementOverlap
            | Rule::BankOversubscribed
            | Rule::FaninOverBudget
            | Rule::BvColumnsExhausted
            | Rule::MatchIdCollision => Severity::Error,
            Rule::OutputOvercommit | Rule::ReconfigInfeasible | Rule::PrefixOverlap => {
                Severity::Warning
            }
        }
    }

    /// Every rule, in code order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::PlacementOverlap,
            Rule::BankOversubscribed,
            Rule::FaninOverBudget,
            Rule::BvColumnsExhausted,
            Rule::OutputOvercommit,
            Rule::MatchIdCollision,
            Rule::ReconfigInfeasible,
            Rule::PrefixOverlap,
        ]
    }
}

impl RuleCode for Rule {
    fn code(&self) -> &'static str {
        Rule::code(*self)
    }
}

/// Admission knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmitOptions {
    /// Banks in the shared fabric. `None` auto-sizes the smallest fabric
    /// that fits every tenant array (a lone well-formed tenant always
    /// admits); `Some(n)` fixes the fabric so over-subscription can be
    /// detected.
    pub banks: Option<u32>,
    /// Fabric-wide budget of CAM columns available to counter bit
    /// vectors. `None` uses the fabric's full column capacity.
    pub bv_column_budget: Option<u64>,
    /// Budget for the opt-in S008 cross-tenant overlap probe, applied
    /// per cross-tenant image pair. `None` skips the probe.
    pub overlap: Option<SoundnessConfig>,
    /// Check S007 hot-swap feasibility (on by default; it only warns).
    pub reconfig: bool,
}

impl Default for AdmitOptions {
    fn default() -> Self {
        AdmitOptions {
            banks: None,
            bv_column_budget: None,
            overlap: None,
            reconfig: true,
        }
    }
}

/// One tenant of a proposed composition: a verified plan's parts, all
/// borrowed. `images` and `mapping` must come from one compile/map run
/// (index-aligned `pattern` fields), and `bounds` from
/// [`rap_bound::array_bounds`] over them, as the pipeline's
/// `VerifiedPlan` keeps them.
#[derive(Clone, Copy, Debug)]
pub struct Tenant<'a> {
    /// Display name; also the tenant's identity (must be unique).
    pub name: &'a str,
    /// Compiled images, indexed by pattern.
    pub images: &'a [Compiled],
    /// The tenant's verified solo mapping.
    pub mapping: &'a Mapping,
    /// The solo plan's certified per-array bounds, index-aligned with
    /// `mapping.arrays`.
    pub bounds: &'a [ArrayBound],
    /// First match ID of the tenant's namespace; `None` assigns the
    /// composed pattern offset (disjoint by construction).
    pub match_base: Option<u64>,
    /// First fabric slot to claim (contiguous); `None` first-fits.
    pub slot: Option<u32>,
}

/// What the analyzer decided about one tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSummary {
    /// The tenant's name.
    pub name: String,
    /// Patterns the tenant carries.
    pub patterns: usize,
    /// Arrays the tenant occupies.
    pub arrays: usize,
    /// Half-open pattern-index range inside the composed plan.
    pub pattern_range: (usize, usize),
    /// Half-open match-ID range `[base, base + patterns)`.
    pub match_ids: (u64, u64),
    /// Fabric slots assigned to the tenant's arrays.
    pub slots: Vec<u32>,
    /// Whether the tenant can be reconfigured while the others scan.
    pub hot_swappable: bool,
}

/// Worst-case load of one bank of the composed fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankLoad {
    /// Bank index.
    pub bank: u32,
    /// Occupied lanes.
    pub lanes: u32,
    /// Worst-case match records generated in one cycle (summed tenant
    /// reporter bounds).
    pub burst_records: u64,
    /// Total output FIFO capacity: lane FIFOs plus the bank buffer.
    pub capacity_records: u64,
    /// Summed peak per-tile global-switch fan-in of resident arrays.
    pub fanin: u64,
    /// The bank's global-port budget.
    pub fanin_budget: u64,
}

/// A certified conflict-free composition: one merged workload whose
/// arrays are the tenants' arrays in slot order, with pattern indices
/// offset into a shared namespace. Because slots are exclusive and
/// arrays run independently, each tenant's matches in the composed run
/// are bit-identical to its solo run over the same stream.
#[derive(Clone, Debug)]
pub struct ComposedPlan {
    /// Every tenant's images, concatenated in canonical (name) order.
    pub images: Vec<Compiled>,
    /// The merged mapping over the shared pattern namespace.
    pub mapping: Mapping,
    /// Per-tenant summaries (canonical order), for demultiplexing.
    pub tenants: Vec<TenantSummary>,
}

impl ComposedPlan {
    /// Extracts one tenant's matches from a composed run, re-indexed to
    /// the tenant's own pattern namespace.
    ///
    /// # Panics
    ///
    /// Panics when `tenant` is out of range.
    pub fn tenant_matches(&self, tenant: usize, matches: &[MatchEvent]) -> Vec<MatchEvent> {
        let (lo, hi) = self.tenants[tenant].pattern_range;
        matches
            .iter()
            .filter(|m| m.pattern >= lo && m.pattern < hi)
            .map(|m| MatchEvent {
                pattern: m.pattern - lo,
                end: m.end,
            })
            .collect()
    }
}

/// Everything the admission analyzer produces.
#[derive(Clone, Debug)]
pub struct AdmissionAnalysis {
    /// The S-rule findings.
    pub report: Report,
    /// Per-tenant decisions, in canonical (name) order.
    pub tenants: Vec<TenantSummary>,
    /// Banks in the (possibly auto-sized) fabric.
    pub banks: u32,
    /// Array slots in the fabric (`banks × arrays_per_bank`).
    pub slots: u32,
    /// Arrays requested across all tenants.
    pub total_arrays: u32,
    /// Worst-case per-bank loads.
    pub bank_loads: Vec<BankLoad>,
    /// Counter/BV columns requested across all tenants.
    pub bv_columns: u64,
    /// The fabric's BV column budget the request was checked against.
    pub bv_budget: u64,
    /// Joint configurations explored by the opt-in S008 probe.
    pub overlap_explored: u64,
    /// The certificate: present exactly when no error was found.
    pub composed: Option<ComposedPlan>,
}

impl AdmissionAnalysis {
    /// Whether the composition was certified.
    pub fn admitted(&self) -> bool {
        self.composed.is_some()
    }
}

/// Statically analyzes whether `tenants` can co-reside on one fabric of
/// `arch`-shaped banks, and certifies the composition when they can.
///
/// Tenants are canonicalized by name before any derived assignment
/// (pattern offsets, slots, auto match-ID bases), so any permutation of
/// the same tenant set yields the same findings, summaries, and
/// certificate.
///
/// # Panics
///
/// Panics when `tenants` is empty, or when a tenant carries a different
/// number of bounds than its mapping has arrays (bounds not derived from
/// that plan).
pub fn admit(
    tenants: &[Tenant<'_>],
    arch: &ArchConfig,
    options: &AdmitOptions,
) -> AdmissionAnalysis {
    assert!(!tenants.is_empty(), "admission needs at least one tenant");
    let mut report = Report::default();

    // Canonical order: by name, stably.
    let mut order: Vec<usize> = (0..tenants.len()).collect();
    order.sort_by(|&x, &y| tenants[x].name.cmp(tenants[y].name));
    let ordered: Vec<&Tenant<'_>> = order.iter().map(|&i| &tenants[i]).collect();

    // S006a: names are the tenants' identity; duplicates make match
    // streams un-demultiplexable (adjacent check suffices once sorted).
    for w in ordered.windows(2) {
        if w[0].name == w[1].name {
            report.push(
                Rule::MatchIdCollision,
                Rule::MatchIdCollision.severity(),
                Location::default(),
                format!("duplicate tenant name {:?}", w[0].name),
            );
        }
    }

    // S001a: every tenant must have been mapped for the shared geometry.
    for tenant in &ordered {
        if tenant.mapping.config.arch != *arch {
            report.push(
                Rule::PlacementOverlap,
                Rule::PlacementOverlap.severity(),
                Location::default(),
                format!(
                    "tenant {:?} was mapped for a different array geometry \
                     than the shared fabric",
                    tenant.name
                ),
            );
        }
    }
    let bvm = ordered[0].mapping.config.bvm;
    if ordered.iter().any(|t| t.mapping.config.bvm != bvm) {
        report.push(
            Rule::PlacementOverlap,
            Rule::PlacementOverlap.severity(),
            Location::default(),
            "tenants were mapped with different bit-vector-module configurations".to_string(),
        );
    }

    // Per-tenant certified bounds, derived solo once per plan; admission
    // only sums them against the shared capacities.
    for tenant in &ordered {
        assert_eq!(
            tenant.bounds.len(),
            tenant.mapping.arrays.len(),
            "tenant {:?} carries one bound per array",
            tenant.name
        );
    }

    // Fabric sizing.
    let apb = arch.arrays_per_bank.max(1);
    let total_arrays: u32 = ordered.iter().map(|t| t.mapping.arrays.len() as u32).sum();
    let banks = options
        .banks
        .unwrap_or_else(|| total_arrays.div_ceil(apb).max(1));
    let slot_count = banks * apb;

    // Slot assignment: explicit contiguous claims first, then first-fit,
    // both in canonical order.
    let mut occupancy: Vec<Option<(usize, usize)>> = vec![None; slot_count as usize];
    let mut assigned: Vec<Vec<u32>> = vec![Vec::new(); ordered.len()];
    for (c, tenant) in ordered.iter().enumerate() {
        let Some(base) = tenant.slot else { continue };
        for a in 0..tenant.mapping.arrays.len() {
            let slot = base + a as u32;
            let Some(cell) = occupancy.get_mut(slot as usize) else {
                report.push(
                    Rule::PlacementOverlap,
                    Rule::PlacementOverlap.severity(),
                    Location::array(a),
                    format!(
                        "tenant {:?} claims slot {slot} outside the \
                         {slot_count}-slot fabric",
                        tenant.name
                    ),
                );
                continue;
            };
            match cell {
                Some((other, _)) => {
                    let other_name = ordered[*other].name;
                    report.push(
                        Rule::PlacementOverlap,
                        Rule::PlacementOverlap.severity(),
                        Location::array(a),
                        format!(
                            "tenant {:?} claims slot {slot} already held by \
                             tenant {other_name:?}",
                            tenant.name
                        ),
                    );
                }
                None => {
                    *cell = Some((c, a));
                    assigned[c].push(slot);
                }
            }
        }
    }
    let mut cursor = 0usize;
    let mut exhausted = false;
    for (c, tenant) in ordered.iter().enumerate() {
        if tenant.slot.is_some() {
            continue;
        }
        for a in 0..tenant.mapping.arrays.len() {
            while cursor < occupancy.len() && occupancy[cursor].is_some() {
                cursor += 1;
            }
            if cursor >= occupancy.len() {
                exhausted = true;
                break;
            }
            occupancy[cursor] = Some((c, a));
            assigned[c].push(cursor as u32);
        }
    }
    if exhausted {
        report.push(
            Rule::PlacementOverlap,
            Rule::PlacementOverlap.severity(),
            Location::default(),
            format!(
                "{total_arrays} arrays across {} tenant(s) exceed the \
                 {slot_count} slot(s) of the {banks}-bank fabric",
                ordered.len()
            ),
        );
    }

    // Per-bank shared-capacity checks over the certified solo bounds.
    // Only banks hosting arrays of two or more tenants are checked: a
    // single-tenant bank reproduces exactly the load the tenant's own
    // verified, bounded solo plan already exhibits, so flagging it here
    // would reject plans that are legal on their own (the CA baseline's
    // huge force-NFA arrays, for instance). Admission findings are about
    // *interference*, and a bank no one shares has none.
    let mut bank_loads = Vec::with_capacity(banks as usize);
    for bank in 0..banks {
        let lo = (bank * apb) as usize;
        let hi = ((bank + 1) * apb) as usize;
        let mut lanes = 0u32;
        let mut burst = 0u64;
        let mut fanin = 0u64;
        let mut residents: Vec<usize> = Vec::new();
        for (c, a) in occupancy[lo..hi.min(occupancy.len())].iter().flatten() {
            lanes += 1;
            let bound = &ordered[*c].bounds[*a];
            burst += bound.reporters;
            fanin += u64::from(bound.peak_fanin);
            if !residents.contains(c) {
                residents.push(*c);
            }
        }
        let shared = residents.len() > 1;
        let capacity = BankBound::new(u64::from(lanes), arch).output_fifo_records;
        let fanin_budget = u64::from(apb) * u64::from(arch.global_ports_per_tile);
        if shared && burst > capacity {
            report.push(
                Rule::BankOversubscribed,
                Rule::BankOversubscribed.severity(),
                Location::default(),
                format!(
                    "bank {bank}: worst-case burst of {burst} match \
                     record(s) exceeds the {capacity}-record output \
                     capacity ({lanes} lane FIFO(s) + bank buffer)"
                ),
            );
        } else if shared && burst > u64::from(arch.bank_output_entries) {
            report.push(
                Rule::OutputOvercommit,
                Rule::OutputOvercommit.severity(),
                Location::default(),
                format!(
                    "bank {bank}: worst-case burst of {burst} match \
                     record(s) overruns the {}-record bank buffer into \
                     lane FIFOs (backpressure risk)",
                    arch.bank_output_entries
                ),
            );
        }
        if shared && fanin_budget > 0 && fanin > fanin_budget {
            report.push(
                Rule::FaninOverBudget,
                Rule::FaninOverBudget.severity(),
                Location::default(),
                format!(
                    "bank {bank}: summed global-switch fan-in {fanin} \
                     exceeds the {fanin_budget}-port bank budget"
                ),
            );
        }
        bank_loads.push(BankLoad {
            bank,
            lanes,
            burst_records: burst,
            capacity_records: capacity,
            fanin,
            fanin_budget,
        });
    }

    // S004: summed counter/BV columns against the fabric budget.
    let total_bv: u64 = ordered
        .iter()
        .flat_map(|t| t.images)
        .map(Compiled::bv_columns)
        .sum();
    let bv_budget = options.bv_column_budget.unwrap_or_else(|| {
        u64::from(slot_count) * u64::from(arch.tiles_per_array) * u64::from(arch.tile_columns)
    });
    if total_bv > bv_budget {
        report.push(
            Rule::BvColumnsExhausted,
            Rule::BvColumnsExhausted.severity(),
            Location::default(),
            format!(
                "tenants request {total_bv} counter/BV column(s) but the \
                 fabric budget is {bv_budget}"
            ),
        );
    }

    // Pattern offsets and match-ID namespaces (canonical order).
    let mut offsets = Vec::with_capacity(ordered.len());
    let mut offset = 0usize;
    for tenant in &ordered {
        offsets.push(offset);
        offset += tenant.images.len();
    }
    let ranges: Vec<(u64, u64)> = ordered
        .iter()
        .zip(&offsets)
        .map(|(t, &off)| {
            let base = t.match_base.unwrap_or(off as u64);
            (base, base + t.images.len() as u64)
        })
        .collect();
    for i in 0..ranges.len() {
        for j in i + 1..ranges.len() {
            if ranges[i].0 < ranges[j].1 && ranges[j].0 < ranges[i].1 {
                report.push(
                    Rule::MatchIdCollision,
                    Rule::MatchIdCollision.severity(),
                    Location::default(),
                    format!(
                        "match-ID ranges of tenants {:?} [{}, {}) and {:?} \
                         [{}, {}) overlap",
                        ordered[i].name,
                        ranges[i].0,
                        ranges[i].1,
                        ordered[j].name,
                        ranges[j].0,
                        ranges[j].1
                    ),
                );
            }
        }
    }

    // S007: a tenant hot-swaps by staging its next plan in free slots
    // while the current one keeps scanning, then flipping — infeasible
    // when fewer slots are free than the tenant occupies.
    let free = u64::from(slot_count) - occupancy.iter().flatten().count() as u64;
    let mut hot = Vec::with_capacity(ordered.len());
    for tenant in &ordered {
        let needs = tenant.mapping.arrays.len() as u64;
        let swappable = needs <= free;
        if options.reconfig && !swappable {
            report.push(
                Rule::ReconfigInfeasible,
                Rule::ReconfigInfeasible.severity(),
                Location::default(),
                format!(
                    "tenant {:?} needs {needs} free array(s) to hot-swap \
                     but the fabric has {free}: reconfiguration must stop \
                     the stream",
                    tenant.name
                ),
            );
        }
        hot.push(swappable);
    }

    // S008 (opt-in): exact cross-tenant simultaneity probe.
    let mut overlap_explored = 0u64;
    if let Some(cfg) = &options.overlap {
        for i in 0..ordered.len() {
            for j in i + 1..ordered.len() {
                for (a, img_a) in ordered[i].images.iter().enumerate() {
                    for (b, img_b) in ordered[j].images.iter().enumerate() {
                        let verdict = check_overlap(img_a, img_b, cfg);
                        overlap_explored += verdict.explored() as u64;
                        if let Overlap::Simultaneous { input, .. } = verdict {
                            let preview: String =
                                String::from_utf8_lossy(&input).chars().take(32).collect();
                            report.push(
                                Rule::PrefixOverlap,
                                Rule::PrefixOverlap.severity(),
                                Location::of_pattern(offsets[i] + a),
                                format!(
                                    "tenants {:?} (pattern {a}) and {:?} \
                                     (pattern {b}) both report at the end \
                                     of {preview:?}: simultaneous matches \
                                     are possible",
                                    ordered[i].name, ordered[j].name
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    // Summaries, in canonical order.
    let tenants_out: Vec<TenantSummary> = ordered
        .iter()
        .enumerate()
        .map(|(c, t)| TenantSummary {
            name: t.name.to_string(),
            patterns: t.images.len(),
            arrays: t.mapping.arrays.len(),
            pattern_range: (offsets[c], offsets[c] + t.images.len()),
            match_ids: ranges[c],
            slots: assigned[c].clone(),
            hot_swappable: hot[c],
        })
        .collect();

    // The certificate: merge in slot order, offsetting pattern indices.
    let composed = if report.is_legal() {
        let images: Vec<Compiled> = ordered
            .iter()
            .flat_map(|t| t.images.iter().cloned())
            .collect();
        let arrays: Vec<ArrayPlan> = occupancy
            .iter()
            .flatten()
            .map(|&(c, a)| ordered[c].mapping.arrays[a].remap_patterns(|p| p + offsets[c]))
            .collect();
        let config = MapperConfig {
            arch: *arch,
            bin_size: ordered
                .iter()
                .map(|t| t.mapping.config.bin_size)
                .max()
                .unwrap_or(arch.max_bin_size),
            bvm,
        };
        Some(ComposedPlan {
            images,
            mapping: Mapping { arrays, config },
            tenants: tenants_out.clone(),
        })
    } else {
        None
    };

    AdmissionAnalysis {
        report,
        tenants: tenants_out,
        banks,
        slots: slot_count,
        total_arrays,
        bank_loads,
        bv_columns: total_bv,
        bv_budget,
        overlap_explored,
        composed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_bound::{analyze_bounds, BoundOptions};
    use rap_circuit::Machine;
    use rap_compiler::{Compiler, CompilerConfig};
    use rap_mapper::map_workload;
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

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
        assert_eq!(codes[0], "S001-placement-overlap");
        assert_eq!(codes.len(), 8);
        for w in codes.windows(2) {
            assert!(w[0] < w[1], "codes out of order: {w:?}");
        }
    }

    #[test]
    fn single_tenant_auto_sizes_and_admits() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["abc", "a[bc]{2,4}d", "hello|world"], &config);
        let analysis = admit(&[view(&a)], &config.arch, &AdmitOptions::default());
        assert!(analysis.report.is_legal(), "{}", analysis.report);
        assert!(analysis.admitted());
        assert_eq!(analysis.banks, 1);
        assert_eq!(analysis.tenants.len(), 1);
        assert_eq!(analysis.tenants[0].arrays, a.mapping.arrays.len());
        let composed = analysis.composed.expect("certified");
        assert_eq!(composed.mapping.arrays.len(), a.mapping.arrays.len());
        assert_eq!(composed.images.len(), a.images.len());
    }

    #[test]
    fn composed_runs_match_solo_runs() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["needle", "b{3,9}c"], &config);
        let b = owned("bravo", &["haystack", "ne+dle"], &config);
        let analysis = admit(
            &[view(&a), view(&b)],
            &config.arch,
            &AdmitOptions::default(),
        );
        let composed = analysis.composed.expect("certified");

        let input = b"a needle in the haystack needle neeeedle bbbbc".to_vec();
        let run = rap_sim::simulate(&composed.images, &composed.mapping, &input, Machine::Rap);
        for (c, o) in [&a, &b].into_iter().enumerate() {
            let solo = rap_sim::simulate(&o.images, &o.mapping, &input, Machine::Rap);
            assert_eq!(
                composed.tenant_matches(c, &run.matches),
                solo.matches,
                "tenant {}",
                o.name
            );
        }
    }

    #[test]
    fn admission_is_order_insensitive() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["abc", "xy+z"], &config);
        let b = owned("bravo", &["foo", "ba[rz]"], &config);
        let fwd = admit(
            &[view(&a), view(&b)],
            &config.arch,
            &AdmitOptions::default(),
        );
        let rev = admit(
            &[view(&b), view(&a)],
            &config.arch,
            &AdmitOptions::default(),
        );
        assert_eq!(fwd.tenants, rev.tenants);
        assert_eq!(fwd.admitted(), rev.admitted());
        let (f, r) = (fwd.composed.expect("fwd"), rev.composed.expect("rev"));
        assert_eq!(f.mapping, r.mapping);
        assert_eq!(f.images.len(), r.images.len());
    }

    #[test]
    fn over_capacity_fixed_fabric_is_rejected() {
        let config = MapperConfig::default();
        let tenants: Vec<Owned> = (0..5)
            .map(|i| owned(&format!("t{i}"), &["abc", "a[bc]{2,4}d"], &config))
            .collect();
        let views: Vec<Tenant<'_>> = tenants.iter().map(view).collect();
        let options = AdmitOptions {
            banks: Some(1),
            ..AdmitOptions::default()
        };
        let analysis = admit(&views, &config.arch, &options);
        assert!(!analysis.admitted());
        assert!(!analysis.report.by_rule(Rule::PlacementOverlap).is_empty());
    }

    #[test]
    fn explicit_slot_conflicts_are_rejected() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["abc"], &config);
        let b = owned("bravo", &["def"], &config);
        let mut va = view(&a);
        let mut vb = view(&b);
        va.slot = Some(0);
        vb.slot = Some(0);
        let analysis = admit(&[va, vb], &config.arch, &AdmitOptions::default());
        assert!(!analysis.admitted());
        assert!(!analysis.report.by_rule(Rule::PlacementOverlap).is_empty());
    }

    #[test]
    fn match_id_collisions_are_rejected() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["abc", "def"], &config);
        let b = owned("bravo", &["ghi"], &config);
        let mut vb = view(&b);
        vb.match_base = Some(1); // collides with alpha's auto range [0, 2)
        let analysis = admit(&[view(&a), vb], &config.arch, &AdmitOptions::default());
        assert!(!analysis.admitted());
        assert!(!analysis.report.by_rule(Rule::MatchIdCollision).is_empty());

        let dup = admit(
            &[view(&a), view(&a)],
            &config.arch,
            &AdmitOptions::default(),
        );
        assert!(!dup.admitted());
        assert!(!dup.report.by_rule(Rule::MatchIdCollision).is_empty());
    }

    #[test]
    fn bv_budget_exhaustion_is_rejected() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["a[bc]{2,24}d"], &config);
        let columns: u64 = a.images.iter().map(Compiled::bv_columns).sum();
        assert!(columns > 0, "workload allocates BV columns");
        let options = AdmitOptions {
            bv_column_budget: Some(0),
            ..AdmitOptions::default()
        };
        let analysis = admit(&[view(&a)], &config.arch, &options);
        assert!(!analysis.admitted());
        assert!(!analysis.report.by_rule(Rule::BvColumnsExhausted).is_empty());
        assert_eq!(analysis.bv_budget, 0);
        assert_eq!(analysis.bv_columns, columns);
    }

    #[test]
    fn bank_oversubscription_severity_tracks_capacity() {
        // A bank buffer of 1 record and no lane FIFOs: two reporting
        // tenants over-subscribe the bank outright (S002).
        let tight = MapperConfig {
            arch: ArchConfig {
                bank_output_entries: 1,
                array_output_entries: 0,
                ..ArchConfig::default()
            },
            ..MapperConfig::default()
        };
        let a = owned("alpha", &["abc"], &tight);
        let b = owned("bravo", &["def"], &tight);
        let analysis = admit(&[view(&a), view(&b)], &tight.arch, &AdmitOptions::default());
        assert!(!analysis.admitted());
        assert!(!analysis.report.by_rule(Rule::BankOversubscribed).is_empty());

        // With 2-record lane FIFOs the burst fits the total capacity but
        // still overruns the 1-record bank buffer: S005 warning only.
        let loose = MapperConfig {
            arch: ArchConfig {
                array_output_entries: 2,
                ..tight.arch
            },
            ..tight
        };
        let a = owned("alpha", &["abc"], &loose);
        let b = owned("bravo", &["def"], &loose);
        let analysis = admit(&[view(&a), view(&b)], &loose.arch, &AdmitOptions::default());
        assert!(analysis.admitted(), "{}", analysis.report);
        assert!(!analysis.report.by_rule(Rule::OutputOvercommit).is_empty());
        assert!(analysis.report.by_rule(Rule::BankOversubscribed).is_empty());
    }

    #[test]
    fn single_tenant_banks_are_exempt_from_interference_rules() {
        // The same tight fabric that rejects two co-resident tenants
        // (see bank_oversubscription_severity_tracks_capacity) must
        // admit either tenant alone: a bank nobody shares reproduces the
        // tenant's own verified solo behaviour, and admission findings
        // are about interference, not re-litigating solo legality.
        let tight = MapperConfig {
            arch: ArchConfig {
                bank_output_entries: 1,
                array_output_entries: 0,
                ..ArchConfig::default()
            },
            ..MapperConfig::default()
        };
        let a = owned("alpha", &["abc", "needle"], &tight);
        let analysis = admit(&[view(&a)], &tight.arch, &AdmitOptions::default());
        assert!(analysis.report.is_legal(), "{}", analysis.report);
        assert!(analysis.admitted());
        // The loads are still reported, just not flagged.
        assert!(analysis.bank_loads.iter().any(|b| b.burst_records > 0));
    }

    #[test]
    fn exact_fit_fabric_warns_on_reconfiguration() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["abc", "a[bc]{2,4}d"], &config);
        let arrays = a.mapping.arrays.len() as u32;
        let banks = arrays.div_ceil(config.arch.arrays_per_bank).max(1);
        let exact = AdmitOptions {
            banks: Some(banks),
            ..AdmitOptions::default()
        };
        let analysis = admit(&[view(&a)], &config.arch, &exact);
        // Auto-sizing picks the same bank count, so free slots may still
        // exist; only assert consistency between the flag and findings.
        let warned = !analysis.report.by_rule(Rule::ReconfigInfeasible).is_empty();
        assert_eq!(analysis.tenants[0].hot_swappable, !warned);

        let roomy = AdmitOptions {
            banks: Some(banks + 1),
            ..AdmitOptions::default()
        };
        let analysis = admit(&[view(&a)], &config.arch, &roomy);
        assert!(analysis.tenants[0].hot_swappable);
        assert!(analysis.report.by_rule(Rule::ReconfigInfeasible).is_empty());
    }

    #[test]
    fn overlap_probe_is_opt_in_and_finds_witnesses() {
        let config = MapperConfig::default();
        let a = owned("alpha", &["abc"], &config);
        let b = owned("bravo", &["bc"], &config);

        let quiet = admit(
            &[view(&a), view(&b)],
            &config.arch,
            &AdmitOptions::default(),
        );
        assert!(quiet.report.by_rule(Rule::PrefixOverlap).is_empty());
        assert_eq!(quiet.overlap_explored, 0);

        let probing = AdmitOptions {
            overlap: Some(SoundnessConfig::default()),
            ..AdmitOptions::default()
        };
        let analysis = admit(&[view(&a), view(&b)], &config.arch, &probing);
        assert!(!analysis.report.by_rule(Rule::PrefixOverlap).is_empty());
        assert!(analysis.overlap_explored > 0);
        // A warning, not an error: the composition still admits.
        assert!(analysis.admitted());
    }
}
