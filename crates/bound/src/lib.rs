//! `rap-bound` — static worst-case capacity/cost analyzer over mapped
//! plans.
//!
//! The cycle simulator reports what a plan *did* on one input; this crate
//! reports what any input could ever make it do. It abstractly interprets
//! a [`Mapping`] together with the compiled images placed in it and emits
//! certified worst-case bounds as `B001…` diagnostics through the shared
//! `rap-diag` schema:
//!
//! - **B001** per-array peak active-state bounds, from the `rap-analyze`
//!   dataflow fixpoint (a state the fixpoint proves never activatable can
//!   never be observed active by the simulator);
//! - **B002** per-array output pressure: more simultaneously reporting
//!   units than the array output FIFO holds;
//! - **B003** bank-buffer occupancy bounds against the `rap-sim::bank`
//!   FIFO capacities (input bytes, output records, lane skew);
//! - **B004/B005** counter value intervals from a widening fixpoint over
//!   the NBVA counter lattice ([`interval`]), subsuming the A006/A007
//!   overflow checks with tighter, allocation-aware ranges;
//! - **B006** switch fan-in congestion per tile against the global-port
//!   budget;
//! - **B007** replication pressure: unbounded match spans make shard
//!   replication impossible;
//! - **B008** (opt-in) rewrite verdicts from the exact product-construction
//!   equivalence check in `rap-analyze`.
//!
//! Every bound is *sound by construction* — the companion telemetry tests
//! use the simulator as an oracle and assert observed peaks never exceed
//! the static bounds on any benchmark suite.

pub mod interval;
mod span;

pub use interval::{counter_interval, Interval};
pub use span::max_match_span;

use rap_analyze::{check_soundness, state_activity, SoundnessConfig, UnitActivity};
use rap_arch::config::ArchConfig;
use rap_automata::nbva::{ReadAction, StateKind};
use rap_compiler::{Compiled, Mode};
use rap_diag::{Location, RuleCode, Severity};
use rap_mapper::{ArrayKind, ArrayPlan, Bin, Mapping, Placement};
use rap_regex::Pattern;
use std::collections::HashMap;

/// The bound-analysis report type.
pub type Report = rap_diag::Report<Rule>;

/// Occupied fraction of the per-tile global-port budget above which B006
/// flags a tile as congested.
const CONGESTION_NUM: u32 = 3;
const CONGESTION_DEN: u32 = 4;

/// The static bound rules (`B` series; `V` = verifier, `A` = analyzer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// B001: certified worst-case simultaneously-active states per array.
    ActiveBound,
    /// B002: an array can report more match records in one cycle than its
    /// output FIFO holds.
    OutputPressure,
    /// B003: worst-case bank-buffer occupancy (input bytes, output
    /// records, lane skew) against the configured FIFO capacities.
    BankOccupancy,
    /// B004: a counter's value interval is clamped below its width by the
    /// bit-vector allocation.
    CounterInterval,
    /// B005: a counter read lies outside the reachable value interval and
    /// can never observe a set bit.
    CounterDeadRead,
    /// B006: a tile's global-switch fan-in nears the port budget.
    FaninCongestion,
    /// B007: an unbounded match span forces whole-stream processing; the
    /// plan cannot be shard-replicated.
    ReplicationUnbounded,
    /// B008: the exact equivalence check found an input on which a
    /// compiled image diverges from its reference automaton.
    RewriteUnsound,
}

impl Rule {
    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            Rule::ActiveBound => "B001-active-bound",
            Rule::OutputPressure => "B002-output-pressure",
            Rule::BankOccupancy => "B003-bank-occupancy",
            Rule::CounterInterval => "B004-counter-interval",
            Rule::CounterDeadRead => "B005-counter-dead-read",
            Rule::FaninCongestion => "B006-fanin-congestion",
            Rule::ReplicationUnbounded => "B007-replication-unbounded",
            Rule::RewriteUnsound => "B008-rewrite-unsound",
        }
    }

    /// The fixed severity of this rule's findings.
    pub fn severity(self) -> Severity {
        match self {
            Rule::ActiveBound | Rule::BankOccupancy | Rule::CounterInterval => Severity::Info,
            Rule::OutputPressure | Rule::FaninCongestion | Rule::ReplicationUnbounded => {
                Severity::Warning
            }
            Rule::CounterDeadRead | Rule::RewriteUnsound => Severity::Error,
        }
    }

    /// Every rule, in code order.
    pub fn all() -> [Rule; 8] {
        [
            Rule::ActiveBound,
            Rule::OutputPressure,
            Rule::BankOccupancy,
            Rule::CounterInterval,
            Rule::CounterDeadRead,
            Rule::FaninCongestion,
            Rule::ReplicationUnbounded,
            Rule::RewriteUnsound,
        ]
    }
}

impl RuleCode for Rule {
    fn code(&self) -> &'static str {
        Rule::code(*self)
    }
}

/// What the analyzer should compute beyond the always-on bounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoundOptions {
    /// Run the exact product-construction equivalence check on every image
    /// and emit B008 on divergence. `None` skips the (potentially
    /// expensive) check.
    pub equivalence: Option<SoundnessConfig>,
}

impl BoundOptions {
    /// Bounds only, no equivalence checking.
    pub fn bounds_only() -> BoundOptions {
        BoundOptions { equivalence: None }
    }

    /// Adds the exact equivalence check (builder style).
    #[must_use]
    pub fn with_equivalence(mut self, cfg: SoundnessConfig) -> BoundOptions {
        self.equivalence = Some(cfg);
        self
    }
}

/// Certified worst-case bounds for one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArrayBound {
    /// Array index in `Mapping::arrays`.
    pub array: usize,
    /// The array's mode.
    pub mode: Mode,
    /// Hardware states placed in the array.
    pub placed_states: u64,
    /// Worst-case simultaneously-active states: the simulator's observed
    /// per-cycle active count can never exceed this.
    pub peak_active_states: u64,
    /// Placed units (placements / chains) able to report a match — the
    /// worst-case match records generated in one cycle.
    pub reporters: u64,
    /// Largest per-tile global-switch fan-in.
    pub peak_fanin: u32,
}

/// Worst-case bank-buffer occupancy, matching the fields the bank
/// simulator's `ProbeEvent::Bank` samples report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BankBound {
    /// Array lanes fed by the bank.
    pub lanes: u64,
    /// Worst-case bytes resident across all array input FIFOs.
    pub input_fifo_bytes: u64,
    /// Worst-case match records resident across array output FIFOs plus
    /// the bank output FIFO.
    pub output_fifo_records: u64,
    /// Worst-case consumed-byte skew between the fastest and slowest lane
    /// (bounded by the ping-pong page window).
    pub max_skew: u64,
}

impl BankBound {
    /// The occupancy bound of `lanes` array lanes sharing one bank of
    /// `arch`'s buffer geometry: every FIFO full at once.
    pub fn new(lanes: u64, arch: &ArchConfig) -> BankBound {
        BankBound {
            lanes,
            input_fifo_bytes: lanes * u64::from(arch.array_input_entries),
            output_fifo_records: lanes * u64::from(arch.array_output_entries)
                + u64::from(arch.bank_output_entries),
            max_skew: 2 * u64::from(arch.bank_input_entries),
        }
    }
}

/// The abstract value of one reachable NBVA counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterBound {
    /// Pattern index the counter belongs to.
    pub pattern: usize,
    /// NBVA state id of the bit-vector state.
    pub state: u32,
    /// Declared repetition width.
    pub width: u32,
    /// Interval of positions a bit can occupy.
    pub interval: Interval,
    /// Whether the state's read action can ever observe a set bit.
    pub read_feasible: bool,
}

/// Shard-replication pressure of the whole workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationBound {
    /// Longest possible match span in bytes; `None` means unbounded
    /// (whole-stream processing is forced).
    pub max_match_span: Option<usize>,
}

/// Everything the bound analyzer produces.
#[derive(Clone, Debug)]
pub struct BoundAnalysis {
    /// The B-rule findings.
    pub report: Report,
    /// Per-array bounds, index-aligned with `Mapping::arrays`.
    pub arrays: Vec<ArrayBound>,
    /// Bank-level occupancy bounds.
    pub bank: BankBound,
    /// One entry per reachable bit-vector counter.
    pub counters: Vec<CounterBound>,
    /// Workload replication pressure.
    pub replication: ReplicationBound,
}

impl BoundAnalysis {
    /// Worst-case simultaneously-active states across the whole bank.
    pub fn total_peak_active(&self) -> u64 {
        self.arrays.iter().map(|a| a.peak_active_states).sum()
    }
}

/// Per-image activity facts, computed once and shared across arrays.
struct ActivityCache<'a> {
    images: &'a [Compiled],
    cache: HashMap<usize, Vec<UnitActivity>>,
}

impl<'a> ActivityCache<'a> {
    fn new(images: &'a [Compiled]) -> ActivityCache<'a> {
        ActivityCache {
            images,
            cache: HashMap::new(),
        }
    }

    fn of(&mut self, pattern: usize) -> &[UnitActivity] {
        self.cache
            .entry(pattern)
            .or_insert_with(|| state_activity(&self.images[pattern]))
    }
}

/// Analyzes a mapped plan and returns certified worst-case bounds.
///
/// `images` and `patterns` are the compiled workload the mapping was built
/// from, index-aligned with the `pattern` fields inside the mapping.
/// `patterns` is consulted only by the opt-in B008 equivalence check and
/// may be empty when [`BoundOptions::equivalence`] is `None`.
///
/// # Panics
///
/// Panics when the mapping references a pattern index outside `images`, or
/// when an array's kind disagrees with the placed image's mode — both
/// indicate a plan that was not produced by the mapper for this workload.
pub fn analyze_bounds(
    images: &[Compiled],
    patterns: &[Pattern],
    mapping: &Mapping,
    options: &BoundOptions,
) -> BoundAnalysis {
    let mut report = Report::default();
    let mut activity = ActivityCache::new(images);
    let arch = &mapping.config.arch;

    let arrays = array_bounds_with(mapping, &mut activity);
    for (plan, bound) in mapping.arrays.iter().zip(&arrays) {
        let index = bound.array;
        let ports = arch.global_ports_per_tile;
        if ports > 0 && bound.peak_fanin * CONGESTION_DEN >= ports * CONGESTION_NUM {
            let tile = peak_fanin_tile(plan, images);
            report.push(
                Rule::FaninCongestion,
                Rule::FaninCongestion.severity(),
                Location::array(index).tile(tile),
                format!(
                    "global-switch fan-in {} uses \u{2265}{}% of the {ports} \
                     ports per tile",
                    bound.peak_fanin,
                    100 * CONGESTION_NUM / CONGESTION_DEN
                ),
            );
        }
        if bound.reporters > u64::from(arch.array_output_entries) {
            report.push(
                Rule::OutputPressure,
                Rule::OutputPressure.severity(),
                Location::array(index),
                format!(
                    "{} units can report in one cycle but the array output \
                     FIFO holds {} records: worst-case input backpressures \
                     the lane",
                    bound.reporters, arch.array_output_entries
                ),
            );
        }
        report.push(
            Rule::ActiveBound,
            Rule::ActiveBound.severity(),
            Location::array(index),
            format!(
                "\u{2264} {} of {} placed states simultaneously active",
                bound.peak_active_states, bound.placed_states
            ),
        );
    }

    let bank = BankBound::new(mapping.arrays.len() as u64, arch);
    report.push(
        Rule::BankOccupancy,
        Rule::BankOccupancy.severity(),
        Location::default(),
        format!(
            "{} lane(s): \u{2264} {} input FIFO byte(s), \u{2264} {} output \
             record(s), \u{2264} {} byte(s) lane skew",
            bank.lanes, bank.input_fifo_bytes, bank.output_fifo_records, bank.max_skew
        ),
    );

    let counters = counter_bounds(images, &mut activity, &mut report);

    let replication = ReplicationBound {
        max_match_span: max_match_span(images),
    };
    if replication.max_match_span.is_none() {
        report.push(
            Rule::ReplicationUnbounded,
            Rule::ReplicationUnbounded.severity(),
            Location::default(),
            "a placed pattern has an unbounded match span: shard \
             replication is impossible and the plan is pinned to \
             whole-stream processing"
                .to_string(),
        );
    }

    if let Some(cfg) = &options.equivalence {
        for (i, (image, pattern)) in images.iter().zip(patterns).enumerate() {
            if let Some(description) = check_soundness(image, pattern, cfg) {
                report.push(
                    Rule::RewriteUnsound,
                    Rule::RewriteUnsound.severity(),
                    Location::of_pattern(i),
                    format!("image diverges from the reference automaton: {description}"),
                );
            }
        }
    }

    BoundAnalysis {
        report,
        arrays,
        bank,
        counters,
        replication,
    }
}

/// The per-array part of [`analyze_bounds`]: each array's activity,
/// reporter and peak fan-in bounds, index-aligned with `Mapping::arrays`.
/// It depends only on the plan, so a caller can derive it once and sum it
/// against shared capacities many times (admission does).
///
/// # Panics
///
/// As [`analyze_bounds`].
pub fn array_bounds(images: &[Compiled], mapping: &Mapping) -> Vec<ArrayBound> {
    array_bounds_with(mapping, &mut ActivityCache::new(images))
}

fn array_bounds_with(mapping: &Mapping, activity: &mut ActivityCache<'_>) -> Vec<ArrayBound> {
    mapping
        .arrays
        .iter()
        .enumerate()
        .map(|(index, plan)| array_bound(index, plan, activity))
        .collect()
}

/// Computes one array's activity/fan-in bounds.
fn array_bound(index: usize, plan: &ArrayPlan, activity: &mut ActivityCache<'_>) -> ArrayBound {
    let mut peak_active = 0u64;
    let mut placed = 0u64;
    let mut reporters = 0u64;
    match &plan.kind {
        ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => {
            for p in placements {
                let units = activity.of(p.pattern);
                let unit = &units[0];
                peak_active += unit.activatable_count();
                placed += unit.activatable.len() as u64;
                reporters += u64::from(unit.accepting_count() > 0);
            }
        }
        ArrayKind::Lnfa { bins } => {
            for bin in bins {
                for m in &bin.members {
                    let units = activity.of(m.pattern);
                    let unit = &units[m.unit];
                    peak_active += unit.activatable_count();
                    placed += unit.activatable.len() as u64;
                    reporters += u64::from(unit.accepting_count() > 0);
                }
            }
        }
    }
    ArrayBound {
        array: index,
        mode: plan.mode(),
        placed_states: placed,
        peak_active_states: peak_active,
        reporters,
        peak_fanin: fanin_per_tile(plan, activity.images)
            .into_iter()
            .max()
            .unwrap_or(0),
    }
}

/// Per-tile global-switch fan-in: cross-tile automaton edges landing on
/// each tile of the array.
fn fanin_per_tile(plan: &ArrayPlan, images: &[Compiled]) -> Vec<u32> {
    let mut fanin = vec![0u32; plan.tiles_used as usize];
    let mut bump = |tile: u32| {
        if let Some(slot) = fanin.get_mut(tile as usize) {
            *slot += 1;
        }
    };
    match &plan.kind {
        ArrayKind::Nfa { placements } => {
            for p in placements {
                let Compiled::Nfa(c) = &images[p.pattern] else {
                    panic!("NFA array places pattern {} of another mode", p.pattern);
                };
                cross_tile_edges(
                    p,
                    c.nfa.states().iter().map(|s| s.succ.as_slice()),
                    &mut bump,
                );
            }
        }
        ArrayKind::Nbva { placements, .. } => {
            for p in placements {
                let Compiled::Nbva(c) = &images[p.pattern] else {
                    panic!("NBVA array places pattern {} of another mode", p.pattern);
                };
                cross_tile_edges(
                    p,
                    c.nbva.states().iter().map(|s| s.succ.as_slice()),
                    &mut bump,
                );
            }
        }
        ArrayKind::Lnfa { bins } => {
            for bin in bins {
                lnfa_cross_tile_edges(bin, &mut bump);
            }
        }
    }
    fanin
}

/// Feeds every cross-tile edge's destination tile of one placement.
fn cross_tile_edges<'s>(
    placement: &Placement,
    succ: impl Iterator<Item = &'s [u32]>,
    bump: &mut impl FnMut(u32),
) {
    for (q, outs) in succ.enumerate() {
        for &s in outs {
            let from = placement.state_tile[q];
            let to = placement.state_tile[s as usize];
            if from != to {
                bump(to);
            }
        }
    }
}

/// Chains are linear: the only cross-tile edges are consecutive positions
/// straddling a region/tile boundary.
fn lnfa_cross_tile_edges(bin: &Bin, bump: &mut impl FnMut(u32)) {
    for m in &bin.members {
        for state in 1..m.len {
            let from = bin.tile_of_state(m, state - 1);
            let to = bin.tile_of_state(m, state);
            if from != to {
                bump(bin.first_tile + to);
            }
        }
    }
}

/// The tile with the largest fan-in (for the B006 location).
fn peak_fanin_tile(plan: &ArrayPlan, images: &[Compiled]) -> u32 {
    let fanin = fanin_per_tile(plan, images);
    fanin
        .iter()
        .enumerate()
        .max_by_key(|(_, &f)| f)
        .map_or(0, |(t, _)| t as u32)
}

/// Interval analysis over every reachable bit-vector counter.
fn counter_bounds(
    images: &[Compiled],
    activity: &mut ActivityCache<'_>,
    report: &mut Report,
) -> Vec<CounterBound> {
    let mut out = Vec::new();
    for (pattern, image) in images.iter().enumerate() {
        let Compiled::Nbva(c) = image else {
            continue;
        };
        let activatable = activity.of(pattern)[0].activatable.clone();
        for (q, (state, alloc)) in c.nbva.states().iter().zip(&c.bv_allocs).enumerate() {
            let StateKind::Bv { width, read } = state.kind else {
                continue;
            };
            // An unactivatable counter never holds a bit; A001 already
            // covers it, so the interval analysis skips it.
            if !activatable.get(q).copied().unwrap_or(false) {
                continue;
            }
            let capacity = alloc.map_or(u64::from(width), |a| {
                u64::from(a.columns) * u64::from(a.depth)
            });
            let value = counter_interval(width, capacity);
            let feasible = match read {
                ReadAction::Exact(m) => value.contains(m),
                ReadAction::All => !value.is_empty(),
            };
            let loc = Location::of_pattern(pattern).state(q as u32);
            if !feasible {
                let m = match read {
                    ReadAction::Exact(m) => m,
                    ReadAction::All => 0,
                };
                report.push(
                    Rule::CounterDeadRead,
                    Rule::CounterDeadRead.severity(),
                    loc,
                    format!(
                        "read r({m}) of a {width}-bit counter lies outside \
                         the reachable interval {value}: it can never \
                         observe a set bit"
                    ),
                );
            } else if value.hi < width {
                report.push(
                    Rule::CounterInterval,
                    Rule::CounterInterval.severity(),
                    loc,
                    format!(
                        "the {capacity}-bit allocation clamps this \
                         {width}-bit counter to {value}"
                    ),
                );
            }
            out.push(CounterBound {
                pattern,
                state: q as u32,
                width,
                interval: value,
                read_feasible: feasible,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig};
    use rap_mapper::{map_workload, MapperConfig};
    use rap_regex::parse_pattern;

    fn plan(sources: &[&str]) -> (Vec<Compiled>, Vec<Pattern>, Mapping) {
        let compiler = Compiler::new(CompilerConfig::default());
        let patterns: Vec<Pattern> = sources
            .iter()
            .map(|s| parse_pattern(s).expect("parses"))
            .collect();
        let images: Vec<Compiled> = patterns
            .iter()
            .map(|p| compiler.compile_anchored(p).expect("compiles"))
            .collect();
        let mapping = map_workload(&images, &MapperConfig::default());
        (images, patterns, mapping)
    }

    #[test]
    fn rule_codes_are_stable() {
        let codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
        assert_eq!(codes[0], "B001-active-bound");
        assert_eq!(codes.len(), 8);
        for w in codes.windows(2) {
            assert!(w[0] < w[1], "codes out of order: {w:?}");
        }
    }

    #[test]
    fn active_bounds_cover_every_array() {
        let (images, patterns, mapping) = plan(&["abc", "a[bc]{2,4}d", "x.{3}y", "hello|world"]);
        let b = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
        assert_eq!(b.arrays.len(), mapping.arrays.len());
        for a in &b.arrays {
            assert!(a.peak_active_states <= a.placed_states, "{a:?}");
            assert!(a.peak_active_states > 0, "{a:?}");
        }
        assert!(b.report.is_legal());
        assert!(!b.report.by_rule(Rule::ActiveBound).is_empty());
        assert!(!b.report.by_rule(Rule::BankOccupancy).is_empty());
    }

    #[test]
    fn bank_bounds_follow_the_arch_capacities() {
        let (images, patterns, mapping) = plan(&["abc", "def"]);
        let arch = &mapping.config.arch;
        let b = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
        assert_eq!(b.bank.lanes, mapping.arrays.len() as u64);
        assert_eq!(
            b.bank.input_fifo_bytes,
            b.bank.lanes * u64::from(arch.array_input_entries)
        );
        assert_eq!(b.bank.max_skew, 2 * u64::from(arch.bank_input_entries));
    }

    #[test]
    fn counters_get_intervals() {
        let (images, patterns, mapping) = plan(&["a[bc]{2,24}d"]);
        let b = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
        assert!(!b.counters.is_empty());
        for c in &b.counters {
            assert!(c.read_feasible, "{c:?}");
            assert_eq!(c.interval.lo, 1, "{c:?}");
            assert!(c.interval.hi <= c.width, "{c:?}");
        }
        assert!(b.report.by_rule(Rule::CounterDeadRead).is_empty());
    }

    #[test]
    fn unbounded_spans_are_flagged() {
        let (images, patterns, mapping) = plan(&["ab*c"]);
        let b = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
        assert_eq!(b.replication.max_match_span, None);
        assert!(!b.report.by_rule(Rule::ReplicationUnbounded).is_empty());

        let (images, patterns, mapping) = plan(&["abc"]);
        let b = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
        assert!(b.replication.max_match_span.is_some());
    }

    #[test]
    fn equivalence_verdicts_are_opt_in() {
        let (images, patterns, mapping) = plan(&["abc", "a[bc]{2,4}d"]);
        let options = BoundOptions::bounds_only().with_equivalence(SoundnessConfig::default());
        let b = analyze_bounds(&images, &patterns, &mapping, &options);
        assert!(b.report.by_rule(Rule::RewriteUnsound).is_empty());
        assert!(b.report.is_legal());
    }
}
