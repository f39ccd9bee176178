//! The verifier's rule codes, plus re-exports of the shared diagnostic
//! machinery from `rap-diag` — both lint families (`rap lint`,
//! `rap analyze`) emit one report shape and one JSON schema.

use std::fmt;

pub use rap_diag::{Location, RuleCode, Severity};

/// One mapping-legality finding.
pub type Diagnostic = rap_diag::Diagnostic<Rule>;
/// The verifier's output: every finding, in check order.
pub type Report = rap_diag::Report<Rule>;

/// The legality rules the verifier checks. Each rule has a stable code
/// (`V001`…) used in reports, test assertions, and the CLI's JSON output —
/// codes are append-only and never renumbered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `V001-bv-depth`: every NBVA array's BV depth must be valid for the
    /// CAM (1..=cam_rows), match the depth of every image placed in it,
    /// and (warning) come from the paper's swept set {4, 8, 16, 32}.
    BvDepth,
    /// `V002-bv-width`: a bit vector must fit the tile: width ≤
    /// `max_bv_bits()`, columns = ⌈width/depth⌉, and the state's block
    /// (CC codes + initial-vector column + BV columns) ≤ `tile_columns` —
    /// BVs never span tiles (§3.1).
    BvWidth,
    /// `V003-read-action-mix`: a tile may not host both `r` (exact) and
    /// `rAll` bit-vector read actions (§4.1, Example 4.3).
    ReadActionMix,
    /// `V004-placement-range`: placement indices must be in range —
    /// pattern < workload size, unit < chain count, state↦tile vector
    /// length = automaton size, tile < allocated tiles.
    PlacementRange,
    /// `V005-column-overcommit`: per-tile column occupancy must not exceed
    /// `tile_columns`, and the plan's `columns_used` bookkeeping must match
    /// the recomputed totals.
    ColumnOvercommit,
    /// `V006-global-ports`: `cross_tile_edges` must equal the recomputed
    /// count, and (warning) per-tile global-switch port demand should stay
    /// within `global_ports_per_tile`.
    GlobalPorts,
    /// `V007-bin-shape`: an LNFA bin must respect `max_bin_size`, region
    /// geometry (`region_columns = tile_columns / size`), ring width
    /// (2 bits per member lane), its computed tile span, and the array
    /// boundary; same-resource bins may not overlap tiles.
    BinShape,
    /// `V008-pattern-coverage`: every compiled pattern must be placed
    /// exactly once, in an array of its own mode (every LNFA unit exactly
    /// once).
    PatternCoverage,
    /// `V009-cc-encoding`: a CAM-path chain requires every character class
    /// to have a single CC code; member geometry (columns per state, chain
    /// length) must match the compiled unit. One-hot fallback is always
    /// legal.
    CcEncoding,
    /// `V010-array-overflow`: `tiles_used` ≤ `tiles_per_array`.
    ArrayOverflow,
    /// `V011-config-mismatch`: (error) the mapping's buffer geometry has
    /// a zero-entry bank window or FIFO, which the bank cannot build, or
    /// its tile geometry exceeds the simulator's 128 columns per tile or
    /// 64 tiles per array; (warning) the mapping was produced for a different `ArchConfig`
    /// than the one being verified against, or its bin-size knob exceeds
    /// `max_bin_size`.
    ConfigMismatch,
    /// `V012-low-utilization`: (info) an array occupies under 2% of its
    /// allocated columns while spanning several tiles.
    LowUtilization,
}

impl Rule {
    /// The stable diagnostic code, e.g. `"V001-bv-depth"`.
    pub fn code(self) -> &'static str {
        match self {
            Rule::BvDepth => "V001-bv-depth",
            Rule::BvWidth => "V002-bv-width",
            Rule::ReadActionMix => "V003-read-action-mix",
            Rule::PlacementRange => "V004-placement-range",
            Rule::ColumnOvercommit => "V005-column-overcommit",
            Rule::GlobalPorts => "V006-global-ports",
            Rule::BinShape => "V007-bin-shape",
            Rule::PatternCoverage => "V008-pattern-coverage",
            Rule::CcEncoding => "V009-cc-encoding",
            Rule::ArrayOverflow => "V010-array-overflow",
            Rule::ConfigMismatch => "V011-config-mismatch",
            Rule::LowUtilization => "V012-low-utilization",
        }
    }

    /// All rules, in code order (drives the documentation table and the
    /// CLI's rule listing).
    pub fn all() -> &'static [Rule] {
        &[
            Rule::BvDepth,
            Rule::BvWidth,
            Rule::ReadActionMix,
            Rule::PlacementRange,
            Rule::ColumnOvercommit,
            Rule::GlobalPorts,
            Rule::BinShape,
            Rule::PatternCoverage,
            Rule::CcEncoding,
            Rule::ArrayOverflow,
            Rule::ConfigMismatch,
            Rule::LowUtilization,
        ]
    }
}

impl RuleCode for Rule {
    fn code(&self) -> &'static str {
        Rule::code(*self)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(Rule::code(*self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<&str> = Rule::all().iter().map(|r| r.code()).collect();
        assert_eq!(codes.len(), 12);
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "duplicate rule codes");
        assert!(codes
            .iter()
            .enumerate()
            .all(|(i, c)| { c.starts_with(&format!("V{:03}-", i + 1)) }));
    }

    #[test]
    fn location_display_forms() {
        assert_eq!(Location::default().to_string(), "mapping");
        assert_eq!(
            Location::array(2).pattern(7).tile(3).to_string(),
            "array 2, pattern 7, tile 3"
        );
        assert_eq!(Location::array(0).bin(4).to_string(), "array 0, bin 4");
    }

    #[test]
    fn report_legality() {
        let mut r = Report::default();
        assert!(r.is_legal() && r.is_empty());
        r.push(
            Rule::BvDepth,
            Severity::Warning,
            Location::default(),
            "w".into(),
        );
        assert!(r.is_legal() && !r.is_empty());
        r.push(
            Rule::BvWidth,
            Severity::Error,
            Location::array(0),
            "e".into(),
        );
        assert!(!r.is_legal());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.by_rule(Rule::BvWidth).len(), 1);
        assert_eq!(r.len(), 2);
    }
}
