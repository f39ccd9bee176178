//! Static legality verifier for compiled RAP automata and mapping plans.
//!
//! The compiler and mapper enforce the hardware invariants of §3–§4 with
//! scattered `assert!`s that abort the process. This crate re-checks every
//! invariant *statically* — walking a [`Compiled`] workload, its
//! [`Mapping`], and the target [`ArchConfig`] — and emits structured
//! [`Diagnostic`]s instead of panicking, so tooling (the `rap lint` CLI
//! subcommand, the bench harness, the simulator's plan gate) can report
//! all violations at once and point at the offending array / tile /
//! pattern.
//!
//! # Rules
//!
//! | Code | Severity | Invariant |
//! |------|----------|-----------|
//! | `V001-bv-depth` | error/warning | NBVA depth valid for the CAM, uniform per array, in the swept set {4, 8, 16, 32} |
//! | `V002-bv-width` | error | BV width ≤ `max_bv_bits()`, columns = ⌈width/depth⌉, BV blocks never span tiles |
//! | `V003-read-action-mix` | error | no tile hosts both `r` and `rAll` read actions (§4.1) |
//! | `V004-placement-range` | error | pattern/unit/tile indices in range, state↦tile vector sized to the automaton |
//! | `V005-column-overcommit` | error | per-tile columns ≤ `tile_columns`; `columns_used` bookkeeping consistent; same-resource bins disjoint |
//! | `V006-global-ports` | error/warning | recorded cross-tile edge counts match the wiring; per-tile port demand within budget |
//! | `V007-bin-shape` | error | bin size ≤ `max_bin_size`, region geometry and ring width respected, span within the array |
//! | `V008-pattern-coverage` | error | every pattern (and every LNFA chain unit) placed exactly once, mode-matched |
//! | `V009-cc-encoding` | error | CAM-path chains single-code only; member geometry matches the compiled unit |
//! | `V010-array-overflow` | error | `tiles_used` ≤ `tiles_per_array` |
//! | `V011-config-mismatch` | error/warning | mapped buffer geometry the bank cannot build (a zero-entry window or FIFO), or tile geometry the kernels cannot run (over 128 columns per tile or 64 tiles per array); mapping produced for a different `ArchConfig` / oversized bin knob |
//! | `V012-low-utilization` | info | multi-tile array under 2% column occupancy |
//!
//! V006 walks each placed state's successor list in place, so it costs
//! time linear in the plan's transitions. It ORs the tiles a state's
//! crossing edges enter into a 64-bit mask (an array has at most
//! [`MAX_TILES_PER_ARRAY`](rap_arch::config::MAX_TILES_PER_ARRAY) = 64
//! tiles), then charges one output port to the state's tile and one input
//! port to each tile in the mask. A port carries one (pattern, source
//! state) signal, so a pattern placed twice in one array, which V008
//! refuses, shares one mask per state across both placements and counts
//! each signal once per tile.
//!
//! # Example
//!
//! ```
//! use rap_compiler::{Compiler, CompilerConfig};
//! use rap_mapper::{map_workload, MapperConfig};
//!
//! let compiler = Compiler::new(CompilerConfig::default());
//! let compiled = vec![compiler.compile_str("ab{20}c")?, compiler.compile_str("xyz")?];
//! let mapping = map_workload(&compiled, &MapperConfig::default());
//! let report = rap_verify::verify(&compiled, &mapping, &MapperConfig::default().arch);
//! assert!(report.is_empty(), "{report}");
//!
//! // Corrupt the plan: point a state at a tile that was never allocated.
//! let mut broken = mapping.clone();
//! if let rap_mapper::ArrayKind::Nfa { placements } | rap_mapper::ArrayKind::Nbva { placements, .. } =
//!     &mut broken.arrays[0].kind
//! {
//!     placements[0].state_tile[0] = 99;
//! }
//! let report = rap_verify::verify(&compiled, &broken, &MapperConfig::default().arch);
//! assert!(!report.is_legal());
//! # Ok::<(), rap_compiler::CompileError>(())
//! ```

mod diag;
mod rules;

pub use diag::{Diagnostic, Location, Report, Rule, Severity};

use rap_arch::config::ArchConfig;
use rap_compiler::Compiled;
use rap_mapper::Mapping;

/// Statically verifies a mapping plan against the compiled workload and
/// the architecture, returning every finding.
///
/// An empty report means the plan is provably legal under the checked
/// rules; [`Report::is_legal`] ignores warnings/infos and answers "may the
/// hardware execute this".
pub fn verify(compiled: &[Compiled], mapping: &Mapping, arch: &ArchConfig) -> Report {
    rules::Checker {
        compiled,
        mapping,
        arch,
        report: Report::default(),
    }
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig};
    use rap_mapper::{map_workload, ArrayKind, MapperConfig};

    fn compile(patterns: &[&str]) -> Vec<Compiled> {
        let compiler = Compiler::new(CompilerConfig::default());
        patterns
            .iter()
            .map(|p| compiler.compile_str(p).expect("compiles"))
            .collect()
    }

    fn setup(patterns: &[&str]) -> (Vec<Compiled>, Mapping, ArchConfig) {
        let compiled = compile(patterns);
        let config = MapperConfig::default();
        let mapping = map_workload(&compiled, &config);
        (compiled, mapping, config.arch)
    }

    #[test]
    fn mixed_mode_workload_verifies_clean() {
        // One pattern per mode plus a multi-chain LNFA union.
        let (compiled, mapping, arch) = setup(&["abc", "x{100}y", "a.*b", "p(q|r)s"]);
        let report = verify(&compiled, &mapping, &arch);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn missing_pattern_is_reported() {
        let (compiled, mut mapping, arch) = setup(&["abc", "a.*b"]);
        mapping
            .arrays
            .retain(|a| a.mode() != rap_compiler::Mode::Nfa);
        let report = verify(&compiled, &mapping, &arch);
        assert!(!report.is_legal());
        assert_eq!(report.by_rule(Rule::PatternCoverage).len(), 1);
    }

    #[test]
    fn duplicated_placement_is_reported() {
        let (compiled, mut mapping, arch) = setup(&["a.*b"]);
        let dup = mapping.arrays[0].clone();
        mapping.arrays.push(dup);
        let report = verify(&compiled, &mapping, &arch);
        assert!(report
            .by_rule(Rule::PatternCoverage)
            .iter()
            .any(|d| d.message.contains("2 times")));
    }

    #[test]
    fn arch_mismatch_is_a_warning_not_an_error() {
        let (compiled, mapping, mut arch) = setup(&["abc"]);
        arch.tile_wire_mm = 9.9;
        let report = verify(&compiled, &mapping, &arch);
        assert!(report.is_legal());
        assert_eq!(report.by_rule(Rule::ConfigMismatch).len(), 1);
    }

    #[test]
    fn depth_mismatch_between_image_and_array() {
        let (compiled, mut mapping, arch) = setup(&["x{100}y"]);
        for a in &mut mapping.arrays {
            if let ArrayKind::Nbva { depth, .. } = &mut a.kind {
                *depth = 16; // images were compiled at the default depth 8
            }
        }
        let report = verify(&compiled, &mapping, &arch);
        assert!(!report.is_legal());
        assert!(!report.by_rule(Rule::BvDepth).is_empty());
    }

    #[test]
    fn unswept_depth_is_only_a_warning() {
        let compiler = Compiler::new(CompilerConfig {
            bv_depth: 10,
            ..CompilerConfig::default()
        });
        let compiled = vec![compiler.compile_str("x{100}y").expect("compiles")];
        let config = MapperConfig::default();
        let mapping = map_workload(&compiled, &config);
        let report = verify(&compiled, &mapping, &config.arch);
        assert!(report.is_legal(), "{report}");
        assert_eq!(report.by_rule(Rule::BvDepth).len(), 1);
        assert_eq!(report.by_rule(Rule::BvDepth)[0].severity, Severity::Warning);
    }

    #[test]
    fn report_display_lists_findings() {
        let (compiled, mut mapping, arch) = setup(&["abc"]);
        mapping.arrays.clear();
        let report = verify(&compiled, &mapping, &arch);
        let shown = report.to_string();
        assert!(shown.contains("V008-pattern-coverage"), "{shown}");
    }
}
