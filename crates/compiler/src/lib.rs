//! The regex-to-hardware compiler of §4.
//!
//! Each regex is compiled into one of RAP's three modes, chosen by the
//! decision graph of Fig. 9 ([`decide`]):
//!
//! 1. patterns whose bounded repetitions survive the unfolding threshold go
//!    to **NBVA** mode (bit vectors track the repetition counts),
//! 2. patterns rewritable into a union of character-class chains within a
//!    2× state budget go to **LNFA** mode (Shift-And execution),
//! 3. everything else goes to basic **NFA** mode.
//!
//! The compilation result carries all resource sizing (CAM columns, BV
//! widths/depths, tile spans) the mapper needs.
//!
//! # Example
//!
//! ```
//! use rap_compiler::{Compiler, CompilerConfig, Mode};
//!
//! let compiler = Compiler::new(CompilerConfig::default());
//! assert_eq!(compiler.compile_str("b(a{7}|c{5})b")?.mode(), Mode::Nbva);
//! assert_eq!(compiler.compile_str("a[bc].d")?.mode(), Mode::Lnfa);
//! assert_eq!(compiler.compile_str("a(b|b.*d)")?.mode(), Mode::Nfa);
//! # Ok::<(), rap_compiler::CompileError>(())
//! ```

mod lnfa;
mod nbva;
mod nfa;

pub use lnfa::{CompiledLnfa, LnfaUnit, MatchPath};
pub use nbva::{BvAlloc, CompiledNbva};
pub use nfa::CompiledNfa;

use rap_arch::config::ArchConfig;
use rap_regex::rewrite::unfold_below_threshold;
use rap_regex::{parse_pattern, ParseError, Pattern, Regex};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The execution mode a regex compiles to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mode {
    /// Basic homogeneous NFA.
    Nfa,
    /// Nondeterministic bit vector automaton.
    Nbva,
    /// Linear NFA executed with Shift-And.
    Lnfa,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Nfa => "NFA",
            Mode::Nbva => "NBVA",
            Mode::Lnfa => "LNFA",
        })
    }
}

/// Compiler parameters (§4 and the design-space exploration of §5.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompilerConfig {
    /// Bounded repetitions with an upper bound at or below this are
    /// unfolded into plain states (Example 4.1 uses 4).
    pub unfold_threshold: u32,
    /// Rows of the CAM each bit vector uses — the BV *depth*, swept over
    /// {4, 8, 16, 32} in Fig. 10(a).
    pub bv_depth: u32,
    /// LNFA rewriting may grow the state count by at most this factor
    /// (Fig. 9 uses 2×).
    pub lnfa_expand_factor: f64,
    /// Hard cap on a single bit vector's width in bits; repetitions above
    /// it are split into a chain. `None` uses the CAM-derived tile limit
    /// (RAP); BVAP-style machines cap at their fixed BVM capacity.
    pub bv_bits_cap: Option<u32>,
    /// Target architecture geometry.
    pub arch: ArchConfig,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            unfold_threshold: 4,
            bv_depth: 8,
            lnfa_expand_factor: 2.0,
            bv_bits_cap: None,
            arch: ArchConfig::default(),
        }
    }
}

/// Error produced by [`Compiler::compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The pattern text failed to parse.
    Parse(ParseError),
    /// The automaton exceeds the capacity of one RAP array (regexes cannot
    /// span arrays, §3.3).
    TooLarge {
        /// States required.
        states: u64,
        /// States available in one array for this mode.
        capacity: u64,
    },
    /// The pattern matches only the empty string (no states to map).
    EmptyLanguageOrEpsilon,
    /// The configured BV depth is invalid for the CAM geometry.
    BadBvDepth(rap_arch::config::BvDepthError),
    /// A bounded repetition cannot be encoded at all: the per-tile
    /// bit-vector capacity for its character class is zero (a `bv_bits_cap`
    /// of 0, or tiles too narrow for CC codes + the initial-vector column),
    /// so no amount of tile splitting fits it. Surfaced as a typed error —
    /// the static analyzer reports it as an `A009-compile-error`
    /// diagnostic — instead of silently producing an empty tile set.
    BvCapacity {
        /// Repetition bound (bit-vector width) that needed encoding.
        width: u32,
        /// Per-tile bit capacity available for the repetition's class.
        capacity: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::TooLarge { states, capacity } => write!(
                f,
                "pattern needs {states} states but one array holds only {capacity}"
            ),
            CompileError::EmptyLanguageOrEpsilon => {
                write!(f, "pattern has no states to map (empty language or ε)")
            }
            CompileError::BadBvDepth(e) => write!(f, "{e}"),
            CompileError::BvCapacity { width, capacity } => write!(
                f,
                "bounded repetition needs a {width}-bit vector but the \
                 per-tile BV capacity for its class is {capacity} bits"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<rap_arch::config::BvDepthError> for CompileError {
    fn from(e: rap_arch::config::BvDepthError) -> Self {
        CompileError::BadBvDepth(e)
    }
}

/// A regex compiled for one of the three modes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Compiled {
    /// Basic NFA image.
    Nfa(CompiledNfa),
    /// NBVA image with bit-vector allocations.
    Nbva(CompiledNbva),
    /// A set of linear chains with their matching paths.
    Lnfa(CompiledLnfa),
}

impl Compiled {
    /// The mode this image runs in.
    pub fn mode(&self) -> Mode {
        match self {
            Compiled::Nfa(_) => Mode::Nfa,
            Compiled::Nbva(_) => Mode::Nbva,
            Compiled::Lnfa(_) => Mode::Lnfa,
        }
    }

    /// Total hardware states (STEs / chain positions) of the image.
    pub fn state_count(&self) -> u64 {
        match self {
            Compiled::Nfa(c) => c.nfa.len() as u64,
            Compiled::Nbva(c) => c.nbva.len() as u64,
            Compiled::Lnfa(c) => c.units.iter().map(|u| u.lnfa.len() as u64).sum(),
        }
    }

    /// CAM columns the image's counter bit vectors occupy (0 outside NBVA
    /// mode): what a fabric-wide counter/BV column budget is charged.
    pub fn bv_columns(&self) -> u64 {
        match self {
            Compiled::Nbva(c) => c
                .bv_allocs
                .iter()
                .flatten()
                .map(|a| u64::from(a.columns))
                .sum(),
            Compiled::Nfa(_) | Compiled::Lnfa(_) => 0,
        }
    }

    /// Whether the image is `$`-anchored (reports only at stream end).
    pub fn anchored_end(&self) -> bool {
        match self {
            Compiled::Nfa(c) => c.nfa.anchored_end(),
            Compiled::Nbva(c) => c.nbva.anchored_end(),
            Compiled::Lnfa(_) => false,
        }
    }

    /// Whether the image is `^`-anchored (threads start only at offset 0).
    pub fn anchored_start(&self) -> bool {
        match self {
            Compiled::Nfa(c) => c.nfa.anchored_start(),
            Compiled::Nbva(c) => c.nbva.anchored_start(),
            Compiled::Lnfa(_) => false,
        }
    }

    /// Attaches anchoring flags to the image (builder style).
    ///
    /// # Panics
    ///
    /// Panics when anchoring an LNFA image — the chain execution of §3.2
    /// has no anchored variant; the compiler routes anchored patterns to
    /// the other modes.
    #[must_use]
    pub fn with_anchors(self, start: bool, end: bool) -> Compiled {
        match self {
            Compiled::Nfa(img) => Compiled::Nfa(CompiledNfa {
                nfa: img.nfa.with_anchors(start, end),
                ..img
            }),
            Compiled::Nbva(img) => Compiled::Nbva(CompiledNbva {
                nbva: img.nbva.with_anchors(start, end),
                ..img
            }),
            Compiled::Lnfa(img) => {
                assert!(!start && !end, "LNFA images cannot be anchored");
                Compiled::Lnfa(img)
            }
        }
    }

    /// Total CAM columns the image occupies (CC codes + BV storage).
    pub fn column_count(&self) -> u64 {
        match self {
            Compiled::Nfa(c) => c.total_columns(),
            Compiled::Nbva(c) => c.total_columns(),
            Compiled::Lnfa(c) => c.total_columns(),
        }
    }
}

/// The regex-to-hardware compiler.
#[derive(Clone, Debug, Default)]
pub struct Compiler {
    config: CompilerConfig,
}

impl Compiler {
    /// Creates a compiler with the given configuration.
    pub fn new(config: CompilerConfig) -> Compiler {
        Compiler { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Decides the mode and produces the hardware image for a pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::TooLarge`] when the automaton cannot fit one
    /// array and [`CompileError::EmptyLanguageOrEpsilon`] for stateless
    /// patterns.
    pub fn compile(&self, regex: &Regex) -> Result<Compiled, CompileError> {
        match decide(regex, &self.config) {
            Mode::Nbva => Ok(Compiled::Nbva(nbva::compile(regex, &self.config)?)),
            Mode::Lnfa => Ok(Compiled::Lnfa(lnfa::compile(regex, &self.config)?)),
            Mode::Nfa => Ok(Compiled::Nfa(nfa::compile(regex, &self.config)?)),
        }
    }

    /// Parses and compiles a pattern string. `^`/`$` anchors at the
    /// pattern edges are honoured (see [`Compiler::compile_anchored`]).
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile`], plus [`CompileError::Parse`].
    pub fn compile_str(&self, pattern: &str) -> Result<Compiled, CompileError> {
        let parsed = parse_pattern(pattern)?;
        self.compile_anchored(&parsed)
    }

    /// Compiles a parsed pattern, honouring its anchors. Anchored patterns
    /// skip LNFA mode — the chain execution of §3.2 assumes the single
    /// initial state re-arms on every symbol — and carry their flags in
    /// the NFA/NBVA image (the hardware's start-of-data configuration).
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile`].
    pub fn compile_anchored(&self, pattern: &Pattern) -> Result<Compiled, CompileError> {
        if !pattern.anchored_start && !pattern.anchored_end {
            return self.compile(&pattern.regex);
        }
        let mode = match decide(&pattern.regex, &self.config) {
            Mode::Nbva => Mode::Nbva,
            _ => Mode::Nfa,
        };
        Ok(self
            .compile_with_mode(&pattern.regex, mode)?
            .with_anchors(pattern.anchored_start, pattern.anchored_end))
    }

    /// Compiles for a *forced* mode, bypassing the decision graph. Used to
    /// model the baseline machines: CA and CAMA execute everything as basic
    /// NFAs, BVAP executes NBVA + NFA but has no LNFA mode.
    ///
    /// # Errors
    ///
    /// As [`Compiler::compile`]. Forcing [`Mode::Lnfa`] on a pattern the
    /// decision graph would not linearize panics.
    pub fn compile_with_mode(&self, regex: &Regex, mode: Mode) -> Result<Compiled, CompileError> {
        match mode {
            Mode::Nfa => Ok(Compiled::Nfa(nfa::compile(regex, &self.config)?)),
            Mode::Nbva => Ok(Compiled::Nbva(nbva::compile(regex, &self.config)?)),
            Mode::Lnfa => Ok(Compiled::Lnfa(lnfa::compile(regex, &self.config)?)),
        }
    }

    /// Runs only the decision graph (used by the Fig. 1 harness).
    pub fn decide(&self, regex: &Regex) -> Mode {
        decide(regex, &self.config)
    }
}

/// The decision graph of Fig. 9.
///
/// * If any bounded repetition survives the unfolding rewriting (single
///   character class, upper bound above the threshold), the regex needs bit
///   vectors → **NBVA**.
/// * Otherwise, if the LNFA rewriting succeeds within
///   `lnfa_expand_factor ×` the Glushkov size → **LNFA**.
/// * Otherwise → **NFA**.
pub fn decide(regex: &Regex, config: &CompilerConfig) -> Mode {
    let after_unfold = unfold_below_threshold(regex, config.unfold_threshold);
    if after_unfold.has_bounded_repetition() {
        return Mode::Nbva;
    }
    let budget = budget_for(regex, config);
    if rap_regex::rewrite::to_sequences(&after_unfold, budget).is_some() {
        return Mode::Lnfa;
    }
    Mode::Nfa
}

/// The LNFA state budget: `lnfa_expand_factor ×` the unfolded Glushkov
/// size (minimum 8 so trivial patterns always qualify).
pub(crate) fn budget_for(regex: &Regex, config: &CompilerConfig) -> u64 {
    let base = regex.unfolded_size().max(4);
    (base as f64 * config.lnfa_expand_factor).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiler() -> Compiler {
        Compiler::new(CompilerConfig::default())
    }

    #[test]
    fn decision_graph_modes() {
        let c = compiler();
        // Bounded repetition above threshold → NBVA.
        assert_eq!(
            c.compile_str("ac{16}d").expect("compiles").mode(),
            Mode::Nbva
        );
        // Plain chain → LNFA.
        assert_eq!(c.compile_str("abcd").expect("compiles").mode(), Mode::Lnfa);
        // Small union distributes → LNFA.
        assert_eq!(
            c.compile_str("a(b|c)d").expect("compiles").mode(),
            Mode::Lnfa
        );
        // Kleene star cannot linearize → NFA.
        assert_eq!(c.compile_str("ab*c").expect("compiles").mode(), Mode::Nfa);
    }

    #[test]
    fn small_bounds_unfold_away_from_nbva() {
        let c = compiler();
        // Bound 3 ≤ threshold 4: unfolds, then linearizes.
        assert_eq!(
            c.compile_str("ab{3}c").expect("compiles").mode(),
            Mode::Lnfa
        );
    }

    #[test]
    fn paper_example_4_4_linearizes() {
        // a(b{1,2}|c)e: 5 Glushkov states, expands to 10 ≤ 2×5.
        let c = compiler();
        let compiled = c.compile_str("a(b{1,2}|c)e").expect("compiles");
        assert_eq!(compiled.mode(), Mode::Lnfa);
        assert_eq!(compiled.state_count(), 10); // abe + abbe + ace
    }

    #[test]
    fn expansion_budget_blocks_lnfa() {
        let c = compiler();
        // (a|b)(a|b)(a|b)(a|b)(a|b) has 10 positions; expansion needs
        // 32 × 5 = 160 > 2×10 states → NFA.
        let compiled = c
            .compile_str("(a|b)(a|b)(a|b)(a|b)(a|b)")
            .expect("compiles");
        assert_eq!(compiled.mode(), Mode::Nfa);
    }

    #[test]
    fn epsilon_rejected() {
        let c = compiler();
        assert_eq!(
            c.compile_str("").expect_err("ε has no states"),
            CompileError::EmptyLanguageOrEpsilon
        );
        // An optional pattern still compiles: the chain handles 'a' and the
        // ε-match is reported through the matches_empty flag.
        let compiled = c.compile_str("a?").expect("compiles");
        assert_eq!(compiled.mode(), Mode::Lnfa);
    }

    #[test]
    fn parse_errors_propagate() {
        let c = compiler();
        assert!(matches!(c.compile_str("(ab"), Err(CompileError::Parse(_))));
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Nfa.to_string(), "NFA");
        assert_eq!(Mode::Nbva.to_string(), "NBVA");
        assert_eq!(Mode::Lnfa.to_string(), "LNFA");
    }

    #[test]
    fn column_and_state_counts_exposed() {
        let c = compiler();
        let nfa = c.compile_str("ab*c").expect("compiles");
        assert_eq!(nfa.state_count(), 3);
        assert!(nfa.column_count() >= 3);
        let nbva = c.compile_str("ac{16}d").expect("compiles");
        assert_eq!(nbva.state_count(), 3);
    }
}
