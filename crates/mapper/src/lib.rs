//! The hardware mapper of §4.3: places compiled regexes onto RAP arrays.
//!
//! * NFA and NBVA images are packed tile-by-tile with a greedy first-fit
//!   ([`pack`]): states fill a tile's 128 columns in automaton order, BV
//!   blocks never span tiles, and a tile never mixes `r(m)` and `rAll`
//!   read actions.
//! * LNFA images are grouped into *bins* first ([`binning`]): all initial
//!   states of a bin land in one tile so the remaining tiles can be
//!   power-gated (§3.2, Fig. 7), then each bin is packed like one regex.
//!
//! Arrays are mode-homogeneous (the evaluation methodology of §5.5 sizes
//! NBVA arrays separately and replicates them for throughput).

pub mod binning;
mod check;
pub mod pack;
pub mod plan;

pub use binning::{bin_lnfas, Bin, ChainRef};
pub use plan::{ArrayKind, ArrayPlan, MapperConfig, Mapping, Placement};

use rap_compiler::Compiled;

/// Maps a compiled workload onto RAP arrays, one [`plan::ArrayPlan`] per
/// allocated array.
///
/// # Example
///
/// ```
/// use rap_compiler::{Compiler, CompilerConfig};
/// use rap_mapper::{map_workload, MapperConfig};
///
/// let compiler = Compiler::new(CompilerConfig::default());
/// let compiled = vec![
///     compiler.compile_str("abc")?,
///     compiler.compile_str("x{100}y")?,
///     compiler.compile_str("a.*b")?,
/// ];
/// let mapping = map_workload(&compiled, &MapperConfig::default());
/// assert_eq!(mapping.arrays.len(), 3); // one per mode here
/// assert!(mapping.utilization() > 0.0);
/// # Ok::<(), rap_compiler::CompileError>(())
/// ```
pub fn map_workload(compiled: &[Compiled], config: &MapperConfig) -> Mapping {
    let mut nfa_items = Vec::new();
    let mut nbva_items = Vec::new();
    let mut lnfa_items = Vec::new();
    for (idx, c) in compiled.iter().enumerate() {
        match c {
            Compiled::Nfa(img) => nfa_items.push((idx, img)),
            Compiled::Nbva(img) => nbva_items.push((idx, img)),
            Compiled::Lnfa(img) => lnfa_items.push((idx, img)),
        }
    }
    let mut arrays = Vec::new();
    arrays.extend(pack::pack_nfa(&nfa_items, config));
    arrays.extend(pack::pack_nbva(&nbva_items, config));
    arrays.extend(binning::pack_lnfa(&lnfa_items, config));
    let mapping = Mapping {
        arrays,
        config: *config,
    };
    if cfg!(debug_assertions) {
        check::selfcheck(compiled, &mapping);
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig, Mode};

    fn compile_all(patterns: &[&str]) -> Vec<Compiled> {
        let compiler = Compiler::new(CompilerConfig::default());
        patterns
            .iter()
            .map(|p| {
                compiler
                    .compile_str(p)
                    .unwrap_or_else(|e| panic!("{p}: {e}"))
            })
            .collect()
    }

    #[test]
    fn modes_map_to_separate_arrays() {
        let compiled = compile_all(&["abc", "x{100}y", "a.*b"]);
        let mapping = map_workload(&compiled, &MapperConfig::default());
        let modes: Vec<Mode> = mapping.arrays.iter().map(|a| a.mode()).collect();
        assert!(modes.contains(&Mode::Lnfa));
        assert!(modes.contains(&Mode::Nbva));
        assert!(modes.contains(&Mode::Nfa));
    }

    #[test]
    fn every_pattern_is_placed_exactly_once() {
        let patterns: Vec<String> = (0..40)
            .map(|i| match i % 4 {
                0 => format!("pat{i}fix"),
                1 => format!("a{{{}}}b", 20 + i),
                2 => format!("x(y|z)w{i}"),
                _ => "a.*zz".to_string(),
            })
            .collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let compiled = compile_all(&refs);
        let mapping = map_workload(&compiled, &MapperConfig::default());
        let mut seen = vec![0u32; compiled.len()];
        for a in &mapping.arrays {
            for p in a.pattern_indices() {
                seen[p] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "placements: {seen:?}");
    }

    #[test]
    fn utilization_is_high_for_dense_workloads() {
        let patterns: Vec<String> = (0..200).map(|i| format!("w{i:03}xyz")).collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let compiled = compile_all(&refs);
        let mapping = map_workload(&compiled, &MapperConfig::default());
        // 7-column chains inside 16-column regions waste just over half of
        // each region; a bin size matched to the chain length (128/7 → 16)
        // packs tighter.
        assert!(
            mapping.utilization() > 0.4,
            "utilization {}",
            mapping.utilization()
        );
        let tight = MapperConfig {
            bin_size: 16,
            ..MapperConfig::default()
        };
        let mapping = map_workload(&compiled, &tight);
        assert!(
            mapping.utilization() > 0.8,
            "utilization {}",
            mapping.utilization()
        );
    }
}
