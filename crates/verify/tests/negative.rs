//! Negative coverage: every documented rule code fires on a purposely
//! corrupted mapping, and random single-field mutations of valid plans
//! always trip the expected rule.

use proptest::prelude::*;
use rap_arch::config::{ArchConfig, MAX_TILES_PER_ARRAY, MAX_TILE_COLUMNS};
use rap_compiler::{Compiled, Compiler, CompilerConfig, Mode};
use rap_mapper::{map_workload, ArrayKind, MapperConfig, Mapping};
use rap_verify::{verify, Rule, Severity};

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
    let report = verify(&compiled, &mapping, &config.arch);
    assert!(report.is_empty(), "baseline must be clean: {report}");
    (compiled, mapping, config.arch)
}

fn placements_mut(mapping: &mut Mapping, idx: usize) -> &mut Vec<rap_mapper::Placement> {
    match &mut mapping.arrays[idx].kind {
        ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => placements,
        ArrayKind::Lnfa { .. } => panic!("array {idx} is LNFA"),
    }
}

#[test]
fn v001_bv_depth_zero_is_an_error() {
    let (compiled, mut mapping, arch) = setup(&["x{100}y"]);
    for a in &mut mapping.arrays {
        if let ArrayKind::Nbva { depth, .. } = &mut a.kind {
            *depth = 0;
        }
    }
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::BvDepth).is_empty(), "{report}");
}

#[test]
fn v002_bv_width_overflow_is_an_error() {
    let (mut compiled, mapping, arch) = setup(&["x{100}y"]);
    for c in &mut compiled {
        if let Compiled::Nbva(img) = c {
            let alloc = img.bv_allocs.iter_mut().flatten().next().expect("has a BV");
            alloc.width_bits = 10 * arch.max_bv_bits();
        }
    }
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::BvWidth).is_empty(), "{report}");
}

#[test]
fn v003_read_action_mix_in_one_tile() {
    // b{10,48} compiles to one r(10) BV state and one rAll BV state; the
    // packer keeps them apart when needed, so force every state into tile 0.
    let (compiled, mut mapping, arch) = setup(&["ab{10,48}c"]);
    for idx in 0..mapping.arrays.len() {
        if mapping.arrays[idx].mode() == rap_compiler::Mode::Nbva {
            for p in placements_mut(&mut mapping, idx) {
                p.state_tile.fill(0);
                p.cross_tile_edges = 0;
            }
        }
    }
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.by_rule(Rule::ReadActionMix).is_empty(), "{report}");
}

#[test]
fn v004_state_tile_out_of_range() {
    let (compiled, mut mapping, arch) = setup(&["a.*b"]);
    placements_mut(&mut mapping, 0)[0].state_tile[0] = 99;
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::PlacementRange).is_empty(), "{report}");
}

#[test]
fn v005_inflated_columns_used() {
    let (compiled, mut mapping, arch) = setup(&["a.*b"]);
    mapping.arrays[0].columns_used += 1000;
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(
        !report.by_rule(Rule::ColumnOvercommit).is_empty(),
        "{report}"
    );
}

#[test]
fn v006_cross_tile_edge_miscount() {
    let (compiled, mut mapping, arch) = setup(&["a.*b"]);
    placements_mut(&mut mapping, 0)[0].cross_tile_edges += 7;
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::GlobalPorts).is_empty(), "{report}");
}

#[test]
fn v007_oversized_bin() {
    let (compiled, mut mapping, arch) = setup(&["hello world"]);
    for a in &mut mapping.arrays {
        if let ArrayKind::Lnfa { bins } = &mut a.kind {
            bins[0].size = 2 * arch.max_bin_size;
        }
    }
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::BinShape).is_empty(), "{report}");
}

#[test]
fn v008_duplicated_pattern() {
    let (compiled, mut mapping, arch) = setup(&["a.*b"]);
    let dup = mapping.arrays[0].clone();
    mapping.arrays.push(dup);
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(
        !report.by_rule(Rule::PatternCoverage).is_empty(),
        "{report}"
    );
}

#[test]
fn v009_member_length_mismatch() {
    let (compiled, mut mapping, arch) = setup(&["hello world"]);
    for a in &mut mapping.arrays {
        if let ArrayKind::Lnfa { bins } = &mut a.kind {
            bins[0].members[0].len += 1;
        }
    }
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::CcEncoding).is_empty(), "{report}");
}

#[test]
fn v010_tile_overflow() {
    let (compiled, mut mapping, arch) = setup(&["a.*b"]);
    mapping.arrays[0].tiles_used = arch.tiles_per_array + 5;
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal());
    assert!(!report.by_rule(Rule::ArrayOverflow).is_empty(), "{report}");
}

#[test]
fn v011_arch_mismatch_warns() {
    let (compiled, mapping, mut arch) = setup(&["a.*b"]);
    arch.cam_rows *= 2;
    let report = verify(&compiled, &mapping, &arch);
    let hits = report.by_rule(Rule::ConfigMismatch);
    assert!(!hits.is_empty(), "{report}");
    assert!(hits.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn v011_unbuildable_bank_geometry_is_an_error() {
    let unbuildable: [fn(&mut ArchConfig); 6] = [
        |a| a.bank_input_entries = 0,
        |a| a.array_input_entries = 0,
        |a| a.bank_output_entries = 0,
        |a| a.array_output_entries = 0,
        |a| a.tile_columns = MAX_TILE_COLUMNS + 128,
        |a| a.tiles_per_array = MAX_TILES_PER_ARRAY + 16,
    ];
    for tamper in unbuildable {
        let (compiled, mut mapping, _) = setup(&["a.*b"]);
        tamper(&mut mapping.config.arch);
        let arch = mapping.config.arch;
        let report = verify(&compiled, &mapping, &arch);
        assert!(!report.is_legal(), "{report}");
        let hits = report.by_rule(Rule::ConfigMismatch);
        assert_eq!(hits.len(), 1, "{report}");
        assert_eq!(hits[0].severity, Severity::Error);
    }
}

/// A tampered geometry claiming every tile a `u32` can count costs a
/// finding, not a per-tile table that large.
#[test]
fn hostile_tile_count_is_refused_without_allocating_for_it() {
    let (compiled, mut mapping, _) = setup(&["a.*b", "x{100}y"]);
    mapping.config.arch.tiles_per_array = u32::MAX;
    for array in &mut mapping.arrays {
        array.tiles_used = u32::MAX;
    }
    let arch = mapping.config.arch;
    let report = verify(&compiled, &mapping, &arch);
    assert!(!report.is_legal(), "{report}");
    assert!(!report.by_rule(Rule::ConfigMismatch).is_empty(), "{report}");
}

/// Plans the mapper really builds for a tile geometry past the kernels'
/// limits are refused: 256-column tiles holding an unfolded `b{3000}`,
/// and one 80-tile array of 100 NBVA patterns.
#[test]
fn v011_mapped_tile_geometry_past_the_kernels_is_an_error() {
    let mut wide = MapperConfig::default();
    wide.arch.tile_columns = 256;
    let nfa = Compiler::new(CompilerConfig {
        arch: wide.arch,
        ..CompilerConfig::default()
    })
    .compile_with_mode(&rap_regex::parse("ab{3000}c").expect("parses"), Mode::Nfa)
    .expect("compiles");
    let mut long = MapperConfig::default();
    long.arch.tiles_per_array = 80;
    let nbva = compile(&["q?x{500}"; 100]);
    for (compiled, config) in [(vec![nfa], wide), (nbva, long)] {
        let mapping = map_workload(&compiled, &config);
        assert!(
            mapping
                .arrays
                .iter()
                .any(|a| a.tiles_used > MAX_TILES_PER_ARRAY
                    || a.columns_used > u64::from(a.tiles_used * MAX_TILE_COLUMNS)),
            "the plan uses the geometry past the limits"
        );
        let report = verify(&compiled, &mapping, &config.arch);
        assert!(!report.is_legal(), "{report}");
        assert!(
            report
                .by_rule(Rule::ConfigMismatch)
                .iter()
                .any(|d| d.severity == Severity::Error),
            "{report}"
        );
    }
}

#[test]
fn v012_low_utilization_info() {
    let (compiled, mut mapping, arch) = setup(&["a.*b"]);
    // Claim the whole array while occupying a handful of columns: legal,
    // but flagged as wasteful.
    mapping.arrays[0].tiles_used = arch.tiles_per_array;
    let report = verify(&compiled, &mapping, &arch);
    assert!(report.is_legal(), "{report}");
    let hits = report.by_rule(Rule::LowUtilization);
    assert!(!hits.is_empty(), "{report}");
    assert!(hits.iter().all(|d| d.severity == Severity::Info));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random single-field corruption of a clean mapping always trips the
    /// rule documented for that corruption.
    #[test]
    fn mutations_trip_the_documented_rule(
        mutation in 0usize..4,
        magnitude in 1u32..1000,
    ) {
        let (compiled, mut mapping, arch) =
            setup(&["a.*b", "x{100}y", "hello world"]);
        let expected = match mutation {
            0 => {
                // Bump a state_tile entry out of the allocated range.
                let tiles = mapping.arrays[0].tiles_used;
                placements_mut(&mut mapping, 0)[0].state_tile[0] = tiles + magnitude;
                Rule::PlacementRange
            }
            1 => {
                mapping.arrays[0].columns_used += u64::from(magnitude);
                Rule::ColumnOvercommit
            }
            2 => {
                let dup = mapping.arrays[magnitude as usize % mapping.arrays.len()].clone();
                mapping.arrays.push(dup);
                Rule::PatternCoverage
            }
            _ => {
                let mut bumped = false;
                for a in &mut mapping.arrays {
                    if let ArrayKind::Lnfa { bins } = &mut a.kind {
                        bins[0].size = arch.max_bin_size + magnitude;
                        bumped = true;
                    }
                }
                prop_assert!(bumped, "workload always has an LNFA array");
                Rule::BinShape
            }
        };
        let report = verify(&compiled, &mapping, &arch);
        prop_assert!(!report.is_legal(), "mutation {} must be illegal", mutation);
        prop_assert!(
            !report.by_rule(expected).is_empty(),
            "expected {} in:\n{}",
            expected.code(),
            report
        );
    }
}
