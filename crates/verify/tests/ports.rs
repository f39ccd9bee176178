//! V006 (cross-tile edges and global ports) against a test-local
//! reference that keys every crossing signal by (pattern, source state) in
//! per-tile hash sets, over random tile assignments, stale crossing
//! counts and patterns placed twice in one array.

use proptest::prelude::*;
use rap_arch::config::{ArchConfig, MAX_TILES_PER_ARRAY};
use rap_compiler::{Compiled, Compiler, CompilerConfig};
use rap_mapper::{map_workload, ArrayKind, MapperConfig, Mapping, Placement};
use rap_verify::{verify, Diagnostic, Location, Rule, Severity};
use std::collections::HashSet;

/// NFA and NBVA patterns with fan-out, loops and bit-vector states.
const PATTERNS: [&str; 7] = [
    "a.*b[cd]+e",
    "x(ab|cd)*y",
    "k(a|b)*(c|d)*l",
    "q(ab|ba){2,4}c",
    "x{100}y",
    "ab{10,48}c",
    "m[a-f]{40}n.*o",
];

fn compile(patterns: &[&str]) -> Vec<Compiled> {
    let compiler = Compiler::new(CompilerConfig::default());
    patterns
        .iter()
        .map(|p| compiler.compile_str(p).expect("compiles"))
        .collect()
}

fn placements_mut(mapping: &mut Mapping, idx: usize) -> Option<&mut Vec<Placement>> {
    match &mut mapping.arrays[idx].kind {
        ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => Some(placements),
        ArrayKind::Lnfa { .. } => None,
    }
}

fn successors(image: &Compiled) -> Vec<Vec<u32>> {
    match image {
        Compiled::Nfa(img) => img.nfa.states().iter().map(|s| s.succ.clone()).collect(),
        Compiled::Nbva(img) => img.nbva.states().iter().map(|s| s.succ.clone()).collect(),
        Compiled::Lnfa(_) => panic!("LNFA images have no placements"),
    }
}

/// The edges of `p` whose ends sit on different tiles.
fn crossings(succ: &[Vec<u32>], p: &Placement) -> u32 {
    let mut n = 0;
    for (from, list) in succ.iter().enumerate() {
        n += list
            .iter()
            .filter(|&&to| p.state_tile[from] != p.state_tile[to as usize])
            .count() as u32;
    }
    n
}

/// The V006 findings of a mapping whose placements are all complete and in
/// range: one error per placement whose recorded crossing count is stale,
/// then per tile the output and input ports past the budget, where a port
/// carries one (pattern, source state) signal.
fn reference(compiled: &[Compiled], mapping: &Mapping, arch: &ArchConfig) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, array) in mapping.arrays.iter().enumerate() {
        let (ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. }) = &array.kind
        else {
            continue;
        };
        let tiles = array
            .tiles_used
            .min(arch.tiles_per_array)
            .min(MAX_TILES_PER_ARRAY) as usize;
        let mut tile_out: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); tiles];
        let mut tile_in: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); tiles];
        for p in placements {
            let succ = successors(&compiled[p.pattern]);
            for (from, list) in succ.iter().enumerate() {
                for &to in list {
                    let (ft, tt) = (p.state_tile[from], p.state_tile[to as usize]);
                    if ft != tt {
                        tile_out[ft as usize].insert((p.pattern, from));
                        tile_in[tt as usize].insert((p.pattern, from));
                    }
                }
            }
            let crossing = crossings(&succ, p);
            if crossing != p.cross_tile_edges {
                out.push(Diagnostic {
                    rule: Rule::GlobalPorts,
                    severity: Severity::Error,
                    location: Location::array(idx).pattern(p.pattern),
                    message: format!(
                        "placement records {} cross-tile edges but the automaton \
                         wiring has {crossing}",
                        p.cross_tile_edges
                    ),
                });
            }
        }
        for tile in 0..tiles {
            for (dir, ports) in [("output", &tile_out[tile]), ("input", &tile_in[tile])] {
                if ports.len() > arch.global_ports_per_tile as usize {
                    out.push(Diagnostic {
                        rule: Rule::GlobalPorts,
                        severity: Severity::Warning,
                        location: Location::array(idx).tile(tile as u32),
                        message: format!(
                            "tile needs {} global-switch {dir} ports but has {}",
                            ports.len(),
                            arch.global_ports_per_tile
                        ),
                    });
                }
            }
        }
    }
    out
}

fn findings(compiled: &[Compiled], mapping: &Mapping, arch: &ArchConfig) -> Vec<Diagnostic> {
    verify(compiled, mapping, arch)
        .by_rule(Rule::GlobalPorts)
        .into_iter()
        .cloned()
        .collect()
}

/// One pattern placed twice in one array, on different tiles, shares its
/// signals: `a.*b`'s first state leaves tile 0 from both copies but needs
/// one output port there, and each copy's states take one input port on
/// their own tile.
#[test]
fn a_pattern_placed_twice_in_one_array_counts_each_signal_once() {
    let compiled = compile(&["a.*b"]);
    let mut mapping = map_workload(&compiled, &MapperConfig::default());
    mapping.arrays[0].tiles_used = 3;
    let placements = placements_mut(&mut mapping, 0).expect("an NFA array");
    placements[0].state_tile = vec![0, 1, 1];
    placements[0].cross_tile_edges = 2;
    let mut twin = placements[0].clone();
    twin.state_tile = vec![0, 2, 2];
    placements.push(twin);

    let mut arch = mapping.config.arch;
    arch.global_ports_per_tile = 1;
    mapping.config.arch = arch;
    let report = verify(&compiled, &mapping, &arch);
    assert!(
        !report.by_rule(Rule::PatternCoverage).is_empty(),
        "{report}"
    );
    assert!(report.by_rule(Rule::GlobalPorts).is_empty(), "{report}");

    arch.global_ports_per_tile = 0;
    mapping.config.arch = arch;
    let ports: Vec<(Option<u32>, String)> = findings(&compiled, &mapping, &arch)
        .into_iter()
        .map(|d| (d.location.tile, d.message))
        .collect();
    let need = |tile, dir| {
        (
            Some(tile),
            format!("tile needs 1 global-switch {dir} ports but has 0"),
        )
    };
    assert_eq!(
        ports,
        [need(0, "output"), need(1, "input"), need(2, "input")]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random tile assignments, some with stale crossing counts and some
    /// with a pattern placed a second time in its array, draw exactly the
    /// reference's V006 findings under a budget small enough to warn.
    #[test]
    fn global_port_findings_equal_the_hash_set_reference(
        tiles in 2u32..17,
        picks in prop::collection::vec(any::<u32>(), 1..512),
        budget in 0u32..4,
        stale in prop::collection::vec(0u32..3, 1..8),
        twins in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let compiled = compile(&PATTERNS);
        let mut mapping = map_workload(&compiled, &MapperConfig::default());
        let mut draw = picks.iter().cycle();
        let mut placed = 0usize;
        for idx in 0..mapping.arrays.len() {
            mapping.arrays[idx].tiles_used = tiles;
            let Some(placements) = placements_mut(&mut mapping, idx) else { continue };
            let mut extra = Vec::new();
            for p in placements.iter_mut() {
                let succ = successors(&compiled[p.pattern]);
                for tile in &mut p.state_tile {
                    *tile = draw.next().expect("cycles") % tiles;
                }
                p.cross_tile_edges = crossings(&succ, p) + stale[placed % stale.len()];
                if twins[placed % twins.len()] {
                    let mut twin = p.clone();
                    for tile in &mut twin.state_tile {
                        *tile = draw.next().expect("cycles") % tiles;
                    }
                    twin.cross_tile_edges = crossings(&succ, &twin);
                    extra.push(twin);
                }
                placed += 1;
            }
            placements.extend(extra);
        }
        mapping.config.arch.global_ports_per_tile = budget;
        let arch = mapping.config.arch;
        prop_assert_eq!(
            findings(&compiled, &mapping, &arch),
            reference(&compiled, &mapping, &arch)
        );
    }
}
