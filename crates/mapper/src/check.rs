//! Lightweight structural self-check on the mapper's own output.
//!
//! The full rule-based legality verifier lives in `rap-verify` (which
//! depends on this crate, so the mapper cannot call it). This module only
//! asserts the cheap structural invariants the packer is supposed to
//! guarantee by construction; it runs at the end of [`crate::map_workload`]
//! in debug builds.

use crate::plan::{ArrayKind, Mapping};
use rap_compiler::Compiled;

/// Panics when the produced `mapping` violates a structural invariant.
pub(crate) fn selfcheck(compiled: &[Compiled], mapping: &Mapping) {
    let arch = &mapping.config.arch;
    let mut placed = vec![0usize; compiled.len()];
    for (idx, array) in mapping.arrays.iter().enumerate() {
        assert!(
            array.tiles_used <= arch.tiles_per_array,
            "mapper self-check: array {idx} allocates {} tiles, max {}",
            array.tiles_used,
            arch.tiles_per_array,
        );
        // LNFA arrays overlay two column resources (CAM path and
        // local-switch path) on the same tiles, so their budget is doubled.
        let resources = match array.kind {
            ArrayKind::Lnfa { .. } => 2,
            _ => 1,
        };
        let capacity = resources * u64::from(array.tiles_used) * u64::from(arch.tile_columns);
        assert!(
            array.columns_used <= capacity,
            "mapper self-check: array {idx} books {} columns into {capacity}",
            array.columns_used,
        );
        match &array.kind {
            ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => {
                for p in placements {
                    assert!(
                        p.pattern < compiled.len(),
                        "mapper self-check: array {idx} places unknown pattern {}",
                        p.pattern,
                    );
                    placed[p.pattern] += 1;
                    assert_eq!(
                        p.state_tile.len() as u64,
                        compiled[p.pattern].state_count(),
                        "mapper self-check: array {idx} pattern {} state map sized wrong",
                        p.pattern,
                    );
                    for &t in &p.state_tile {
                        assert!(
                            t < array.tiles_used,
                            "mapper self-check: array {idx} pattern {} maps a state \
                             to tile {t}, only {} allocated",
                            p.pattern,
                            array.tiles_used,
                        );
                    }
                }
            }
            ArrayKind::Lnfa { bins } => {
                for (b, bin) in bins.iter().enumerate() {
                    assert!(
                        bin.size >= 1 && bin.size <= arch.max_bin_size,
                        "mapper self-check: array {idx} bin {b} size {} outside 1..={}",
                        bin.size,
                        arch.max_bin_size,
                    );
                    assert!(
                        bin.members.len() <= bin.size as usize,
                        "mapper self-check: array {idx} bin {b} holds {} chains in a \
                         size-{} bin",
                        bin.members.len(),
                        bin.size,
                    );
                    assert!(
                        bin.first_tile + bin.tiles <= array.tiles_used,
                        "mapper self-check: array {idx} bin {b} spans tiles {}..{}, \
                         only {} allocated",
                        bin.first_tile,
                        bin.first_tile + bin.tiles,
                        array.tiles_used,
                    );
                    for m in &bin.members {
                        assert!(
                            m.pattern < compiled.len(),
                            "mapper self-check: array {idx} bin {b} references unknown \
                             pattern {}",
                            m.pattern,
                        );
                    }
                }
            }
        }
    }
    for (pattern, &count) in placed.iter().enumerate() {
        if matches!(compiled[pattern], Compiled::Nfa(_) | Compiled::Nbva(_)) {
            assert_eq!(
                count, 1,
                "mapper self-check: pattern {pattern} placed {count} times",
            );
        }
    }
}
