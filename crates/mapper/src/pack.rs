//! Greedy first-fit packing of NFA and NBVA images into arrays (§4.3).

use crate::plan::{ArrayKind, ArrayPlan, MapperConfig, Placement};
use rap_automata::nbva::ReadAction;
use rap_compiler::{CompiledNbva, CompiledNfa};

/// Per-state block description fed to the packer: column footprint plus the
/// BV read action (NBVA states only), which drives the no-`r`-with-`rAll`
/// tile constraint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Block {
    columns: u32,
    action: Option<ActionClass>,
    /// BVM slots consumed (BVAP-style machines only; 0 with unified
    /// storage, where the BV columns are already in `columns`).
    bvm_slots: u32,
}

/// The two read-action families that may not share a tile (§4.1,
/// Example 4.3: "the RAP design disallows r and rAll actions in the same
/// tile").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ActionClass {
    Exact,
    All,
}

/// Running state of the array being filled: per-tile free columns, the
/// read-action family each tile is committed to, and BVM slot budgets.
#[derive(Clone, Debug, PartialEq)]
struct ArrayAccum {
    placements: Vec<Placement>,
    tile_free: Vec<u32>,
    tile_actions: Vec<Option<ActionClass>>,
    tile_slots_used: Vec<u32>,
    columns_used: u64,
}

impl ArrayAccum {
    fn new(tiles_per_array: u32, tile_columns: u32) -> ArrayAccum {
        ArrayAccum {
            placements: Vec::new(),
            tile_free: vec![tile_columns; tiles_per_array as usize],
            tile_actions: vec![None; tiles_per_array as usize],
            tile_slots_used: vec![0; tiles_per_array as usize],
            columns_used: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    fn tiles_used(&self, tile_columns: u32) -> u32 {
        self.tile_free.iter().filter(|&&f| f < tile_columns).count() as u32
    }

    /// Places one regex's blocks with first-fit over the array's tiles
    /// (each block goes to the lowest tile with room and a compatible
    /// read-action family) and records the placement. A regex whose block
    /// finds no tile is taken back out whole and `false` returned, leaving
    /// the array as it was. `succ(q)` is state `q`'s successor list, for
    /// the cross-tile edge count.
    fn try_place<'s>(
        &mut self,
        config: &MapperConfig,
        pattern: usize,
        blocks: &[Block],
        succ: impl Fn(usize) -> &'s [u32],
    ) -> bool {
        let tile_cols = config.arch.tile_columns;
        let slot_budget = config.bvm.map_or(u32::MAX, |b| b.slots_per_tile);
        let mut state_tile = Vec::with_capacity(blocks.len());
        // Tiles whose read-action family this regex committed.
        let mut claimed = Vec::new();
        for block in blocks {
            assert!(
                block.columns <= tile_cols,
                "state block of {} columns exceeds a tile",
                block.columns
            );
            assert!(
                block.bvm_slots <= slot_budget,
                "state needs {} BVM slots but a tile has {slot_budget}",
                block.bvm_slots
            );
            let Some(tile) = (0..self.tile_free.len()).find(|&t| {
                let fits_cols = self.tile_free[t] >= block.columns;
                let fits_slots = self.tile_slots_used[t] + block.bvm_slots <= slot_budget;
                let action_ok = match (block.action, self.tile_actions[t]) {
                    (None, _) | (_, None) => true,
                    (Some(a), Some(b)) => a == b,
                };
                fits_cols && fits_slots && action_ok
            }) else {
                self.take_back(blocks, &state_tile, &claimed);
                return false;
            };
            if block.action.is_some() && self.tile_actions[tile].is_none() {
                self.tile_actions[tile] = block.action;
                claimed.push(tile);
            }
            self.tile_slots_used[tile] += block.bvm_slots;
            self.tile_free[tile] -= block.columns;
            self.columns_used += u64::from(block.columns);
            state_tile.push(tile as u32);
        }
        let cross_tile_edges = state_tile
            .iter()
            .enumerate()
            .map(|(p, &tile)| {
                succ(p)
                    .iter()
                    .filter(|&&q| state_tile[q as usize] != tile)
                    .count()
            })
            .sum::<usize>() as u32;
        self.placements.push(Placement {
            pattern,
            state_tile,
            cross_tile_edges,
        });
        true
    }

    /// Undoes the first `state_tile.len()` blocks of a refused regex.
    fn take_back(&mut self, blocks: &[Block], state_tile: &[u32], claimed: &[usize]) {
        for (block, &tile) in blocks.iter().zip(state_tile) {
            let tile = tile as usize;
            self.tile_slots_used[tile] -= block.bvm_slots;
            self.tile_free[tile] += block.columns;
            self.columns_used -= u64::from(block.columns);
        }
        for &tile in claimed {
            self.tile_actions[tile] = None;
        }
    }
}

/// Generic greedy packer shared by the NFA and NBVA paths.
struct Packer<'a> {
    config: &'a MapperConfig,
    finished: Vec<(Vec<Placement>, u32, u64)>,
    current: ArrayAccum,
}

impl<'a> Packer<'a> {
    fn new(config: &'a MapperConfig) -> Packer<'a> {
        Packer {
            config,
            finished: Vec::new(),
            current: ArrayAccum::new(config.arch.tiles_per_array, config.arch.tile_columns),
        }
    }

    /// Places one regex in the current array, opening a fresh array when
    /// it does not fit (regexes cannot span arrays, §3.3).
    ///
    /// # Panics
    ///
    /// Panics if the regex cannot fit even an empty array (the compiler's
    /// capacity check plus fragmentation headroom should prevent this).
    fn place<'s>(
        &mut self,
        pattern: usize,
        blocks: &[Block],
        succ: impl Fn(usize) -> &'s [u32] + Copy,
    ) {
        if self.current.try_place(self.config, pattern, blocks, succ) {
            return;
        }
        self.flush();
        assert!(
            self.current.try_place(self.config, pattern, blocks, succ),
            "pattern {pattern} does not fit one array even when empty ({} blocks)",
            blocks.len()
        );
    }

    fn flush(&mut self) {
        if !self.current.is_empty() {
            let tile_columns = self.config.arch.tile_columns;
            let acc = std::mem::replace(
                &mut self.current,
                ArrayAccum::new(self.config.arch.tiles_per_array, tile_columns),
            );
            let tiles_used = acc.tiles_used(tile_columns);
            self.finished
                .push((acc.placements, tiles_used, acc.columns_used));
        }
    }

    fn finish(mut self) -> Vec<(Vec<Placement>, u32, u64)> {
        self.flush();
        self.finished
    }
}

fn action_class(read: ReadAction) -> ActionClass {
    match read {
        ReadAction::Exact(_) => ActionClass::Exact,
        ReadAction::All => ActionClass::All,
    }
}

/// Packs NFA images into arrays.
pub(crate) fn pack_nfa(items: &[(usize, &CompiledNfa)], config: &MapperConfig) -> Vec<ArrayPlan> {
    let mut packer = Packer::new(config);
    for (pattern, img) in items {
        let blocks: Vec<Block> = img
            .state_columns
            .iter()
            .map(|&c| Block {
                columns: c.max(1),
                action: None,
                bvm_slots: 0,
            })
            .collect();
        packer.place(*pattern, &blocks, |q| &img.nfa.states()[q].succ);
    }
    packer
        .finish()
        .into_iter()
        .map(|(placements, tiles_used, columns_used)| ArrayPlan {
            kind: ArrayKind::Nfa { placements },
            tiles_used,
            columns_used,
        })
        .collect()
}

/// Packs NBVA images into arrays. All images must share the same BV depth
/// (one compiler configuration per workload).
pub(crate) fn pack_nbva(items: &[(usize, &CompiledNbva)], config: &MapperConfig) -> Vec<ArrayPlan> {
    let depth = items.first().map_or(0, |(_, img)| img.depth);
    let mut packer = Packer::new(config);
    for (pattern, img) in items {
        assert_eq!(img.depth, depth, "mixed BV depths in one mapping");
        let blocks: Vec<Block> = img
            .state_columns
            .iter()
            .zip(img.bv_allocs.iter())
            .map(|(&c, alloc)| match (alloc, config.bvm) {
                // BVAP-style: the vector lives in the tile's BVM, so the
                // CAM only holds the CC code(s) plus the initial vector.
                (Some(a), Some(bvm)) => Block {
                    columns: (c - a.columns).max(1),
                    action: Some(action_class(a.read)),
                    bvm_slots: a.width_bits.div_ceil(bvm.slot_bits),
                },
                (Some(a), None) => Block {
                    columns: c.max(1),
                    action: Some(action_class(a.read)),
                    bvm_slots: 0,
                },
                (None, _) => Block {
                    columns: c.max(1),
                    action: None,
                    bvm_slots: 0,
                },
            })
            .collect();
        packer.place(*pattern, &blocks, |q| &img.nbva.states()[q].succ);
    }
    packer
        .finish()
        .into_iter()
        .map(|(placements, tiles_used, columns_used)| ArrayPlan {
            kind: ArrayKind::Nbva { depth, placements },
            tiles_used,
            columns_used,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiled, Compiler, CompilerConfig};

    fn compiler() -> Compiler {
        Compiler::new(CompilerConfig::default())
    }

    fn nfa_img(pattern: &str) -> CompiledNfa {
        match compiler().compile_str(pattern).expect("compiles") {
            Compiled::Nfa(img) => img,
            other => panic!("{pattern} compiled to {:?} mode", other.mode()),
        }
    }

    fn nbva_img(pattern: &str) -> CompiledNbva {
        match compiler().compile_str(pattern).expect("compiles") {
            Compiled::Nbva(img) => img,
            other => panic!("{pattern} compiled to {:?} mode", other.mode()),
        }
    }

    #[test]
    fn small_regexes_share_a_tile() {
        let a = nfa_img("a.*b");
        let b = nfa_img("c.*d");
        let arrays = pack_nfa(&[(0, &a), (1, &b)], &MapperConfig::default());
        assert_eq!(arrays.len(), 1);
        assert_eq!(arrays[0].tiles_used, 1);
        match &arrays[0].kind {
            ArrayKind::Nfa { placements } => {
                assert_eq!(placements.len(), 2);
                assert!(placements
                    .iter()
                    .all(|p| p.state_tile.iter().all(|&t| t == 0)));
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn large_regex_spans_tiles_and_counts_cross_edges() {
        // 300 states of 1 column each → 3 tiles; chain edges cross twice.
        let pattern = format!("a.*{}", "b".repeat(298));
        let img = nfa_img(&pattern);
        let arrays = pack_nfa(&[(0, &img)], &MapperConfig::default());
        assert_eq!(arrays.len(), 1);
        assert_eq!(arrays[0].tiles_used, 3);
        match &arrays[0].kind {
            ArrayKind::Nfa { placements } => {
                assert_eq!(placements[0].cross_tile_edges, 2);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn array_boundary_respected() {
        // Each regex ~1100 columns: two of them cannot share a 2048-column
        // array (no array spanning), so the packer opens a second array.
        let p1 = format!("x.*{}", "y".repeat(1098));
        let p2 = format!("p.*{}", "q".repeat(1098));
        let a = nfa_img(&p1);
        let b = nfa_img(&p2);
        let arrays = pack_nfa(&[(0, &a), (1, &b)], &MapperConfig::default());
        assert_eq!(arrays.len(), 2);
    }

    #[test]
    fn nbva_read_actions_never_mix_in_a_tile() {
        // b{10,48} → r(10) and rAll states; they must land in distinct tiles.
        let img = nbva_img("ab{10,48}c");
        let arrays = pack_nbva(&[(0, &img)], &MapperConfig::default());
        match &arrays[0].kind {
            ArrayKind::Nbva { placements, depth } => {
                assert_eq!(*depth, 8);
                let tiles = &placements[0].state_tile;
                // States: a, b{10} (Exact), b{0,38} (All), c.
                assert_ne!(tiles[1], tiles[2], "r and rAll shared tile {tiles:?}");
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn bv_blocks_do_not_split_across_tiles() {
        // x{500}y at depth 8: BV block of 1+1+63 = 65 columns must sit in
        // one tile even when the tile is partially full.
        let filler = nbva_img("m{80}n"); // 1 + (1+1+10) + 1 = 15 columns
        let big = nbva_img("x{500}y");
        let arrays = pack_nbva(&[(0, &filler), (1, &big)], &MapperConfig::default());
        match &arrays[0].kind {
            ArrayKind::Nbva { placements, .. } => {
                for p in placements {
                    // Every state sits in exactly one tile by construction;
                    // placement vector length matches the automaton.
                    assert!(!p.state_tile.is_empty());
                }
            }
            other => panic!("unexpected kind {other:?}"),
        }
        assert_eq!(arrays.len(), 1);
    }

    #[test]
    fn refused_pattern_leaves_the_array_untouched_and_lands_whole_in_a_fresh_one() {
        let config = MapperConfig::default();
        let cols = config.arch.tile_columns;
        let tiles = config.arch.tiles_per_array as usize;
        let block = |columns, action| Block {
            columns,
            action,
            bvm_slots: 0,
        };
        let no_succ = |_: usize| -> &'static [u32] { &[] };
        // Pattern 0 leaves 8 free columns in every tile but the last,
        // which stays empty.
        let filler = vec![block(cols - 8, None); tiles - 1];
        // Pattern 1's first block commits tile 0 to rAll and its second
        // opens the last tile; its third finds no tile with room.
        let late_misfit = [
            block(8, Some(ActionClass::All)),
            block(cols, None),
            block(cols, None),
        ];
        let mut packer = Packer::new(&config);
        packer.place(0, &filler, no_succ);
        let before = packer.current.clone();
        assert_eq!(before.tiles_used(cols), tiles as u32 - 1);

        let mut tried = before.clone();
        assert!(!tried.try_place(&config, 1, &late_misfit, no_succ));
        assert_eq!(tried, before, "a refused pattern changed the array");

        packer.place(1, &late_misfit, no_succ);
        let arrays = packer.finish();
        assert_eq!(arrays.len(), 2);
        assert_eq!(
            arrays[0],
            (
                before.placements.clone(),
                before.tiles_used(cols),
                before.columns_used
            )
        );
        let (placements, tiles_used, columns_used) = &arrays[1];
        assert_eq!(
            placements,
            &[Placement {
                pattern: 1,
                state_tile: vec![0, 1, 2],
                cross_tile_edges: 0,
            }]
        );
        assert_eq!(*tiles_used, 3);
        assert_eq!(*columns_used, u64::from(8 + 2 * cols));
    }

    #[test]
    #[should_panic(expected = "does not fit one array")]
    fn oversized_after_fragmentation_panics() {
        // Six product terms cost 3 columns, so only 42 such states fit a
        // 128-column tile and 2045 total columns need 17 > 16 tiles even
        // though the compiler's 2048-column capacity check passed.
        let pattern = format!("a.*{}", r"[\x05\x15\x26\x37\x48\x59]".repeat(681));
        let img = nfa_img(&pattern);
        let _ = pack_nfa(&[(0, &img)], &MapperConfig::default());
    }
}
