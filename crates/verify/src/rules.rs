//! The rule implementations: each function walks one aspect of the plan
//! and records findings in the [`Report`].

use crate::diag::{Location, Report, Rule, Severity};
use rap_arch::config::{ArchConfig, MAX_TILES_PER_ARRAY, MAX_TILE_COLUMNS};
use rap_arch::encoding::single_code;
use rap_automata::nbva::ReadAction;
use rap_compiler::{Compiled, CompiledNbva, MatchPath};
use rap_mapper::binning::Bin;
use rap_mapper::plan::{ArrayKind, ArrayPlan, Mapping, Placement};
use std::collections::BTreeMap;

/// The BV depths the paper sweeps (Fig. 10(a)); other values execute but
/// are outside the validated design space.
const SWEPT_BV_DEPTHS: [u32; 4] = [4, 8, 16, 32];

/// Arrays occupying less than this fraction of their allocated columns
/// while spanning several tiles draw a utilization info.
const LOW_UTILIZATION: f64 = 0.02;

/// Shared context for all rule passes.
pub(crate) struct Checker<'a> {
    pub compiled: &'a [Compiled],
    pub mapping: &'a Mapping,
    pub arch: &'a ArchConfig,
    pub report: Report,
}

impl Checker<'_> {
    /// Runs every rule pass and returns the collected report.
    pub(crate) fn run(mut self) -> Report {
        self.check_config();
        self.check_coverage();
        for (idx, array) in self.mapping.arrays.iter().enumerate() {
            self.check_array_shape(idx, array);
            match &array.kind {
                ArrayKind::Nfa { placements } => {
                    self.check_state_arrays(idx, array, placements, None)
                }
                ArrayKind::Nbva { depth, placements } => {
                    self.check_state_arrays(idx, array, placements, Some(*depth))
                }
                ArrayKind::Lnfa { bins } => self.check_lnfa_array(idx, array, bins),
            }
        }
        self.report
    }

    fn error(&mut self, rule: Rule, loc: Location, msg: String) {
        self.report.push(rule, Severity::Error, loc, msg);
    }

    fn warn(&mut self, rule: Rule, loc: Location, msg: String) {
        self.report.push(rule, Severity::Warning, loc, msg);
    }

    fn info(&mut self, rule: Rule, loc: Location, msg: String) {
        self.report.push(rule, Severity::Info, loc, msg);
    }

    /// V011: the plan must have been produced for the architecture it is
    /// verified against, and the simulator must be able to build the
    /// geometry the plan was mapped for. A streaming run sizes its FIFOs
    /// and its ping-pong window from it, and a zero-entry buffer never
    /// moves a byte or a report. The array kernels hold a tile in one
    /// 128-bit word and an array's tiles in one 64-bit mask, so neither
    /// the mapped nor the target tile geometry may exceed
    /// [`MAX_TILE_COLUMNS`] or [`MAX_TILES_PER_ARRAY`].
    fn check_config(&mut self) {
        let cfg = &self.mapping.config;
        let buffers = [
            ("bank_input_entries", cfg.arch.bank_input_entries),
            ("array_input_entries", cfg.arch.array_input_entries),
            ("bank_output_entries", cfg.arch.bank_output_entries),
            ("array_output_entries", cfg.arch.array_output_entries),
        ];
        for (field, entries) in buffers {
            if entries == 0 {
                self.error(
                    Rule::ConfigMismatch,
                    Location::default(),
                    format!("mapped buffer geometry has {field} = 0: the bank cannot build it"),
                );
            }
        }
        let tiles = [
            (
                "tile_columns",
                cfg.arch.tile_columns.max(self.arch.tile_columns),
                MAX_TILE_COLUMNS,
            ),
            (
                "tiles_per_array",
                cfg.arch.tiles_per_array.max(self.arch.tiles_per_array),
                MAX_TILES_PER_ARRAY,
            ),
        ];
        for (field, value, limit) in tiles {
            if value > limit {
                self.error(
                    Rule::ConfigMismatch,
                    Location::default(),
                    format!(
                        "tile geometry has {field} = {value}: the simulator runs at most {limit}"
                    ),
                );
            }
        }
        if cfg.arch != *self.arch {
            self.warn(
                Rule::ConfigMismatch,
                Location::default(),
                "mapping was produced for a different ArchConfig than the one \
                 verified against"
                    .into(),
            );
        }
        if cfg.bin_size > self.arch.max_bin_size {
            self.warn(
                Rule::ConfigMismatch,
                Location::default(),
                format!(
                    "configured bin size {} exceeds max_bin_size {} (the mapper \
                     clamps it)",
                    cfg.bin_size, self.arch.max_bin_size
                ),
            );
        }
    }

    /// V008 (+V004 for out-of-range indices): every pattern placed exactly
    /// once, in an array of its mode; every LNFA unit exactly once.
    fn check_coverage(&mut self) {
        let n = self.compiled.len();
        let mut seen = vec![0u32; n];
        // (pattern, unit) placements for LNFA images.
        let mut unit_seen: Vec<Vec<u32>> = self
            .compiled
            .iter()
            .map(|c| match c {
                Compiled::Lnfa(img) => vec![0u32; img.units.len()],
                _ => Vec::new(),
            })
            .collect();

        for (idx, array) in self.mapping.arrays.iter().enumerate() {
            match &array.kind {
                ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } => {
                    for p in placements {
                        let loc = Location::array(idx).pattern(p.pattern);
                        if p.pattern >= n {
                            self.error(
                                Rule::PlacementRange,
                                loc,
                                format!(
                                    "placement names pattern {} but the workload has \
                                     only {n}",
                                    p.pattern
                                ),
                            );
                            continue;
                        }
                        seen[p.pattern] += 1;
                        let mode = self.compiled[p.pattern].mode();
                        if mode != array.mode() {
                            self.error(
                                Rule::PatternCoverage,
                                loc,
                                format!(
                                    "pattern compiled for {mode} placed in a {} array",
                                    array.mode()
                                ),
                            );
                        }
                    }
                }
                ArrayKind::Lnfa { bins } => {
                    for (b, bin) in bins.iter().enumerate() {
                        for m in &bin.members {
                            let loc = Location::array(idx).bin(b).pattern(m.pattern);
                            if m.pattern >= n {
                                self.error(
                                    Rule::PlacementRange,
                                    loc,
                                    format!(
                                        "bin member names pattern {} but the workload \
                                         has only {n}",
                                        m.pattern
                                    ),
                                );
                                continue;
                            }
                            let Compiled::Lnfa(img) = &self.compiled[m.pattern] else {
                                self.error(
                                    Rule::PatternCoverage,
                                    loc,
                                    format!(
                                        "pattern compiled for {} placed in a LNFA array",
                                        self.compiled[m.pattern].mode()
                                    ),
                                );
                                continue;
                            };
                            if m.unit >= img.units.len() {
                                self.error(
                                    Rule::PlacementRange,
                                    loc,
                                    format!(
                                        "bin member names unit {} but the image has \
                                         only {}",
                                        m.unit,
                                        img.units.len()
                                    ),
                                );
                                continue;
                            }
                            unit_seen[m.pattern][m.unit] += 1;
                        }
                    }
                }
            }
        }

        for (pattern, c) in self.compiled.iter().enumerate() {
            let loc = Location::default().pattern(pattern);
            match c {
                Compiled::Lnfa(_) => {
                    let units = &unit_seen[pattern];
                    if units.iter().all(|&k| k == 0) {
                        self.error(
                            Rule::PatternCoverage,
                            loc,
                            "pattern is not placed in any array".into(),
                        );
                    } else if let Some(unit) = units.iter().position(|&k| k != 1) {
                        self.error(
                            Rule::PatternCoverage,
                            loc,
                            format!(
                                "chain unit {unit} placed {} times (expected once)",
                                units[unit]
                            ),
                        );
                    }
                }
                _ => match seen[pattern] {
                    1 => {}
                    0 => self.error(
                        Rule::PatternCoverage,
                        loc,
                        "pattern is not placed in any array".into(),
                    ),
                    k => self.error(
                        Rule::PatternCoverage,
                        loc,
                        format!("pattern placed {k} times (expected once)"),
                    ),
                },
            }
        }
    }

    /// V010 + V012: per-array geometry and utilization advisories.
    fn check_array_shape(&mut self, idx: usize, array: &ArrayPlan) {
        let loc = Location::array(idx);
        if array.tiles_used > self.arch.tiles_per_array {
            self.error(
                Rule::ArrayOverflow,
                loc,
                format!(
                    "array claims {} tiles but the architecture has {} per array",
                    array.tiles_used, self.arch.tiles_per_array
                ),
            );
        }
        let capacity = u64::from(array.tiles_used) * u64::from(self.arch.tile_columns);
        if capacity > 0
            && array.tiles_used > 1
            && (array.columns_used as f64) < LOW_UTILIZATION * capacity as f64
        {
            self.info(
                Rule::LowUtilization,
                loc,
                format!(
                    "array occupies {} of {capacity} allocated columns",
                    array.columns_used
                ),
            );
        }
    }

    /// The NFA/NBVA array passes: V001/V002/V003 (NBVA only), V004, V005,
    /// V006.
    fn check_state_arrays(
        &mut self,
        idx: usize,
        array: &ArrayPlan,
        placements: &[Placement],
        depth: Option<u32>,
    ) {
        if let Some(depth) = depth {
            self.check_bv_depth(idx, placements, depth);
        }

        // Per-tile tables cover the tiles a state may be placed on: those
        // the array allocated, within the architecture and the kernels'
        // limit (so a hostile geometry costs a finding, not an allocation).
        let tiles = array
            .tiles_used
            .min(self.arch.tiles_per_array)
            .min(MAX_TILES_PER_ARRAY);
        let mut tile_columns = vec![0u64; tiles as usize];
        // A global port carries one state's activation signal, however many
        // consumers it fans out to. Per (pattern, source state), `signals`
        // holds the tiles the signal leaves (out) and enters (in) as masks
        // over the array's at most `MAX_TILES_PER_ARRAY` = 64 tiles. A
        // pattern placed twice in one array (a hostile mapping, V008)
        // shares one entry, so its signals count once per tile.
        let mut signals: BTreeMap<usize, Vec<TileMasks>> = BTreeMap::new();
        let mut tile_actions: Vec<Option<ReadAction>> = vec![None; tiles as usize];

        for p in placements {
            if p.pattern >= self.compiled.len() {
                continue; // reported by check_coverage
            }
            let loc = Location::array(idx).pattern(p.pattern);
            let image = &self.compiled[p.pattern];
            let states = match image {
                Compiled::Nfa(img) => img.nfa.len(),
                Compiled::Nbva(img) => img.nbva.len(),
                Compiled::Lnfa(_) => continue, // mode mismatch already reported
            };
            if p.state_tile.len() != states {
                self.error(
                    Rule::PlacementRange,
                    loc,
                    format!(
                        "placement maps {} states but the automaton has {states}",
                        p.state_tile.len()
                    ),
                );
                continue;
            }
            let mut in_range = true;
            for (state, &tile) in p.state_tile.iter().enumerate() {
                if tile >= tiles {
                    self.error(
                        Rule::PlacementRange,
                        loc.tile(tile),
                        format!(
                            "state {state} placed in tile {tile} outside the \
                             array's {} allocated tiles",
                            array.tiles_used
                        ),
                    );
                    in_range = false;
                }
            }
            if !in_range {
                continue;
            }

            // Column accounting + NBVA per-state checks.
            match image {
                Compiled::Nfa(img) => {
                    for (state, &cols) in img.state_columns.iter().enumerate() {
                        tile_columns[p.state_tile[state] as usize] += u64::from(cols.max(1));
                    }
                }
                Compiled::Nbva(img) => {
                    self.check_nbva_states(idx, array, p, img, &mut tile_columns);
                    for (state, alloc) in img.bv_allocs.iter().enumerate() {
                        let Some(alloc) = alloc else { continue };
                        let tile = p.state_tile[state] as usize;
                        // V003: no r with rAll in one tile.
                        match (normalize(alloc.read), tile_actions[tile]) {
                            (a, None) => tile_actions[tile] = Some(a),
                            (a, Some(b)) if a == b => {}
                            (_, Some(_)) => self.error(
                                Rule::ReadActionMix,
                                loc.tile(tile as u32),
                                "tile hosts both r and rAll bit-vector read \
                                 actions"
                                    .to_string(),
                            ),
                        }
                    }
                }
                Compiled::Lnfa(_) => unreachable!("filtered above"),
            }

            // V006: recomputed cross-tile edge count and port demand.
            let masks = signals
                .entry(p.pattern)
                .or_insert_with(|| vec![TileMasks::default(); states]);
            let mut crossing = 0u32;
            for (from, mask) in masks.iter_mut().enumerate() {
                let ft = p.state_tile[from];
                let mut into = 0u64;
                for &to in successors(image, from) {
                    let tt = p.state_tile[to as usize];
                    if tt != ft {
                        crossing += 1;
                        into |= 1 << tt;
                    }
                }
                if into != 0 {
                    mask.out |= 1 << ft;
                    mask.into |= into;
                }
            }
            if crossing != p.cross_tile_edges {
                self.error(
                    Rule::GlobalPorts,
                    loc,
                    format!(
                        "placement records {} cross-tile edges but the automaton \
                         wiring has {crossing}",
                        p.cross_tile_edges
                    ),
                );
            }
        }

        for (tile, &cols) in tile_columns.iter().enumerate() {
            if cols > u64::from(self.arch.tile_columns) {
                self.error(
                    Rule::ColumnOvercommit,
                    Location::array(idx).tile(tile as u32),
                    format!(
                        "tile holds {cols} columns of state storage but has only {}",
                        self.arch.tile_columns
                    ),
                );
            }
        }
        let total: u64 = tile_columns.iter().sum();
        if total != array.columns_used && !placements.is_empty() {
            self.error(
                Rule::ColumnOvercommit,
                Location::array(idx),
                format!(
                    "array records columns_used = {} but its placements occupy \
                     {total}",
                    array.columns_used
                ),
            );
        }
        let mut out_ports = vec![0u64; tiles as usize];
        let mut in_ports = vec![0u64; tiles as usize];
        for m in signals.values().flatten() {
            for (ports, mut mask) in [(&mut out_ports, m.out), (&mut in_ports, m.into)] {
                while mask != 0 {
                    ports[mask.trailing_zeros() as usize] += 1;
                    mask &= mask - 1;
                }
            }
        }
        // Input and output taps are separate port banks; each side gets the
        // full per-tile budget.
        for (tile, (&out, &inp)) in out_ports.iter().zip(&in_ports).enumerate() {
            for (dir, ports) in [("output", out), ("input", inp)] {
                if ports > u64::from(self.arch.global_ports_per_tile) {
                    self.warn(
                        Rule::GlobalPorts,
                        Location::array(idx).tile(tile as u32),
                        format!(
                            "tile needs {ports} global-switch {dir} ports but has {}",
                            self.arch.global_ports_per_tile
                        ),
                    );
                }
            }
        }
    }

    /// V001: depth legality and uniformity for one NBVA array.
    fn check_bv_depth(&mut self, idx: usize, placements: &[Placement], depth: u32) {
        let loc = Location::array(idx);
        if depth == 0 || depth > self.arch.cam_rows {
            self.error(
                Rule::BvDepth,
                loc,
                format!(
                    "BV depth {depth} outside the CAM's 1..={} rows",
                    self.arch.cam_rows
                ),
            );
        } else if !SWEPT_BV_DEPTHS.contains(&depth) {
            self.warn(
                Rule::BvDepth,
                loc,
                format!("BV depth {depth} outside the validated set {SWEPT_BV_DEPTHS:?}"),
            );
        }
        for p in placements {
            let Some(Compiled::Nbva(img)) = self.compiled.get(p.pattern) else {
                continue;
            };
            if img.depth != depth {
                self.error(
                    Rule::BvDepth,
                    loc.pattern(p.pattern),
                    format!(
                        "image compiled at BV depth {} placed in a depth-{depth} \
                         array",
                        img.depth
                    ),
                );
            }
        }
    }

    /// V002 + V005 accounting for one NBVA placement.
    fn check_nbva_states(
        &mut self,
        idx: usize,
        _array: &ArrayPlan,
        p: &Placement,
        img: &CompiledNbva,
        tile_columns: &mut [u64],
    ) {
        let loc = Location::array(idx).pattern(p.pattern);
        let bvm = self.mapping.config.bvm;
        for (state, (&cols, alloc)) in img
            .state_columns
            .iter()
            .zip(img.bv_allocs.iter())
            .enumerate()
        {
            let block = match (alloc, bvm) {
                // BVAP-style machines keep the vector in BVM slots; the CAM
                // block shrinks to the CC codes + initial vector.
                (Some(a), Some(_)) => cols.saturating_sub(a.columns).max(1),
                _ => cols.max(1),
            };
            tile_columns[p.state_tile[state] as usize] += u64::from(block);
            if block > self.arch.tile_columns {
                self.error(
                    Rule::BvWidth,
                    loc.tile(p.state_tile[state]),
                    format!(
                        "state {state} needs {block} columns in one tile (> {}); \
                         bit vectors cannot span tiles",
                        self.arch.tile_columns
                    ),
                );
            }
            let Some(alloc) = alloc else { continue };
            if alloc.width_bits == 0 || alloc.width_bits > self.arch.max_bv_bits() {
                self.error(
                    Rule::BvWidth,
                    loc,
                    format!(
                        "state {state} allocates a {}-bit vector (legal range 1..={})",
                        alloc.width_bits,
                        self.arch.max_bv_bits()
                    ),
                );
            }
            if alloc.depth > 0 && alloc.columns != alloc.width_bits.div_ceil(alloc.depth) {
                self.error(
                    Rule::BvWidth,
                    loc,
                    format!(
                        "state {state} records {} BV columns; {} bits at depth {} \
                         require {}",
                        alloc.columns,
                        alloc.width_bits,
                        alloc.depth,
                        alloc.width_bits.div_ceil(alloc.depth)
                    ),
                );
            }
        }
    }

    /// The LNFA array passes: V004/V005/V007/V009.
    fn check_lnfa_array(&mut self, idx: usize, array: &ArrayPlan, bins: &[Bin]) {
        // Per-resource tile occupancy: CAM-path bins and switch-path bins
        // overlay the same tiles (§3.2), so overlap is only illegal within
        // one resource.
        let mut spans: [Vec<(u32, u32, usize)>; 2] = [Vec::new(), Vec::new()];
        let mut columns_total = 0u64;

        for (b, bin) in bins.iter().enumerate() {
            let loc = Location::array(idx).bin(b);
            columns_total += bin.columns_used();
            self.check_bin_shape(idx, b, bin);
            if array.tiles_used <= self.arch.tiles_per_array
                && bin.first_tile + bin.tiles > array.tiles_used
            {
                self.error(
                    Rule::BinShape,
                    loc,
                    format!(
                        "bin spans tiles {}..{} outside the array's {} allocated \
                         tiles",
                        bin.first_tile,
                        bin.first_tile + bin.tiles,
                        array.tiles_used
                    ),
                );
            }
            let resource = match bin.members.first().map(|m| m.path) {
                Some(MatchPath::LocalSwitch) => 1,
                _ => 0,
            };
            spans[resource].push((bin.first_tile, bin.first_tile + bin.tiles, b));
            self.check_bin_members(idx, b, bin);
        }

        for resource in &mut spans {
            resource.sort_unstable();
            for pair in resource.windows(2) {
                let (&(_, end, first), &(start, _, second)) = (&pair[0], &pair[1]);
                if start < end {
                    self.error(
                        Rule::ColumnOvercommit,
                        Location::array(idx).bin(second),
                        format!(
                            "bins {first} and {second} overlap on the same tile \
                             memory"
                        ),
                    );
                }
            }
        }

        if columns_total != array.columns_used && !bins.is_empty() {
            self.error(
                Rule::ColumnOvercommit,
                Location::array(idx),
                format!(
                    "array records columns_used = {} but its bins occupy \
                     {columns_total}",
                    array.columns_used
                ),
            );
        }
    }

    /// V007 geometry for one bin.
    fn check_bin_shape(&mut self, idx: usize, b: usize, bin: &Bin) {
        let loc = Location::array(idx).bin(b);
        if bin.size == 0 || bin.size > self.arch.max_bin_size {
            self.error(
                Rule::BinShape,
                loc,
                format!(
                    "bin size {} outside the architecture's 1..={}",
                    bin.size, self.arch.max_bin_size
                ),
            );
            return;
        }
        if bin.members.len() as u32 > bin.size {
            self.error(
                Rule::BinShape,
                loc,
                format!(
                    "bin holds {} chains but has {} regions",
                    bin.members.len(),
                    bin.size
                ),
            );
        }
        if 2 * bin.size > self.arch.ring_width_bits {
            self.error(
                Rule::BinShape,
                loc,
                format!(
                    "bin size {} needs {} ring bits (2 per lane) but the ring is \
                     {} wide",
                    bin.size,
                    2 * bin.size,
                    self.arch.ring_width_bits
                ),
            );
        }
        if bin.region_columns != self.arch.tile_columns / bin.size {
            self.error(
                Rule::BinShape,
                loc,
                format!(
                    "bin records {}-column regions; {} regions of a {}-column tile \
                     give {}",
                    bin.region_columns,
                    bin.size,
                    self.arch.tile_columns,
                    self.arch.tile_columns / bin.size
                ),
            );
            return;
        }
        if bin.region_columns == 0 {
            return; // reported above via size > tile_columns geometry
        }
        let needed = bin
            .members
            .iter()
            .map(|m| m.columns().div_ceil(bin.region_columns))
            .max()
            .unwrap_or(0);
        if bin.tiles < needed {
            self.error(
                Rule::BinShape,
                loc,
                format!(
                    "bin claims {} tiles but its longest chain needs {needed}",
                    bin.tiles
                ),
            );
        }
        if bin.first_tile + bin.tiles > self.arch.tiles_per_array {
            self.error(
                Rule::BinShape,
                loc,
                format!(
                    "bin spans tiles {}..{} beyond the array's {}",
                    bin.first_tile,
                    bin.first_tile + bin.tiles,
                    self.arch.tiles_per_array
                ),
            );
        }
    }

    /// V009: member geometry against the compiled chain units.
    fn check_bin_members(&mut self, idx: usize, b: usize, bin: &Bin) {
        for m in &bin.members {
            let loc = Location::array(idx).bin(b).pattern(m.pattern);
            let Some(Compiled::Lnfa(img)) = self.compiled.get(m.pattern) else {
                continue; // reported by check_coverage
            };
            let Some(unit) = img.units.get(m.unit) else {
                continue; // reported by check_coverage
            };
            if m.len as usize != unit.lnfa.len() {
                self.error(
                    Rule::CcEncoding,
                    loc,
                    format!(
                        "bin member records a {}-state chain but unit {} has {}",
                        m.len,
                        m.unit,
                        unit.lnfa.len()
                    ),
                );
            }
            let expected_cols = match m.path {
                MatchPath::Cam => 1,
                MatchPath::LocalSwitch => 2,
            };
            if m.cols_per_state != expected_cols {
                self.error(
                    Rule::CcEncoding,
                    loc,
                    format!(
                        "{:?}-path chain records {} columns per state (expected \
                         {expected_cols})",
                        m.path, m.cols_per_state
                    ),
                );
            }
            // The one-hot local-switch fallback is always legal; the CAM
            // path requires every class to fit a single CC code.
            if m.path == MatchPath::Cam {
                let all_single = unit
                    .lnfa
                    .classes()
                    .iter()
                    .all(|cc| single_code(cc).is_some());
                if !all_single {
                    self.error(
                        Rule::CcEncoding,
                        loc,
                        "CAM-path chain contains a character class with no single \
                         CC code (needs the one-hot local-switch path)"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// Collapses exact read widths: only the r-vs-rAll family matters for the
/// tile-sharing rule.
fn normalize(read: ReadAction) -> ReadAction {
    match read {
        ReadAction::Exact(_) => ReadAction::Exact(0),
        ReadAction::All => ReadAction::All,
    }
}

/// The tiles one state's activation signal leaves and enters.
#[derive(Clone, Copy, Debug, Default)]
struct TileMasks {
    out: u64,
    into: u64,
}

/// State `q`'s successor list in an NFA or NBVA image.
fn successors(image: &Compiled, q: usize) -> &[u32] {
    match image {
        Compiled::Nfa(img) => &img.nfa.states()[q].succ,
        Compiled::Nbva(img) => &img.nbva.states()[q].succ,
        Compiled::Lnfa(_) => unreachable!("placements of LNFA images are skipped"),
    }
}
