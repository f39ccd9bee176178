//! Word-level array kernels: every cycle steps whole tiles, the way the
//! paper's tile computes (§2.2, §3.1).
//!
//! * The **tile kernel** ([`TileArray`]) runs NFA and NBVA arrays; an NFA
//!   array is an NBVA array without bit-vector (BV) states. Each tile
//!   keeps a 128-bit active word. The CAM search is a match column per
//!   input byte, one bit per state whose class holds the byte, built the
//!   first time the byte arrives from the array's distinct character
//!   classes. State transition ORs the crossbar row of every emitting state
//!   into the next cycle's candidates: one word for the tile's own local
//!   crossbar plus one entry per other tile reached through the global
//!   crossbar. BV states live in a short side list that applies the
//!   `set1`/`shft`/read actions and starts the bit-vector-processing phase,
//!   which stalls the array for `depth` cycles (or BVAP's fixed latency).
//! * The **chain kernel** ([`ChainArray`]) runs LNFA arrays. Every chain of
//!   every bin is packed into one Shift-And register, so a cycle is
//!   `states = ((states << 1) | starts) & label[byte]` over a few words.
//!
//! Crossbar rows and match columns are *lowered lazily*: a row the first
//! time its state activates, a column the first time its byte arrives. A
//! run therefore never pays for the edges of states it never visits, and
//! nothing lowered outlives the run.
//!
//! Energy is charged against the circuit models with activity factors
//! (active states per tile, cross-tile signals, candidate states) taken
//! from the configuration *entering* each cycle. The activity-scaled
//! charges are dyadic rationals, so a run counts how many cycles it spent
//! at each activity level and charges `count × energy(level)` once, at the
//! end: every product and sum is exact, hence bit-identical to charging
//! every cycle. Wire and buffer energies are not dyadic; they are charged
//! every cycle, in cycle order.
//!
//! [`run_array`] drives one array over a whole input slice (the batch
//! `simulate` entry point); the bank-level streaming simulation in
//! [`crate::bank`] interleaves arrays cycle by cycle through the §3.3
//! buffer hierarchy.

use crate::cost::CostModel;
use crate::result::MatchEvent;
use rap_automata::bitvec::BitVec;
use rap_automata::nbva::{ReadAction, StateKind};
use rap_automata::StateId;
use rap_circuit::energy::Category;
use rap_circuit::{EnergyMeter, Machine};
use rap_compiler::{Compiled, MatchPath};
use rap_mapper::{ArrayKind, ArrayPlan, Bin, Placement};
use rap_regex::CharClass;
use rap_telemetry::{ProbeEvent, SimProbe};
use std::collections::BTreeMap;

/// States per tile word: a tile has 128 columns and every state takes at
/// least one.
const TILE_BITS: usize = 128;

/// What one array produced: its private cycle count (stalls included), its
/// match reports, and the tile-cycles that were actually powered (gated
/// tiles leak ~nothing, which is where LNFA mode's §3.2 savings and the
/// NBVA phase's §3.3 tile-disabling come from).
pub(crate) struct ArrayOutcome {
    pub cycles: u64,
    pub matches: Vec<MatchEvent>,
    pub powered_tile_cycles: u64,
}

/// A point-in-time activity sample of one array, as seen by a telemetry
/// probe (see [`Array::observe`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ArrayObservation {
    /// Automaton states currently active across the array.
    pub active_states: u64,
    /// Tiles that will draw power on the next cycle (gated tiles excluded).
    pub powered_tiles: u64,
}

/// One array, lowered to its kernel.
pub(crate) enum Array {
    /// NFA or NBVA tiles.
    Tile(Box<TileArray>),
    /// LNFA bins.
    Chain(Box<ChainArray>),
}

impl Array {
    /// Lowers an array plan. Only per-state bookkeeping happens here;
    /// crossbar rows and match columns are lowered on demand, from the
    /// `compiled` images every [`Array::tick`] is handed.
    pub(crate) fn new(compiled: &[Compiled], plan: &ArrayPlan, cost: &CostModel) -> Array {
        let tiles = plan.tiles_used as usize;
        match &plan.kind {
            ArrayKind::Nfa { placements } => Array::Tile(Box::new(TileArray::new(
                compiled, placements, tiles, None, *cost,
            ))),
            ArrayKind::Nbva { depth, placements } => {
                let stall = if cost.machine == Machine::Bvap {
                    cost.bvap_stall_cycles
                } else {
                    u64::from(*depth)
                };
                Array::Tile(Box::new(TileArray::new(
                    compiled,
                    placements,
                    tiles,
                    Some(stall),
                    *cost,
                )))
            }
            ArrayKind::Lnfa { bins } => {
                Array::Chain(Box::new(ChainArray::new(compiled, bins, tiles, *cost)))
            }
        }
    }

    /// Whether the next cycle is a stall cycle (the array will not accept
    /// an input byte).
    pub(crate) fn stalled(&self) -> bool {
        match self {
            Array::Tile(a) => a.stall_remaining > 0,
            Array::Chain(_) => false,
        }
    }

    /// Advances one clock cycle. When not stalled, `byte` must be the next
    /// input symbol and `offset` its 0-based position; matches ending this
    /// cycle are appended to `out` (one per placed pattern or chain). When
    /// stalled, `byte` is ignored. `compiled` must be the images the array
    /// was built from: rows of first activations are lowered from them.
    pub(crate) fn tick(
        &mut self,
        compiled: &[Compiled],
        byte: Option<u8>,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    ) {
        match self {
            Array::Tile(a) => a.tick(compiled, byte, offset, meter, out),
            Array::Chain(a) => a.step(byte.expect("LNFA arrays never stall"), offset, meter, out),
        }
    }

    /// Tile-cycles powered so far.
    pub(crate) fn powered_tile_cycles(&self) -> u64 {
        match self {
            Array::Tile(a) => tile_cycles(&a.powered),
            Array::Chain(a) => tile_cycles(&a.powered),
        }
    }

    /// Samples the array's current activity for a telemetry probe. Pure
    /// observation: never charges energy or mutates state.
    pub(crate) fn observe(&self) -> ArrayObservation {
        match self {
            Array::Tile(a) => a.observe(),
            Array::Chain(a) => a.observe(),
        }
    }

    /// Charges the activity-scaled energy counted so far. Call once, when
    /// the array's run ends.
    pub(crate) fn settle(&self, meter: &mut EnergyMeter) {
        match self {
            Array::Tile(a) => a.settle(meter),
            Array::Chain(a) => a.settle(meter),
        }
    }
}

/// Drives one array over a whole input slice (stalls expanded in place)
/// and settles its energy.
///
/// When a telemetry probe is attached (as `(probe, array index)`), the
/// loop emits an [`ProbeEvent::Array`] sample every
/// [`SimProbe::sample_every`] cycles and one [`ProbeEvent::ArrayEnd`]
/// summary at the end. Probing only observes — energy, cycles, and
/// matches are identical with and without it.
pub(crate) fn run_array(
    sim: &mut Array,
    compiled: &[Compiled],
    input: &[u8],
    meter: &mut EnergyMeter,
    mut probe: Option<(&mut SimProbe, u32)>,
) -> ArrayOutcome {
    let mut cycles = 0u64;
    let mut matches = Vec::new();
    let mut step = |sim: &mut Array,
                    byte: Option<u8>,
                    offset: usize,
                    cycles: &mut u64,
                    matches: &mut Vec<MatchEvent>| {
        if let Some((probe, array)) = probe.as_mut() {
            if (*cycles).is_multiple_of(u64::from(probe.sample_every())) {
                let obs = sim.observe();
                probe.push(ProbeEvent::Array {
                    cycle: *cycles,
                    array: *array,
                    active_states: obs.active_states,
                    powered_tiles: obs.powered_tiles,
                    stalled: sim.stalled(),
                });
            }
        }
        sim.tick(compiled, byte, offset, meter, matches);
        *cycles += 1;
    };
    for (offset, &byte) in input.iter().enumerate() {
        while sim.stalled() {
            step(sim, None, offset, &mut cycles, &mut matches);
        }
        step(sim, Some(byte), offset, &mut cycles, &mut matches);
    }
    while sim.stalled() {
        step(sim, None, input.len(), &mut cycles, &mut matches);
    }
    sim.settle(meter);
    if let Some((probe, array)) = probe {
        probe.push(ProbeEvent::ArrayEnd {
            array,
            cycles,
            stall_cycles: cycles.saturating_sub(input.len() as u64),
            powered_tile_cycles: sim.powered_tile_cycles(),
            matches: matches.len() as u64,
        });
    }
    ArrayOutcome {
        cycles,
        matches,
        powered_tile_cycles: sim.powered_tile_cycles(),
    }
}

/// Charges `Σ count × energy(level)` over the activity levels that
/// occurred, or nothing when no cycle charged `category`. Every per-level
/// energy is a dyadic rational with a small denominator (see
/// `cost::tests::activity_scaled_charges_are_dyadic`), so each product and
/// the sum are exact: the result equals the per-cycle running sum bit for
/// bit.
fn charge_levels(
    meter: &mut EnergyMeter,
    category: Category,
    counts: &[u64],
    energy: impl Fn(usize) -> f64,
) {
    if counts.iter().all(|&n| n == 0) {
        return;
    }
    let pj = counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(level, &n)| n as f64 * energy(level))
        .sum();
    meter.charge(category, pj);
}

/// Controller energy of one cycle with `tiles` powered tiles.
fn controller_pj(cost: &CostModel, tiles: usize) -> f64 {
    cost.local_ctrl_pj * tiles as f64 + cost.global_ctrl_pj
}

/// Tile-cycles behind a cycles-by-powered-tiles histogram.
fn tile_cycles(powered: &[u64]) -> u64 {
    powered
        .iter()
        .enumerate()
        .map(|(tiles, &n)| tiles as u64 * n)
        .sum()
}

/// The distinct character classes of an array (its shared class alphabet,
/// as in Mata), each with the storage positions it labels, and the
/// per-byte table built from them: match columns in the tile kernel,
/// Shift-And labels in the chain kernel. A byte's entry is built, and
/// stored, the first time the byte arrives.
struct Alphabet<W> {
    /// Words per class mask and per table entry.
    width: usize,
    /// Class bitmap → index into `classes`.
    index: BTreeMap<[u64; 4], usize>,
    classes: Vec<CharClass>,
    /// `width` words per class: the positions it labels.
    masks: Vec<W>,
    /// The class labelled last.
    last: usize,
    /// Per byte: offset of its entry in `table` (`u32::MAX` until the
    /// byte arrives).
    offsets: [u32; 256],
    /// `width` words per arrived byte: the positions whose class holds it.
    table: Vec<W>,
}

impl<W: Copy + Default + std::ops::BitOrAssign> Alphabet<W> {
    fn new(width: usize) -> Alphabet<W> {
        Alphabet {
            width,
            index: BTreeMap::new(),
            classes: Vec::new(),
            masks: Vec::new(),
            last: usize::MAX,
            offsets: [u32::MAX; 256],
            table: Vec::new(),
        }
    }

    /// Labels position `bit` of word `word` with `cc`.
    fn add(&mut self, cc: CharClass, word: usize, bit: W) {
        // Runs of one class (unfolded repetitions) skip the lookup.
        if self.classes.get(self.last) != Some(&cc) {
            self.last = *self.index.entry(*cc.as_words()).or_insert_with(|| {
                self.classes.push(cc);
                self.masks
                    .resize(self.classes.len() * self.width, W::default());
                self.classes.len() - 1
            });
        }
        self.masks[self.last * self.width + word] |= bit;
    }

    /// Offset of `byte`'s entry in [`Alphabet::table`]: the OR of the
    /// masks of every class holding the byte.
    fn lookup(&mut self, byte: u8) -> usize {
        let width = self.width;
        if self.offsets[usize::from(byte)] == u32::MAX {
            let base = self.table.len();
            self.offsets[usize::from(byte)] =
                u32::try_from(base).expect("at most 256 entries of one array's width");
            self.table.resize(base + width, W::default());
            let entry = &mut self.table[base..];
            for (c, cc) in self.classes.iter().enumerate() {
                if cc.contains(byte) {
                    for (o, &m) in entry.iter_mut().zip(&self.masks[c * width..]) {
                        *o |= m;
                    }
                }
            }
        }
        self.offsets[usize::from(byte)] as usize
    }
}

// ---------------------------------------------------------------------
// Tile kernel: NFA and NBVA arrays
// ---------------------------------------------------------------------

/// A lowered crossbar row: where one state's activation routes.
#[derive(Clone, Copy, Default)]
struct Row {
    /// Successors in the state's own tile (the local crossbar).
    local: u128,
    /// Range of [`TileArray::links`] reached through the global crossbar.
    links: (u32, u32),
}

/// One global-crossbar entry of a row: successors in another tile.
#[derive(Clone, Copy)]
struct Link {
    tile: usize,
    mask: u128,
}

/// The words of one tile, one bit per state slot.
#[derive(Clone, Copy, Default)]
struct Tile {
    /// Active plain states.
    active: u128,
    /// BV states with a live vector, and those whose read action succeeds.
    live: u128,
    emit: u128,
    /// Always-armed initial states, and the `^`-anchored ones among them
    /// (armed on the first byte only).
    initial: u128,
    anchored: u128,
    /// Plain final states, and BV state slots.
    finals: u128,
    vectors: u128,
    /// States whose row is lowered, and those among them with a cross-tile
    /// successor.
    lowered: u128,
    cross: u128,
}

/// A bit-vector state, kept beside the tile words.
struct VectorState {
    slot: usize,
    cc: CharClass,
    read: ReadAction,
    vector: BitVec,
    is_final: bool,
    placement: usize,
}

/// NFA/NBVA array (§2.2, §3.1): every tile searches and routes every
/// cycle; an NBVA array additionally stalls through bit-vector phases.
pub(crate) struct TileArray {
    cost: CostModel,
    tiles: Vec<Tile>,
    /// Per tile: the next cycle's candidates, routed by the crossbar; after
    /// the CAM search, the BV states entering their vectors.
    reach: Vec<u128>,
    /// Pattern index of every placement.
    patterns: Vec<usize>,
    /// Per state slot (`tile * 128 + bit`): placement, state index in its
    /// pattern's image, and the offset of its placement's states in
    /// [`TileArray::state_slot`].
    slot_placement: Vec<u32>,
    slot_state: Vec<u32>,
    slot_base: Vec<u32>,
    /// Per slot: index of its BV state in [`TileArray::vectors`] (empty in
    /// an NFA array).
    slot_vector: Vec<u32>,
    /// Slot of every state, placement after placement.
    state_slot: Vec<u32>,
    rows: Vec<Row>,
    links: Vec<Link>,
    vectors: Vec<VectorState>,
    /// The CAM: per-byte match columns over the plain states.
    columns: Alphabet<u128>,
    /// Bytes consumed; doubles as the per-cycle report stamp.
    consumed: u64,
    reported: Vec<u64>,
    /// Stall cycles per bit-vector phase (`None`: an NFA array).
    stall_per_phase: Option<u64>,
    stall_remaining: u64,
    /// Tiles with live vectors during the current phase.
    phase_tiles: usize,
    /// Cycles by powered tiles, tile-cycles by active states, cycles by
    /// cross-tile signals, and stall cycles by live-vector tiles.
    powered: Vec<u64>,
    local_levels: Vec<u64>,
    global_levels: Vec<u64>,
    phase_levels: Vec<u64>,
}

impl TileArray {
    fn new(
        compiled: &[Compiled],
        placements: &[Placement],
        tiles: usize,
        stall_per_phase: Option<u64>,
        cost: CostModel,
    ) -> TileArray {
        let slots = tiles * TILE_BITS;
        let mut a = TileArray {
            cost,
            tiles: vec![Tile::default(); tiles],
            reach: vec![0; tiles],
            patterns: placements.iter().map(|p| p.pattern).collect(),
            slot_placement: vec![0; slots],
            slot_state: vec![0; slots],
            slot_base: vec![0; slots],
            slot_vector: Vec::new(),
            state_slot: Vec::new(),
            rows: vec![Row::default(); slots],
            links: Vec::new(),
            vectors: Vec::new(),
            columns: Alphabet::new(tiles),
            consumed: 0,
            reported: vec![0; placements.len()],
            stall_per_phase,
            stall_remaining: 0,
            phase_tiles: 0,
            powered: vec![0; tiles + 1],
            local_levels: vec![0; TILE_BITS + 1],
            global_levels: vec![0; 257],
            phase_levels: vec![0; tiles + 1],
        };
        let mut used = vec![0usize; tiles];
        for (i, p) in placements.iter().enumerate() {
            let base = a.state_slot.len();
            // An NFA array (no stall) holds NFA images, an NBVA array NBVA
            // ones; an NFA state is an NBVA state without a vector.
            let (initial, anchored_start) = match (&compiled[p.pattern], stall_per_phase) {
                (Compiled::Nfa(img), None) => {
                    for (q, s) in img.nfa.states().iter().enumerate() {
                        let (tile, bit) = a.place(&mut used, i, base, p.state_tile[q], q);
                        a.add_plain(tile, bit, s.cc, s.is_final);
                    }
                    (img.nfa.initial(), img.nfa.anchored_start())
                }
                (Compiled::Nbva(img), Some(_)) => {
                    for (q, s) in img.nbva.states().iter().enumerate() {
                        let (tile, bit) = a.place(&mut used, i, base, p.state_tile[q], q);
                        match s.kind {
                            StateKind::Plain => a.add_plain(tile, bit, s.cc, s.is_final),
                            StateKind::Bv { width, read } => {
                                a.tiles[tile].vectors |= bit;
                                a.vectors.push(VectorState {
                                    slot: tile * TILE_BITS + bit.trailing_zeros() as usize,
                                    cc: s.cc,
                                    read,
                                    vector: BitVec::zeros(width as usize),
                                    is_final: s.is_final,
                                    placement: i,
                                });
                            }
                        }
                    }
                    (img.nbva.initial(), img.nbva.anchored_start())
                }
                (other, _) => panic!(
                    "array plan references pattern {} as {} but it compiled to {}",
                    p.pattern,
                    if stall_per_phase.is_some() {
                        "NBVA"
                    } else {
                        "NFA"
                    },
                    other.mode()
                ),
            };
            for &q in initial {
                let slot = a.state_slot[base + q as usize] as usize;
                let (tile, bit) = (slot / TILE_BITS, 1u128 << (slot % TILE_BITS));
                a.tiles[tile].initial |= bit;
                if anchored_start {
                    a.tiles[tile].anchored |= bit;
                }
            }
        }
        // BV states emit without ever being plain-active: lower them now.
        if !a.vectors.is_empty() {
            a.slot_vector = vec![0; slots];
            for i in 0..a.vectors.len() {
                let slot = a.vectors[i].slot;
                a.slot_vector[slot] = i as u32;
                a.lower(compiled, slot);
            }
        }
        a
    }

    /// Gives the next free slot of `tile` to state `state` of `placement`
    /// (whose states start at `base` in [`TileArray::state_slot`]); returns
    /// the tile and the slot's bit.
    fn place(
        &mut self,
        used: &mut [usize],
        placement: usize,
        base: usize,
        tile: u32,
        state: usize,
    ) -> (usize, u128) {
        let tile = tile as usize;
        assert!(
            used[tile] < TILE_BITS,
            "tile {tile} holds more than {TILE_BITS} states"
        );
        let slot = tile * TILE_BITS + used[tile];
        used[tile] += 1;
        self.state_slot.push(slot as u32);
        self.slot_placement[slot] = placement as u32;
        self.slot_state[slot] = state as u32;
        self.slot_base[slot] = base as u32;
        (tile, 1u128 << (slot % TILE_BITS))
    }

    fn add_plain(&mut self, tile: usize, bit: u128, cc: CharClass, is_final: bool) {
        self.columns.add(cc, tile, bit);
        if is_final {
            self.tiles[tile].finals |= bit;
        }
    }

    /// Lowers the crossbar row of the state in `slot` from its successor
    /// list in `compiled`.
    fn lower(&mut self, compiled: &[Compiled], slot: usize) {
        let tile = slot / TILE_BITS;
        let start = self.links.len();
        let mut local = 0u128;
        let image = &compiled[self.patterns[self.slot_placement[slot] as usize]];
        for &succ in successors(image, self.slot_state[slot] as usize) {
            let target = self.state_slot[self.slot_base[slot] as usize + succ as usize] as usize;
            let (t, bit) = (target / TILE_BITS, 1u128 << (target % TILE_BITS));
            if t == tile {
                local |= bit;
            } else if let Some(link) = self.links[start..].iter_mut().find(|l| l.tile == t) {
                link.mask |= bit;
            } else {
                self.links.push(Link { tile: t, mask: bit });
            }
        }
        let end = self.links.len();
        self.rows[slot] = Row {
            local,
            links: (start as u32, end as u32),
        };
        let bit = 1u128 << (slot % TILE_BITS);
        self.tiles[tile].lowered |= bit;
        if end > start {
            self.tiles[tile].cross |= bit;
        }
    }

    fn tick(
        &mut self,
        compiled: &[Compiled],
        byte: Option<u8>,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    ) {
        if self.stall_remaining > 0 {
            // One cycle of the bit-vector-processing pipeline: only tiles
            // with live vectors run (read → action/route → write back).
            self.stall_remaining -= 1;
            self.powered[self.phase_tiles] += 1;
            self.phase_levels[self.phase_tiles] += 1;
            return;
        }
        let byte = byte.expect("non-stalled tick needs an input byte");

        // Transition fabric, driven by the configuration entering this
        // cycle: tally its activity and route every emitting state.
        let (mut idle_tiles, mut cross_signals) = (0, 0u32);
        for (t, tile) in self.tiles.iter().enumerate() {
            let live = tile.active | tile.live;
            // Most tiles idle; skip their (software) popcounts.
            if live == 0 {
                idle_tiles += 1;
                continue;
            }
            self.local_levels[live.count_ones() as usize] += 1;
            cross_signals += (live & tile.cross).count_ones();
            let mut emit = tile.active | tile.emit;
            while emit != 0 {
                let row = self.rows[t * TILE_BITS + emit.trailing_zeros() as usize];
                emit &= emit - 1;
                self.reach[t] |= row.local;
                for link in &self.links[row.links.0 as usize..row.links.1 as usize] {
                    self.reach[link.tile] |= link.mask;
                }
            }
        }
        self.local_levels[0] += idle_tiles;
        self.global_levels[(cross_signals as usize).min(256)] += 1;
        self.powered[self.tiles.len()] += 1;
        meter.charge(Category::Wire, self.cost.wire_pj * f64::from(cross_signals));
        meter.charge(Category::Buffer, self.cost.buffer_pj);

        // CAM search: candidates AND the byte's match column.
        let base = self.columns.lookup(byte);
        let column = &self.columns.table[base..base + self.tiles.len()];
        self.consumed += 1;
        let mut attention = false;
        for ((tile, reach), &matched) in self.tiles.iter_mut().zip(&mut self.reach).zip(column) {
            let cand = *reach | tile.initial;
            let next = cand & matched;
            // Keep only the BV candidates: they are entering their vectors.
            *reach = cand & tile.vectors;
            tile.active = next;
            attention |= next & (tile.finals | !tile.lowered) != 0;
        }
        if attention {
            self.attend(compiled, offset, out);
        }
        if self.consumed == 1 {
            // `^`-anchored initial states arm on the first byte only.
            for tile in &mut self.tiles {
                tile.initial &= !tile.anchored;
            }
        }
        if !self.vectors.is_empty() {
            self.step_vectors(byte, offset, out);
        }
    }

    /// Reports the final states that just activated and lowers the rows of
    /// first activations.
    fn attend(&mut self, compiled: &[Compiled], offset: usize, out: &mut Vec<MatchEvent>) {
        for t in 0..self.tiles.len() {
            let Tile {
                active,
                finals,
                lowered,
                ..
            } = self.tiles[t];
            let mut done = active & finals;
            while done != 0 {
                let slot = t * TILE_BITS + done.trailing_zeros() as usize;
                done &= done - 1;
                self.report(self.slot_placement[slot] as usize, offset, out);
            }
            let mut fresh = active & !lowered;
            while fresh != 0 {
                let slot = t * TILE_BITS + fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                self.lower(compiled, slot);
            }
        }
    }

    /// The BV side list: `set1` on entry, `shft` on a matching byte, clear
    /// on a mismatch, then the read action. Only live or entering vectors
    /// can change. Starts a bit-vector phase when any vector was entered or
    /// advanced.
    fn step_vectors(&mut self, byte: u8, offset: usize, out: &mut Vec<MatchEvent>) {
        let mut touched = false;
        for t in 0..self.tiles.len() {
            // `reach` holds the tile's entering BV states (see `tick`).
            let entering = std::mem::take(&mut self.reach[t]);
            let mut todo = entering | self.tiles[t].live;
            while todo != 0 {
                let slot = t * TILE_BITS + todo.trailing_zeros() as usize;
                let bit = todo & todo.wrapping_neg();
                todo &= todo - 1;
                let v = &mut self.vectors[self.slot_vector[slot] as usize];
                let entering = entering & bit != 0;
                if v.cc.contains(byte) {
                    touched |= entering || v.vector.any();
                    v.vector.shift_up();
                    if entering {
                        v.vector.set(0, true);
                    }
                } else {
                    v.vector.clear();
                }
                let live = v.vector.any();
                let emit = match v.read {
                    ReadAction::Exact(m) => v.vector.get(m as usize - 1),
                    ReadAction::All => live,
                };
                let (report, placement) = (v.is_final && emit, v.placement);
                set_bits(&mut self.tiles[t].live, bit, live);
                set_bits(&mut self.tiles[t].emit, bit, emit);
                if report {
                    self.report(placement, offset, out);
                }
            }
        }
        if touched {
            // The global controller stalls the array for the next cycles
            // while the phase streams BV words.
            self.phase_tiles = self.tiles.iter().filter(|w| w.live != 0).count();
            self.stall_remaining = self
                .stall_per_phase
                .expect("only NBVA arrays hold bit vectors");
        }
    }

    /// Reports a match of `placement` ending at `offset`, once per cycle.
    fn report(&mut self, placement: usize, offset: usize, out: &mut Vec<MatchEvent>) {
        if self.reported[placement] != self.consumed {
            self.reported[placement] = self.consumed;
            out.push(MatchEvent {
                pattern: self.patterns[placement],
                end: offset + 1,
            });
        }
    }

    fn observe(&self) -> ArrayObservation {
        let active: u32 = self
            .tiles
            .iter()
            .map(|w| (w.active | w.live).count_ones())
            .sum();
        ArrayObservation {
            active_states: u64::from(active),
            // During a bit-vector-processing phase only the tiles with
            // live vectors run; otherwise the whole array is powered.
            powered_tiles: if self.stall_remaining > 0 {
                self.phase_tiles as u64
            } else {
                self.tiles.len() as u64
            },
        }
    }

    fn settle(&self, meter: &mut EnergyMeter) {
        let cost = &self.cost;
        // Every cycle that consumed a byte searched every tile.
        let searches: u64 = self.global_levels.iter().sum();
        let tiles = self.tiles.len() as f64;
        charge_levels(meter, Category::StateMatch, &[searches], |_| {
            cost.match_pj * tiles
        });
        charge_levels(meter, Category::LocalSwitch, &self.local_levels, |k| {
            cost.local_switch
                .access_energy_pj((k as f64 / TILE_BITS as f64).min(1.0))
        });
        charge_levels(meter, Category::GlobalSwitch, &self.global_levels, |c| {
            cost.global_switch
                .access_energy_pj((c as f64 / 256.0).min(1.0))
        });
        charge_levels(meter, Category::BitVector, &self.phase_levels, |p| {
            cost.bv_step_pj * p as f64
        });
        charge_levels(meter, Category::Controller, &self.powered, |p| {
            controller_pj(cost, p)
        });
    }
}

/// Successors of state `q` of a tile-kernel (NFA or NBVA) image.
fn successors(image: &Compiled, q: usize) -> &[StateId] {
    match image {
        Compiled::Nfa(img) => &img.nfa.states()[q].succ,
        Compiled::Nbva(img) => &img.nbva.states()[q].succ,
        Compiled::Lnfa(_) => unreachable!("LNFA images run on the chain kernel"),
    }
}

fn set_bits(word: &mut u128, bits: u128, on: bool) {
    if on {
        *word |= bits;
    } else {
        *word &= !bits;
    }
}

// ---------------------------------------------------------------------
// Chain kernel: LNFA arrays
// ---------------------------------------------------------------------

/// LNFA array (§3.2): Shift-And over every chain at once, power-gated
/// tiles, ring routing between adjacent tiles.
pub(crate) struct ChainArray {
    cost: CostModel,
    /// The Shift-And register: chains back to back, in bin and member
    /// order, each with its first state at the lowest bit.
    states: Vec<u64>,
    /// First and last state of every chain, and every other state (fed
    /// by the previous position of its chain).
    starts: Vec<u64>,
    finals: Vec<u64>,
    follows: Vec<u64>,
    /// Positions whose predecessor sits on another tile (a ring hop).
    hops: Vec<u64>,
    /// Tile and pattern of every register position.
    position_tile: Vec<u32>,
    position_pattern: Vec<usize>,
    /// Per-byte Shift-And labels.
    labels: Alphabet<u64>,
    /// Per tile: chains starting there (always armed, never gated), and
    /// whether CAM-path or switch-path chains are stored there.
    initial: Vec<u32>,
    tile_cam: Vec<bool>,
    tile_switch: Vec<bool>,
    /// Per-tile candidate states of the current cycle.
    cands: Vec<u32>,
    /// Cycles by powered tiles, and powered CAM-path and switch-path
    /// tile-cycles by candidate states.
    powered: Vec<u64>,
    cam_levels: Vec<u64>,
    switch_levels: Vec<u64>,
}

impl ChainArray {
    fn new(compiled: &[Compiled], bins: &[Bin], tiles: usize, cost: CostModel) -> ChainArray {
        let lnfa = |pattern: usize, unit: usize| match &compiled[pattern] {
            Compiled::Lnfa(img) => &img.units[unit].lnfa,
            other => panic!(
                "array plan references pattern {pattern} as LNFA but it compiled to {}",
                other.mode()
            ),
        };
        let positions: usize = bins
            .iter()
            .flat_map(|bin| &bin.members)
            .map(|m| lnfa(m.pattern, m.unit).len())
            .sum();
        let words = positions.div_ceil(64);
        let mut position_tile = Vec::with_capacity(positions);
        let mut position_pattern = Vec::with_capacity(positions);
        let mut starts = vec![0; words];
        let mut finals = vec![0; words];
        let mut hops = vec![0; words];
        let mut labels = Alphabet::new(words);
        let mut initial = vec![0u32; tiles];
        let mut tile_cam = vec![false; tiles];
        let mut tile_switch = vec![false; tiles];
        for bin in bins {
            for member in &bin.members {
                let lnfa = lnfa(member.pattern, member.unit);
                for (s, cc) in lnfa.classes().iter().enumerate() {
                    let p = position_tile.len();
                    let tile = bin.first_tile + bin.tile_of_state(member, s as u32);
                    match member.path {
                        MatchPath::Cam => tile_cam[tile as usize] = true,
                        MatchPath::LocalSwitch => tile_switch[tile as usize] = true,
                    }
                    if s == 0 {
                        initial[tile as usize] += 1;
                        set_bit(&mut starts, p);
                    } else if position_tile[p - 1] != tile {
                        set_bit(&mut hops, p);
                    }
                    if s + 1 == lnfa.len() {
                        set_bit(&mut finals, p);
                    }
                    labels.add(*cc, p / 64, 1u64 << (p % 64));
                    position_tile.push(tile);
                    position_pattern.push(member.pattern);
                }
            }
        }
        let follows = (0..words)
            .map(|w| {
                let valid = if positions - 64 * w >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (positions - 64 * w)) - 1
                };
                valid & !starts[w]
            })
            .collect();
        ChainArray {
            cost,
            states: vec![0; words],
            starts,
            finals,
            follows,
            hops,
            position_tile,
            position_pattern,
            labels,
            initial,
            tile_cam,
            tile_switch,
            cands: vec![0; tiles],
            powered: vec![0; tiles + 1],
            cam_levels: vec![0; TILE_BITS + 1],
            switch_levels: vec![0; TILE_BITS + 1],
        }
    }

    fn step(
        &mut self,
        byte: u8,
        offset: usize,
        meter: &mut EnergyMeter,
        out: &mut Vec<MatchEvent>,
    ) {
        let label = self.labels.lookup(byte);
        // Candidates per tile: the always-armed first states plus the
        // successors of active states. The active vector gates the CAM
        // columns (§3.2), so matching energy scales with candidates.
        self.cands.copy_from_slice(&self.initial);
        let mut ring_crossings = 0u32;
        let mut carry = 0u64;
        for w in 0..self.states.len() {
            let states = self.states[w];
            let shifted = (states << 1) | carry;
            carry = states >> 63;
            let mut succ = shifted & self.follows[w];
            if succ != 0 {
                ring_crossings += (succ & self.hops[w]).count_ones();
            }
            while succ != 0 {
                let p = w * 64 + succ.trailing_zeros() as usize;
                succ &= succ - 1;
                self.cands[self.position_tile[p] as usize] += 1;
            }
            let next = (shifted | self.starts[w]) & self.labels.table[label + w];
            self.states[w] = next;
            let mut done = next & self.finals[w];
            while done != 0 {
                let p = w * 64 + done.trailing_zeros() as usize;
                done &= done - 1;
                out.push(MatchEvent {
                    pattern: self.position_pattern[p],
                    end: offset + 1,
                });
            }
        }
        // A tile is powered if it holds a first state or a candidate.
        let mut powered = 0;
        for (t, &cands) in self.cands.iter().enumerate() {
            if cands == 0 {
                continue;
            }
            powered += 1;
            let level = (cands as usize).min(TILE_BITS);
            if self.tile_cam[t] {
                self.cam_levels[level] += 1;
            }
            if self.tile_switch[t] {
                self.switch_levels[level] += 1;
            }
        }
        self.powered[powered] += 1;
        meter.charge(
            Category::Wire,
            self.cost.ring_hop_pj * f64::from(ring_crossings),
        );
        meter.charge(Category::Buffer, self.cost.buffer_pj);
    }

    fn observe(&self) -> ArrayObservation {
        // Mirror the step's power-gating rule: a tile is powered if it
        // holds a first state or a state an active predecessor can shift
        // into.
        let mut powered: Vec<bool> = self.initial.iter().map(|&n| n > 0).collect();
        let mut carry = 0u64;
        for (w, &states) in self.states.iter().enumerate() {
            let mut succ = ((states << 1) | carry) & self.follows[w];
            carry = states >> 63;
            while succ != 0 {
                powered[self.position_tile[w * 64 + succ.trailing_zeros() as usize] as usize] =
                    true;
                succ &= succ - 1;
            }
        }
        ArrayObservation {
            active_states: self.states.iter().map(|w| u64::from(w.count_ones())).sum(),
            powered_tiles: powered.iter().filter(|&&b| b).count() as u64,
        }
    }

    fn settle(&self, meter: &mut EnergyMeter) {
        let cost = &self.cost;
        let activity = |k: usize| (k as f64 / TILE_BITS as f64).min(1.0);
        // Column-gated CAM search: wordline drive + the candidate
        // columns' compare energy.
        charge_levels(meter, Category::StateMatch, &self.cam_levels, |k| {
            0.5 + cost.match_pj * activity(k)
        });
        // One-hot lookup in the local switch: two columns per candidate.
        charge_levels(meter, Category::StateMatch, &self.switch_levels, |k| {
            cost.local_switch
                .access_energy_pj((2.0 * activity(k)).min(1.0))
        });
        charge_levels(meter, Category::Controller, &self.powered, |p| {
            controller_pj(cost, p)
        });
    }
}

fn set_bit(words: &mut [u64], p: usize) {
    words[p / 64] |= 1u64 << (p % 64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_compiler::{Compiler, CompilerConfig, Mode};
    use rap_telemetry::{Telemetry, TelemetryConfig};

    /// Compiles `xy{6}z` to NBVA and places it by hand on a 2-tile array:
    /// `x` on tile 0, the `y{6}` bit-vector state and `z` on tile 1.
    fn two_tile_nbva(depth: u32) -> (Vec<Compiled>, ArrayPlan) {
        let compiler = Compiler::new(CompilerConfig {
            bv_depth: depth,
            ..CompilerConfig::default()
        });
        let regex = rap_regex::parse("xy{6}z").expect("parses");
        let compiled = compiler
            .compile_with_mode(&regex, Mode::Nbva)
            .expect("compiles");
        let img = match &compiled {
            Compiled::Nbva(img) => img,
            other => panic!("expected NBVA, got {}", other.mode()),
        };
        assert_eq!(img.nbva.states().len(), 3, "x, y{{6}} (BV), z");
        assert!(img.bv_allocs[1].is_some(), "y{{6}} is the BV state");
        let columns_used = img.total_columns();
        let placements = vec![Placement {
            pattern: 0,
            state_tile: vec![0, 1, 1],
            cross_tile_edges: 1,
        }];
        let plan = ArrayPlan {
            kind: ArrayKind::Nbva { depth, placements },
            tiles_used: 2,
            columns_used,
        };
        (vec![compiled], plan)
    }

    fn run(
        compiled: &[Compiled],
        plan: &ArrayPlan,
        input: &[u8],
        probe: Option<(&mut SimProbe, u32)>,
    ) -> ArrayOutcome {
        let cost = CostModel::for_machine(Machine::Rap);
        let mut meter = EnergyMeter::new();
        let mut sim = Array::new(compiled, plan, &cost);
        run_array(&mut sim, compiled, input, &mut meter, probe)
    }

    #[test]
    fn nbva_outcome_matches_hand_computation_without_match() {
        let (compiled, plan) = two_tile_nbva(3);
        // `x` arms at offset 0; the `y` at offset 1 enters the bit vector,
        // triggering one 3-cycle BV phase with a single live-vector tile;
        // the `q`s clear the vector and nothing else fires. Hand count:
        //   cycles  = 6 input + 3 stall            = 9
        //   powered = 6 * 2 tiles + 3 * 1 tile     = 15 tile-cycles
        let outcome = run(&compiled, &plan, b"xyqqqq", None);
        assert_eq!(outcome.cycles, 9);
        assert_eq!(outcome.cycles - 6, 3, "stall cycles");
        assert_eq!(outcome.powered_tile_cycles, 15);
        assert!(outcome.matches.is_empty());
    }

    #[test]
    fn nbva_outcome_matches_hand_computation_with_match() {
        let (compiled, plan) = two_tile_nbva(3);
        // Each of the six `y` bytes touches the bit vector, so six 3-cycle
        // BV phases fire before `z` completes the match at end offset 8:
        //   cycles  = 8 input + 6 * 3 stall        = 26
        //   powered = 8 * 2 tiles + 18 * 1 tile    = 34 tile-cycles
        let outcome = run(&compiled, &plan, b"xyyyyyyz", None);
        assert_eq!(outcome.cycles, 26);
        assert_eq!(outcome.cycles - 8, 18, "stall cycles");
        assert_eq!(outcome.powered_tile_cycles, 34);
        assert_eq!(outcome.matches, vec![MatchEvent { pattern: 0, end: 8 }]);
    }

    #[test]
    fn cross_tile_rows_route_through_the_global_crossbar() {
        let (compiled, plan) = two_tile_nbva(3);
        let cost = CostModel::for_machine(Machine::Rap);
        let mut meter = EnergyMeter::new();
        let mut sim = Array::new(&compiled, &plan, &cost);
        // Before any byte only the BV state's row is lowered: it stays in
        // tile 1 (`y{6}` → `z`).
        let Array::Tile(tile) = &sim else {
            panic!("NBVA arrays run on the tile kernel")
        };
        let words = |w: fn(&Tile) -> u128| tile.tiles.iter().map(w).collect::<Vec<_>>();
        assert_eq!(words(|w| w.lowered), vec![0, 0b01]);
        assert_eq!(words(|w| w.cross), vec![0, 0]);
        run_array(&mut sim, &compiled, b"x", &mut meter, None);
        // `x` activated: its row routes to the BV state on tile 1 through
        // the global crossbar.
        let Array::Tile(tile) = &sim else {
            unreachable!()
        };
        let words = |w: fn(&Tile) -> u128| tile.tiles.iter().map(w).collect::<Vec<_>>();
        assert_eq!(words(|w| w.lowered), vec![0b1, 0b01]);
        assert_eq!(words(|w| w.cross), vec![0b1, 0]);
        let row = tile.rows[0];
        assert_eq!(row.local, 0);
        let links = &tile.links[row.links.0 as usize..row.links.1 as usize];
        assert_eq!(links.len(), 1);
        assert_eq!((links[0].tile, links[0].mask), (1, 0b01));
    }

    #[test]
    fn probe_samples_every_cycle_and_flags_stalls() {
        let (compiled, plan) = two_tile_nbva(3);
        let tel = Telemetry::new(TelemetryConfig {
            sample_every: 1,
            ring_capacity: 1024,
        });
        let mut probe = tel.probe("unit");
        let outcome = run(&compiled, &plan, b"xyqqqq", Some((&mut probe, 7)));
        probe.finish();
        assert_eq!(outcome.cycles, 9);
        let traces = tel.drain_traces();
        assert_eq!(traces.len(), 1);
        let events = &traces[0].events;
        // One sample per cycle plus the end-of-array summary.
        assert_eq!(events.len(), 10);
        let stalled: Vec<&ProbeEvent> = events
            .iter()
            .filter(|e| matches!(e, ProbeEvent::Array { stalled: true, .. }))
            .collect();
        assert_eq!(stalled.len(), 3);
        for e in &stalled {
            if let ProbeEvent::Array { powered_tiles, .. } = e {
                // Only the live-vector tile stays powered during the phase.
                assert_eq!(*powered_tiles, 1);
            }
        }
        assert!(matches!(
            events.last(),
            Some(ProbeEvent::ArrayEnd {
                array: 7,
                cycles: 9,
                stall_cycles: 3,
                powered_tile_cycles: 15,
                matches: 0,
            })
        ));
    }
}
