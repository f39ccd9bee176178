//! Word-level array kernels: every cycle steps whole tiles, the way the
//! paper's tile computes (§2.2, §3.1).
//!
//! * The **tile kernel** ([`TileRun`] over a [`TileImage`]) runs NFA and
//!   NBVA arrays; an NFA array is an NBVA array without bit-vector (BV)
//!   states. Each tile keeps a 128-bit active word. The CAM search is the
//!   input byte's match column, one bit per state whose class holds the
//!   byte. State transition ORs the crossbar row of every emitting state
//!   into the next cycle's candidates: one word for the tile's own local
//!   crossbar plus one entry per other tile reached through the global
//!   crossbar. BV states live in a short side list that applies the
//!   `set1`/`shft`/read actions and starts the bit-vector-processing
//!   phase, which stalls the array for `depth` cycles (or BVAP's fixed
//!   latency).
//! * The **chain kernel** ([`ChainRun`] over a [`ChainImage`]) runs LNFA
//!   arrays. Every chain of every bin is packed into one Shift-And
//!   register, so a cycle is `states = ((states << 1) | starts) &
//!   label[byte]`, stepped only over the *live* words: those that hold a
//!   state, take a carry from the word below, or hold a first state the
//!   byte starts. Every other word is zero before and after the cycle.
//!
//! Each kernel is split in two. The **image** ([`ArrayImage`]) is
//! everything derived from the plan alone: slot tables, per-tile initial,
//! final and vector words, chain positions, the wake set, and the
//! per-byte-class tables. The 256 byte values are refined by every
//! character class the array stores into its byte classes (the
//! mintermized alphabet, as in Mata), and the image keeps one match column
//! (tile kernel) or Shift-And label (chain kernel) per byte class, plus
//! the byte → class map. The image is immutable, built once per plan and
//! shared by every run of it (see [`crate::Lowered`]). The **run**
//! ([`Array`]) owns what a stream changes: live words, bit vectors,
//! counters, and the crossbar rows it lowers lazily, the first time their
//! state activates (a BV state's, with its vector, the first time it is
//! entered). A run builds no byte columns, and never pays for the edges
//! of states it never visits.
//!
//! A tile array whose tiles hold no active or live state and no pending
//! stall is *quiet*. A byte outside its **wake set** (the union of its
//! initial states' classes) cannot activate anything, so a quiet array
//! skips the tick: it counts the idle levels, and nothing else.
//! [`run_array`] skips whole idle runs at once when no probe is attached.
//! The same argument holds tile by tile: a tick routes only the *busy*
//! tiles (those holding a state) and searches only those, the tiles they
//! route to, and the tiles whose initial states the byte wakes; every
//! other tile's words stay zero and it is counted idle. A chain array's
//! tiles that take no successor sit at their first states' level, which
//! the run counts in bulk when it settles.
//!
//! Energy is charged against the circuit models with activity factors
//! (active states per tile, cross-tile signals, candidate states) taken
//! from the configuration *entering* each cycle. The activity-scaled
//! charges are dyadic rationals, so a run counts how many cycles it spent
//! at each activity level and charges `count × energy(level)` once, at the
//! end: every product and sum is exact, hence bit-identical to charging
//! every cycle. Wire energies are not dyadic, so their order matters. A
//! tick touches no meter: it returns its cycle's wire charge when signals
//! crossed tiles, and `None` otherwise (adding +0.0 would leave a subtotal
//! as it is), and its caller charges them in cycle order. The category is
//! marked once, at the end. Every consumed byte adds the same buffer
//! energy, so a run counts its bytes and adds them at the end with
//! [`EnergyMeter::charge_repeated`], which repeats the same additions.
//!
//! [`run_array`] drives one array over a whole input slice and settles
//! it into a [`Sink`]: each tick's wire charge as it returns, then the
//! settle's charges. One thread stepping a plan's arrays in turn hands it
//! the meter. When the batch `simulate` entry point runs them side by
//! side, each records into its own [`Charges`], and the meter takes the
//! records in array order ([`Charges::apply`]): the same additions in the
//! same order. The bank-level streaming simulation in [`crate::bank`]
//! interleaves arrays cycle by cycle through the §3.3 buffer hierarchy
//! and charges each tick's wire charge as it returns.

use crate::cost::CostModel;
use crate::result::MatchEvent;
use rap_arch::config::{MAX_TILES_PER_ARRAY, MAX_TILE_COLUMNS};
use rap_automata::bitvec::BitVec;
use rap_automata::nbva::{ReadAction, StateKind};
use rap_automata::StateId;
use rap_circuit::energy::Category;
use rap_circuit::{EnergyMeter, Machine};
use rap_compiler::{Compiled, MatchPath};
use rap_mapper::{ArrayKind, ArrayPlan, Bin, Placement};
use rap_regex::charclass::Minterms;
use rap_regex::CharClass;
use rap_telemetry::{ProbeEvent, SimProbe};
use std::collections::BTreeMap;
use std::mem::{size_of, size_of_val};

/// States per tile word: a tile has at most [`MAX_TILE_COLUMNS`] columns
/// and every state takes at least one.
const TILE_BITS: usize = MAX_TILE_COLUMNS as usize;
const _: () = assert!(TILE_BITS == u128::BITS as usize);

/// Tiles per array: the kernels keep per-array tile masks in a `u64`.
const MAX_TILES: usize = MAX_TILES_PER_ARRAY as usize;
const _: () = assert!(MAX_TILES <= u64::BITS as usize);

/// Shift-And words an LNFA array can need. Its CAM-path bins fill at most
/// every column of [`MAX_TILES`] tiles, one position per column, and its
/// switch-path bins overlay the same tiles at two columns per position.
const MAX_CHAIN_WORDS: usize = 3 * MAX_TILES * TILE_BITS / 2 / 64;

/// A set of Shift-And words, one bit per word.
type WordMask = [u64; MAX_CHAIN_WORDS / 64];

/// What one array produced: its private cycle count (stalls included), its
/// match reports, the tile-cycles that were actually powered (gated tiles
/// leak ~nothing, which is where LNFA mode's §3.2 savings and the NBVA
/// phase's §3.3 tile-disabling come from), and the cycles it spent quiet
/// on a byte outside its wake set.
pub(crate) struct ArrayOutcome {
    pub cycles: u64,
    pub matches: Vec<MatchEvent>,
    pub powered_tile_cycles: u64,
    pub quiescent_cycles: u64,
}

/// Where a run's energy charges go: straight to an [`EnergyMeter`], or
/// into [`Charges`] when they must wait for other runs'.
pub(crate) trait Sink {
    /// Charges `pj` picojoules to `category` (see [`EnergyMeter::charge`]).
    fn charge(&mut self, category: Category, pj: f64);
    /// Charges `pj` picojoules to `category` `times` times over (see
    /// [`EnergyMeter::charge_repeated`]).
    fn charge_repeated(&mut self, category: Category, pj: f64, times: u64);
}

impl Sink for EnergyMeter {
    fn charge(&mut self, category: Category, pj: f64) {
        EnergyMeter::charge(self, category, pj);
    }

    fn charge_repeated(&mut self, category: Category, pj: f64, times: u64) {
        EnergyMeter::charge_repeated(self, category, pj, times);
    }
}

/// Energy charges recorded in order, for a meter to take later:
/// [`Charges::apply`] makes the meter additions charging it directly would
/// have made, in the same order, so the subtotals are bit-identical.
#[derive(Default)]
pub(crate) struct Charges(Vec<(Category, f64, u64)>);

impl Sink for Charges {
    fn charge(&mut self, category: Category, pj: f64) {
        self.charge_repeated(category, pj, 1);
    }

    /// A repeat of the last charge joins it: [`EnergyMeter::charge_repeated`]
    /// equals that many single charges bit for bit.
    fn charge_repeated(&mut self, category: Category, pj: f64, times: u64) {
        match self.0.last_mut() {
            Some((c, p, n)) if *c == category && p.to_bits() == pj.to_bits() => *n += times,
            _ if times > 0 => self.0.push((category, pj, times)),
            _ => {}
        }
    }
}

impl Charges {
    /// Charges the recorded charges to `meter`, in order.
    pub(crate) fn apply(&self, meter: &mut EnergyMeter) {
        for &(category, pj, times) in &self.0 {
            meter.charge_repeated(category, pj, times);
        }
    }
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

/// One array's plan-resident image.
pub(crate) enum ArrayImage {
    /// NFA or NBVA tiles.
    Tile(Box<TileImage>),
    /// LNFA bins.
    Chain(Box<ChainImage>),
}

impl ArrayImage {
    /// Lowers an array plan's immutable half. Crossbar rows and match
    /// columns are left to the runs, which lower them on demand from the
    /// `compiled` images every [`Array::tick`] is handed.
    pub(crate) fn new(compiled: &[Compiled], plan: &ArrayPlan, cost: &CostModel) -> ArrayImage {
        let tiles = plan.tiles_used as usize;
        match &plan.kind {
            ArrayKind::Nfa { placements } => ArrayImage::Tile(Box::new(TileImage::new(
                compiled, placements, tiles, None, *cost,
            ))),
            ArrayKind::Nbva { depth, placements } => {
                let stall = if cost.machine == Machine::Bvap {
                    cost.bvap_stall_cycles
                } else {
                    u64::from(*depth)
                };
                ArrayImage::Tile(Box::new(TileImage::new(
                    compiled,
                    placements,
                    tiles,
                    Some(stall),
                    *cost,
                )))
            }
            ArrayKind::Lnfa { bins } => {
                ArrayImage::Chain(Box::new(ChainImage::new(compiled, bins, tiles, *cost)))
            }
        }
    }

    /// Heap bytes the image keeps resident.
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            ArrayImage::Tile(i) => size_of::<TileImage>() + i.heap_bytes(),
            ArrayImage::Chain(i) => size_of::<ChainImage>() + i.heap_bytes(),
        }
    }
}

/// One run of an array: the state a stream changes, stepped against the
/// [`ArrayImage`] it was opened on.
pub(crate) enum Array {
    /// NFA or NBVA tiles.
    Tile(Box<TileRun>),
    /// LNFA bins.
    Chain(Box<ChainRun>),
}

impl Array {
    /// Opens a run at stream offset 0.
    pub(crate) fn new(image: &ArrayImage) -> Array {
        match image {
            ArrayImage::Tile(i) => Array::Tile(Box::new(TileRun::new(i))),
            ArrayImage::Chain(i) => Array::Chain(Box::new(ChainRun::new(i))),
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
    /// stalled, `byte` is ignored. `image` must be the one the run was
    /// opened on and `compiled` the images it was built from: rows of
    /// first activations are lowered from them.
    ///
    /// Returns the cycle's wire charge in picojoules, or `None` when no
    /// signal crossed tiles. The caller charges it to the wire category
    /// in cycle order; every other energy is counted, and charged by
    /// [`Array::settle`].
    pub(crate) fn tick(
        &mut self,
        image: &ArrayImage,
        compiled: &[Compiled],
        byte: Option<u8>,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) -> Option<f64> {
        match (self, image) {
            (Array::Tile(a), ArrayImage::Tile(i)) => a.tick(i, compiled, byte, offset, out),
            (Array::Chain(a), ArrayImage::Chain(i)) => {
                a.step(i, byte.expect("LNFA arrays never stall"), offset, out)
            }
            _ => unreachable!("a run is stepped against the image it was opened on"),
        }
    }

    /// Consumes the longest prefix of `input` that a quiet tile array
    /// ignores (bytes outside its wake set), counting it exactly as that
    /// many ticks would. Returns the prefix length: 0 when the array is
    /// not quiet or is a chain array.
    fn skip_idle(&mut self, image: &ArrayImage, input: &[u8]) -> usize {
        match (self, image) {
            (Array::Tile(a), ArrayImage::Tile(i)) if a.quiet() => {
                let n = input
                    .iter()
                    .position(|&b| i.wake_tiles[usize::from(b)] != 0)
                    .unwrap_or(input.len());
                if n > 0 {
                    a.idle_cycles(i, n as u64);
                }
                n
            }
            _ => 0,
        }
    }

    /// Tile-cycles powered so far.
    pub(crate) fn powered_tile_cycles(&self) -> u64 {
        match self {
            Array::Tile(a) => tile_cycles(&a.powered),
            Array::Chain(a) => tile_cycles(&a.powered),
        }
    }

    /// Cycles so far on which the array was quiet and its byte outside
    /// the wake set.
    pub(crate) fn quiescent_cycles(&self) -> u64 {
        match self {
            Array::Tile(a) => a.quiescent,
            Array::Chain(_) => 0,
        }
    }

    /// Samples the array's current activity for a telemetry probe. Pure
    /// observation: never charges energy or mutates state.
    pub(crate) fn observe(&self, image: &ArrayImage) -> ArrayObservation {
        match (self, image) {
            (Array::Tile(a), _) => a.observe(),
            (Array::Chain(a), ArrayImage::Chain(i)) => a.observe(i),
            _ => unreachable!("a run is observed against the image it was opened on"),
        }
    }

    /// Charges the energy counted so far: the activity-scaled energy, the
    /// consumed bytes' buffer energy and the wire category's mark. Call
    /// once, when the array's run ends.
    pub(crate) fn settle(&self, image: &ArrayImage, meter: &mut impl Sink) {
        match (self, image) {
            (Array::Tile(a), ArrayImage::Tile(i)) => a.settle(i, meter),
            (Array::Chain(a), ArrayImage::Chain(i)) => a.settle(i, meter),
            _ => unreachable!("a run is settled against the image it was opened on"),
        }
    }
}

/// Drives one array over a whole input slice (stalls expanded in place)
/// and settles its energy into `meter`: each tick's wire charge as it
/// returns, then the settle's charges.
///
/// Without a probe, a quiet tile array jumps each idle run in one step
/// ([`Array::skip_idle`]). When a telemetry probe is attached (as
/// `(probe, array index)`), every cycle is stepped: the loop emits an
/// [`ProbeEvent::Array`] sample every [`SimProbe::sample_every`] cycles
/// and one [`ProbeEvent::ArrayEnd`] summary at the end. Probing only
/// observes — energy, cycles, and matches are identical with and without
/// it.
pub(crate) fn run_array(
    image: &ArrayImage,
    sim: &mut Array,
    compiled: &[Compiled],
    input: &[u8],
    meter: &mut impl Sink,
    mut probe: Option<(&mut SimProbe, u32)>,
) -> ArrayOutcome {
    let mut cycles = 0u64;
    let mut matches = Vec::new();
    // Only tile arrays go quiet.
    let skip = probe.is_none() && matches!(image, ArrayImage::Tile(_));
    let mut step = |sim: &mut Array, byte: Option<u8>, offset: usize, cycles: &mut u64| {
        if let Some((probe, array)) = probe.as_mut() {
            if (*cycles).is_multiple_of(u64::from(probe.sample_every())) {
                let obs = sim.observe(image);
                probe.push(ProbeEvent::Array {
                    cycle: *cycles,
                    array: *array,
                    active_states: obs.active_states,
                    powered_tiles: obs.powered_tiles,
                    stalled: sim.stalled(),
                });
            }
        }
        if let Some(pj) = sim.tick(image, compiled, byte, offset, &mut matches) {
            meter.charge(Category::Wire, pj);
        }
        *cycles += 1;
    };
    let mut offset = 0;
    while offset < input.len() {
        if skip {
            let idle = sim.skip_idle(image, &input[offset..]);
            if idle > 0 {
                cycles += idle as u64;
                offset += idle;
                continue;
            }
        }
        while sim.stalled() {
            step(sim, None, offset, &mut cycles);
        }
        step(sim, Some(input[offset]), offset, &mut cycles);
        offset += 1;
    }
    while sim.stalled() {
        step(sim, None, input.len(), &mut cycles);
    }
    sim.settle(image, meter);
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
        quiescent_cycles: sim.quiescent_cycles(),
    }
}

/// Charges `Σ count × energy(level)` over the activity levels that
/// occurred, or nothing when no cycle charged `category`. Every per-level
/// energy is a dyadic rational with a small denominator (see
/// `cost::tests::activity_scaled_charges_are_dyadic`), so each product and
/// the sum are exact: the result equals the per-cycle running sum bit for
/// bit.
fn charge_levels(
    meter: &mut impl Sink,
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

/// Heap bytes behind a vector.
fn vec_bytes<T>(v: &[T]) -> usize {
    size_of_val(v)
}

/// An array's byte classes and their tables. The byte classes are the
/// [`Minterms`] of every character class the array stores: two bytes share
/// a class when every stored class holds both or neither (the mintermized
/// alphabet, as in Mata). Each byte class has one table entry, the storage
/// positions whose class holds its bytes: a match column in the tile
/// kernel, a Shift-And label in the chain kernel.
struct Alphabet<W> {
    /// Words per table entry.
    width: usize,
    /// Byte → its class.
    class_of: [u8; 256],
    /// Byte classes.
    classes: usize,
    /// `width` words per byte class.
    table: Vec<W>,
}

impl<W> Alphabet<W> {
    /// The class of `byte`.
    fn class(&self, byte: u8) -> usize {
        usize::from(self.class_of[usize::from(byte)])
    }

    /// The table entry of byte class `class`.
    fn entry(&self, class: usize) -> &[W] {
        &self.table[class * self.width..][..self.width]
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.table)
    }
}

/// Builds an [`Alphabet`] one labelled position at a time, over dense
/// per-character-class masks that [`AlphabetBuilder::finish`] then folds
/// into the byte classes' entries.
struct AlphabetBuilder<W> {
    width: usize,
    classes: Vec<CharClass>,
    /// Class bitmap → index into `classes`.
    index: BTreeMap<[u64; 4], usize>,
    /// The class labelled last.
    last: usize,
    /// `width` words per class: the positions it labels.
    masks: Vec<W>,
}

impl<W: Copy + Default + PartialEq + std::ops::BitOrAssign> AlphabetBuilder<W> {
    fn new(width: usize) -> AlphabetBuilder<W> {
        AlphabetBuilder {
            width,
            classes: Vec::new(),
            index: BTreeMap::new(),
            last: usize::MAX,
            masks: Vec::new(),
        }
    }

    /// Labels position `bit` of word `word` with `cc`.
    fn add(&mut self, cc: CharClass, word: usize, bit: W) {
        // Runs of one class (unfolded repetitions) skip the lookup.
        if self.classes.get(self.last) != Some(&cc) {
            let (classes, masks, width) = (&mut self.classes, &mut self.masks, self.width);
            self.last = *self.index.entry(*cc.as_words()).or_insert_with(|| {
                classes.push(cc);
                masks.resize(classes.len() * width, W::default());
                classes.len() - 1
            });
        }
        self.masks[self.last * self.width + word] |= bit;
    }

    /// Splits the bytes into the stored classes' minterms and ORs every
    /// stored class's mask into the entries of the minterms it holds.
    fn finish(self) -> Alphabet<W> {
        let minterms = Minterms::of(&self.classes);
        let width = self.width;
        let mut table = vec![W::default(); minterms.classes() * width];
        // A class labels a few tiles' words and holds a few minterms.
        let mut held = Vec::new();
        for (cc, mask) in self.classes.iter().zip(self.masks.chunks(width.max(1))) {
            held.clear();
            held.extend((0..minterms.classes()).filter(|&m| cc.contains(minterms.reps[m])));
            for (word, &bits) in mask.iter().enumerate() {
                if bits != W::default() {
                    for &m in &held {
                        table[m * width + word] |= bits;
                    }
                }
            }
        }
        Alphabet {
            width,
            class_of: minterms.class_of,
            classes: minterms.classes(),
            table,
        }
    }
}

// ---------------------------------------------------------------------
// Tile kernel: NFA and NBVA arrays
// ---------------------------------------------------------------------

/// A lowered crossbar row: where one state's activation routes.
#[derive(Clone, Copy)]
struct Row {
    /// Successors in the state's own tile (the local crossbar).
    local: u128,
    /// Range of [`TileRun::links`] reached through the global crossbar.
    links: (u32, u32),
}

/// One global-crossbar entry of a row: successors in another tile.
#[derive(Clone, Copy)]
struct Link {
    tile: usize,
    mask: u128,
}

/// The plan-resident words of one tile, one bit per state slot.
#[derive(Clone, Copy, Default)]
struct TileWords {
    /// Initial states armed on the first byte, and those armed on every
    /// later byte (all but the `^`-anchored ones).
    initial: u128,
    steady: u128,
    /// Plain final states, and BV state slots.
    finals: u128,
    vectors: u128,
}

/// The run words of one tile, one bit per state slot.
#[derive(Clone, Copy, Default)]
struct Tile {
    /// Active plain states.
    active: u128,
    /// BV states with a live vector, and those whose read action succeeds.
    live: u128,
    emit: u128,
    /// Initial states armed on the next byte: all of them on the first
    /// byte, then all but the `^`-anchored ones.
    armed: u128,
    /// The image's final and vector words, kept beside the live words the
    /// search reads with them every cycle.
    finals: u128,
    vectors: u128,
    /// States whose row is lowered, and those among them with a cross-tile
    /// successor.
    lowered: u128,
    cross: u128,
}

/// A bit-vector state's plan-resident half; its vector lives in the run.
struct VectorImage {
    slot: usize,
    cc: CharClass,
    read: ReadAction,
    width: usize,
    is_final: bool,
    placement: usize,
}

/// The image of an NFA/NBVA array (§2.2, §3.1).
pub(crate) struct TileImage {
    cost: CostModel,
    words: Vec<TileWords>,
    /// Pattern index of every placement, and the offset of its states in
    /// [`TileImage::state_slot`].
    patterns: Vec<usize>,
    placement_base: Vec<u32>,
    /// Per state slot (`tile * 128 + bit`): placement, and state index in
    /// its pattern's image.
    slot_placement: Vec<u32>,
    slot_state: Vec<u32>,
    /// Per slot: index of its BV state in [`TileImage::vectors`] (empty in
    /// an NFA array).
    slot_vector: Vec<u32>,
    /// Slot of every state, placement after placement.
    state_slot: Vec<u32>,
    vectors: Vec<VectorImage>,
    /// The CAM: a match column over the plain states per byte class.
    classes: Alphabet<u128>,
    /// Stall cycles per bit-vector phase (`None`: an NFA array).
    stall_per_phase: Option<u64>,
    /// Per byte: the tiles holding an initial state, plain or bit-vector,
    /// whose class holds the byte. The bytes with no such tile form the
    /// array's complement of its wake set.
    wake_tiles: Vec<u64>,
}

impl TileImage {
    fn new(
        compiled: &[Compiled],
        placements: &[Placement],
        tiles: usize,
        stall_per_phase: Option<u64>,
        cost: CostModel,
    ) -> TileImage {
        assert!(
            tiles <= MAX_TILES,
            "tile masks cover at most {MAX_TILES} tiles per array, not {tiles}"
        );
        let slots = tiles * TILE_BITS;
        let mut a = TileImage {
            cost,
            words: vec![TileWords::default(); tiles],
            patterns: placements.iter().map(|p| p.pattern).collect(),
            placement_base: Vec::with_capacity(placements.len()),
            slot_placement: vec![0; slots],
            slot_state: vec![0; slots],
            slot_vector: Vec::new(),
            state_slot: Vec::with_capacity(placements.iter().map(|p| p.state_tile.len()).sum()),
            vectors: Vec::new(),
            // Filled once every state is placed.
            classes: AlphabetBuilder::new(tiles).finish(),
            stall_per_phase,
            wake_tiles: vec![0; 256],
        };
        let mut classes = AlphabetBuilder::new(tiles);
        // Per tile: the classes of its initial states.
        let mut wake = vec![CharClass::empty(); tiles];
        let mut used = vec![0usize; tiles];
        for (i, p) in placements.iter().enumerate() {
            let base = a.state_slot.len();
            a.placement_base.push(base as u32);
            // An NFA array (no stall) holds NFA images, an NBVA array NBVA
            // ones; an NFA state is an NBVA state without a vector.
            let (initial, anchored_start): (&[StateId], bool) =
                match (&compiled[p.pattern], stall_per_phase) {
                    (Compiled::Nfa(img), None) => {
                        let states = img.nfa.states();
                        for (q, s) in states.iter().enumerate() {
                            let (tile, bit) = a.place(&mut used, i, p.state_tile[q], q);
                            classes.add(s.cc, tile, bit);
                            if s.is_final {
                                a.words[tile].finals |= bit;
                            }
                        }
                        for &q in img.nfa.initial() {
                            let tile = p.state_tile[q as usize] as usize;
                            wake[tile] = wake[tile].union(&states[q as usize].cc);
                        }
                        (img.nfa.initial(), img.nfa.anchored_start())
                    }
                    (Compiled::Nbva(img), Some(_)) => {
                        let states = img.nbva.states();
                        for (q, s) in states.iter().enumerate() {
                            let (tile, bit) = a.place(&mut used, i, p.state_tile[q], q);
                            match s.kind {
                                StateKind::Plain => {
                                    classes.add(s.cc, tile, bit);
                                    if s.is_final {
                                        a.words[tile].finals |= bit;
                                    }
                                }
                                StateKind::Bv { width, read } => {
                                    a.words[tile].vectors |= bit;
                                    a.vectors.push(VectorImage {
                                        slot: tile * TILE_BITS + bit.trailing_zeros() as usize,
                                        cc: s.cc,
                                        read,
                                        width: width as usize,
                                        is_final: s.is_final,
                                        placement: i,
                                    });
                                }
                            }
                        }
                        for &q in img.nbva.initial() {
                            let tile = p.state_tile[q as usize] as usize;
                            wake[tile] = wake[tile].union(&states[q as usize].cc);
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
                a.words[tile].initial |= bit;
                if !anchored_start {
                    a.words[tile].steady |= bit;
                }
            }
        }
        a.classes = classes.finish();
        for (t, cc) in wake.iter().enumerate() {
            for byte in cc.iter() {
                a.wake_tiles[usize::from(byte)] |= 1 << t;
            }
        }
        a.vectors.shrink_to_fit();
        if !a.vectors.is_empty() {
            a.slot_vector = vec![0; slots];
            for (i, v) in a.vectors.iter().enumerate() {
                a.slot_vector[v.slot] = i as u32;
            }
        }
        a
    }

    /// Gives the next free slot of `tile` to state `state` of `placement`;
    /// returns the tile and the slot's bit.
    fn place(
        &mut self,
        used: &mut [usize],
        placement: usize,
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
        (tile, 1u128 << (slot % TILE_BITS))
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.words)
            + vec_bytes(&self.patterns)
            + vec_bytes(&self.placement_base)
            + vec_bytes(&self.slot_placement)
            + vec_bytes(&self.slot_state)
            + vec_bytes(&self.slot_vector)
            + vec_bytes(&self.state_slot)
            + vec_bytes(&self.vectors)
            + vec_bytes(&self.wake_tiles)
            + self.classes.heap_bytes()
    }
}

/// One run of an NFA/NBVA array: every tile searches and routes every
/// cycle; an NBVA array additionally stalls through bit-vector phases.
pub(crate) struct TileRun {
    tiles: Vec<Tile>,
    /// Per tile: the next cycle's candidates, routed by the crossbar; after
    /// the CAM search, the BV states entering their vectors.
    reach: Vec<u128>,
    /// Crossbar rows in lowering order, and per slot the index of its row
    /// (meaningful once the slot's `lowered` bit is set). Most slots of a
    /// run are never lowered, so the per-slot table stays one word wide.
    rows: Vec<Row>,
    row_of: Vec<u32>,
    links: Vec<Link>,
    /// The vector of every BV state, in [`TileImage::vectors`] order. A
    /// BV state is opened on its first entry: its row is lowered and its
    /// vector, empty until then, sized to its width.
    vectors: Vec<BitVec>,
    /// Bytes consumed; doubles as the per-cycle report stamp.
    consumed: u64,
    reported: Vec<u64>,
    stall_remaining: u64,
    /// Tiles with live vectors during the current phase.
    phase_tiles: usize,
    /// Tiles holding an active or live state after the last byte. Only
    /// these route, and only they, the tiles they route to and the tiles
    /// the byte wakes are searched; every other tile's words stay zero.
    busy: u64,
    /// Cycles spent quiet on a byte outside the wake set.
    quiescent: u64,
    /// Cycles by powered tiles, tile-cycles by active states, cycles by
    /// cross-tile signals, and stall cycles by live-vector tiles.
    powered: Vec<u64>,
    local_levels: Vec<u64>,
    global_levels: Vec<u64>,
    phase_levels: Vec<u64>,
}

impl TileRun {
    fn new(image: &TileImage) -> TileRun {
        let tiles = image.words.len();
        TileRun {
            tiles: image
                .words
                .iter()
                .map(|w| Tile {
                    armed: w.initial,
                    finals: w.finals,
                    vectors: w.vectors,
                    ..Tile::default()
                })
                .collect(),
            reach: vec![0; tiles],
            rows: Vec::new(),
            row_of: vec![0; tiles * TILE_BITS],
            links: Vec::new(),
            vectors: vec![BitVec::zeros(0); image.vectors.len()],
            consumed: 0,
            reported: vec![0; image.patterns.len()],
            stall_remaining: 0,
            phase_tiles: 0,
            busy: 0,
            quiescent: 0,
            powered: vec![0; tiles + 1],
            local_levels: vec![0; TILE_BITS + 1],
            global_levels: vec![0; 257],
            phase_levels: vec![0; tiles + 1],
        }
    }

    /// Whether the array is quiet: no tile holds an active or live state
    /// and no stall is pending. Then nothing is routed (emitting states are
    /// live, and `reach` is empty between ticks), and a byte outside the
    /// wake set leaves every word as it is.
    fn quiet(&self) -> bool {
        self.busy == 0 && self.stall_remaining == 0
    }

    /// Accounts `cycles` ticks of a quiet array on bytes outside its wake
    /// set, exactly as the full tick would: every tile idles at activity
    /// level 0 and no signal crosses tiles, so the cycles charge no wire
    /// energy.
    fn idle_cycles(&mut self, image: &TileImage, cycles: u64) {
        let tiles = self.tiles.len();
        self.local_levels[0] += cycles * tiles as u64;
        self.global_levels[0] += cycles;
        self.powered[tiles] += cycles;
        if self.consumed == 0 {
            self.disarm(image);
        }
        self.consumed += cycles;
        self.quiescent += cycles;
    }

    /// Disarms the `^`-anchored initial states after the first byte.
    fn disarm(&mut self, image: &TileImage) {
        for (tile, words) in self.tiles.iter_mut().zip(&image.words) {
            tile.armed = words.steady;
        }
    }

    /// Lowers the crossbar row of the state in `slot` from its successor
    /// list in `compiled`.
    fn lower(&mut self, image: &TileImage, compiled: &[Compiled], slot: usize) {
        let tile = slot / TILE_BITS;
        let start = self.links.len();
        let mut local = 0u128;
        let placement = image.slot_placement[slot] as usize;
        let base = image.placement_base[placement] as usize;
        let pattern = &compiled[image.patterns[placement]];
        for &succ in successors(pattern, image.slot_state[slot] as usize) {
            let target = image.state_slot[base + succ as usize] as usize;
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
        self.row_of[slot] = self.rows.len() as u32;
        self.rows.push(Row {
            local,
            links: (start as u32, end as u32),
        });
        let bit = 1u128 << (slot % TILE_BITS);
        self.tiles[tile].lowered |= bit;
        if end > start {
            self.tiles[tile].cross |= bit;
        }
    }

    /// One cycle; returns its wire charge, if any (see [`Array::tick`]).
    fn tick(
        &mut self,
        image: &TileImage,
        compiled: &[Compiled],
        byte: Option<u8>,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) -> Option<f64> {
        if self.stall_remaining > 0 {
            // One cycle of the bit-vector-processing pipeline: only tiles
            // with live vectors run (read → action/route → write back).
            self.stall_remaining -= 1;
            self.powered[self.phase_tiles] += 1;
            self.phase_levels[self.phase_tiles] += 1;
            return None;
        }
        let byte = byte.expect("non-stalled tick needs an input byte");
        let wake = image.wake_tiles[usize::from(byte)];
        if self.busy == 0 && wake == 0 {
            self.idle_cycles(image, 1);
            return None;
        }

        // Transition fabric, driven by the configuration entering this
        // cycle: tally its activity and route every emitting state. Idle
        // tiles sit at activity level 0.
        let tiles = self.tiles.len();
        let (mut cross_signals, mut routed) = (0u32, 0u64);
        let mut busy = self.busy;
        while busy != 0 {
            let t = busy.trailing_zeros() as usize;
            busy &= busy - 1;
            let tile = &self.tiles[t];
            let live = tile.active | tile.live;
            self.local_levels[live.count_ones() as usize] += 1;
            cross_signals += (live & tile.cross).count_ones();
            let mut emit = tile.active | tile.emit;
            while emit != 0 {
                let slot = t * TILE_BITS + emit.trailing_zeros() as usize;
                let row = self.rows[self.row_of[slot] as usize];
                emit &= emit - 1;
                self.reach[t] |= row.local;
                routed |= 1 << t;
                for link in &self.links[row.links.0 as usize..row.links.1 as usize] {
                    self.reach[link.tile] |= link.mask;
                    routed |= 1 << link.tile;
                }
            }
        }
        self.local_levels[0] += (tiles - self.busy.count_ones() as usize) as u64;
        self.global_levels[(cross_signals as usize).min(256)] += 1;
        self.powered[tiles] += 1;

        // CAM search: candidates AND the byte's match column, in the tiles
        // that hold, receive or wake a state.
        let column = image.classes.entry(image.classes.class(byte));
        self.consumed += 1;
        let searched = self.busy | routed | wake;
        let (mut attention, mut active) = (0u64, 0u64);
        let mut todo = searched;
        while todo != 0 {
            let t = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let (tile, reach) = (&mut self.tiles[t], &mut self.reach[t]);
            let cand = *reach | tile.armed;
            let next = cand & column[t];
            // Keep only the BV candidates: they are entering their vectors.
            *reach = cand & tile.vectors;
            tile.active = next;
            if next != 0 {
                active |= 1 << t;
                if next & (tile.finals | !tile.lowered) != 0 {
                    attention |= 1 << t;
                }
            }
        }
        if attention != 0 {
            self.attend(image, compiled, attention, offset, out);
        }
        if self.consumed == 1 {
            self.disarm(image);
        }
        let live = if image.vectors.is_empty() {
            0
        } else {
            self.step_vectors(image, compiled, searched, byte, offset, out)
        };
        self.busy = active | live;
        (cross_signals > 0).then(|| image.cost.wire_pj * f64::from(cross_signals))
    }

    /// Reports the final states that just activated in `tiles` and lowers
    /// the rows of first activations there.
    fn attend(
        &mut self,
        image: &TileImage,
        compiled: &[Compiled],
        mut tiles: u64,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) {
        while tiles != 0 {
            let t = tiles.trailing_zeros() as usize;
            tiles &= tiles - 1;
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
                self.report(image, image.slot_placement[slot] as usize, offset, out);
            }
            let mut fresh = active & !lowered;
            while fresh != 0 {
                let slot = t * TILE_BITS + fresh.trailing_zeros() as usize;
                fresh &= fresh - 1;
                self.lower(image, compiled, slot);
            }
        }
    }

    /// The BV side list: `set1` on entry, `shft` on a matching byte, clear
    /// on a mismatch, then the read action. Only live or entering vectors
    /// can change. Starts a bit-vector phase when any vector was entered or
    /// advanced. Only `tiles` can hold an entering or live vector. Returns
    /// the tiles left with a live vector.
    ///
    /// A state's first entry opens it: its row is lowered from `compiled`
    /// and its vector sized, before any tick can count it live (a live
    /// state's `cross` bit feeds the cycle's wire charge).
    fn step_vectors(
        &mut self,
        image: &TileImage,
        compiled: &[Compiled],
        mut tiles: u64,
        byte: u8,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) -> u64 {
        let (mut touched, mut live_tiles) = (false, 0u64);
        while tiles != 0 {
            let t = tiles.trailing_zeros() as usize;
            tiles &= tiles - 1;
            // `reach` holds the tile's entering BV states (see `tick`).
            let entering = std::mem::take(&mut self.reach[t]);
            let mut todo = entering | self.tiles[t].live;
            while todo != 0 {
                let slot = t * TILE_BITS + todo.trailing_zeros() as usize;
                let bit = todo & todo.wrapping_neg();
                todo &= todo - 1;
                let index = image.slot_vector[slot] as usize;
                let v = &image.vectors[index];
                let entering = entering & bit != 0;
                if entering && self.tiles[t].lowered & bit == 0 {
                    self.lower(image, compiled, slot);
                    self.vectors[index] = BitVec::zeros(v.width);
                }
                let vector = &mut self.vectors[index];
                if v.cc.contains(byte) {
                    touched |= entering || vector.any();
                    vector.shift_up();
                    if entering {
                        vector.set(0, true);
                    }
                } else {
                    vector.clear();
                }
                let live = vector.any();
                let emit = match v.read {
                    ReadAction::Exact(m) => vector.get(m as usize - 1),
                    ReadAction::All => live,
                };
                set_bits(&mut self.tiles[t].live, bit, live);
                set_bits(&mut self.tiles[t].emit, bit, emit);
                if v.is_final && emit {
                    self.report(image, v.placement, offset, out);
                }
            }
            if self.tiles[t].live != 0 {
                live_tiles |= 1 << t;
            }
        }
        if touched {
            // The global controller stalls the array for the next cycles
            // while the phase streams BV words.
            self.phase_tiles = live_tiles.count_ones() as usize;
            self.stall_remaining = image
                .stall_per_phase
                .expect("only NBVA arrays hold bit vectors");
        }
        live_tiles
    }

    /// Reports a match of `placement` ending at `offset`, once per cycle.
    fn report(
        &mut self,
        image: &TileImage,
        placement: usize,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) {
        if self.reported[placement] != self.consumed {
            self.reported[placement] = self.consumed;
            out.push(MatchEvent {
                pattern: image.patterns[placement],
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

    fn settle(&self, image: &TileImage, meter: &mut impl Sink) {
        let cost = &image.cost;
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
        charge_bytes(meter, cost, self.consumed);
    }
}

/// Charges the per-byte energies of `bytes` consumed bytes: the buffer
/// energy of each, and a mark on the wire category, whose cycles charged
/// only their nonzero crossings.
fn charge_bytes(meter: &mut impl Sink, cost: &CostModel, bytes: u64) {
    if bytes > 0 {
        meter.charge(Category::Wire, 0.0);
        meter.charge_repeated(Category::Buffer, cost.buffer_pj, bytes);
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

/// The image of an LNFA array (§3.2): Shift-And over every chain at once,
/// power-gated tiles, ring routing between adjacent tiles.
pub(crate) struct ChainImage {
    cost: CostModel,
    /// One entry per 64 positions of the Shift-And register: chains back
    /// to back, in bin and member order, each with its first state at the
    /// lowest bit.
    words: Vec<ChainWord>,
    /// Tile and pattern of every register position.
    position_tile: Vec<u32>,
    position_pattern: Vec<usize>,
    /// The Shift-And label of every byte class.
    labels: Alphabet<u64>,
    /// Per byte class: the words holding a first state it starts.
    start_words: Vec<WordMask>,
    /// Per tile: chains starting there (always armed, never gated), and
    /// whether CAM-path or switch-path chains are stored there.
    initial: Vec<u32>,
    tile_cam: Vec<bool>,
    tile_switch: Vec<bool>,
    /// Tiles holding a first state: powered on every cycle.
    armed_tiles: usize,
}

/// The image of 64 register positions.
#[derive(Clone, Copy, Default)]
struct ChainWord {
    /// First and last state of every chain, and every other state (fed by
    /// the previous position of its chain).
    starts: u64,
    finals: u64,
    follows: u64,
    /// Positions whose predecessor sits on another tile (a ring hop).
    hops: u64,
}

impl ChainImage {
    fn new(compiled: &[Compiled], bins: &[Bin], tiles: usize, cost: CostModel) -> ChainImage {
        assert!(
            tiles <= MAX_TILES,
            "tile masks cover at most {MAX_TILES} tiles per array, not {tiles}"
        );
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
        assert!(
            words <= MAX_CHAIN_WORDS,
            "word masks cover at most {MAX_CHAIN_WORDS} Shift-And words, not {words}"
        );
        let mut position_tile = Vec::with_capacity(positions);
        let mut position_pattern = Vec::with_capacity(positions);
        let mut chain_words = vec![ChainWord::default(); words];
        let mut labels = AlphabetBuilder::new(words);
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
                    let (word, bit) = (&mut chain_words[p / 64], 1u64 << (p % 64));
                    if s == 0 {
                        initial[tile as usize] += 1;
                        word.starts |= bit;
                    } else if position_tile[p - 1] != tile {
                        word.hops |= bit;
                    }
                    if s + 1 == lnfa.len() {
                        word.finals |= bit;
                    }
                    labels.add(*cc, p / 64, 1u64 << (p % 64));
                    position_tile.push(tile);
                    position_pattern.push(member.pattern);
                }
            }
        }
        for (w, word) in chain_words.iter_mut().enumerate() {
            let valid = if positions - 64 * w >= 64 {
                u64::MAX
            } else {
                (1u64 << (positions - 64 * w)) - 1
            };
            word.follows = valid & !word.starts;
        }
        let labels = labels.finish();
        let start_words = (0..labels.classes)
            .map(|class| {
                let mut mask = WordMask::default();
                for (w, (word, &label)) in chain_words.iter().zip(labels.entry(class)).enumerate() {
                    if word.starts & label != 0 {
                        mask[w / 64] |= 1 << (w % 64);
                    }
                }
                mask
            })
            .collect();
        ChainImage {
            cost,
            words: chain_words,
            position_tile,
            position_pattern,
            labels,
            start_words,
            armed_tiles: initial.iter().filter(|&&n| n > 0).count(),
            initial,
            tile_cam,
            tile_switch,
        }
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.words)
            + vec_bytes(&self.position_tile)
            + vec_bytes(&self.position_pattern)
            + self.labels.heap_bytes()
            + vec_bytes(&self.start_words)
            + vec_bytes(&self.initial)
            + vec_bytes(&self.tile_cam)
            + vec_bytes(&self.tile_switch)
    }
}

/// One run of an LNFA array.
pub(crate) struct ChainRun {
    /// The Shift-And register.
    states: Vec<u64>,
    /// Words that hold a state or take a carry from the word below: with
    /// the words the next byte starts, the only ones a step can change.
    live: WordMask,
    /// Per tile: successor states of the current step (zero between
    /// steps).
    cands: Vec<u32>,
    /// Bytes consumed, and per tile the steps on which it took a
    /// successor.
    steps: u64,
    successor_steps: Vec<u64>,
    /// Cycles by powered tiles, and powered CAM-path and switch-path
    /// tile-cycles by candidate states, on the tiles that took a
    /// successor; [`ChainRun::levels`] adds the others.
    powered: Vec<u64>,
    cam_levels: Vec<u64>,
    switch_levels: Vec<u64>,
}

impl ChainRun {
    fn new(image: &ChainImage) -> ChainRun {
        let tiles = image.initial.len();
        ChainRun {
            states: vec![0; image.words.len()],
            live: WordMask::default(),
            cands: vec![0; tiles],
            steps: 0,
            successor_steps: vec![0; tiles],
            powered: vec![0; tiles + 1],
            cam_levels: vec![0; TILE_BITS + 1],
            switch_levels: vec![0; TILE_BITS + 1],
        }
    }

    /// One cycle; returns its wire charge, if any (see [`Array::tick`]).
    fn step(
        &mut self,
        image: &ChainImage,
        byte: u8,
        offset: usize,
        out: &mut Vec<MatchEvent>,
    ) -> Option<f64> {
        let class = image.labels.class(byte);
        let label = image.labels.entry(class);
        let mut visit = self.live;
        for (v, s) in visit.iter_mut().zip(&image.start_words[class]) {
            *v |= s;
        }
        self.live = WordMask::default();
        // Candidates per tile: the always-armed first states plus the
        // successors of active states. The active vector gates the CAM
        // columns (§3.2), so matching energy scales with candidates.
        let (mut ring_crossings, mut touched) = (0u32, 0u64);
        // The old top bit of the last word visited, and its index.
        let (mut carry, mut last) = (0u64, usize::MAX);
        for (limb, &bits) in visit.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let w = limb * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                // The carry into `w` is the old top bit of `w − 1`. A word
                // holding a state is visited, so an unvisited `w − 1`
                // carries 0.
                let carry_in = if last.wrapping_add(1) == w { carry } else { 0 };
                let states = self.states[w];
                (carry, last) = (states >> 63, w);
                let shifted = (states << 1) | carry_in;
                let word = &image.words[w];
                let mut succ = shifted & word.follows;
                if succ != 0 {
                    ring_crossings += (succ & word.hops).count_ones();
                }
                while succ != 0 {
                    let t = image.position_tile[w * 64 + succ.trailing_zeros() as usize] as usize;
                    succ &= succ - 1;
                    self.cands[t] += 1;
                    touched |= 1 << t;
                }
                let next = (shifted | word.starts) & label[w];
                self.states[w] = next;
                if next == 0 {
                    continue;
                }
                self.live[w / 64] |= 1 << (w % 64);
                if next >> 63 != 0 && w + 1 < self.states.len() {
                    self.live[(w + 1) / 64] |= 1 << ((w + 1) % 64);
                }
                let mut done = next & word.finals;
                while done != 0 {
                    let p = w * 64 + done.trailing_zeros() as usize;
                    done &= done - 1;
                    out.push(MatchEvent {
                        pattern: image.position_pattern[p],
                        end: offset + 1,
                    });
                }
            }
        }
        // A tile is powered if it holds a first state or a candidate. Tiles
        // taking no successor sit at their first states' level, counted in
        // bulk by `levels`.
        let mut powered = image.armed_tiles;
        while touched != 0 {
            let t = touched.trailing_zeros() as usize;
            touched &= touched - 1;
            let initial = image.initial[t];
            let level = ((initial + std::mem::take(&mut self.cands[t])) as usize).min(TILE_BITS);
            if image.tile_cam[t] {
                self.cam_levels[level] += 1;
            }
            if image.tile_switch[t] {
                self.switch_levels[level] += 1;
            }
            if initial == 0 {
                powered += 1;
            } else {
                self.successor_steps[t] += 1;
            }
        }
        self.powered[powered] += 1;
        self.steps += 1;
        (ring_crossings > 0).then(|| image.cost.ring_hop_pj * f64::from(ring_crossings))
    }

    /// The CAM-path and switch-path tile-cycles by candidate states, the
    /// steps on which a tile took no successor included: such a tile held
    /// only its first states, or was gated when it holds none.
    fn levels(&self, image: &ChainImage) -> (Vec<u64>, Vec<u64>) {
        let (mut cam, mut switch) = (self.cam_levels.clone(), self.switch_levels.clone());
        for (t, &initial) in image.initial.iter().enumerate() {
            if initial == 0 {
                continue;
            }
            let (idle, level) = (
                self.steps - self.successor_steps[t],
                (initial as usize).min(TILE_BITS),
            );
            if image.tile_cam[t] {
                cam[level] += idle;
            }
            if image.tile_switch[t] {
                switch[level] += idle;
            }
        }
        (cam, switch)
    }

    fn observe(&self, image: &ChainImage) -> ArrayObservation {
        // Mirror the step's power-gating rule: a tile is powered if it
        // holds a first state or a state an active predecessor can shift
        // into.
        let mut powered: Vec<bool> = image.initial.iter().map(|&n| n > 0).collect();
        let mut carry = 0u64;
        for (w, &states) in self.states.iter().enumerate() {
            let mut succ = ((states << 1) | carry) & image.words[w].follows;
            carry = states >> 63;
            while succ != 0 {
                powered[image.position_tile[w * 64 + succ.trailing_zeros() as usize] as usize] =
                    true;
                succ &= succ - 1;
            }
        }
        ArrayObservation {
            active_states: self.states.iter().map(|w| u64::from(w.count_ones())).sum(),
            powered_tiles: powered.iter().filter(|&&b| b).count() as u64,
        }
    }

    fn settle(&self, image: &ChainImage, meter: &mut impl Sink) {
        let cost = &image.cost;
        let activity = |k: usize| (k as f64 / TILE_BITS as f64).min(1.0);
        let (cam_levels, switch_levels) = self.levels(image);
        // Column-gated CAM search: wordline drive + the candidate
        // columns' compare energy.
        charge_levels(meter, Category::StateMatch, &cam_levels, |k| {
            0.5 + cost.match_pj * activity(k)
        });
        // One-hot lookup in the local switch: two columns per candidate.
        charge_levels(meter, Category::StateMatch, &switch_levels, |k| {
            cost.local_switch
                .access_energy_pj((2.0 * activity(k)).min(1.0))
        });
        charge_levels(meter, Category::Controller, &self.powered, |p| {
            controller_pj(cost, p)
        });
        charge_bytes(meter, cost, self.steps);
    }
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

    fn image(compiled: &[Compiled], plan: &ArrayPlan) -> ArrayImage {
        ArrayImage::new(compiled, plan, &CostModel::for_machine(Machine::Rap))
    }

    fn run(
        compiled: &[Compiled],
        plan: &ArrayPlan,
        input: &[u8],
        probe: Option<(&mut SimProbe, u32)>,
    ) -> ArrayOutcome {
        let image = image(compiled, plan);
        let mut meter = EnergyMeter::new();
        let mut sim = Array::new(&image);
        run_array(&image, &mut sim, compiled, input, &mut meter, probe)
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
        // The first `q` clears the vector; the other three find the array
        // quiet, and `q` wakes no initial state.
        assert_eq!(outcome.quiescent_cycles, 3);
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
        assert_eq!(outcome.quiescent_cycles, 0);
    }

    #[test]
    fn cross_tile_rows_route_through_the_global_crossbar() {
        let (compiled, plan) = two_tile_nbva(3);
        let image = image(&compiled, &plan);
        let mut meter = EnergyMeter::new();
        let mut sim = Array::new(&image);
        // The lowered and cross words per tile, and the BV state's vector
        // width.
        let opened = |sim: &Array| {
            let Array::Tile(tile) = sim else {
                panic!("NBVA arrays run on the tile kernel")
            };
            let words = |w: fn(&Tile) -> u128| tile.tiles.iter().map(w).collect::<Vec<_>>();
            (
                words(|w| w.lowered),
                words(|w| w.cross),
                tile.vectors[0].len(),
            )
        };
        // Before any byte no row is lowered and the BV state is not open.
        assert_eq!(opened(&sim), (vec![0, 0], vec![0, 0], 0));
        run_array(&image, &mut sim, &compiled, b"x", &mut meter, None);
        // `x` activated: its row routes to the BV state on tile 1 through
        // the global crossbar. The BV state is only reached; it enters on
        // the next byte.
        assert_eq!(opened(&sim), (vec![0b1, 0], vec![0b1, 0], 0));
        let Array::Tile(tile) = &sim else {
            unreachable!()
        };
        let row = tile.rows[tile.row_of[0] as usize];
        assert_eq!(row.local, 0);
        let links = &tile.links[row.links.0 as usize..row.links.1 as usize];
        assert_eq!(links.len(), 1);
        assert_eq!((links[0].tile, links[0].mask), (1, 0b01));
        // The first `y` enters it: its row (`y{6}` → `z`, within tile 1) is
        // lowered and its vector sized on that entry.
        run_array(&image, &mut sim, &compiled, b"y", &mut meter, None);
        assert_eq!(opened(&sim), (vec![0b1, 0b01], vec![0b1, 0], 6));
    }

    /// Steps `input` through a fresh run one tick at a time; `full` forces
    /// every tick down the complete path, as if the array were never
    /// quiet: every tile of a tile array busy, every word of a chain array
    /// live.
    fn stepped(
        image: &ArrayImage,
        compiled: &[Compiled],
        input: &[u8],
        full: bool,
    ) -> (Array, Vec<MatchEvent>, EnergyMeter) {
        let mut sim = Array::new(image);
        let (mut out, mut meter) = (Vec::new(), EnergyMeter::new());
        let mut tick = |sim: &mut Array, byte: Option<u8>, offset: usize| {
            match (full, &mut *sim) {
                (true, Array::Tile(t)) => t.busy = u64::MAX >> (64 - t.tiles.len()),
                (true, Array::Chain(c)) => {
                    for w in 0..c.states.len() {
                        c.live[w / 64] |= 1 << (w % 64);
                    }
                }
                (false, _) => {}
            }
            if let Some(pj) = sim.tick(image, compiled, byte, offset, &mut out) {
                meter.charge(Category::Wire, pj);
            }
        };
        for (offset, &byte) in input.iter().enumerate() {
            while sim.stalled() {
                tick(&mut sim, None, offset);
            }
            tick(&mut sim, Some(byte), offset);
        }
        while sim.stalled() {
            tick(&mut sim, None, input.len());
        }
        sim.settle(image, &mut meter);
        (sim, out, meter)
    }

    /// Jumping idle runs, skipping quiet ticks one at a time, and running
    /// the full search on every tick charge exactly the same: the same
    /// levels, a marked wire category, and the same buffer energy. The
    /// plans cover a plain initial state, a bit-vector initial state
    /// (`b{5,30}c`) and a `^`-anchored one whose first byte is idle.
    #[test]
    fn skipped_idle_runs_equal_full_ticks() {
        let bits = |m: &EnergyMeter| {
            m.iter()
                .map(|(c, pj)| (c, pj.to_bits()))
                .collect::<Vec<_>>()
        };
        let (compiled, plan) = two_tile_nbva(3);
        // The second case never wakes: no cycle charges wire energy, and
        // the category is marked only when the run settles.
        let mut cases = vec![
            (
                compiled.clone(),
                plan.clone(),
                [b"q".repeat(300), b"xyyyyyyz".to_vec(), b"q".repeat(77)].concat(),
            ),
            (compiled, plan, b"q".repeat(40)),
        ];
        let sim = crate::Simulator::new(Machine::Rap).with_bv_depth(4);
        let patterns: Vec<rap_regex::Pattern> = ["b{5,30}c", "^ab{3}d", "xyz"]
            .iter()
            .map(|p| rap_regex::parse_pattern(p).expect("parses"))
            .collect();
        let compiled = sim.compile_parsed(&patterns).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        let input = [b"qabbbd".to_vec(), b"q".repeat(90), b"bbbbbbbc".to_vec()].concat();
        for plan in mapping.arrays {
            cases.push((compiled.clone(), plan, input.repeat(3)));
        }
        for (compiled, plan, input) in cases {
            let image = image(&compiled, &plan);
            let mut skipped = EnergyMeter::new();
            let mut sim = Array::new(&image);
            let fast = run_array(&image, &mut sim, &compiled, &input, &mut skipped, None);
            let (quiet, quiet_out, quiet_meter) = stepped(&image, &compiled, &input, false);
            let (full, full_out, full_meter) = stepped(&image, &compiled, &input, true);
            assert_eq!(fast.matches, quiet_out);
            assert_eq!(fast.matches, full_out);
            assert_eq!(quiet.quiescent_cycles(), fast.quiescent_cycles);
            assert_eq!(full.quiescent_cycles(), 0);
            assert_eq!(fast.powered_tile_cycles, full.powered_tile_cycles());
            assert_eq!(bits(&skipped), bits(&quiet_meter));
            assert_eq!(bits(&skipped), bits(&full_meter));
            if matches!(image, ArrayImage::Tile(_)) {
                assert!(fast.quiescent_cycles > 0, "no idle run was skipped");
            }
        }
    }

    /// The chain kernel as it stepped before live words: every word and
    /// every tile on every cycle, the wire and buffer energy charged every
    /// cycle. Returns the matches, the cycles by powered tiles, the
    /// CAM-path and switch-path levels, and the per-cycle charges.
    fn every_word(
        image: &ChainImage,
        input: &[u8],
    ) -> (Vec<MatchEvent>, [Vec<u64>; 3], EnergyMeter) {
        let tiles = image.initial.len();
        let mut states = vec![0u64; image.words.len()];
        let mut levels = [
            vec![0u64; tiles + 1],
            vec![0; TILE_BITS + 1],
            vec![0; TILE_BITS + 1],
        ];
        let (mut out, mut meter) = (Vec::new(), EnergyMeter::new());
        for (offset, &byte) in input.iter().enumerate() {
            let label = image.labels.entry(image.labels.class(byte));
            let mut cands = image.initial.clone();
            let (mut carry, mut crossings) = (0u64, 0u32);
            for (w, word) in image.words.iter().enumerate() {
                let shifted = (states[w] << 1) | carry;
                carry = states[w] >> 63;
                let mut succ = shifted & word.follows;
                crossings += (succ & word.hops).count_ones();
                while succ != 0 {
                    cands[image.position_tile[w * 64 + succ.trailing_zeros() as usize] as usize] +=
                        1;
                    succ &= succ - 1;
                }
                states[w] = (shifted | word.starts) & label[w];
                let mut done = states[w] & word.finals;
                while done != 0 {
                    let p = w * 64 + done.trailing_zeros() as usize;
                    done &= done - 1;
                    out.push(MatchEvent {
                        pattern: image.position_pattern[p],
                        end: offset + 1,
                    });
                }
            }
            let mut powered = 0;
            for (t, &n) in cands.iter().enumerate().filter(|&(_, &n)| n > 0) {
                powered += 1;
                let level = (n as usize).min(TILE_BITS);
                levels[1][level] += u64::from(image.tile_cam[t]);
                levels[2][level] += u64::from(image.tile_switch[t]);
            }
            levels[0][powered] += 1;
            meter.charge(
                Category::Wire,
                image.cost.ring_hop_pj * f64::from(crossings),
            );
            meter.charge(Category::Buffer, image.cost.buffer_pj);
        }
        (out, levels, meter)
    }

    /// Live-word stepping equals stepping every word: the same matches,
    /// powered tile-cycles, activity levels and energy bits, whether the
    /// run visits its live words or is forced to visit them all. The plan
    /// has a 150-state chain crossing two 64-position word boundaries in a
    /// two-tile bin whose second tile holds no first state, and two
    /// switch-path bins sharing the chain's last word.
    #[test]
    fn live_word_steps_equal_every_word_steps() {
        let bits = |m: &EnergyMeter| {
            m.iter()
                .map(|(c, pj)| (c, pj.to_bits()))
                .collect::<Vec<_>>()
        };
        let long = "abcdefghijklmnopqrstuvwxyz".repeat(6)[..150].to_string();
        let sources = [long.as_str(), "xyz", "qrst", "hello", "[aceg]x[bdfh]y"];
        let sim = crate::Simulator::new(Machine::Rap).with_bin_size(2);
        let patterns: Vec<rap_regex::Pattern> = sources
            .iter()
            .map(|p| rap_regex::parse_pattern(p).expect("parses"))
            .collect();
        let compiled = sim.compile_parsed(&patterns).expect("compiles");
        let mapping = sim.map_verified(&compiled).expect("verifies");
        let plan = mapping
            .arrays
            .iter()
            .find(|a| matches!(a.kind, ArrayKind::Lnfa { .. }))
            .expect("an LNFA array");
        let ArrayKind::Lnfa { bins } = &plan.kind else {
            unreachable!()
        };
        assert!(bins.len() >= 3, "{} bins", bins.len());
        assert!(bins.iter().any(|b| b.tiles > 1), "a multi-tile bin");
        let input = [
            b"hello xyz qrst ".to_vec(),
            long.as_bytes()[..40].to_vec(),
            b" axby cxdy ".to_vec(),
            long.as_bytes().to_vec(),
            b"abcdefghijklmnop xyzxyz ".to_vec(),
            long.as_bytes().to_vec(),
        ]
        .concat();
        let image = image(&compiled, plan);
        let ArrayImage::Chain(chain) = &image else {
            unreachable!("an LNFA array runs on the chain kernel")
        };
        assert!(chain.words.len() >= 3, "the long chain spans three words");
        let (live, live_out, live_meter) = stepped(&image, &compiled, &input, false);
        let (_, full_out, full_meter) = stepped(&image, &compiled, &input, true);
        let (every_out, [powered, cam, switch], every_meter) = every_word(chain, &input);
        let Array::Chain(run) = &live else {
            unreachable!()
        };
        assert_eq!(
            live_out.iter().filter(|m| m.pattern == 0).count(),
            2,
            "the long chain matches twice"
        );
        assert_eq!(live_out, every_out);
        assert_eq!(full_out, every_out);
        assert_eq!(run.powered, powered);
        assert_eq!(live.powered_tile_cycles(), tile_cycles(&powered));
        assert_eq!(run.levels(chain), (cam, switch));
        assert_eq!(bits(&live_meter), bits(&full_meter));
        for category in [Category::Wire, Category::Buffer] {
            assert_eq!(
                live_meter.category_pj(category).to_bits(),
                every_meter.category_pj(category).to_bits(),
                "{category}"
            );
        }
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
