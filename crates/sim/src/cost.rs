//! Per-machine cost models, assembled from the Table 1 circuit components.
//!
//! All four machines share the same CAM/SRAM macros and the same mapper, so
//! their differences reduce to which components a tile contains and how
//! each micro-operation is charged:
//!
//! | | state matching | local ctrl | BV storage | clock |
//! |---|---|---|---|---|
//! | RAP | 8T-CAM, 4 pJ | yes (reconfig) | unified in CAM | 2.08 GHz |
//! | CAMA | 8T-CAM, 4 pJ | no | — | 2.14 GHz |
//! | BVAP | 8T-CAM, 4 pJ | no | fixed BVM add-on | 2.00 GHz |
//! | CA | SRAM sense, 2 pJ | no | — | 1.82 GHz |
//!
//! CA trades a lower matching energy for a much larger tile (SRAM matching
//! arrays plus full crossbars), which is exactly the energy-vs-area split
//! Tables 2/3 report.

use rap_circuit::models::{
    ComponentModel, Machine, CAM_32X128, GLOBAL_CONTROLLER, GLOBAL_WIRE_MM, LOCAL_CONTROLLER,
    SRAM_128X128, SRAM_256X256,
};
use rap_mapper::Mapping;

/// Aggregated per-machine costs used by the array simulators.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// The machine.
    pub machine: Machine,
    /// Clock frequency in hertz.
    pub clock_hz: f64,
    /// Tile area in µm² (memory macros + per-tile control).
    pub tile_area_um2: f64,
    /// Per-array overhead area in µm² (global switch, controller, wires).
    pub array_area_um2: f64,
    /// Per-bank overhead area in µm² (I/O buffers), amortized per 4 arrays.
    pub bank_area_um2: f64,
    /// State-matching energy per active tile per cycle (pJ).
    pub match_pj: f64,
    /// Local-switch traversal model (activity-scaled).
    pub local_switch: ComponentModel,
    /// Global-switch traversal model (activity-scaled).
    pub global_switch: ComponentModel,
    /// Per-tile controller energy per cycle (pJ); zero on machines without
    /// a reconfiguration controller.
    pub local_ctrl_pj: f64,
    /// Per-array controller energy per cycle (pJ).
    pub global_ctrl_pj: f64,
    /// Wire energy per cross-tile signal per cycle (pJ).
    pub wire_pj: f64,
    /// Ring-hop energy for LNFA global routing (pJ).
    pub ring_hop_pj: f64,
    /// Input/output buffering energy per array per cycle (pJ).
    pub buffer_pj: f64,
    /// Energy per bit-vector pipeline step per active tile (pJ): BV-word
    /// read + action routing + write-back.
    pub bv_step_pj: f64,
    /// Stall cycles per bit-vector-processing phase. For RAP this is the
    /// configured BV depth (taken from the array plan); this field is the
    /// *fixed* latency of BVAP's BVM pipeline.
    pub bvap_stall_cycles: u64,
    /// Tile leakage in watts.
    pub tile_leak_w: f64,
    /// Array overhead leakage in watts.
    pub array_leak_w: f64,
}

impl CostModel {
    /// Builds the cost model for one machine.
    pub fn for_machine(machine: Machine) -> CostModel {
        let wire_pj = GLOBAL_WIRE_MM.energy_pj_max; // per ~1mm toggle
        let base = CostModel {
            machine,
            clock_hz: machine.clock_hz(),
            tile_area_um2: CAM_32X128.area_um2 + SRAM_128X128.area_um2,
            array_area_um2: SRAM_256X256.area_um2
                + GLOBAL_CONTROLLER.area_um2
                + 16.0 * GLOBAL_WIRE_MM.area_um2, // one wire bundle per tile
            bank_area_um2: SRAM_128X128.area_um2 / 4.0, // I/O buffers per bank
            match_pj: CAM_32X128.energy_pj_max,
            local_switch: SRAM_128X128,
            global_switch: SRAM_256X256,
            local_ctrl_pj: 0.0,
            global_ctrl_pj: GLOBAL_CONTROLLER.energy_pj_max,
            wire_pj,
            ring_hop_pj: wire_pj * 0.1, // short adjacent-tile hop (§3.2)
            buffer_pj: 0.2,
            // Read a BV word from the CAM, route it through the (large,
            // reused) local switch region, write it back: 2 CAM accesses
            // plus a half-active 128×128 traversal. Reusing the big switch
            // is what costs RAP ~20% more NBVA energy than BVAP's
            // dedicated MFCB (§5.5).
            bv_step_pj: 2.0 * CAM_32X128.energy_pj_max + SRAM_128X128.access_energy_pj(0.5),
            bvap_stall_cycles: 4,
            tile_leak_w: CAM_32X128.leakage_w() + SRAM_128X128.leakage_w(),
            array_leak_w: SRAM_256X256.leakage_w() + GLOBAL_CONTROLLER.leakage_w(),
        };
        match machine {
            Machine::Rap => CostModel {
                tile_area_um2: base.tile_area_um2 + LOCAL_CONTROLLER.area_um2,
                local_ctrl_pj: LOCAL_CONTROLLER.energy_pj_max,
                tile_leak_w: base.tile_leak_w + LOCAL_CONTROLLER.leakage_w(),
                ..base
            },
            Machine::Cama => base,
            Machine::Bvap => CostModel {
                // Fixed BVM add-on on every tile: 2048 bits of SRAM plus a
                // small semi-parallel routing crossbar (MFCB).
                tile_area_um2: base.tile_area_um2 + bvm_area_um2(),
                tile_leak_w: base.tile_leak_w + SRAM_128X128.leakage_w() * 0.25,
                // The dedicated, narrow MFCB pipeline is far cheaper per
                // step than RAP's reused 128×128 switch.
                bv_step_pj: 2.0,
                ..base
            },
            Machine::Ca => CostModel {
                // SRAM-based matching plus full-size crossbars: cheaper
                // per-access matching energy, much larger tile (the 5.2×
                // area of Table 2).
                tile_area_um2: SRAM_128X128.area_um2 + SRAM_256X256.area_um2 / 2.0 + 2000.0,
                match_pj: SRAM_128X128.energy_pj_min * 2.0,
                local_switch: SRAM_256X256,
                tile_leak_w: SRAM_128X128.leakage_w() + SRAM_256X256.leakage_w() / 2.0,
                ..base
            },
        }
    }

    /// Total allocated area of a mapping, in mm².
    pub fn area_mm2(&self, mapping: &Mapping) -> f64 {
        let mut um2 = 0.0;
        for plan in &mapping.arrays {
            um2 += f64::from(plan.tiles_used) * self.tile_area_um2 + self.array_area_um2;
        }
        let arrays = mapping.arrays.len() as u32;
        um2 += f64::from(arrays.div_ceil(4)) * self.bank_area_um2;
        um2 * 1e-6
    }

    /// Bank-level leakage (I/O buffers) in watts for `arrays` arrays.
    pub fn bank_overhead_leak_w(&self, arrays: u32) -> f64 {
        f64::from(arrays.div_ceil(4)) * SRAM_128X128.leakage_w() / 4.0
    }
}

/// The fixed BVM area: the bit-vector SRAM, its pipeline registers, and
/// the semi-parallel multibit routing crossbar (MFCB) — about one 128×128
/// macro's worth per tile. This is the add-on that sits idle on workloads
/// without bounded repetitions (Tables 2 and 3's BVAP area columns).
fn bvm_area_um2() -> f64 {
    SRAM_128X128.area_um2 * 0.75 + SRAM_128X128.area_um2 / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rap_tile_includes_local_controller() {
        let rap = CostModel::for_machine(Machine::Rap);
        let cama = CostModel::for_machine(Machine::Cama);
        assert!(rap.tile_area_um2 > cama.tile_area_um2);
        assert!((rap.tile_area_um2 - cama.tile_area_um2 - 2900.0).abs() < 1e-9);
        assert!(rap.local_ctrl_pj > 0.0);
        assert_eq!(cama.local_ctrl_pj, 0.0);
    }

    #[test]
    fn ca_trades_energy_for_area() {
        let ca = CostModel::for_machine(Machine::Ca);
        let cama = CostModel::for_machine(Machine::Cama);
        assert!(ca.match_pj < cama.match_pj);
        assert!(ca.tile_area_um2 > cama.tile_area_um2);
    }

    #[test]
    fn bvap_pays_fixed_bvm() {
        let bvap = CostModel::for_machine(Machine::Bvap);
        let cama = CostModel::for_machine(Machine::Cama);
        assert!(bvap.tile_area_um2 > cama.tile_area_um2);
        // ...but its dedicated BVM pipeline step is cheaper than RAP's.
        let rap = CostModel::for_machine(Machine::Rap);
        assert!(bvap.bv_step_pj < rap.bv_step_pj);
    }

    /// The array kernels charge activity-scaled energy once per run, as
    /// `count × energy(level)`. That equals the per-cycle running sum bit
    /// for bit only while every per-level energy is a multiple of 2⁻⁸ pJ:
    /// then no product or partial sum (below 2⁴⁵ pJ) ever rounds.
    #[test]
    fn activity_scaled_charges_are_dyadic() {
        let dyadic = |pj: f64| (pj * 256.0).fract() == 0.0;
        for m in Machine::all() {
            let c = CostModel::for_machine(m);
            for k in 0..=256u32 {
                let tile = (f64::from(k) / 128.0).min(1.0);
                let levels = [
                    c.local_switch.access_energy_pj(tile),
                    c.local_switch.access_energy_pj((2.0 * tile).min(1.0)),
                    c.global_switch.access_energy_pj(f64::from(k) / 256.0),
                    0.5 + c.match_pj * tile,
                    c.match_pj * f64::from(k),
                    c.local_ctrl_pj * f64::from(k) + c.global_ctrl_pj,
                    c.bv_step_pj * f64::from(k),
                ];
                for pj in levels {
                    assert!(dyadic(pj), "{m}: {pj} pJ at level {k} is not dyadic");
                }
            }
        }
    }

    #[test]
    fn clocks_forwarded() {
        for m in Machine::all() {
            assert_eq!(CostModel::for_machine(m).clock_hz, m.clock_hz());
        }
    }
}
