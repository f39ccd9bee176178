//! Hardware fabric of the RAP reproduction (§3 of the paper).
//!
//! This crate models the *structure* of the RAP hierarchy — bank → array →
//! tile — and the circuit-level building blocks the three execution modes
//! reconfigure:
//!
//! * [`config::ArchConfig`] — every architectural parameter of §3.3 (tile
//!   geometry, array/bank fan-out, buffer depths, ring width, …),
//! * [`encoding`] — the character-class encoding: the 32-bit per-column
//!   CAM code (a product of high-/low-nibble sets, standing in for CAMA's
//!   multi-zero prefix scheme),
//! * [`buffers`] — the per-array FIFOs of the §3.3 buffer hierarchy.
//!
//! The tile itself — CAM search and crossbar routing over 128-bit words —
//! is executed by the simulator's kernels (`rap-sim`'s `array` module).

pub mod buffers;
pub mod config;
pub mod encoding;
