//! Content addressing for compile artifacts: keys and stable hashing.
//!
//! Compile products are keyed by a *stable* hash of everything that
//! determines them: the pattern sources, the target machine, the forced
//! mode (if any), and every field of the compiler and mapper
//! configurations. The hash is FNV-1a/128 computed over an explicit field
//! serialization — independent of `std::hash::Hash` (whose output is not
//! guaranteed stable across releases) and of struct layout.
//!
//! The storage side — the in-memory build-once map and the persistent
//! on-disk tier addressed by these keys — lives in [`crate::store`].

use rap_compiler::CompilerConfig;
use rap_mapper::MapperConfig;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A 128-bit content address identifying one compile product.
///
/// Its canonical text form — [`fmt::Display`] and [`FromStr`] — is 32
/// lowercase hex digits, used verbatim as the disk-tier filename stem so
/// keys look identical in reports, `rap cache` output, and `ls`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CacheKey(pub u128);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

impl FromStr for CacheKey {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<CacheKey, Self::Err> {
        u128::from_str_radix(s, 16).map(CacheKey)
    }
}

/// Streaming FNV-1a hasher over 128 bits, stable across platforms and
/// releases.
#[derive(Clone, Debug)]
pub struct StableHasher {
    state: u128,
}

const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u32` in little-endian byte order.
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` via its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a length-prefixed string (prefixing prevents concatenation
    /// ambiguity between adjacent fields).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorbs an optional `u32` with a presence tag.
    pub fn write_opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.write(&[0]),
            Some(v) => {
                self.write(&[1]);
                self.write_u32(v);
            }
        }
    }

    /// Finalizes into a cache key.
    pub fn finish(&self) -> CacheKey {
        CacheKey(self.state)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

/// Absorbs every compile- and map-determining configuration field.
pub(crate) fn hash_configs(h: &mut StableHasher, compiler: &CompilerConfig, mapper: &MapperConfig) {
    h.write_u32(compiler.unfold_threshold);
    h.write_u32(compiler.bv_depth);
    h.write_f64(compiler.lnfa_expand_factor);
    h.write_opt_u32(compiler.bv_bits_cap);
    for arch in [&compiler.arch, &mapper.arch] {
        h.write_u32(arch.cam_rows);
        h.write_u32(arch.tile_columns);
        h.write_u32(arch.tiles_per_array);
        h.write_u32(arch.arrays_per_bank);
        h.write_u32(arch.global_ports_per_tile);
        h.write_u32(arch.max_bin_size);
        h.write_u32(arch.ring_width_bits);
        h.write_u32(arch.bank_input_entries);
        h.write_u32(arch.array_input_entries);
        h.write_u32(arch.bank_output_entries);
        h.write_u32(arch.array_output_entries);
        h.write_f64(arch.tile_wire_mm);
        h.write_f64(arch.ring_hop_mm);
    }
    h.write_u32(mapper.bin_size);
    match mapper.bvm {
        None => h.write(&[0]),
        Some(bvm) => {
            h.write(&[1]);
            h.write_u32(bvm.slot_bits);
            h.write_u32(bvm.slots_per_tile);
        }
    }
    h.write(&[u8::from(mapper.validate)]);
}

/// Derives the content address of an *analyzed* compile product from the
/// base compile key: the analyzer options determine the output images
/// (prune rewrites them), so they are part of the artifact's identity.
pub(crate) fn analysis_key(base: CacheKey, options: &rap_analyze::AnalyzeOptions) -> CacheKey {
    let mut h = StableHasher::new();
    h.write(&base.0.to_le_bytes());
    h.write_str("analyze");
    h.write(&[u8::from(options.prune)]);
    match options.soundness {
        None => h.write(&[0]),
        Some(cfg) => {
            h.write(&[1]);
            h.write_u64(cfg.max_configs as u64);
        }
    }
    h.finish()
}

/// Derives the content address of a *bounded* plan from the verified
/// plan's key: the bound options determine the attached bound analysis,
/// so they are part of the artifact's identity.
pub(crate) fn bounds_key(base: CacheKey, options: &rap_bound::BoundOptions) -> CacheKey {
    let mut h = StableHasher::new();
    h.write(&base.0.to_le_bytes());
    h.write_str("bound");
    match options.equivalence {
        None => h.write(&[0]),
        Some(cfg) => {
            h.write(&[1]);
            h.write_u64(cfg.max_configs as u64);
        }
    }
    h.finish()
}

/// Derives the content address of a *composed* (multi-tenant) plan from
/// the tenants' verified-plan keys. The pairs are hashed sorted by
/// tenant name — admission canonicalizes the same way, so any
/// permutation of one tenant set addresses one artifact. The admission
/// options are deliberately absent: they decide the verdict, not the
/// merged artifact's content.
pub(crate) fn compose_key(parts: &[(&str, CacheKey)]) -> CacheKey {
    let mut sorted: Vec<&(&str, CacheKey)> = parts.iter().collect();
    sorted.sort();
    let mut h = StableHasher::new();
    h.write_str("admit");
    h.write_u64(sorted.len() as u64);
    for (name, key) in sorted {
        h.write_str(name);
        h.write(&key.0.to_le_bytes());
    }
    h.finish()
}

/// Running hit/miss totals for one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors_are_stable() {
        // Bit-for-bit stability is the whole point: pin two vectors.
        let mut h = StableHasher::new();
        h.write(b"");
        assert_eq!(h.finish().0, FNV_OFFSET);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.finish().0, 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
    }

    #[test]
    fn length_prefix_disambiguates() {
        let mut a = StableHasher::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn compose_key_is_order_insensitive() {
        let fwd = compose_key(&[("alpha", CacheKey(1)), ("bravo", CacheKey(2))]);
        let rev = compose_key(&[("bravo", CacheKey(2)), ("alpha", CacheKey(1))]);
        assert_eq!(fwd, rev);
        // ...but sensitive to the actual tenants and their plans.
        assert_ne!(fwd, compose_key(&[("alpha", CacheKey(1))]));
        assert_ne!(
            fwd,
            compose_key(&[("alpha", CacheKey(3)), ("bravo", CacheKey(2))])
        );
        assert_ne!(
            fwd,
            compose_key(&[("alpha", CacheKey(1)), ("charlie", CacheKey(2))])
        );
    }

    #[test]
    fn cache_key_text_form_round_trips() {
        let key = CacheKey(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        let text = key.to_string();
        assert_eq!(text.len(), 32);
        assert_eq!(text.parse::<CacheKey>().unwrap(), key);
        assert!("not-hex".parse::<CacheKey>().is_err());
    }
}
