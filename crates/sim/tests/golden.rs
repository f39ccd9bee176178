//! Golden modeled numbers: the simulator's cycles, stalls, matches, energy
//! breakdown and buffer statistics on a small fixed corpus, pinned bit for
//! bit.
//!
//! The table below was recorded with the per-pattern reference executors
//! (one `NfaRun`/`NbvaRun`/`ShiftAndRun` per placed pattern) before the
//! word-level tile kernels replaced them. A host-side change to the
//! simulator must leave every line identical; a change to the modeled
//! hardware must re-record the table and say why.
//!
//! Energy is pinned per category through `f64::to_bits`, so a rounding
//! difference in any subtotal fails the test. Matches are pinned as a
//! count plus an FNV-1a digest of the sorted `(pattern, end)` list.
//!
//! Every line is checked twice: untraced, where quiet tile arrays jump
//! idle input, and traced, where a probe makes every cycle step.

use rap_circuit::Machine;
use rap_regex::Pattern;
use rap_sim::{BankStats, RunResult, Simulator};
use rap_telemetry::{Telemetry, TelemetryConfig};
use rap_workloads::Suite;
use std::sync::Arc;

/// Workload seed of the generated corpus.
const SEED: u64 = 7;
/// Patterns per generated suite.
const SUITE_PATTERNS: usize = 40;
/// Input bytes per generated suite.
const SUITE_INPUT: usize = 1_500;

struct Case {
    name: String,
    patterns: Vec<Pattern>,
    input: Vec<u8>,
}

fn parse(sources: &[String]) -> Vec<Pattern> {
    sources
        .iter()
        .map(|p| rap_regex::parse_pattern(p).unwrap_or_else(|e| panic!("{p}: {e}")))
        .collect()
}

fn hand(name: &str, sources: &[&str], input: Vec<u8>) -> Case {
    let sources: Vec<String> = sources.iter().map(|s| (*s).to_string()).collect();
    Case {
        name: name.to_string(),
        patterns: parse(&sources),
        input,
    }
}

fn corpus() -> Vec<Case> {
    let mut cases: Vec<Case> = [Suite::Snort, Suite::SpamAssassin, Suite::Yara]
        .into_iter()
        .map(|suite| {
            let sources = rap_workloads::generate_patterns(suite, SUITE_PATTERNS, SEED);
            let input = rap_workloads::generate_input(&sources, SUITE_INPUT, 0.05, SEED);
            Case {
                name: suite.name().to_string(),
                patterns: parse(&sources),
                input,
            }
        })
        .collect();
    cases.push(hand(
        "anchors",
        &["^abc", "xyz$", "^a.*b$", "^c{6,20}d", "ab{8}c$", "hello"],
        b"abcxyz hello ab cccccccd abbbbbbbbc hello xyz abcb".repeat(3),
    ));
    // A BV phase on nearly every byte: RAP stalls for the BV depth, BVAP
    // for its fixed BVM latency, and the stalling array drags the bank
    // window of the literal array.
    cases.push(hand("bv-stall", &["ab{30,90}c", "zzz"], b"ab".repeat(400)));
    // Every byte matches: the bank output buffer overflows into host
    // interrupts and the array output FIFOs back-pressure.
    cases.push(hand("flood", &["[ab]", "a", "ba"], b"ab".repeat(300)));
    // Unfolded on CA/CAMA, `c{60,200}` spans several tiles, so its
    // transitions route through the global crossbar.
    cases.push(hand(
        "cross-tile",
        &["xc{60,200}y", "c{40}d", "q[^q]{70}q"],
        [
            b"x".to_vec(),
            b"c".repeat(130),
            b"yd q".to_vec(),
            b"w".repeat(70),
            b"q xc".to_vec(),
        ]
        .concat()
        .repeat(3),
    ));
    cases
}

fn fnv(matches: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for m in &matches.matches {
        for word in [m.pattern as u64, m.end as u64] {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn fingerprint(result: &RunResult) -> String {
    let energy: Vec<String> = result
        .energy
        .iter()
        .map(|(category, pj)| format!("{category}:{:016x}", pj.to_bits()))
        .collect();
    format!(
        "cycles={} stalls={} matches={}#{:016x} energy=[{}]",
        result.metrics.cycles,
        result.stall_cycles,
        result.matches.len(),
        fnv(result),
        energy.join(",")
    )
}

fn bank_fingerprint(stats: &BankStats) -> String {
    format!(
        "stall={:?} starved={:?} skew={} irq={} bp={} in_hwm={} out_hwm={}",
        stats.stall_cycles,
        stats.starved_cycles,
        stats.max_skew,
        stats.output_interrupts,
        stats.output_backpressure,
        stats.max_input_fifo_bytes,
        stats.max_output_fifo_records
    )
}

/// The golden table's lines, from simulators with `telemetry` attached
/// (traced) or not.
fn observed(telemetry: Option<&Arc<Telemetry>>) -> Vec<String> {
    let mut lines = Vec::new();
    for case in corpus() {
        for machine in Machine::all() {
            let mut sim = Simulator::new(machine);
            sim.telemetry = telemetry.cloned();
            let compiled = sim
                .compile_parsed(&case.patterns)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", case.name));
            let mapping = sim
                .map_verified(&compiled)
                .unwrap_or_else(|e| panic!("{} on {machine}: {e}", case.name));
            let batch = sim.simulate(&compiled, &mapping, &case.input);
            let (streaming, stats) = sim.simulate_streaming(&compiled, &mapping, &case.input);
            let name = &case.name;
            lines.push(format!("{name}/{machine}/batch {}", fingerprint(&batch)));
            lines.push(format!(
                "{name}/{machine}/stream {} {}",
                fingerprint(&streaming),
                bank_fingerprint(&stats)
            ));
        }
    }
    lines
}

/// Recorded with the per-pattern reference executors (see the module doc).
const GOLDEN: &[&str] = &[
    "Snort/RAP/batch cycles=2220 stalls=720 matches=5#b195a4543fd8c9bb energy=[state-match:40e76b0c80000000,local-switch:40c4d04100000000,global-switch:40b7819900000000,wire:4017db22d0e56046,bit-vector:40c5cc0000000000,controller:40e18b4000000000,buffer:408c200000000253,leakage:40928dda95a95a96]",
    "Snort/RAP/stream cycles=2220 stalls=720 matches=5#b195a4543fd8c9bb energy=[state-match:40e76b0c80000000,local-switch:40c4d04100000000,global-switch:40b7819900000000,wire:4017db22d0e56046,bit-vector:40c5cc0000000000,controller:40e18b4000000000,buffer:408c280000000255,leakage:40928dda95a95a96] stall=[0, 720, 0] starved=[465, 0, 465] skew=256 irq=0 bp=0 in_hwm=8 out_hwm=5",
    "Snort/CAMA/batch cycles=1500 stalls=0 matches=5#b195a4543fd8c9bb energy=[state-match:40f30b0000000000,local-switch:40d349b080000000,global-switch:40a7756200000000,wire:3fed1eb851eb8522,controller:40a7700000000000,buffer:4072bfffffffff6b,leakage:4087261f1a515885]",
    "Snort/CAMA/stream cycles=1500 stalls=0 matches=5#b195a4543fd8c9bb energy=[state-match:40f30b0000000000,local-switch:40d349b080000000,global-switch:40a7756200000000,wire:3fed1eb851eb8522,controller:40a7700000000000,buffer:4072cfffffffff6a,leakage:4087261f1a515885] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=5",
    "Snort/BVAP/batch cycles=1860 stalls=360 matches=5#b195a4543fd8c9bb energy=[state-match:40e7700000000000,local-switch:40c7dfc500000000,global-switch:40b7819900000000,wire:4017ccccccccccd2,bit-vector:4086800000000000,controller:40ba400000000000,buffer:4082bffffffffffb,leakage:408b969b22d0e561]",
    "Snort/BVAP/stream cycles=1860 stalls=360 matches=5#b195a4543fd8c9bb energy=[state-match:40e7700000000000,local-switch:40c7dfc500000000,global-switch:40b7819900000000,wire:4017ccccccccccd2,bit-vector:4086800000000000,controller:40ba400000000000,buffer:4082c7fffffffffd,leakage:408b969b22d0e561] stall=[0, 360] starved=[105, 0] skew=256 irq=0 bp=0 in_hwm=8 out_hwm=5",
    "Snort/CA/batch cycles=1500 stalls=0 matches=5#b195a4543fd8c9bb energy=[state-match:40e30b0000000000,local-switch:40e38aca40000000,global-switch:40a7756200000000,wire:3fed1eb851eb8522,controller:40a7700000000000,buffer:4072bfffffffff6b,leakage:409cad2e6ae6ae6b]",
    "Snort/CA/stream cycles=1500 stalls=0 matches=5#b195a4543fd8c9bb energy=[state-match:40e30b0000000000,local-switch:40e38aca40000000,global-switch:40a7756200000000,wire:3fed1eb851eb8522,controller:40a7700000000000,buffer:4072cfffffffff6a,leakage:409cad2e6ae6ae6b] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=5",
    "SpamAssassin/RAP/batch cycles=1612 stalls=112 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40db685200000000,local-switch:40a7a77400000000,global-switch:40b7700000000000,wire:3f95810624dd2f1c,bit-vector:409b200000000000,controller:40d7e40000000000,buffer:408c200000000253,leakage:4088fa70ef755dbc]",
    "SpamAssassin/RAP/stream cycles=1612 stalls=112 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40db685200000000,local-switch:40a7a77400000000,global-switch:40b7700000000000,wire:3f95810624dd2f1c,bit-vector:409b200000000000,controller:40d7e40000000000,buffer:408c24cccccccf21,leakage:4088fa70ef755dbc] stall=[0, 112, 0] starved=[0, 0, 0] skew=112 irq=0 bp=0 in_hwm=8 out_hwm=3",
    "SpamAssassin/CAMA/batch cycles=1500 stalls=0 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40e4820000000000,local-switch:40c4b09e00000000,global-switch:40a7700000000000,wire:0000000000000000,controller:40a7700000000000,buffer:4072bfffffffff6b,leakage:407d806e0e5aea77]",
    "SpamAssassin/CAMA/stream cycles=1500 stalls=0 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40e4820000000000,local-switch:40c4b09e00000000,global-switch:40a7700000000000,wire:0000000000000000,controller:40a7700000000000,buffer:4072c99999999904,leakage:407d806e0e5aea77] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=3",
    "SpamAssassin/BVAP/batch cycles=1556 stalls=56 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40e4820000000000,local-switch:40c4b09e00000000,global-switch:40b7703500000000,wire:3fb1eb851eb851ec,bit-vector:405c000000000000,controller:40b7e00000000000,buffer:4082bffffffffffb,leakage:4087569e1b089a02]",
    "SpamAssassin/BVAP/stream cycles=1556 stalls=56 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40e4820000000000,local-switch:40c4b09e00000000,global-switch:40b7703500000000,wire:3fb1eb851eb851ec,bit-vector:405c000000000000,controller:40b7e00000000000,buffer:4082c4ccccccccc9,leakage:4087569e1b089a02] stall=[0, 56] starved=[0, 0] skew=56 irq=0 bp=0 in_hwm=8 out_hwm=3",
    "SpamAssassin/CA/batch cycles=1500 stalls=0 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40d4820000000000,local-switch:40d4e10700000000,global-switch:40a7700000000000,wire:0000000000000000,controller:40a7700000000000,buffer:4072bfffffffff6b,leakage:4090c90168168168]",
    "SpamAssassin/CA/stream cycles=1500 stalls=0 matches=3#3c2ea6d2581a2cf3 energy=[state-match:40d4820000000000,local-switch:40d4e10700000000,global-switch:40a7700000000000,wire:0000000000000000,controller:40a7700000000000,buffer:4072c99999999904,leakage:4090c90168168168] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=3",
    "Yara/RAP/batch cycles=3060 stalls=1560 matches=2#e0a174454c577dc4 energy=[state-match:40f068f000000000,local-switch:40cd6bfe00000000,global-switch:40b77cd600000000,wire:40115c28f5c28f5a,bit-vector:40d79d0000000000,controller:40e78e0000000000,buffer:408c200000000253,leakage:4099def85e85e85f]",
    "Yara/RAP/stream cycles=3060 stalls=1560 matches=2#e0a174454c577dc4 energy=[state-match:40f068f000000000,local-switch:40cd6bfe00000000,global-switch:40b77cd600000000,wire:40115c28f5c28f5a,bit-vector:40d79d0000000000,controller:40e78e0000000000,buffer:408c233333333587,leakage:4099def85e85e85f] stall=[0, 1560, 0] starved=[1305, 0, 1305] skew=256 irq=0 bp=0 in_hwm=8 out_hwm=2",
    "Yara/CAMA/batch cycles=1500 stalls=0 matches=2#e0a174454c577dc4 energy=[state-match:41053d8000000000,local-switch:40e55ae080000000,global-switch:40b7706a00000000,wire:3fc1eb851eb851ec,controller:40b7700000000000,buffer:4082bffffffffffb,leakage:40991ba3e34a2b11]",
    "Yara/CAMA/stream cycles=1500 stalls=0 matches=2#e0a174454c577dc4 energy=[state-match:41053d8000000000,local-switch:40e55ae080000000,global-switch:40b7706a00000000,wire:3fc1eb851eb851ec,controller:40b7700000000000,buffer:4082c3333333332f,leakage:40991ba3e34a2b11] stall=[0, 0] starved=[0, 0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=2",
    "Yara/BVAP/batch cycles=2280 stalls=780 matches=2#e0a174454c577dc4 energy=[state-match:40f1940000000000,local-switch:40d1cec100000000,global-switch:40b7802600000000,wire:4015d70a3d70a3da,bit-vector:4098600000000000,controller:40bd880000000000,buffer:4082bffffffffffb,leakage:40931591a9fbe76c]",
    "Yara/BVAP/stream cycles=2280 stalls=780 matches=2#e0a174454c577dc4 energy=[state-match:40f1940000000000,local-switch:40d1cec100000000,global-switch:40b7802600000000,wire:4015d70a3d70a3da,bit-vector:4098600000000000,controller:40bd880000000000,buffer:4082c3333333332f,leakage:40931591a9fbe76c] stall=[0, 780] starved=[525, 0] skew=256 irq=0 bp=0 in_hwm=8 out_hwm=2",
    "Yara/CA/batch cycles=1500 stalls=0 matches=2#e0a174454c577dc4 energy=[state-match:40f53d8000000000,local-switch:40f5796240000000,global-switch:40b7706a00000000,wire:3fc1eb851eb851ec,controller:40b7700000000000,buffer:4082bffffffffffb,leakage:40af9115cd5cd5cd]",
    "Yara/CA/stream cycles=1500 stalls=0 matches=2#e0a174454c577dc4 energy=[state-match:40f53d8000000000,local-switch:40f5796240000000,global-switch:40b7706a00000000,wire:3fc1eb851eb851ec,controller:40b7700000000000,buffer:4082c3333333332f,leakage:40af9115cd5cd5cd] stall=[0, 0] starved=[0, 0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=2",
    "anchors/RAP/batch cycles=414 stalls=264 matches=8#2edee3d6d5962b8f energy=[state-match:409d61c000000000,local-switch:407dbb2000000000,global-switch:4082c00000000000,wire:0000000000000000,bit-vector:40aff80000000000,controller:40a8a80000000000,buffer:4056800000000034,leakage:40646611eb851eb8]",
    "anchors/RAP/stream cycles=414 stalls=264 matches=8#2edee3d6d5962b8f energy=[state-match:409d61c000000000,local-switch:407dbb2000000000,global-switch:4082c00000000000,wire:0000000000000000,bit-vector:40aff80000000000,controller:40a8a80000000000,buffer:40591999999999d8,leakage:40646611eb851eb8] stall=[0, 264, 0] starved=[0, 0, 0] skew=96 irq=0 bp=0 in_hwm=8 out_hwm=52",
    "anchors/CAMA/batch cycles=150 stalls=0 matches=8#2edee3d6d5962b8f energy=[state-match:4082c00000000000,local-switch:406657c000000000,global-switch:4072c00000000000,wire:0000000000000000,controller:4072c00000000000,buffer:403dffffffffffeb,leakage:4034542fd9b8396d]",
    "anchors/CAMA/stream cycles=150 stalls=0 matches=8#2edee3d6d5962b8f energy=[state-match:4082c00000000000,local-switch:406657c000000000,global-switch:4072c00000000000,wire:0000000000000000,controller:4072c00000000000,buffer:4044333333333338,leakage:4034542fd9b8396d] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=52",
    "anchors/BVAP/batch cycles=282 stalls=132 matches=8#2edee3d6d5962b8f energy=[state-match:409c200000000000,local-switch:407debe000000000,global-switch:4082c00000000000,wire:0000000000000000,bit-vector:4070800000000000,controller:408b000000000000,buffer:404e00000000002c,leakage:4055124c2f837b4a]",
    "anchors/BVAP/stream cycles=282 stalls=132 matches=8#2edee3d6d5962b8f energy=[state-match:409c200000000000,local-switch:407debe000000000,global-switch:4082c00000000000,wire:0000000000000000,bit-vector:4070800000000000,controller:408b000000000000,buffer:40519999999999ba,leakage:4055124c2f837b4a] stall=[0, 132] starved=[0, 0] skew=69 irq=0 bp=0 in_hwm=8 out_hwm=52",
    "anchors/CA/batch cycles=150 stalls=0 matches=8#2edee3d6d5962b8f energy=[state-match:4072c00000000000,local-switch:407a12e000000000,global-switch:4072c00000000000,wire:0000000000000000,controller:4072c00000000000,buffer:403dffffffffffeb,leakage:403f521c21c21c23]",
    "anchors/CA/stream cycles=150 stalls=0 matches=8#2edee3d6d5962b8f energy=[state-match:4072c00000000000,local-switch:407a12e000000000,global-switch:4072c00000000000,wire:0000000000000000,controller:4072c00000000000,buffer:4044333333333338,leakage:403f521c21c21c23] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=52",
    "bv-stall/RAP/batch cycles=4000 stalls=3200 matches=0#cbf29ce484222325 energy=[state-match:40baa90000000000,local-switch:409a449800000000,global-switch:409a4a6c00000000,wire:403bee147ae147c8,bit-vector:40e8380000000000,controller:40d4500000000000,buffer:4073ffffffffff57,leakage:409092cec4ec4ec5]",
    "bv-stall/RAP/stream cycles=4000 stalls=3200 matches=0#cbf29ce484222325 energy=[state-match:40baa90000000000,local-switch:409a449800000000,global-switch:409a4a6c00000000,wire:403bee147ae147c8,bit-vector:40e8380000000000,controller:40d4500000000000,buffer:4073ffffffffff57,leakage:409092cec4ec4ec5] stall=[3200, 0] starved=[0, 1913] skew=256 irq=0 bp=0 in_hwm=8 out_hwm=0",
    "bv-stall/CAMA/batch cycles=800 stalls=0 matches=0#cbf29ce484222325 energy=[state-match:40a9000000000000,local-switch:408b893000000000,global-switch:4099000000000000,wire:0000000000000000,controller:4099000000000000,buffer:4063ffffffffffed,leakage:405b1aea77a04c8f]",
    "bv-stall/CAMA/stream cycles=800 stalls=0 matches=0#cbf29ce484222325 energy=[state-match:40a9000000000000,local-switch:408b893000000000,global-switch:4099000000000000,wire:0000000000000000,controller:4099000000000000,buffer:4063ffffffffffed,leakage:405b1aea77a04c8f] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=0",
    "bv-stall/BVAP/batch cycles=2400 stalls=1600 matches=0#cbf29ce484222325 energy=[state-match:40c2c00000000000,local-switch:40a3624c00000000,global-switch:40a9a53600000000,wire:403bee147ae147c8,bit-vector:40a9000000000000,controller:40b9000000000000,buffer:4073ffffffffff57,leakage:408546147ae147ae]",
    "bv-stall/BVAP/stream cycles=2400 stalls=1600 matches=0#cbf29ce484222325 energy=[state-match:40c2c00000000000,local-switch:40a3624c00000000,global-switch:40a9a53600000000,wire:403bee147ae147c8,bit-vector:40a9000000000000,controller:40b9000000000000,buffer:4073ffffffffff57,leakage:408546147ae147ae] stall=[0, 1600] starved=[829, 0] skew=256 irq=0 bp=0 in_hwm=8 out_hwm=0",
    "bv-stall/CA/batch cycles=800 stalls=0 matches=0#cbf29ce484222325 energy=[state-match:4099000000000000,local-switch:409e2b5800000000,global-switch:4099000000000000,wire:0000000000000000,controller:4099000000000000,buffer:4063ffffffffffed,leakage:4064e16816816817]",
    "bv-stall/CA/stream cycles=800 stalls=0 matches=0#cbf29ce484222325 energy=[state-match:4099000000000000,local-switch:409e2b5800000000,global-switch:4099000000000000,wire:0000000000000000,controller:4099000000000000,buffer:4063ffffffffffed,leakage:4064e16816816817] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=0",
    "flood/RAP/batch cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:4095bfd000000000,wire:0000000000000000,controller:40a2c00000000000,buffer:405e000000000052,leakage:4056156276276276]",
    "flood/RAP/stream cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:4095bfd000000000,wire:0000000000000000,controller:40a2c00000000000,buffer:406dffffffffff4d,leakage:4056156276276276] stall=[0] starved=[0] skew=0 irq=9 bp=598 in_hwm=0 out_hwm=65",
    "flood/CAMA/batch cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:40a2c00000000000,local-switch:4087805000000000,global-switch:4092c00000000000,wire:0000000000000000,controller:4092c00000000000,buffer:405e000000000052,leakage:4054542fd9b8396d]",
    "flood/CAMA/stream cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:40a2c00000000000,local-switch:4087805000000000,global-switch:4092c00000000000,wire:0000000000000000,controller:4092c00000000000,buffer:406dffffffffff4d,leakage:4054542fd9b8396d] stall=[0] starved=[0] skew=0 irq=9 bp=598 in_hwm=0 out_hwm=65",
    "flood/BVAP/batch cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:40a2c00000000000,local-switch:4087805000000000,global-switch:4092c00000000000,wire:0000000000000000,controller:4092c00000000000,buffer:405e000000000052,leakage:4056b6b851eb851e]",
    "flood/BVAP/stream cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:40a2c00000000000,local-switch:4087805000000000,global-switch:4092c00000000000,wire:0000000000000000,controller:4092c00000000000,buffer:406dffffffffff4d,leakage:4056b6b851eb851e] stall=[0] starved=[0] skew=0 irq=9 bp=598 in_hwm=0 out_hwm=65",
    "flood/CA/batch cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:4092c00000000000,local-switch:409c6f6800000000,global-switch:4092c00000000000,wire:0000000000000000,controller:4092c00000000000,buffer:405e000000000052,leakage:405f521c21c21c23]",
    "flood/CA/stream cycles=600 stalls=0 matches=1199#83236f52780cf608 energy=[state-match:4092c00000000000,local-switch:409c6f6800000000,global-switch:4092c00000000000,wire:0000000000000000,controller:4092c00000000000,buffer:406dffffffffff4d,leakage:405f521c21c21c23] stall=[0] starved=[0] skew=0 irq=9 bp=598 in_hwm=0 out_hwm=65",
    "cross-tile/RAP/batch cycles=5515 stalls=4888 matches=6#495c43383789fd2d energy=[state-match:40b3980000000000,local-switch:40956cd000000000,global-switch:4094dca000000000,wire:403b70a3d70a3d8a,bit-vector:40f8dac000000000,controller:40da0c8000000000,buffer:405f5999999999f1,leakage:408c263ca0b0716e]",
    "cross-tile/RAP/stream cycles=5515 stalls=4888 matches=6#495c43383789fd2d energy=[state-match:40b3980000000000,local-switch:40956cd000000000,global-switch:4094dca000000000,wire:403b70a3d70a3d8a,bit-vector:40f8dac000000000,controller:40da0c8000000000,buffer:405fa666666666bf,leakage:408c263ca0b0716e] stall=[4888] starved=[0] skew=0 irq=0 bp=0 in_hwm=8 out_hwm=6",
    "cross-tile/CAMA/batch cycles=627 stalls=0 matches=6#495c43383789fd2d energy=[state-match:40bd640000000000,local-switch:40b59e1a00000000,global-switch:40a4dd0400000000,wire:407def0a3d70a3d6,controller:4093980000000000,buffer:405f5999999999f1,leakage:405e9acdf2cb13cf]",
    "cross-tile/CAMA/stream cycles=627 stalls=0 matches=6#495c43383789fd2d energy=[state-match:40bd640000000000,local-switch:40b59e1a00000000,global-switch:40a4dd0400000000,wire:407def0a3d70a3d6,controller:4093980000000000,buffer:405fa666666666bf,leakage:405e9acdf2cb13cf] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=6",
    "cross-tile/BVAP/batch cycles=3071 stalls=2444 matches=6#495c43383789fd2d energy=[state-match:40b3980000000000,local-switch:40956cd000000000,global-switch:4094dca000000000,wire:403b70a3d70a3d8a,bit-vector:40b9a80000000000,controller:40b7fe0000000000,buffer:405f5999999999f1,leakage:40804a6e83e425af]",
    "cross-tile/BVAP/stream cycles=3071 stalls=2444 matches=6#495c43383789fd2d energy=[state-match:40b3980000000000,local-switch:40956cd000000000,global-switch:4094dca000000000,wire:403b70a3d70a3d8a,bit-vector:40b9a80000000000,controller:40b7fe0000000000,buffer:405fa666666666bf,leakage:40804a6e83e425af] stall=[2444] starved=[0] skew=0 irq=0 bp=0 in_hwm=8 out_hwm=6",
    "cross-tile/CA/batch cycles=627 stalls=0 matches=6#495c43383789fd2d energy=[state-match:40ad640000000000,local-switch:40d237da80000000,global-switch:40a4dd0400000000,wire:407def0a3d70a3d6,controller:4093980000000000,buffer:405f5999999999f1,leakage:406d9eb4280f4dc1]",
    "cross-tile/CA/stream cycles=627 stalls=0 matches=6#495c43383789fd2d energy=[state-match:40ad640000000000,local-switch:40d237da80000000,global-switch:40a4dd0400000000,wire:407def0a3d70a3d6,controller:4093980000000000,buffer:405fa666666666bf,leakage:406d9eb4280f4dc1] stall=[0] starved=[0] skew=0 irq=0 bp=0 in_hwm=0 out_hwm=6",
];

#[test]
fn modeled_numbers_are_pinned() {
    assert_pinned(&observed(None));
}

#[test]
fn traced_modeled_numbers_are_pinned() {
    let telemetry = Arc::new(Telemetry::new(TelemetryConfig {
        sample_every: 1,
        ring_capacity: 256,
    }));
    assert_pinned(&observed(Some(&telemetry)));
    assert!(telemetry.trace_count() > 0, "no run was traced");
}

fn assert_pinned(observed: &[String]) {
    let mismatched: Vec<(usize, &String)> = observed
        .iter()
        .enumerate()
        .filter(|(i, line)| GOLDEN.get(*i) != Some(&line.as_str()))
        .collect();
    if !mismatched.is_empty() || observed.len() != GOLDEN.len() {
        let table: Vec<String> = observed.iter().map(|l| format!("    {l:?},")).collect();
        panic!(
            "{} of {} lines differ from the golden table (first: line {:?}); observed table:\n{}",
            mismatched.len(),
            observed.len(),
            mismatched.first().map(|(i, _)| i),
            table.join("\n")
        );
    }
}
