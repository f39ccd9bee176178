//! Shape tests for the paper's headline claims: these assert *directions*
//! and rough factors (who wins, where), not absolute numbers — the same
//! standard EXPERIMENTS.md applies to the full harness.

use rap::compiler::Mode;
use rap::workloads::{generate_input, generate_patterns, Suite};
use rap::{Machine, Simulator};

fn parsed(patterns: &[String]) -> Vec<rap::regex::Regex> {
    patterns
        .iter()
        .map(|p| rap::regex::parse(p).expect("parses"))
        .collect()
}

fn split_by_mode(regexes: &[rap::regex::Regex], mode: Mode) -> Vec<rap::regex::Regex> {
    let compiler = rap::compiler::Compiler::new(rap::compiler::CompilerConfig::default());
    regexes
        .iter()
        .filter(|re| compiler.decide(re) == mode)
        .cloned()
        .collect()
}

/// Table 2's headline: on NBVA-able regexes, NBVA mode beats NFA mode on
/// both energy and area by a multiple.
#[test]
fn nbva_mode_beats_nfa_mode_on_repetition_workloads() {
    let patterns = generate_patterns(Suite::Yara, 80, 42);
    let regexes = parsed(&patterns);
    let nbva_subset = split_by_mode(&regexes, Mode::Nbva);
    assert!(nbva_subset.len() >= 30, "suite should be NBVA-heavy");
    let input = generate_input(&patterns, 20_000, 0.02, 42);

    let sim = Simulator::new(Machine::Rap).with_bv_depth(16);
    let as_nbva = {
        let c = sim
            .compile_forced(&nbva_subset, Mode::Nbva)
            .expect("compiles");
        let m = sim.map(&c);
        sim.simulate(&c, &m, &input)
    };
    let as_nfa = {
        let c = sim
            .compile_forced(&nbva_subset, Mode::Nfa)
            .expect("compiles");
        let m = sim.map(&c);
        sim.simulate(&c, &m, &input)
    };
    let energy_ratio = as_nfa.metrics.energy_uj / as_nbva.metrics.energy_uj;
    let area_ratio = as_nfa.metrics.area_mm2 / as_nbva.metrics.area_mm2;
    assert!(
        energy_ratio > 1.5,
        "NFA/NBVA energy ratio {energy_ratio:.2} (paper: 3.7x)"
    );
    assert!(
        area_ratio > 1.5,
        "NFA/NBVA area ratio {area_ratio:.2} (paper: 4.0x)"
    );
    // ...at a bounded throughput penalty (the bit-vector stalls).
    assert!(as_nbva.metrics.throughput_gchps() > 1.0);
}

/// Table 3's headline: on linearizable regexes, LNFA mode cuts energy
/// versus NFA mode ("79% lower" in the paper; we require a clear multiple).
#[test]
fn lnfa_mode_beats_nfa_mode_on_chain_workloads() {
    let patterns = generate_patterns(Suite::Prosite, 120, 42);
    let regexes = parsed(&patterns);
    let lnfa_subset = split_by_mode(&regexes, Mode::Lnfa);
    assert!(lnfa_subset.len() >= 60, "suite should be LNFA-heavy");
    let input = generate_input(&patterns, 20_000, 0.02, 42);

    let sim = Simulator::new(Machine::Rap).with_bin_size(32);
    let as_lnfa = {
        let c = sim
            .compile_forced(&lnfa_subset, Mode::Lnfa)
            .expect("compiles");
        let m = sim.map(&c);
        sim.simulate(&c, &m, &input)
    };
    let as_nfa = {
        let c = sim
            .compile_forced(&lnfa_subset, Mode::Nfa)
            .expect("compiles");
        let m = sim.map(&c);
        sim.simulate(&c, &m, &input)
    };
    let energy_ratio = as_nfa.metrics.energy_uj / as_lnfa.metrics.energy_uj;
    assert!(
        energy_ratio > 1.8,
        "NFA/LNFA energy ratio {energy_ratio:.2} (paper: 4.7x)"
    );
    // Same throughput: both consume one character per cycle.
    assert_eq!(as_lnfa.metrics.cycles, as_nfa.metrics.cycles);
}

/// Fig. 10(a)'s trade-off: deeper bit vectors shrink area but increase
/// stall cycles, monotonically in both directions.
#[test]
fn bv_depth_tradeoff_is_monotone() {
    let patterns = generate_patterns(Suite::ClamAv, 50, 42);
    let regexes = parsed(&patterns);
    let subset = split_by_mode(&regexes, Mode::Nbva);
    let input = generate_input(&patterns, 15_000, 0.02, 42);
    let mut last_area = f64::INFINITY;
    let mut last_stalls = 0u64;
    for depth in [4u32, 8, 16, 32] {
        let sim = Simulator::new(Machine::Rap).with_bv_depth(depth);
        let c = sim.compile_forced(&subset, Mode::Nbva).expect("compiles");
        let m = sim.map(&c);
        let r = sim.simulate(&c, &m, &input);
        assert!(
            r.metrics.area_mm2 <= last_area,
            "area must shrink with depth (depth {depth})"
        );
        assert!(
            r.stall_cycles >= last_stalls,
            "stalls must grow with depth (depth {depth})"
        );
        last_area = r.metrics.area_mm2;
        last_stalls = r.stall_cycles;
    }
}

/// Fig. 10(b)'s effect: larger bins concentrate initial states and cut
/// LNFA energy.
#[test]
fn binning_cuts_lnfa_energy() {
    let patterns = generate_patterns(Suite::Prosite, 120, 7);
    let regexes = parsed(&patterns);
    let subset = split_by_mode(&regexes, Mode::Lnfa);
    let input = generate_input(&patterns, 15_000, 0.02, 7);
    let energy_at = |bin: u32| -> f64 {
        let sim = Simulator::new(Machine::Rap).with_bin_size(bin);
        let c = sim.compile_forced(&subset, Mode::Lnfa).expect("compiles");
        let m = sim.map(&c);
        sim.simulate(&c, &m, &input).metrics.energy_uj
    };
    let unbinned = energy_at(1);
    let binned = energy_at(32);
    assert!(
        binned < unbinned * 0.6,
        "bin=32 energy {binned:.2} should be well under bin=1 {unbinned:.2}"
    );
}

/// Fig. 12's headline: on a mixed workload, RAP's compute density beats
/// every baseline, and its energy efficiency beats CAMA and CA.
#[test]
fn rap_wins_overall_on_mixed_workloads() {
    let patterns = generate_patterns(Suite::Snort, 100, 42);
    let regexes = parsed(&patterns);
    let input = generate_input(&patterns, 20_000, 0.02, 42);
    let run = |machine: Machine| {
        Simulator::new(machine)
            .with_bv_depth(8)
            .with_bin_size(16)
            .run(&regexes, &input)
            .unwrap_or_else(|e| panic!("{machine}: {e}"))
    };
    let rap = run(Machine::Rap);
    let cama = run(Machine::Cama);
    let ca = run(Machine::Ca);
    let rap_density = rap.metrics.compute_density();
    assert!(
        rap_density > cama.metrics.compute_density(),
        "RAP density {rap_density:.2} vs CAMA {:.2}",
        cama.metrics.compute_density()
    );
    assert!(rap_density > ca.metrics.compute_density());
    assert!(rap.metrics.energy_efficiency() > cama.metrics.energy_efficiency());
    assert!(rap.metrics.energy_efficiency() > ca.metrics.energy_efficiency());
}

/// BVAP's structural weakness: its fixed bit-vector modules are dead area
/// on workloads without bounded repetitions (§2.2 / Table 3).
#[test]
fn bvap_wastes_area_without_repetitions() {
    let patterns = generate_patterns(Suite::Prosite, 80, 13);
    let regexes = parsed(&patterns);
    let input = generate_input(&patterns, 10_000, 0.02, 13);
    let bvap = Simulator::new(Machine::Bvap)
        .run(&regexes, &input)
        .expect("runs");
    let cama = Simulator::new(Machine::Cama)
        .run(&regexes, &input)
        .expect("runs");
    assert!(
        bvap.metrics.area_mm2 > cama.metrics.area_mm2 * 1.2,
        "BVAP {:.3} mm2 should exceed CAMA {:.3} mm2 by its BVM overhead",
        bvap.metrics.area_mm2,
        cama.metrics.area_mm2
    );
}

/// RAP's known cost: the per-tile local controller makes its pure-NFA mode
/// *worse* than CAMA (the paper's RegexLib observation).
#[test]
fn rap_pays_reconfigurability_tax_on_pure_nfa() {
    let patterns = generate_patterns(Suite::RegexLib, 80, 21);
    let regexes = parsed(&patterns);
    let nfa_subset = split_by_mode(&regexes, Mode::Nfa);
    let input = generate_input(&patterns, 10_000, 0.02, 21);
    let rap = Simulator::new(Machine::Rap);
    let c = rap
        .compile_forced(&nfa_subset, Mode::Nfa)
        .expect("compiles");
    let m = rap.map(&c);
    let rap_run = rap.simulate(&c, &m, &input);
    let cama = Simulator::new(Machine::Cama)
        .run(&nfa_subset, &input)
        .expect("runs");
    assert!(
        rap_run.metrics.energy_uj > cama.metrics.energy_uj,
        "RAP NFA {:.2} uJ should exceed CAMA {:.2} uJ (local controller tax)",
        rap_run.metrics.energy_uj,
        cama.metrics.energy_uj
    );
}
