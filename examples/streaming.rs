//! Streaming through the bank buffer hierarchy (§3.3): watch the FIFOs
//! absorb bit-vector stalls and the output buffer raise host interrupts,
//! with the streamed matches equal to the batch run's.
//!
//! Run with: `cargo run --release --example streaming`

use rap::sim::Simulator;
use rap::workloads::{generate_input, generate_patterns, Suite};
use rap::Machine;

fn main() -> Result<(), rap::SimError> {
    let patterns = generate_patterns(Suite::ClamAv, 80, 99);
    let stream = generate_input(&patterns, 120_000, 0.03, 99);
    let regexes: Vec<_> = patterns
        .iter()
        .map(|p| rap::regex::parse(p).expect("parses"))
        .collect();

    let sim = Simulator::new(Machine::Rap).with_bv_depth(Suite::ClamAv.chosen_bv_depth());
    let compiled = sim.compile(&regexes)?;
    let mapping = sim.map_verified(&compiled)?;

    // Batch reference.
    let batch = sim.simulate(&compiled, &mapping, &stream);
    println!(
        "batch     : {} matches, {} cycles, {:.2} Gch/s",
        batch.matches.len(),
        batch.metrics.cycles,
        batch.metrics.throughput_gchps()
    );

    // Cycle-interleaved streaming through the buffers.
    let (streamed, stats) = sim.simulate_streaming(&compiled, &mapping, &stream);
    assert_eq!(streamed.matches, batch.matches);
    println!(
        "streaming : {} matches, {} cycles, {:.2} Gch/s",
        streamed.matches.len(),
        streamed.metrics.cycles,
        streamed.metrics.throughput_gchps()
    );
    println!("  per-array stalls   : {:?}", stats.stall_cycles);
    println!("  per-array starved  : {:?}", stats.starved_cycles);
    println!("  max consumed skew  : {} bytes", stats.max_skew);
    println!("  output interrupts  : {}", stats.output_interrupts);
    Ok(())
}
