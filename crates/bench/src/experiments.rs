//! Every table and figure of the paper's evaluation, as library functions
//! over one shared [`Pipeline`].
//!
//! The `src/bin/*` harness binaries are thin wrappers around these
//! functions; `all_experiments` calls [`all`] so the whole evaluation runs
//! in a single process sharing one content-addressed plan cache — each
//! (suite, machine-config) pattern set compiles exactly once no matter how
//! many tables request it, and independent (machine × suite) cells fan out
//! over the pipeline's worker pool.
//!
//! A cell that fails to compile or verify prints a `[skipping …]` note and
//! drops its row instead of aborting the run.

use crate::eval::{eval_machine, eval_rap_by_mode, ModeSplit};
use crate::tables::{f2, geomean, ratio, Table};
use rap_circuit::Machine;
use rap_compiler::Mode;
use rap_engines::power::{CPU_SOCKET_W, GPU_BOARD_W};
use rap_engines::{measure_throughput_gchps, BatchEngine, HybridEngine};
use rap_pipeline::{EvalError, PatternSet, Pipeline, RunSummary, SuiteCorpus};
use rap_sim::Simulator;
use rap_workloads::anmlzoo::AnmlZoo;
use rap_workloads::{generate_input, Suite};
use std::sync::Arc;

/// Materialized per-suite work: the suite, its pattern set (a mode subset
/// or the whole suite), and the shared corpus (for its input stream).
struct SuiteWork {
    suite: Suite,
    patterns: PatternSet,
    corpus: Arc<SuiteCorpus>,
}

/// Builds the per-suite subsets for one decided mode, dropping suites
/// whose subset is empty.
fn mode_subsets(
    pipe: &Pipeline,
    suites: &[Suite],
    pick: impl Fn(ModeSplit) -> Vec<rap_regex::Regex>,
) -> Vec<SuiteWork> {
    suites
        .iter()
        .filter_map(|&suite| {
            let corpus = pipe.corpus(suite);
            let subset = pick(ModeSplit::of(&corpus.regexes()));
            if subset.is_empty() {
                return None;
            }
            Some(SuiteWork {
                suite,
                patterns: PatternSet::from_regexes(&subset),
                corpus,
            })
        })
        .collect()
}

/// Fans a (row × column) grid of evaluation cells out over the pipeline's
/// workers and reassembles complete rows, skipping rows with failed cells.
fn eval_grid(
    pipe: &Pipeline,
    work: &[SuiteWork],
    cols: &[(Machine, Option<Mode>)],
) -> Vec<(Suite, Vec<RunSummary>)> {
    let cells: Vec<(usize, usize)> = (0..work.len())
        .flat_map(|r| (0..cols.len()).map(move |c| (r, c)))
        .collect();
    let results = pipe.grid(cells, |(r, c)| {
        let w = &work[r];
        let (machine, forced) = cols[c];
        pipe.eval(machine, w.suite, &w.patterns, w.corpus.input(), forced)
    });
    collect_rows(work.iter().map(|w| w.suite), &results, cols.len())
}

/// Groups a flat row-major cell-result vector back into per-suite rows.
fn collect_rows(
    suites: impl Iterator<Item = Suite>,
    results: &[Result<RunSummary, EvalError>],
    width: usize,
) -> Vec<(Suite, Vec<RunSummary>)> {
    suites
        .zip(results.chunks(width))
        .filter_map(
            |(suite, chunk)| match chunk.iter().cloned().collect::<Result<Vec<_>, _>>() {
                Ok(cells) => Some((suite, cells)),
                Err(e) => {
                    println!("[skipping {suite}: {e}]");
                    None
                }
            },
        )
        .collect()
}

/// Renders one mode-comparison table family (Tables 2 and 3 share this
/// shape: three metrics, five machine columns, geomean ratio row).
fn mode_table(
    rows: &[(Suite, Vec<RunSummary>)],
    machines: &[&str; 5],
    baseline: &str,
    csv_prefix: &str,
) {
    type Get = fn(&RunSummary) -> f64;
    let metrics: [(&str, Get, &str); 3] = [
        ("Energy (uJ)", |s: &RunSummary| s.energy_uj, "energy"),
        ("Area (mm2)", |s: &RunSummary| s.area_mm2, "area"),
        (
            "Throughput (Gch/s)",
            |s: &RunSummary| s.throughput_gchps,
            "throughput",
        ),
    ];
    for (metric, get, csv_suffix) in metrics {
        println!("\n== {metric} ==");
        let mut table = Table::new(std::iter::once("Dataset").chain(machines.iter().copied()));
        let mut ratios = vec![Vec::new(); machines.len()];
        for (suite, cells) in rows {
            let base = get(&cells[0]);
            let mut line = vec![suite.name().to_string()];
            for (i, cell) in cells.iter().enumerate() {
                line.push(f2(get(cell)));
                ratios[i].push(get(cell) / base);
            }
            table.row(line);
        }
        let mut avg = vec![format!("Average (vs {baseline})")];
        for r in &ratios {
            avg.push(ratio(geomean(r)));
        }
        table.row(avg);
        print!("{}", table.render());
        table.write_csv(&format!("{csv_prefix}_{csv_suffix}"));
    }
}

/// Fig. 1 — the proportion of regexes representable by NFA, NBVA, and
/// LNFA in each of the seven benchmarks.
pub fn fig1(pipe: &Pipeline) {
    let cfg = pipe.spec();
    println!("Fig. 1 — regex model proportions per benchmark");
    println!(
        "({} synthetic patterns per suite, seed {})\n",
        cfg.patterns_per_suite, cfg.seed
    );
    let mut table = Table::new(["Benchmark", "NFA %", "NBVA %", "LNFA %"]);
    for suite in Suite::all() {
        let corpus = pipe.corpus(suite);
        let split = ModeSplit::of(&corpus.regexes());
        let n = corpus.patterns().len() as f64;
        table.row([
            suite.name().to_string(),
            f2(100.0 * split.nfa.len() as f64 / n),
            f2(100.0 * split.nbva.len() as f64 / n),
            f2(100.0 * split.lnfa.len() as f64 / n),
        ]);
    }
    print!("{}", table.render());
    table.write_csv("fig1");
    crate::export_trace(pipe, "fig1");
}

/// Fig. 10 — design-space exploration: (a) NBVA BV depth, (b) LNFA bin
/// size. `which` is `"nbva"`, `"lnfa"`, or `"both"`.
pub fn fig10(pipe: &Pipeline, which: &str) {
    if which == "nbva" || which == "both" {
        dse_nbva(pipe);
    }
    if which == "lnfa" || which == "both" {
        dse_lnfa(pipe);
    }
    crate::export_trace(pipe, "fig10");
}

/// One DSE sweep: evaluates every (suite, knob) cell on the grid and
/// returns rows of summaries grouped by suite, knob-major within a suite.
/// `forced` pins every cell's mode; `None` lets the compiler decide.
fn dse_sweep(
    pipe: &Pipeline,
    work: &[SuiteWork],
    knobs: &[u32],
    forced: Option<Mode>,
    sim_for: impl Fn(u32) -> Simulator + Sync,
) -> Vec<(Suite, Vec<RunSummary>)> {
    let cells: Vec<(usize, usize)> = (0..work.len())
        .flat_map(|r| (0..knobs.len()).map(move |k| (r, k)))
        .collect();
    let results = pipe.grid(cells, |(r, k)| {
        let w = &work[r];
        pipe.eval_with(&sim_for(knobs[k]), &w.patterns, w.corpus.input(), forced)
    });
    collect_rows(work.iter().map(|w| w.suite), &results, knobs.len())
}

fn dse_nbva(pipe: &Pipeline) {
    println!("Fig. 10(a) — NBVA DSE over BV depth (normalized to depth 4)\n");
    let depths = [4u32, 8, 16, 32];
    let work = mode_subsets(pipe, &Suite::all(), |s| s.nbva);
    let rows = dse_sweep(pipe, &work, &depths, Some(Mode::Nbva), |d| {
        Simulator::new(Machine::Rap).with_bv_depth(d)
    });
    let mut table = Table::new(["Dataset", "depth", "energy", "area", "throughput", "chosen"]);
    for (suite, runs) in &rows {
        let base = &runs[0];
        for (&d, r) in depths.iter().zip(runs.iter()) {
            let chosen = if d == suite.chosen_bv_depth() {
                "<-"
            } else {
                ""
            };
            table.row([
                suite.name().to_string(),
                d.to_string(),
                f2(r.energy_uj / base.energy_uj),
                f2(r.area_mm2 / base.area_mm2),
                f2(r.throughput_gchps / base.throughput_gchps),
                chosen.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    table.write_csv("fig10a_nbva_dse");
}

fn dse_lnfa(pipe: &Pipeline) {
    println!("\nFig. 10(b) — LNFA DSE over bin size (normalized to bin 1)\n");
    let bins = [1u32, 2, 4, 8, 16, 32];
    let work = mode_subsets(pipe, &Suite::all(), |s| s.lnfa);
    let rows = dse_sweep(pipe, &work, &bins, Some(Mode::Lnfa), |b| {
        Simulator::new(Machine::Rap).with_bin_size(b)
    });
    let mut table = Table::new(["Dataset", "bin", "energy", "area", "chosen"]);
    for (suite, runs) in &rows {
        let base = &runs[0];
        for (&b, r) in bins.iter().zip(runs.iter()) {
            let chosen = if b == suite.chosen_bin_size() {
                "<-"
            } else {
                ""
            };
            table.row([
                suite.name().to_string(),
                b.to_string(),
                f2(r.energy_uj / base.energy_uj),
                f2(r.area_mm2 / base.area_mm2),
                chosen.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
    table.write_csv("fig10b_lnfa_dse");
}

/// Table 2 — NBVA mode of RAP (baseline) vs NFA mode of RAP, CAMA, BVAP,
/// and CA, on the regexes each benchmark compiles to NBVA.
pub fn table2(pipe: &Pipeline) {
    let cfg = pipe.spec();
    println!("Table 2 — NBVA-mode comparison (energy uJ / area mm2 / throughput Gch/s)");
    println!(
        "({} patterns per suite, {} input chars)\n",
        cfg.patterns_per_suite, cfg.input_len
    );
    let suites: Vec<Suite> = Suite::all()
        .into_iter()
        .filter(|s| *s != Suite::Prosite) // no NBVA regexes in Prosite (§5.3)
        .collect();
    let work = mode_subsets(pipe, &suites, |s| s.nbva);
    let cols = [
        (Machine::Rap, Some(Mode::Nbva)),
        (Machine::Rap, Some(Mode::Nfa)),
        (Machine::Cama, None),
        (Machine::Bvap, None),
        (Machine::Ca, None),
    ];
    let rows = eval_grid(pipe, &work, &cols);
    mode_table(
        &rows,
        &["NBVA", "NFA", "CAMA", "BVAP", "CA"],
        "NBVA",
        "table2",
    );
    crate::export_trace(pipe, "table2");
}

/// Table 3 — LNFA mode of RAP (baseline) vs NFA mode of RAP, CAMA, BVAP,
/// and CA, on the regexes each benchmark compiles to LNFA.
pub fn table3(pipe: &Pipeline) {
    let cfg = pipe.spec();
    println!("Table 3 — LNFA-mode comparison (energy uJ / area mm2 / throughput Gch/s)");
    println!(
        "({} patterns per suite, {} input chars)\n",
        cfg.patterns_per_suite, cfg.input_len
    );
    let work = mode_subsets(pipe, &Suite::all(), |s| s.lnfa);
    let cols = [
        (Machine::Rap, Some(Mode::Lnfa)),
        (Machine::Rap, Some(Mode::Nfa)),
        (Machine::Cama, None),
        (Machine::Bvap, None),
        (Machine::Ca, None),
    ];
    let rows = eval_grid(pipe, &work, &cols);
    mode_table(
        &rows,
        &["LNFA", "NFA", "CAMA", "BVAP", "CA"],
        "LNFA",
        "table3",
    );
    crate::export_trace(pipe, "table3");
}

/// Fig. 11 — the proportion of STEs, energy, and area contributed by the
/// NFA, NBVA, and LNFA modes when RAP runs every regex of every benchmark
/// with its optimal mode.
pub fn fig11(pipe: &Pipeline) {
    println!("Fig. 11 — per-mode share of STEs / energy / area across all benchmarks\n");
    let systems = pipe.grid(Suite::all().to_vec(), |suite| {
        let corpus = pipe.corpus(suite);
        eval_rap_by_mode(pipe, suite, &corpus.regexes(), corpus.input())
    });
    let mut ste = [0.0f64; 3];
    let mut energy = [0.0f64; 3];
    let mut area = [0.0f64; 3];
    for (suite, sys) in Suite::all().into_iter().zip(systems) {
        let sys = match sys {
            Ok(sys) => sys,
            Err(e) => {
                println!("[skipping {suite}: {e}]");
                continue;
            }
        };
        for (i, part) in [&sys.nfa, &sys.nbva, &sys.lnfa].iter().enumerate() {
            ste[i] += part.states as f64;
            energy[i] += part.energy_uj;
            area[i] += part.area_mm2;
        }
    }
    let mut table = Table::new(["Metric", "NFA %", "NBVA %", "LNFA %", "Total"]);
    for (name, vals, unit) in [
        ("STEs", ste, ""),
        ("Energy", energy, " uJ"),
        ("Area", area, " mm2"),
    ] {
        let total: f64 = vals.iter().sum();
        table.row([
            name.to_string(),
            f2(100.0 * vals[0] / total),
            f2(100.0 * vals[1] / total),
            f2(100.0 * vals[2] / total),
            format!("{}{}", f2(total), unit),
        ]);
    }
    print!("{}", table.render());
    table.write_csv("fig11");

    // The paper's observation: NFA's energy/area share exceeds its STE
    // share, showing the effectiveness of the NBVA and LNFA modes.
    let ste_total: f64 = ste.iter().sum();
    let e_total: f64 = energy.iter().sum();
    println!(
        "\nNFA share: {}% of STEs but {}% of energy (paper: energy share > STE share)",
        f2(100.0 * ste[0] / ste_total),
        f2(100.0 * energy[0] / e_total),
    );
    crate::export_trace(pipe, "fig11");
}

/// Fig. 12 — overall comparison of RAP vs BVAP, CAMA, and CA on full
/// benchmarks, normalized to RAP.
pub fn fig12(pipe: &Pipeline) {
    let cfg = pipe.spec();
    println!("Fig. 12 — RAP vs BVAP / CAMA / CA on full benchmarks");
    println!(
        "({} patterns per suite, {} input chars; ratios are machine/RAP)\n",
        cfg.patterns_per_suite, cfg.input_len
    );
    let suites = Suite::all();
    let baselines = [Machine::Bvap, Machine::Cama, Machine::Ca];
    // Cell grid: column 0 is the per-mode RAP system, 1..=3 the baselines.
    let cells: Vec<(usize, usize)> = (0..suites.len())
        .flat_map(|r| (0..=baselines.len()).map(move |c| (r, c)))
        .collect();
    let results = pipe.grid(cells, |(r, c)| {
        let suite = suites[r];
        let corpus = pipe.corpus(suite);
        if c == 0 {
            eval_rap_by_mode(pipe, suite, &corpus.regexes(), corpus.input()).map(|s| s.total())
        } else {
            eval_machine(
                pipe,
                baselines[c - 1],
                suite,
                &corpus.regexes(),
                corpus.input(),
                None,
            )
        }
    });
    let rows = collect_rows(suites.into_iter(), &results, baselines.len() + 1);

    let machines = ["RAP", "BVAP", "CAMA", "CA"];
    type Get = fn(&RunSummary) -> f64;
    let metrics: [(&str, Get, bool, &str); 5] = [
        (
            "Area (mm2)",
            |s: &RunSummary| s.area_mm2,
            false,
            "fig12_area",
        ),
        (
            "Throughput (Gch/s)",
            |s: &RunSummary| s.throughput_gchps,
            true,
            "fig12_throughput",
        ),
        (
            "Energy eff (Gch/s/W)",
            |s: &RunSummary| s.energy_efficiency(),
            true,
            "fig12_energy_eff",
        ),
        (
            "Compute density (Gch/s/mm2)",
            |s: &RunSummary| s.compute_density(),
            true,
            "fig12_compute_density",
        ),
        (
            "Power (W)",
            |s: &RunSummary| s.power_w,
            false,
            "fig12_power",
        ),
    ];
    for (name, get, higher_better, csv_name) in metrics {
        println!(
            "\n== {name} ({}) ==",
            if higher_better {
                "higher is better"
            } else {
                "lower is better"
            }
        );
        let mut table = Table::new(std::iter::once("Dataset").chain(machines.iter().copied()));
        let mut ratios = vec![Vec::new(); machines.len()];
        for (suite, cells) in &rows {
            let base = get(&cells[0]);
            let mut row = vec![suite.name().to_string()];
            for (i, cell) in cells.iter().enumerate() {
                row.push(f2(get(cell)));
                ratios[i].push(get(cell) / base);
            }
            table.row(row);
        }
        let mut avg = vec!["Geomean (vs RAP)".to_string()];
        for r in &ratios {
            avg.push(ratio(geomean(r)));
        }
        table.row(avg);
        print!("{}", table.render());

        // Paper headline: RAP improves energy efficiency 1.2-1.5x and
        // compute density 1.3-2.5x over CAMA/CA; 1.6x compute density over
        // BVAP at similar energy efficiency.
        table.write_csv(csv_name);
    }
    crate::export_trace(pipe, "fig12");
}

/// Fig. 13 — RAP vs software matchers: a Hyperscan-style hybrid on this
/// machine's CPU (greedily partitioned DFAs, with the prefiltered NBVA
/// interpreter for patterns too large to determinize) and a
/// HybridSA-style batch engine standing in for the GPU. The CPU DFA
/// coverage column is the share of patterns on the hybrid's DFA path.
pub fn fig13(pipe: &Pipeline) {
    let cfg = pipe.spec();
    println!("Fig. 13 — RAP vs GPU (HybridSA-style) and CPU (Hyperscan-style)");
    println!(
        "({} patterns per suite, {} input chars; engine throughput measured on this host)\n",
        cfg.patterns_per_suite, cfg.input_len
    );
    let results = pipe.grid(Suite::all().to_vec(), |suite| {
        let corpus = pipe.corpus(suite);
        let patterns = corpus.regexes();
        let rap = eval_rap_by_mode(pipe, suite, &patterns, corpus.input())?;
        let cpu = HybridEngine::new(&patterns, HybridEngine::DEFAULT_MAX_STATES);
        let cpu_t = measure_throughput_gchps(&cpu, corpus.input(), 2);
        let coverage = cpu.dfa_count() as f64 / patterns.len() as f64;
        let gpu = BatchEngine::new(&patterns, 4096);
        let gpu_t = measure_throughput_gchps(&gpu, corpus.input(), 2);
        Ok::<_, EvalError>((suite, rap.total(), cpu_t, coverage, gpu_t))
    });
    let rows: Vec<_> = Suite::all()
        .into_iter()
        .zip(results)
        .filter_map(|(suite, r)| match r {
            Ok(row) => Some(row),
            Err(e) => {
                println!("[skipping {suite}: {e}]");
                None
            }
        })
        .collect();

    let mut table = Table::new([
        "Dataset",
        "RAP Gch/s",
        "RAP W",
        "GPU Gch/s",
        "GPU W",
        "CPU Gch/s",
        "CPU W",
        "CPU DFA coverage",
    ]);
    let mut eff_ratios_gpu = Vec::new();
    let mut eff_ratios_cpu = Vec::new();
    for (suite, rap, cpu_t, coverage, gpu_t) in &rows {
        table.row([
            suite.name().to_string(),
            f2(rap.throughput_gchps),
            f2(rap.power_w),
            format!("{gpu_t:.4}"),
            f2(GPU_BOARD_W),
            format!("{cpu_t:.4}"),
            f2(CPU_SOCKET_W),
            f2(*coverage),
        ]);
        let rap_eff = rap.energy_efficiency();
        if *gpu_t > 0.0 {
            eff_ratios_gpu.push(rap_eff / (gpu_t / GPU_BOARD_W));
        }
        if *cpu_t > 0.0 {
            eff_ratios_cpu.push(rap_eff / (cpu_t / CPU_SOCKET_W));
        }
    }
    print!("{}", table.render());
    table.write_csv("fig13");

    println!(
        "\nEnergy-efficiency advantage (geomean): {:.0}x vs GPU, {:.0}x vs CPU",
        geomean(&eff_ratios_gpu),
        geomean(&eff_ratios_cpu),
    );
    println!("(paper: >100x vs GPU, >1000x vs CPU)");
    crate::export_trace(pipe, "fig13");
}

/// Table 4 — RAP vs the hAP FPGA design on ANMLZoo-like benchmarks.
/// RAP's power/throughput are simulated; hAP's numbers are the published
/// Table 4 constants.
pub fn table4(pipe: &Pipeline) {
    let cfg = *pipe.spec();
    println!("Table 4 — RAP vs hAP (FPGA) on ANMLZoo-like benchmarks\n");
    let results = pipe.grid(AnmlZoo::all().to_vec(), |suite| {
        let patterns = suite.generate(cfg.patterns_per_suite, cfg.seed);
        let regexes: Vec<_> = patterns
            .iter()
            .map(|p| rap_regex::parse(p).expect("generated patterns parse"))
            .collect();
        let input = generate_input(&patterns, cfg.input_len, cfg.match_rate, cfg.seed);
        // ANMLZoo ships unfolded automata; keep ClamAV's repetitions.
        let workload_suite = Suite::ClamAv; // depth/bin knobs
        eval_rap_by_mode(pipe, workload_suite, &regexes, &input).map(|sys| (suite, sys.total()))
    });
    let rows: Vec<_> = AnmlZoo::all()
        .into_iter()
        .zip(results)
        .filter_map(|(suite, r)| match r {
            Ok(row) => Some(row),
            Err(e) => {
                println!("[skipping {}: {e}]", suite.name());
                None
            }
        })
        .collect();

    let mut table = Table::new([
        "Dataset",
        "RAP Power (W)",
        "RAP Thpt (Gch/s)",
        "hAP Power (W)",
        "hAP Thpt (Gch/s)",
        "Thpt ratio",
    ]);
    for (suite, rap) in &rows {
        table.row([
            suite.name().to_string(),
            f2(rap.power_w),
            f2(rap.throughput_gchps),
            f2(suite.hap_power_w()),
            f2(suite.hap_throughput_gchps()),
            format!(
                "{:.1}x",
                rap.throughput_gchps / suite.hap_throughput_gchps()
            ),
        ]);
    }
    print!("{}", table.render());
    table.write_csv("table4");
    crate::export_trace(pipe, "table4");
    println!("\n(paper: RAP throughput 11.5-13.8x hAP at 1.7-5.5x the power)");
}

/// Ablations of two design choices, as modeled numbers: the unfold
/// threshold (§4) swept over {2, 4, 8, 16} on Snort with the suite's
/// chosen knobs, and unified CC/BV storage, RAP against BVAP's fixed
/// bit-vector modules on Yara. Both run the full decision graph on the
/// whole suite. BV depth and bin size are Fig. 10's sweeps.
pub fn ablation(pipe: &Pipeline) {
    let cfg = pipe.spec();
    println!("Ablations — unfold threshold (Snort) and unified CC/BV storage (Yara)");
    println!(
        "({} patterns per suite, {} input chars; compiler default threshold {})\n",
        cfg.patterns_per_suite,
        cfg.input_len,
        rap_compiler::CompilerConfig::default().unfold_threshold
    );
    let whole = |suite| {
        let corpus = pipe.corpus(suite);
        [SuiteWork {
            suite,
            patterns: PatternSet::from_regexes(&corpus.regexes()),
            corpus,
        }]
    };
    let mut table = Table::new([
        "Ablation",
        "Dataset",
        "Setting",
        "Energy (uJ)",
        "Area (mm2)",
        "Throughput (Gch/s)",
        "States",
        "Matches",
    ]);
    let mut row = |name: &str, suite: &Suite, setting: String, r: &RunSummary| {
        table.row([
            name.to_string(),
            suite.name().to_string(),
            setting,
            f2(r.energy_uj),
            f2(r.area_mm2),
            f2(r.throughput_gchps),
            r.states.to_string(),
            r.matches.to_string(),
        ]);
    };

    let thresholds = [2u32, 4, 8, 16];
    let rows = dse_sweep(pipe, &whole(Suite::Snort), &thresholds, None, |t| {
        let mut sim = pipe.simulator_for(Machine::Rap, Suite::Snort);
        sim.compiler.unfold_threshold = t;
        sim
    });
    for (suite, runs) in &rows {
        for (t, r) in thresholds.iter().zip(runs) {
            row("unfold_threshold", suite, t.to_string(), r);
        }
    }

    let machines = [Machine::Rap, Machine::Bvap];
    let rows = eval_grid(pipe, &whole(Suite::Yara), &machines.map(|m| (m, None)));
    for (suite, runs) in &rows {
        for (m, r) in machines.iter().zip(runs) {
            row("storage", suite, m.name().to_string(), r);
        }
    }
    print!("{}", table.render());
    table.write_csv("ablation");
    crate::export_trace(pipe, "ablation");
}

/// A named experiment runner.
type Experiment = (&'static str, fn(&Pipeline));

/// Runs every experiment in the paper's order, then the ablations, on one
/// shared pipeline and prints the pipeline report (stage timings, cache
/// counters) at the end.
pub fn all(pipe: &Pipeline) {
    let experiments: [Experiment; 9] = [
        ("fig1", fig1),
        ("fig10", |p| fig10(p, "both")),
        ("table2", table2),
        ("table3", table3),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("table4", table4),
        ("ablation", ablation),
    ];
    for (name, run) in experiments {
        println!("\n================= {name} =================\n");
        run(pipe);
    }
    println!("\nAll experiments complete; CSVs are under results/.");
    println!("\n{}", pipe.report());
}
