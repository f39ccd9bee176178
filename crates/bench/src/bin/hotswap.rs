//! Live partial-reconfiguration harness — swaps one tenant mid-stream
//! while the others keep scanning, and checks the certificate's two
//! promises: staying tenants are bit-identical to a no-swap control
//! run, and the observed drain never exceeds the certified bound.
//!
//! Two phases, one CSV row each (`results/hotswap.csv`):
//!
//! * **serve** — a server with N staying tenant streams plus one
//!   "rotor" tenant that is hot-swapped (`Server::swap_tenant`) once
//!   per iteration while the stayers stream. The stayers' delivered
//!   events are compared bit-identical against an identically
//!   configured control server that never swaps. Reports swap-latency
//!   p50/p99 and the largest certified drain bound.
//! * **execute** — the sim-level certificate spend: `Pipeline::swap`
//!   certifies a `ReconfigPlan`, and `rap_swap::execute` spends it with
//!   one batch run per tenant's solo plan. The staying tenants must be
//!   demux-identical to the unswapped composed run, and the observed
//!   drain is checked against the certified bound. The batch model has no
//!   bank window, so the observed drain is the outgoing tenant's stall
//!   cycles over the pre-swap prefix, not a drain.
//!
//! Exits non-zero when any staying stream diverges, when a swap's
//! observed drain exceeds its certified bound, when a swap fails to
//! certify, or when the serve-plane swap counters disagree with the
//! number of swaps performed.
//!
//! Scale knobs: `RAP_SWAP_STAYING` (default 3), `RAP_SWAP_ITERS`
//! (default 8), `RAP_SWAP_STREAM` bytes per staying stream (default
//! 1536), `RAP_SWAP_CHUNK` bytes per chunk (default 192),
//! `RAP_BENCH_SEED`.

use std::time::Instant;

use rap_bench::tables::{f2, Table};
use rap_circuit::Machine;
use rap_pipeline::{BenchConfig, PatternSet, Pipeline, SwapOptions};
use rap_serve::{ServeConfig, Server, Session};
use rap_sim::{MatchEvent, Simulator};

fn env_num(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn spec() -> BenchConfig {
    BenchConfig {
        patterns_per_suite: 4,
        input_len: 256,
        match_rate: 0.02,
        seed: env_num("RAP_BENCH_SEED", 42),
    }
}

/// One staying tenant's workload: literal patterns (span-bounded, so
/// swaps next to it always have a finite drain) plus an input salted
/// with its own needles and a neighbour's.
struct TenantLoad {
    name: String,
    patterns: PatternSet,
    input: Vec<u8>,
}

fn staying_loads(n: usize, stream_len: usize) -> Vec<TenantLoad> {
    (0..n)
        .map(|i| {
            let sources = vec![format!("sig{i:03}x"), format!("beacon{i:03}")];
            let patterns = PatternSet::parse(&sources).expect("staying patterns parse");
            let own = format!("sig{i:03}x");
            let foreign = format!("sig{:03}x", (i + 1) % n.max(1));
            let beacon = format!("beacon{i:03}");
            let mut input = Vec::with_capacity(stream_len);
            let mut k = 0usize;
            while input.len() < stream_len {
                match k % 4 {
                    0 => input.extend_from_slice(own.as_bytes()),
                    1 => input.extend_from_slice(b" quiet wire "),
                    2 => input.extend_from_slice(foreign.as_bytes()),
                    _ => input.extend_from_slice(beacon.as_bytes()),
                }
                k += 1;
            }
            input.truncate(stream_len);
            TenantLoad {
                name: format!("stay-{i:03}"),
                patterns,
                input,
            }
        })
        .collect()
}

/// The rotor tenant swapped in at generation `k`.
fn rotor(k: usize) -> (String, PatternSet) {
    let patterns = PatternSet::parse(&[format!("needle{k:03}")]).expect("rotor patterns parse");
    (format!("rotor-{k:03}"), patterns)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn drained_sorted(session: &Session) -> Vec<MatchEvent> {
    let mut events = session.drain();
    events.sort_unstable_by_key(|m| (m.end, m.pattern));
    events.dedup();
    events
}

/// Streams every staying session's next chunk and waits for the scans.
fn feed_round(sessions: &[Session], loads: &[TenantLoad], round: usize, chunk: usize) {
    for (session, load) in sessions.iter().zip(loads) {
        let at = (round * chunk).min(load.input.len());
        let end = ((round + 1) * chunk).min(load.input.len());
        if at < end {
            session.send(&load.input[at..end]).expect("session open");
        }
    }
    for session in sessions {
        session.wait_idle();
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let staying = env_num("RAP_SWAP_STAYING", 3) as usize;
    let iters = env_num("RAP_SWAP_ITERS", 8) as usize;
    let stream_len = env_num("RAP_SWAP_STREAM", 1536) as usize;
    let chunk = env_num("RAP_SWAP_CHUNK", 192).max(1) as usize;
    println!(
        "hot swap: {staying} staying stream(s), {iters} swap(s), \
         {stream_len} bytes/stream in {chunk}-byte chunks\n"
    );

    let mut table = Table::new([
        "phase",
        "staying",
        "swaps",
        "bytes",
        "matches",
        "swap_p50_ms",
        "swap_p99_ms",
        "drain_certified",
        "drain_observed",
        "identical",
    ]);
    let mut failures = 0u64;

    // ---- Phase 1: serve-plane swaps under live staying traffic.
    {
        let config = ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        };
        let loads = staying_loads(staying, stream_len);
        let rounds = stream_len.div_ceil(chunk);

        // Control run: same registrations, same traffic, zero swaps.
        let control = Server::new(Pipeline::new(spec()), config);
        let control_sessions: Vec<Session> = loads
            .iter()
            .map(|l| control.register(&l.name, &l.patterns).expect("admits"))
            .collect();
        let (rotor_name, rotor_patterns) = rotor(0);
        let control_rotor = control
            .register(&rotor_name, &rotor_patterns)
            .expect("rotor admits");
        for round in 0..rounds {
            feed_round(&control_sessions, &loads, round, chunk);
        }
        for session in &control_sessions {
            session.finish();
        }
        control_rotor.finish();
        let expected: Vec<Vec<MatchEvent>> = control_sessions.iter().map(drained_sorted).collect();

        // Swap run: identical traffic, one hot swap per round.
        let server = Server::new(Pipeline::new(spec()), config);
        let sessions: Vec<Session> = loads
            .iter()
            .map(|l| server.register(&l.name, &l.patterns).expect("admits"))
            .collect();
        let (name0, patterns0) = rotor(0);
        let mut rotor_session = server.register(&name0, &patterns0).expect("rotor admits");
        let mut latencies: Vec<f64> = Vec::new();
        let mut drain_certified = 0u64;
        let mut swaps = 0usize;
        for round in 0..rounds.max(iters) {
            feed_round(&sessions, &loads, round, chunk);
            if swaps < iters {
                let (name, patterns) = rotor(swaps + 1);
                let t0 = Instant::now();
                match server.swap_tenant(&rotor_session, &name, &patterns) {
                    Ok((replacement, plan)) => {
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        drain_certified = drain_certified.max(plan.drain.cycles);
                        if plan.drain.cycles == 0 {
                            eprintln!("hot swap failed: certified drain bound of zero");
                            failures += 1;
                        }
                        rotor_session = replacement;
                        swaps += 1;
                    }
                    Err(e) => {
                        eprintln!("hot swap failed: swap {} refused: {e}", swaps + 1);
                        failures += 1;
                        break;
                    }
                }
            }
        }
        for session in &sessions {
            session.finish();
        }
        rotor_session.finish();

        let mut identical = true;
        let mut matches = 0u64;
        for ((session, load), expect) in sessions.iter().zip(&loads).zip(&expected) {
            let delivered = drained_sorted(session);
            matches += delivered.len() as u64;
            if &delivered != expect {
                eprintln!(
                    "hot swap failed: {} diverged from the no-swap control \
                     ({} delivered vs {} expected)",
                    load.name,
                    delivered.len(),
                    expect.len()
                );
                identical = false;
                failures += 1;
            }
        }
        let m = server.metrics();
        if m.swaps_completed.get() != swaps as u64 {
            eprintln!(
                "hot swap failed: {} swap(s) performed but swaps_completed is {}",
                swaps,
                m.swaps_completed.get()
            );
            failures += 1;
        }
        let swapped_findings = server
            .findings()
            .by_rule(rap_serve::Rule::TenantSwapped)
            .len();
        if swapped_findings != swaps {
            eprintln!(
                "hot swap failed: {swaps} swap(s) performed but {swapped_findings} \
                 R005 finding(s) recorded"
            );
            failures += 1;
        }
        latencies.sort_by(f64::total_cmp);
        table.row([
            "serve".to_string(),
            staying.to_string(),
            swaps.to_string(),
            m.bytes_scanned.get().to_string(),
            matches.to_string(),
            f2(percentile(&latencies, 0.50)),
            f2(percentile(&latencies, 0.99)),
            drain_certified.to_string(),
            "0".to_string(),
            u64::from(identical).to_string(),
        ]);
        println!(
            "serve: {swaps} swap(s), p50 {:.2} ms, p99 {:.2} ms, staying identical: {}\n",
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
            identical
        );
    }

    // ---- Phase 2: sim-level execution against the certified bound.
    {
        let pipe = Pipeline::new(spec());
        let sim = Simulator::new(Machine::Rap);
        let stay_a = PatternSet::parse(&["harbor".to_string()]).expect("parses");
        let stay_b = PatternSet::parse(&["lantern".to_string()]).expect("parses");
        let legacy = PatternSet::parse(&["oldsig".to_string()]).expect("parses");
        let fresh = PatternSet::parse(&["newsig".to_string()]).expect("parses");
        let tenants = vec![
            ("alpha", &sim, &stay_a),
            ("beta", &sim, &stay_b),
            ("legacy", &sim, &legacy),
        ];
        let admission = pipe
            .admit(&tenants, &rap_pipeline::AdmitOptions::default())
            .expect("residents admit");
        assert!(admission.admitted(), "resident composition must admit");

        let input: Vec<u8> =
            b"harbor oldsig lantern harbor newsig lantern oldsig harbor newsig lantern".repeat(8);
        let swap_at = input.len() / 2;
        let t0 = Instant::now();
        let fresh = pipe
            .plan(&sim, &fresh, None)
            .expect("replacement plan builds");
        let analysis = pipe.swap(
            &admission,
            "legacy",
            ("fresh", &fresh),
            &SwapOptions::default(),
        );
        let Some(plan) = &analysis.plan else {
            eprintln!("hot swap failed: sim-level swap did not certify");
            failures += 1;
            finish(&mut table, failures);
            return;
        };
        let resident = admission
            .analysis
            .composed
            .as_ref()
            .expect("admitted composition");
        let execution = rap_swap::execute(plan, resident, &input, swap_at, Machine::Rap);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        if execution.observed_drain_cycles > plan.drain.cycles {
            eprintln!(
                "hot swap failed: observed drain {} exceeds certified bound {}",
                execution.observed_drain_cycles, plan.drain.cycles
            );
            failures += 1;
        }
        // Staying tenants must be demux-identical to the unswapped run.
        let unswapped = admission
            .plan
            .as_ref()
            .expect("verified resident plan")
            .simulate_streaming(&input)
            .0
            .matches;
        let mut identical = true;
        for (name, observed) in &execution.staying {
            let idx = resident
                .tenants
                .iter()
                .position(|t| &t.name == name)
                .expect("staying tenant is resident");
            let expect = resident.tenant_matches(idx, &unswapped);
            if observed != &expect {
                eprintln!("hot swap failed: {name} diverged across the executed swap");
                identical = false;
                failures += 1;
            }
        }
        let matches: u64 = execution
            .staying
            .iter()
            .map(|(_, m)| m.len() as u64)
            .sum::<u64>()
            + execution.outgoing.len() as u64
            + execution.incoming.len() as u64;
        table.row([
            "execute".to_string(),
            "2".to_string(),
            "1".to_string(),
            input.len().to_string(),
            matches.to_string(),
            f2(wall_ms),
            f2(wall_ms),
            plan.drain.cycles.to_string(),
            execution.observed_drain_cycles.to_string(),
            u64::from(identical).to_string(),
        ]);
        println!(
            "execute: observed drain {} of {} certified cycle(s), staying identical: {}\n",
            execution.observed_drain_cycles, plan.drain.cycles, identical
        );
    }

    finish(&mut table, failures);
}

fn finish(table: &mut Table, failures: u64) {
    println!("{}", table.render());
    table.write_csv("hotswap");
    if failures > 0 {
        eprintln!("hot swap failed: {failures} invariant violation(s)");
        std::process::exit(2);
    }
    println!("hot swap clean: staying streams bit-identical, drains within certified bounds");
}
