//! Multi-tenant streaming service load harness — drives `rap-serve`
//! with many concurrent tenant streams and reports per-chunk latency
//! percentiles and sustained stream throughput.
//!
//! Three phases, one CSV row each (`results/serve_load.csv`):
//!
//! * **load** — N concurrent tenant streams (one OS thread each)
//!   across a sharded scan plane, every tenant's delivered events
//!   checked bit-identical against its solo streaming run (the
//!   zero-leakage check).
//! * **overload** — a deliberately tiny certified budget (one shard,
//!   one queue page) driven with oversized chunks, to show chunks shed
//!   under backpressure with the R002-before-R003 finding ordering.
//! * **warm** — tenant registration against a persistent artifact
//!   store primed by an earlier server: the warm pass must perform
//!   zero compile-stage work.
//!
//! Exits non-zero when any tenant's stream diverges from its solo run,
//! when a shed is recorded without a backpressure finding, when the
//! session counters move non-monotonically, or when the warm pass
//! compiles anything.
//!
//! Scale knobs: `RAP_SERVE_TENANTS` (default 64), `RAP_SERVE_SHARDS`
//! (default 4), `RAP_SERVE_STREAM` bytes per tenant stream (default
//! 2048), `RAP_SERVE_CHUNK` bytes per chunk (default 256),
//! `RAP_SERVE_QUEUE_PAGES` (default 8), `RAP_BENCH_SEED`.

use std::time::Instant;

use rap_bench::tables::{f2, Table};
use rap_pipeline::{BenchConfig, PatternSet, Pipeline, StoreConfig};
use rap_serve::{SendOutcome, ServeConfig, Server, Session};
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

/// One tenant's workload: a private pattern set plus an input stream
/// salted with its own needles *and* its neighbours' — delivered events
/// must still be exactly the solo run's (zero cross-tenant leakage).
struct TenantLoad {
    name: String,
    patterns: PatternSet,
    input: Vec<u8>,
}

fn tenant_loads(tenants: usize, stream_len: usize) -> Vec<TenantLoad> {
    (0..tenants)
        .map(|i| {
            let sources = vec![format!("sig{i:03}x"), format!("beacon{i:03}")];
            let patterns = PatternSet::parse(&sources).expect("tenant patterns parse");
            let own = format!("sig{i:03}x");
            let foreign = format!("sig{:03}x", (i + 1) % tenants);
            let beacon = format!("beacon{i:03}");
            let mut input = Vec::with_capacity(stream_len);
            let mut k = 0usize;
            while input.len() < stream_len {
                match k % 4 {
                    0 => input.extend_from_slice(own.as_bytes()),
                    1 => input.extend_from_slice(b" filler filler "),
                    2 => input.extend_from_slice(foreign.as_bytes()),
                    _ => input.extend_from_slice(beacon.as_bytes()),
                }
                k += 1;
            }
            input.truncate(stream_len);
            TenantLoad {
                name: format!("tenant-{i:03}"),
                patterns,
                input,
            }
        })
        .collect()
}

/// Streams one tenant's input through its session in `chunk`-byte
/// pieces, retrying shed chunks once the shard drains; returns the
/// per-chunk latencies in milliseconds.
fn stream(session: &Session, input: &[u8], chunk: usize) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(input.len().div_ceil(chunk));
    let mut at = 0usize;
    while at < input.len() {
        let len = chunk.min(input.len() - at);
        let piece = &input[at..at + len];
        let t0 = Instant::now();
        while let SendOutcome::Shed = session.send(piece).expect("session open") {
            session.wait_idle();
        }
        session.wait_idle();
        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
        at += len;
    }
    latencies
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn solo_matches(pipe: &Pipeline, set: &PatternSet, input: &[u8]) -> Vec<MatchEvent> {
    let sim = Simulator::new(rap_circuit::Machine::Rap);
    let plan = pipe.plan(&sim, set, None).expect("solo plan builds");
    plan.simulate_streaming(input).0.matches
}

#[allow(clippy::too_many_lines)]
fn main() {
    let tenants = env_num("RAP_SERVE_TENANTS", 64) as usize;
    let shards = env_num("RAP_SERVE_SHARDS", 4) as usize;
    let stream_len = env_num("RAP_SERVE_STREAM", 2048) as usize;
    let chunk = env_num("RAP_SERVE_CHUNK", 256).max(1) as usize;
    let queue_pages = env_num("RAP_SERVE_QUEUE_PAGES", 8);
    println!(
        "serve load: {tenants} tenant stream(s) across {shards} shard(s), \
         {stream_len} bytes/stream in {chunk}-byte chunks, {queue_pages} queue page(s)\n"
    );

    let mut table = Table::new([
        "phase",
        "tenants",
        "shards",
        "queue_pages",
        "chunks",
        "shed",
        "backpressure",
        "bytes",
        "matches",
        "p50_ms",
        "p99_ms",
        "streams_per_sec",
    ]);
    let mut failures = 0u64;

    // ---- Phase 1: concurrent load, solo-equivalence as leakage check.
    {
        let server = Server::new(
            Pipeline::new(spec()),
            ServeConfig {
                shards,
                queue_pages,
                ..ServeConfig::default()
            },
        );
        let loads = tenant_loads(tenants, stream_len);
        let mut sessions = Vec::with_capacity(tenants);
        for (i, load) in loads.iter().enumerate() {
            let session = server
                .register(&load.name, &load.patterns)
                .expect("tenant admits");
            let admitted = server.metrics().sessions_admitted.get();
            if admitted != (i + 1) as u64 {
                eprintln!(
                    "serve load failed: sessions_admitted {admitted} after {} registration(s)",
                    i + 1
                );
                failures += 1;
            }
            sessions.push(session);
        }
        let used_shards: std::collections::BTreeSet<usize> =
            sessions.iter().map(Session::shard).collect();
        println!(
            "registered {tenants} tenant(s) over {} shard(s)",
            used_shards.len()
        );

        let t0 = Instant::now();
        let mut latencies: Vec<f64> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .zip(&loads)
                .map(|(session, load)| {
                    scope.spawn(move || {
                        let lat = stream(session, &load.input, chunk);
                        session.finish();
                        lat
                    })
                })
                .collect();
            for handle in handles {
                latencies.extend(handle.join().expect("tenant thread"));
            }
        });
        let wall = t0.elapsed().as_secs_f64();

        let mut leaks = 0usize;
        let mut matches = 0u64;
        for (session, load) in sessions.iter().zip(&loads) {
            let mut delivered = session.drain();
            delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
            delivered.dedup();
            matches += delivered.len() as u64;
            let expected = solo_matches(server.pipeline(), &load.patterns, &load.input);
            if delivered != expected {
                eprintln!(
                    "serve load failed: {} diverged from its solo run \
                     ({} delivered vs {} expected)",
                    load.name,
                    delivered.len(),
                    expected.len()
                );
                leaks += 1;
            }
        }
        failures += leaks as u64;
        if server.active_sessions() != 0 {
            eprintln!(
                "serve load failed: {} session(s) still active after finish",
                server.active_sessions()
            );
            failures += 1;
        }
        let m = server.metrics();
        if m.sessions_admitted.get() != tenants as u64 {
            eprintln!("serve load failed: admitted counter moved non-monotonically");
            failures += 1;
        }
        latencies.sort_by(f64::total_cmp);
        table.row([
            "load".to_string(),
            tenants.to_string(),
            used_shards.len().to_string(),
            queue_pages.to_string(),
            m.chunks_scanned.get().to_string(),
            m.chunks_shed.get().to_string(),
            m.backpressure_events.get().to_string(),
            m.bytes_scanned.get().to_string(),
            matches.to_string(),
            f2(percentile(&latencies, 0.50)),
            f2(percentile(&latencies, 0.99)),
            f2(tenants as f64 / wall),
        ]);
        println!(
            "streamed {} byte(s) in {wall:.2}s: p50 {:.2} ms, p99 {:.2} ms, {} leak(s)\n",
            m.bytes_scanned.get(),
            percentile(&latencies, 0.50),
            percentile(&latencies, 0.99),
            leaks
        );
    }

    // ---- Phase 2: overload a deliberately tiny certified budget.
    {
        let server = Server::new(
            Pipeline::new(spec()),
            ServeConfig {
                shards: 1,
                queue_pages: 1,
                ..ServeConfig::default()
            },
        );
        let loads = tenant_loads(4, 512);
        let sessions: Vec<Session> = loads
            .iter()
            .map(|l| server.register(&l.name, &l.patterns).expect("admits"))
            .collect();
        let t0 = Instant::now();
        let mut latencies: Vec<f64> = Vec::new();
        let oversize = vec![b'x'; 1 << 20];
        for (session, load) in sessions.iter().zip(&loads) {
            // An over-budget burst must shed...
            let outcome = session.send(&oversize).expect("open");
            assert_eq!(outcome, SendOutcome::Shed, "1 MiB burst must shed");
            // ...and the in-budget stream must still flow afterwards.
            latencies.extend(stream(session, &load.input, 128));
            session.finish();
        }
        let wall = t0.elapsed().as_secs_f64();
        let mut matches = 0u64;
        for (session, load) in sessions.iter().zip(&loads) {
            let mut delivered = session.drain();
            delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
            delivered.dedup();
            matches += delivered.len() as u64;
            if delivered != solo_matches(server.pipeline(), &load.patterns, &load.input) {
                eprintln!("serve load failed: {} diverged under overload", load.name);
                failures += 1;
            }
        }
        let m = server.metrics();
        let findings = server.findings();
        if m.chunks_shed.get() == 0 || m.backpressure_events.get() == 0 {
            eprintln!("serve load failed: overload phase recorded no shed/backpressure");
            failures += 1;
        }
        if !findings.by_rule(rap_serve::Rule::ChunkShed).is_empty()
            && findings
                .by_rule(rap_serve::Rule::SessionBackpressure)
                .is_empty()
        {
            eprintln!("serve load failed: chunks shed without a backpressure finding");
            failures += 1;
        }
        latencies.sort_by(f64::total_cmp);
        table.row([
            "overload".to_string(),
            "4".to_string(),
            "1".to_string(),
            "1".to_string(),
            m.chunks_scanned.get().to_string(),
            m.chunks_shed.get().to_string(),
            m.backpressure_events.get().to_string(),
            m.bytes_scanned.get().to_string(),
            matches.to_string(),
            f2(percentile(&latencies, 0.50)),
            f2(percentile(&latencies, 0.99)),
            f2(4.0 / wall),
        ]);
        println!(
            "overload: {} chunk(s) shed, {} backpressure event(s), findings ordered R002→R003\n",
            m.chunks_shed.get(),
            m.backpressure_events.get()
        );
    }

    // ---- Phase 3: warm registration from the persistent store.
    {
        let dir = std::env::temp_dir().join(format!("rap-serve-load-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let loads = tenant_loads(8, 512);
        {
            let pipeline = Pipeline::new(spec())
                .with_store(StoreConfig::at(&dir))
                .expect("store opens");
            let cold = Server::new(pipeline, ServeConfig::default());
            for load in &loads {
                cold.register(&load.name, &load.patterns)
                    .expect("admits")
                    .finish();
            }
            assert!(cold.pipeline().report().patterns_compiled > 0);
        }
        let pipeline = Pipeline::new(spec())
            .with_store(StoreConfig::at(&dir))
            .expect("store opens");
        let warm = Server::new(pipeline, ServeConfig::default());
        let t0 = Instant::now();
        let mut latencies: Vec<f64> = Vec::new();
        let mut matches = 0u64;
        for load in &loads {
            let session = warm.register(&load.name, &load.patterns).expect("admits");
            latencies.extend(stream(&session, &load.input, chunk));
            session.finish();
            matches += session.drain().len() as u64;
        }
        let wall = t0.elapsed().as_secs_f64();
        let report = warm.pipeline().report();
        if report.patterns_compiled != 0 {
            eprintln!(
                "serve load failed: warm registration compiled {} pattern(s)",
                report.patterns_compiled
            );
            failures += 1;
        }
        let m = warm.metrics();
        latencies.sort_by(f64::total_cmp);
        table.row([
            "warm".to_string(),
            "8".to_string(),
            warm.config().shards.to_string(),
            warm.config().queue_pages.to_string(),
            m.chunks_scanned.get().to_string(),
            m.chunks_shed.get().to_string(),
            m.backpressure_events.get().to_string(),
            m.bytes_scanned.get().to_string(),
            matches.to_string(),
            f2(percentile(&latencies, 0.50)),
            f2(percentile(&latencies, 0.99)),
            f2(8.0 / wall),
        ]);
        println!(
            "warm: {} pattern(s) compiled on re-registration\n",
            report.patterns_compiled
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!("{}", table.render());
    table.write_csv("serve_load");

    if failures > 0 {
        eprintln!("serve load failed: {failures} invariant violation(s)");
        std::process::exit(2);
    }
    println!("\nserve load clean: zero leakage, certified backpressure, warm registration");
}
