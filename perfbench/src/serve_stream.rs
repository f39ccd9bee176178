//! `serve-stream`: the `rap-serve` scan path and control plane together.
//!
//! An in-process `Server` with two shards hosts 16 tenants. Tenant `i`
//! takes a 16-pattern slice of suite `i mod 7`'s corpus, so tenants differ
//! in mode mix, and the NFA-mode slices carry `.*` gaps whose history the
//! server never trims. One client thread streams each tenant's own input
//! in 256-byte chunks, closed loop: every wave sends one chunk to each live
//! session, then waits for each to go idle, so at most one chunk per
//! session is outstanding. A chunk's latency runs from its send to its
//! `wait_idle` returning. Every few waves one tenant finishes early and a
//! new tenant registers (churn), which recomposes a shard.
//!
//! Each round is a fresh server over a fresh pipeline: set-up (generation
//! plus the 16 registrations) is timed on its own, and serve cost, which
//! grows with stream position, is the same in every round. After each
//! round, outside any timing, every tenant's delivered events are checked
//! against its solo `simulate_streaming` run over the bytes it sent.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use rap_admit::AdmitOptions;
use rap_bound::BoundOptions;
use rap_circuit::Machine;
use rap_pipeline::{BenchConfig, PatternSet, Pipeline, Stage};
use rap_serve::{SendOutcome, ServeConfig, Server, Session};
use rap_sim::{MatchEvent, Simulator};
use rap_workloads::Suite;

use crate::stats::{self, mb_per_s, median, percentile, Passes};
use crate::trace::Tracer;
use crate::{overhead_pct, run_rounds, Args, Outcome, Scale, CORPUS_SEED};

const MATCH_RATE: f64 = 0.02;
const SHARDS: usize = 2;
const QUEUE_PAGES: u64 = 8;
const CHUNK: usize = 256;

struct Sizes {
    tenants: usize,
    patterns_per_tenant: usize,
    stream_len: usize,
    /// A tenant leaves and another joins every this many waves.
    churn_every: usize,
    churns: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            tenants: 16,
            patterns_per_tenant: 16,
            stream_len: 4096,
            churn_every: 4,
            churns: 3,
        },
        Scale::Tiny => Sizes {
            tenants: 4,
            patterns_per_tenant: 4,
            stream_len: 1024,
            churn_every: 2,
            churns: 1,
        },
    }
}

/// One tenant: a pattern slice and its own input stream.
struct TenantSpec {
    patterns: PatternSet,
    input: Vec<u8>,
}

/// The tenant pool: the first `tenants` register at set-up, the rest join
/// through churn. Tenant `i` takes the next slice of suite `i mod 7`'s
/// corpus and gets its own input stream.
fn tenant_pool(args: &Args, s: &Sizes) -> Vec<TenantSpec> {
    let pool = s.tenants + s.churns;
    let suites = Suite::all();
    let per_suite = s.patterns_per_tenant * pool.div_ceil(suites.len());
    let corpora: Vec<Vec<String>> = suites
        .iter()
        .map(|&suite| rap_workloads::generate_patterns(suite, per_suite, CORPUS_SEED))
        .collect();
    (0..pool)
        .map(|i| {
            let slice = i / suites.len() * s.patterns_per_tenant;
            let sources = &corpora[i % suites.len()][slice..slice + s.patterns_per_tenant];
            let input = rap_workloads::generate_input(
                sources,
                s.stream_len,
                MATCH_RATE,
                args.seed.wrapping_add(i as u64),
            );
            TenantSpec {
                patterns: PatternSet::parse(sources).expect("generated patterns parse"),
                input,
            }
        })
        .collect()
}

/// A registered tenant and how far its stream has got.
struct Live {
    spec: usize,
    session: Session,
    sent: usize,
    finished: bool,
    /// The session refused a chunk as closed; the failure is counted and
    /// the tenant takes no further part.
    broken: bool,
}

/// Per-round totals gathered outside the timed region.
#[derive(Default)]
struct Totals {
    chunks: u64,
    scans: u64,
    scan_ns: u64,
    scan_batches: u64,
    shed: u64,
    backpressure: u64,
    stage_secs: BTreeMap<Stage, f64>,
    states: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let s = sizes(args.scale);
    let mut outcome = Outcome::default();
    // Set-up pieces: generation with `Server::new`, then each registration.
    let mut setup_secs = Passes::default();
    // Streaming pieces: each wave with its churn, then the final finishes.
    let mut wave_secs = Passes::default();
    let mut round_chunk_ms = Passes::default();
    let mut accepted = 0usize;
    // Every chunk latency of the run, for the traced run's tail and mean.
    let mut chunk_ms = Vec::new();
    let mut register_ms = Vec::new();
    let mut finish_ms = Vec::new();
    let (mut traced_secs, mut untraced_secs) = (Vec::new(), Vec::new());
    let mut totals = Totals::default();
    let mut traced_rounds = 0usize;
    // Solo-run expectations by (tenant, bytes sent); rounds repeat, so each
    // is simulated once, on a pipeline that outlives the rounds.
    let check_pipe = Pipeline::new(BenchConfig::default());
    let mut expected: HashMap<(usize, usize), Vec<MatchEvent>> = HashMap::new();
    let mut request = 0u64;

    let round_count = run_rounds(args, tracer, 3, |t| {
        // ---- set-up: generation and the initial registrations.
        let setup_start = Instant::now();
        let pool = t.span("workloads.generate", |_| tenant_pool(args, &s));
        let server = Server::new(
            Pipeline::new(BenchConfig {
                patterns_per_suite: s.patterns_per_tenant,
                input_len: s.stream_len,
                match_rate: MATCH_RATE,
                seed: args.seed,
            }),
            ServeConfig {
                shards: SHARDS,
                queue_pages: QUEUE_PAGES,
                machine: Machine::Rap,
            },
        );
        let mut residents: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        let mut compositions: Vec<Vec<usize>> = Vec::new();
        // A refused registration is a failed operation of this workload.
        let mut refused = 0u64;
        let mut register = |t: &mut Tracer, spec: usize, residents: &mut Vec<Vec<usize>>| {
            let start = Instant::now();
            let name = format!("tenant-{spec:02}");
            let registered = t.span("serve.register", |_| {
                server.register(&name, &pool[spec].patterns)
            });
            register_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let session = match registered {
                Ok(session) => session,
                Err(e) => {
                    eprintln!("serve-stream: {name} refused: {e}");
                    refused += 1;
                    return None;
                }
            };
            residents[session.shard()].push(spec);
            compositions.push(residents[session.shard()].clone());
            Some(Live {
                spec,
                session,
                sent: 0,
                finished: false,
                broken: false,
            })
        };
        let mut setup_pieces = vec![setup_start.elapsed().as_secs_f64()];
        let mut live = Vec::new();
        for spec in 0..s.tenants {
            let start = Instant::now();
            live.extend(register(t, spec, &mut residents));
            setup_pieces.push(start.elapsed().as_secs_f64());
        }
        setup_secs.push(setup_pieces);
        outcome.attempted += s.tenants as u64;
        if args.inject_mismatch {
            // A second tenant under a resident's name must be refused.
            let _ = register(t, 0, &mut residents);
            outcome.attempted += 1;
        }

        // ---- timed: closed-loop streaming with churn.
        let mut finish = |t: &mut Tracer, l: &mut Live, residents: &mut Vec<Vec<usize>>| {
            let start = Instant::now();
            t.span("serve.finish", |_| l.session.finish());
            finish_ms.push(start.elapsed().as_secs_f64() * 1e3);
            l.finished = true;
            let shard = &mut residents[l.session.shard()];
            shard.retain(|&spec| spec != l.spec);
            shard.clone()
        };
        let stream_start = Instant::now();
        let round_chunks = chunk_ms.len();
        let mut waves = Vec::new();
        let mut piece_start = Instant::now();
        accepted = 0;
        let mut wave = 0usize;
        let mut churned = 0usize;
        let mut leaves: Vec<Vec<usize>> = Vec::new();
        loop {
            wave += 1;
            if wave.is_multiple_of(s.churn_every) && churned < s.churns {
                let streaming: Vec<usize> = (0..live.len())
                    .filter(|&i| !live[i].finished && live[i].sent < s.stream_len)
                    .collect();
                if !streaming.is_empty() {
                    let victim = streaming[(churned * 5) % streaming.len()];
                    leaves.push(finish(t, &mut live[victim], &mut residents));
                }
                live.extend(register(t, s.tenants + churned, &mut residents));
                churned += 1;
                outcome.attempted += 2;
            }
            let mut in_flight = Vec::new();
            'tenants: for (i, l) in live.iter_mut().enumerate() {
                if l.finished || l.broken || l.sent >= s.stream_len {
                    continue;
                }
                let end = (l.sent + CHUNK).min(s.stream_len);
                let chunk = &pool[l.spec].input[l.sent..end];
                request += 1;
                let span = t.open("serve.chunk", Some(request));
                let sent_at = Instant::now();
                loop {
                    match t.child(span, "serve.send", |_| l.session.send(chunk)) {
                        Ok(SendOutcome::Shed) => {
                            // A shed chunk is an error of this workload;
                            // retry once the shard has caught up.
                            outcome.failed += 1;
                            l.session.wait_idle();
                        }
                        Ok(_) => break,
                        Err(e) => {
                            eprintln!("serve-stream: tenant {} send refused: {e}", l.spec);
                            outcome.failed += 1;
                            l.broken = true;
                            t.close(span);
                            continue 'tenants;
                        }
                    }
                }
                l.sent = end;
                accepted += chunk.len();
                in_flight.push((i, span, sent_at));
            }
            if in_flight.is_empty() {
                break;
            }
            for (i, span, sent_at) in in_flight {
                t.child(span, "serve.wait_idle", |_| live[i].session.wait_idle());
                chunk_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
                t.close(span);
                outcome.attempted += 1;
                totals.chunks += 1;
            }
            waves.push(piece_start.elapsed().as_secs_f64());
            piece_start = Instant::now();
        }
        for l in live.iter_mut().filter(|l| !l.finished) {
            leaves.push(finish(t, l, &mut residents));
            outcome.attempted += 1;
        }
        waves.push(piece_start.elapsed().as_secs_f64());
        let stream_secs = stream_start.elapsed().as_secs_f64();
        outcome.failed += refused;
        wave_secs.push(waves);
        round_chunk_ms.push(chunk_ms[round_chunks..].to_vec());
        if t.enabled() {
            traced_secs.push(stream_secs);
        } else {
            untraced_secs.push(stream_secs);
        }

        // ---- checks and counters, outside the timed region.
        for l in live.iter().filter(|l| !l.broken) {
            let mut delivered = l.session.drain();
            delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
            delivered.dedup();
            let want = expected.entry((l.spec, l.sent)).or_insert_with(|| {
                let plan = check_pipe
                    .plan(&Simulator::new(Machine::Rap), &pool[l.spec].patterns, None)
                    .expect("solo plan builds");
                plan.simulate_streaming(&pool[l.spec].input[..l.sent])
                    .0
                    .matches
            });
            let mut want = want.clone();
            if args.inject_mismatch && l.spec == 0 {
                want.push(MatchEvent {
                    pattern: usize::MAX,
                    end: 0,
                });
            }
            if delivered != want {
                eprintln!(
                    "serve-stream: tenant {} delivered {} events, solo run has {}",
                    l.spec,
                    delivered.len(),
                    want.len()
                );
                outcome.failed += 1;
            }
        }
        let m = server.metrics();
        totals.scans += m.chunks_scanned.get();
        totals.scan_ns += m.scan_ns.sum();
        totals.scan_batches += m.scan_ns.count();
        totals.shed += m.chunks_shed.get();
        totals.backpressure += m.backpressure_events.get();
        let report = server.pipeline().report();
        for stage in Stage::iter() {
            *totals.stage_secs.entry(stage).or_default() += report.stage_secs(stage);
        }
        totals.states += report.states_compiled;
        totals.cache_hits += report.plan_cache.hits;
        totals.cache_lookups += report.plan_cache.hits + report.plan_cache.misses;

        // The traced run replays, from outside, the bound analysis the
        // server runs on every join and leave, over the same compositions.
        // This is a copy of the admit and analyze_bounds steps of
        // `Server::recompose`; it does not follow changes to that function.
        if t.enabled() {
            traced_rounds += 1;
            compositions.extend(leaves.into_iter().filter(|c| !c.is_empty()));
            let sim = Simulator::new(Machine::Rap);
            for members in &compositions {
                let names: Vec<String> = members.iter().map(|i| format!("tenant-{i:02}")).collect();
                let tenants: Vec<(&str, &Simulator, &PatternSet)> = members
                    .iter()
                    .zip(&names)
                    .map(|(&i, name)| (name.as_str(), &sim, &pool[i].patterns))
                    .collect();
                let admission = server
                    .pipeline()
                    .admit(&tenants, &AdmitOptions::default())
                    .expect("resident composition admits");
                let plan = admission.plan.expect("admitted composition has a plan");
                let composed = admission
                    .analysis
                    .composed
                    .expect("admitted composition carries a certificate");
                let patterns: Vec<rap_regex::Pattern> = composed
                    .tenants
                    .iter()
                    .flat_map(|summary| {
                        let at = names
                            .iter()
                            .position(|n| *n == summary.name)
                            .expect("member");
                        pool[members[at]].patterns.parsed().to_vec()
                    })
                    .collect();
                t.span("bound.bound", |_| {
                    rap_bound::analyze_bounds(
                        plan.compiled().images(),
                        &patterns,
                        plan.mapping(),
                        &BoundOptions::bounds_only(),
                    )
                });
            }
        }
    });

    // Waves run one after another, so a quiet round is the sum of each
    // wave's quiet time; every round accepts the same bytes.
    let quiet_mb_per_s = mb_per_s(accepted as f64, wave_secs.quiet_total());
    outcome.end_to_end =
        stats::end_to_end("serve-stream", &setup_secs, &round_chunk_ms, quiet_mb_per_s);

    if args.trace {
        let r = round_count as f64;
        let chunks = totals.chunks.max(1) as f64;
        let mean_chunk_ms = chunk_ms.iter().sum::<f64>() / chunks;
        let scan_ms_per_chunk = totals.scan_ns as f64 / 1e6 / chunks;
        let l = &mut outcome.layers;
        l.insert(
            "workloads.generate_s",
            tracer.self_secs("workloads.generate") / traced_rounds.max(1) as f64,
        );
        l.insert("compiler.compile_s", totals.stage_secs[&Stage::Compile] / r);
        l.insert("mapper.map_s", totals.stage_secs[&Stage::Map] / r);
        l.insert("verify.verify_s", totals.stage_secs[&Stage::Verify] / r);
        l.insert("admit.admit_s", totals.stage_secs[&Stage::Admit] / r);
        l.insert("compiler.states", totals.states as f64 / r);
        l.insert(
            "bound.bound_s",
            tracer.self_secs("bound.bound") / traced_rounds.max(1) as f64,
        );
        l.insert(
            "pipeline.plan_cache_hit_ratio",
            totals.cache_hits as f64 / totals.cache_lookups.max(1) as f64,
        );
        l.insert(
            "serve.scan_ms",
            totals.scan_ns as f64 / 1e6 / totals.scan_batches.max(1) as f64,
        );
        l.insert("serve.queue_wait_ms", mean_chunk_ms - scan_ms_per_chunk);
        l.insert("serve.scans_per_chunk", totals.scans as f64 / chunks);
        l.insert("serve.register_ms", median(&register_ms));
        l.insert("serve.finish_ms", median(&finish_ms));
        l.insert("serve.chunk_p99_ms", percentile(&chunk_ms, 0.99));
        l.insert("serve.chunks_shed", totals.shed as f64 / r);
        l.insert("serve.backpressure_events", totals.backpressure as f64 / r);
        l.insert(
            "telemetry.overhead_pct",
            overhead_pct(&traced_secs, &untraced_secs),
        );
    }
    outcome
}
