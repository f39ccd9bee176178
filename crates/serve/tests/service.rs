//! End-to-end service tests: demux fidelity against solo streaming runs,
//! certified backpressure, graceful drain, warm-start registration, and
//! the framed TCP protocol.

use std::sync::Arc;

use rap_pipeline::{BenchConfig, DiskStore, PatternSet, Pipeline, Stage, StoreConfig};
use rap_serve::{Client, RegisterReply, SendOutcome, ServeConfig, ServeError, Server};
use rap_sim::MatchEvent;
use rap_telemetry::Telemetry;

fn small_spec() -> BenchConfig {
    BenchConfig {
        patterns_per_suite: 4,
        input_len: 512,
        match_rate: 0.02,
        seed: 11,
    }
}

fn server(shards: usize, queue_pages: u64) -> Server {
    let config = ServeConfig {
        shards,
        queue_pages,
        ..ServeConfig::default()
    };
    Server::new(Pipeline::new(small_spec()), config)
}

fn patterns(sources: &[&str]) -> PatternSet {
    let sources: Vec<String> = sources.iter().map(|s| (*s).to_string()).collect();
    PatternSet::parse(&sources).expect("parses")
}

/// Reference semantics: one solo whole-input streaming run.
fn solo_matches(server: &Server, set: &PatternSet, input: &[u8]) -> Vec<MatchEvent> {
    let sim = rap_sim::Simulator::new(server.config().machine);
    let plan = server.pipeline().plan(&sim, set, None).expect("plans");
    plan.simulate_streaming(input).0.matches
}

#[test]
fn chunked_sessions_match_solo_streaming_runs() {
    let server = server(2, 8);
    let tenants: Vec<(&str, PatternSet, Vec<u8>)> = vec![
        (
            "ids",
            patterns(&["ab{4,8}c", "evil"]),
            b"xx evil abbbbbc evil yy".repeat(9),
        ),
        (
            "av",
            patterns(&["virus", "x.?y"]),
            b"virus xay xy virus zz".repeat(11),
        ),
        (
            "dpi",
            patterns(&["hel+o", "world"]),
            b"hello wooo helllo world".repeat(7),
        ),
        (
            "bio",
            patterns(&["gat+aca"]),
            b"ggattacagattttacaccc".repeat(13),
        ),
    ];
    let sessions: Vec<_> = tenants
        .iter()
        .map(|(name, set, _)| server.register(name, set).expect("admits"))
        .collect();
    // Both shards must be exercised.
    let shards: std::collections::BTreeSet<usize> = sessions.iter().map(|s| s.shard()).collect();
    assert_eq!(shards.len(), 2, "tenants should spread across shards");
    // Interleave chunk delivery round-robin with uneven chunk sizes.
    let mut cursors = vec![0usize; tenants.len()];
    let sizes = [7usize, 31, 3, 64, 13];
    let mut round = 0usize;
    loop {
        let mut progressed = false;
        for (i, (_, _, input)) in tenants.iter().enumerate() {
            let at = cursors[i];
            if at >= input.len() {
                continue;
            }
            let len = sizes[(round + i) % sizes.len()].min(input.len() - at);
            let mut outcome = sessions[i].send(&input[at..at + len]).expect("open");
            while outcome == SendOutcome::Shed {
                sessions[i].wait_idle();
                outcome = sessions[i].send(&input[at..at + len]).expect("open");
            }
            cursors[i] = at + len;
            progressed = true;
        }
        round += 1;
        if !progressed {
            break;
        }
    }
    for (i, (_, set, input)) in tenants.iter().enumerate() {
        sessions[i].finish();
        let mut delivered = sessions[i].drain();
        delivered.sort_unstable_by_key(|m| (m.end, m.pattern));
        delivered.dedup();
        let expected = solo_matches(&server, set, input);
        assert_eq!(delivered, expected, "tenant {} diverged from solo run", i);
        assert!(!expected.is_empty(), "tenant {} workload must match", i);
    }
    assert_eq!(server.active_sessions(), 0);
}

#[test]
fn anchored_end_matches_only_surface_at_finish() {
    let server = server(1, 8);
    let set = patterns(&["abc$"]);
    let session = server.register("anchored", &set).expect("admits");
    session.send(b"zzabc").expect("open");
    session.wait_idle();
    assert!(
        session.drain().is_empty(),
        "a $-anchored match must not surface mid-stream"
    );
    session.send(b"zabc").expect("open");
    session.finish();
    let events = session.drain();
    assert_eq!(
        events,
        vec![MatchEvent { pattern: 0, end: 9 }],
        "only the end-of-stream occurrence survives"
    );
}

#[test]
fn oversized_chunks_shed_with_backpressure_finding_first() {
    // One page over one bank: the certified intake budget is the bank's
    // ping-pong window (2 × 128 bytes).
    let server = server(1, 1);
    let set = patterns(&["needle"]);
    let session = server.register("burst", &set).expect("admits");
    let big = vec![b'x'; 4096];
    let outcome = session.send(&big).expect("open");
    assert_eq!(outcome, SendOutcome::Shed, "chunk over budget must shed");
    let stats = session.stats();
    assert_eq!(stats.chunks_shed, 1);
    assert!(stats.backpressure_events >= 1);
    let findings = server.findings();
    assert!(
        !findings
            .by_rule(rap_serve::Rule::SessionBackpressure)
            .is_empty(),
        "shed without a backpressure finding"
    );
    assert!(!findings.by_rule(rap_serve::Rule::ChunkShed).is_empty());
    assert!(server.metrics().chunks_shed.get() >= 1);
    assert!(server.metrics().backpressure_events.get() >= 1);
    // Within budget still flows.
    let ok = session.send(b"say needle twice").expect("open");
    assert_ne!(ok, SendOutcome::Shed);
    session.finish();
    assert_eq!(session.drain().len(), 1);
}

#[test]
fn duplicate_tenant_names_are_refused() {
    let server = server(2, 8);
    let set = patterns(&["abc"]);
    let _first = server.register("twin", &set).expect("admits");
    match server.register("twin", &set) {
        Err(ServeError::DuplicateTenant(name)) => assert_eq!(name, "twin"),
        Err(other) => panic!("expected duplicate refusal, got {other:?}"),
        Ok(_) => panic!("expected duplicate refusal, got an admitted session"),
    }
    assert_eq!(server.metrics().sessions_rejected.get(), 1);
}

#[test]
fn dropping_a_session_drains_gracefully() {
    let server = server(1, 8);
    let set = patterns(&["drop"]);
    {
        let session = server.register("ephemeral", &set).expect("admits");
        session.send(b"xx drop yy").expect("open");
        // No finish: the handle simply goes away.
    }
    // The worker processes the queued finish job shortly.
    for _ in 0..200 {
        if server.active_sessions() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(server.active_sessions(), 0, "drop must release the slot");
    let findings = server.findings();
    assert!(
        !findings.by_rule(rap_serve::Rule::SessionDrained).is_empty(),
        "graceful drain must be recorded"
    );
}

#[test]
fn telemetry_counters_track_the_ops_surface() {
    let telemetry = Arc::new(Telemetry::default());
    let pipeline = Pipeline::new(small_spec()).with_telemetry(Arc::clone(&telemetry));
    let server = Server::new(
        pipeline,
        ServeConfig {
            shards: 1,
            queue_pages: 8,
            ..ServeConfig::default()
        },
    );
    let set = patterns(&["tick"]);
    let session = server.register("ops", &set).expect("admits");
    assert_eq!(server.metrics().sessions_active.get(), 1);
    session.send(b"a tick b tick").expect("open");
    session.finish();
    let delivered = session.drain().len() as u64;
    assert_eq!(delivered, 2);
    assert_eq!(server.metrics().matches_delivered.get(), delivered);
    assert_eq!(server.metrics().bytes_scanned.get(), 13);
    assert_eq!(server.metrics().sessions_active.get(), 0);
    let prom = server.prometheus();
    for metric in [
        "rap_serve_sessions_active",
        "rap_serve_bytes_scanned_total",
        "rap_serve_matches_delivered_total",
        "rap_serve_backpressure_events_total",
        "rap_serve_chunk_scan_ns",
        "rap_sim_output_fifo_hwm_records",
    ] {
        assert!(prom.contains(metric), "{metric} missing from exposition");
    }
}

#[test]
fn recompose_histogram_counts_every_successful_recompose() {
    let server = server(2, 8);
    let a = server.register("a", &patterns(&["alpha"])).expect("admits");
    let b = server.register("b", &patterns(&["bravo"])).expect("admits");
    let c = server
        .register("c", &patterns(&["charlie"]))
        .expect("admits");
    assert_eq!(server.metrics().recompose_ns.count(), 3, "one per join");
    assert!(matches!(
        server.register("a", &patterns(&["again"])),
        Err(ServeError::DuplicateTenant(_))
    ));
    assert_eq!(
        server.metrics().recompose_ns.count(),
        3,
        "a refused name never recomposes"
    );
    b.finish();
    assert_eq!(server.metrics().recompose_ns.count(), 4, "one per leave");
    let (d, _) = server
        .swap_tenant(&c, "d", &patterns(&["delta"]))
        .expect("certifies");
    assert_eq!(
        server.metrics().recompose_ns.count(),
        6,
        "a hot swap drains the outgoing tenant and re-registers"
    );
    a.finish();
    d.finish();
    let joins = server.metrics().sessions_admitted.get();
    assert_eq!((joins, server.active_sessions()), (4, 0));
    assert_eq!(server.metrics().recompose_ns.count(), joins + 4);
    assert!(server.prometheus().contains("rap_serve_recompose_ns"));
}

/// The value of one Prometheus series (`name{labels}`) in `text`.
fn series(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("{name} missing from exposition"))
        .parse()
        .expect("integer sample")
}

#[test]
fn prometheus_series_add_up_to_the_sessions() {
    let telemetry = Arc::new(Telemetry::default());
    let pipeline = Pipeline::new(small_spec()).with_telemetry(Arc::clone(&telemetry));
    let server = Server::new(
        pipeline,
        ServeConfig {
            shards: 2,
            queue_pages: 8,
            ..ServeConfig::default()
        },
    );
    // Every byte matches `[ab]`: the bank output buffer overflows into
    // host interrupts.
    let flood = server
        .register("flood", &patterns(&["[ab]"]))
        .expect("admits");
    let quiet = server
        .register("quiet", &patterns(&["zz"]))
        .expect("admits");
    assert_ne!(flood.shard(), quiet.shard());
    for _ in 0..4 {
        flood.send(&b"ab".repeat(60)).expect("open");
        quiet.send(b"zzz").expect("open");
        flood.wait_idle();
        quiet.wait_idle();
    }
    flood.finish();
    quiet.finish();
    let (f, q) = (flood.stats(), quiet.stats());
    assert_eq!((f.matches_delivered, q.matches_delivered), (480, 11));
    assert!(f.output_interrupts > 0, "expected interrupts: {f:?}");
    let prom = server.prometheus();
    for (session, stats) in [(&flood, &f), (&quiet, &q)] {
        assert_eq!(
            series(
                &prom,
                &format!(
                    "rap_serve_tenant_matches_delivered_total{{tenant=\"{}\"}}",
                    session.tenant()
                )
            ),
            stats.matches_delivered
        );
        assert_eq!(
            series(
                &prom,
                &format!(
                    "rap_serve_shard_bytes_scanned_total{{shard=\"{}\"}}",
                    session.shard()
                )
            ),
            stats.bytes_scanned
        );
    }
    let machine = server.config().machine.to_string();
    assert_eq!(
        series(
            &prom,
            &format!("rap_sim_output_interrupts_total{{machine=\"{machine}\"}}")
        ),
        f.output_interrupts + q.output_interrupts
    );
    assert_eq!(
        series(&prom, "rap_serve_chunks_scanned_total"),
        f.scans + q.scans
    );
    assert_eq!(f.scans, 4, "one scan per chunk, none for a bare finish");
}

#[test]
fn churn_keeps_only_solo_plans_and_live_compositions_cached() {
    let server = server(2, 8);
    let set = |i: usize| patterns(&[&format!("churn{i}x")]);
    // Four tenants stay resident while twenty more churn through; every
    // join and leave recomposes a shard.
    let mut live: std::collections::VecDeque<_> = (0..4)
        .map(|i| server.register(&format!("t{i}"), &set(i)).expect("admits"))
        .collect();
    for i in 4..24 {
        let leaving = live.pop_front().expect("four live");
        leaving.send(b"a churn line").expect("open");
        leaving.finish();
        live.push_back(server.register(&format!("t{i}"), &set(i)).expect("admits"));
    }
    // 24 distinct solo plans; the shards hold certificates, not plans.
    let shards: std::collections::BTreeSet<usize> = live.iter().map(|s| s.shard()).collect();
    assert_eq!(shards.len(), 2);
    assert_eq!(server.pipeline().cached_plans(), 24);
    for session in &live {
        session.finish();
    }
    assert_eq!(server.pipeline().cached_plans(), 24);
    // One plan lookup per registration: no recompose touches the cache.
    let cache = server.pipeline().report().plan_cache;
    assert_eq!(cache.hits + cache.misses, 24);
}

#[test]
fn churn_with_a_store_persists_only_solo_plans() {
    let dir = std::env::temp_dir().join(format!(
        "rap-serve-churn-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let pipeline = Pipeline::new(small_spec())
        .with_store(StoreConfig::at(&dir))
        .expect("store opens");
    let server = Server::new(
        pipeline,
        ServeConfig {
            shards: 2,
            queue_pages: 8,
            ..ServeConfig::default()
        },
    );
    // Eight distinct pattern sets, each joining twice under a new name:
    // every join and leave recomposes a shard.
    let set = |i: usize| patterns(&[&format!("persist{}x", i % 8)]);
    let mut live: std::collections::VecDeque<_> = (0..3)
        .map(|i| server.register(&format!("p{i}"), &set(i)).expect("admits"))
        .collect();
    for i in 3..16 {
        live.pop_front().expect("three live").finish();
        live.push_back(server.register(&format!("p{i}"), &set(i)).expect("admits"));
    }
    for session in &live {
        session.finish();
    }
    let store = DiskStore::open(StoreConfig::at(&dir)).expect("store opens");
    assert_eq!(store.len(), 8, "the store holds the distinct solo plans");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_registration_compiles_nothing() {
    let dir = std::env::temp_dir().join(format!(
        "rap-serve-store-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let set = patterns(&["warm{2,5}start", "again"]);
    {
        let pipeline = Pipeline::new(small_spec())
            .with_store(StoreConfig::at(&dir))
            .expect("store opens");
        let cold = Server::new(
            pipeline,
            ServeConfig {
                shards: 1,
                ..ServeConfig::default()
            },
        );
        let session = cold.register("tenant", &set).expect("admits");
        session.finish();
        assert!(cold.pipeline().report().patterns_compiled > 0);
    }
    let pipeline = Pipeline::new(small_spec())
        .with_store(StoreConfig::at(&dir))
        .expect("store opens");
    let warm = Server::new(
        pipeline,
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    );
    let session = warm.register("tenant", &set).expect("admits");
    session.send(b"warmmmstart again").expect("open");
    session.finish();
    assert_eq!(session.drain().len(), 2);
    let report = warm.pipeline().report();
    assert_eq!(
        report.patterns_compiled, 0,
        "warm registration must not compile"
    );
    assert_eq!(report.stage_secs(Stage::Compile), 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_selection_breaks_ties_toward_the_lowest_id() {
    let server = server(3, 8);
    let a = server
        .register("first", &patterns(&["aaa"]))
        .expect("admits");
    let b = server
        .register("second", &patterns(&["bbb"]))
        .expect("admits");
    let c = server
        .register("third", &patterns(&["ccc"]))
        .expect("admits");
    // Every shard starts empty; the deterministic tie-break fills them
    // in ascending id order.
    assert_eq!(
        (a.shard(), b.shard(), c.shard()),
        (0, 1, 2),
        "least-loaded ties must resolve to the lowest shard id"
    );
    // A fourth tenant wraps back to the (again tied) lowest id.
    let d = server
        .register("fourth", &patterns(&["ddd"]))
        .expect("admits");
    assert_eq!(d.shard(), 0);
}

#[test]
fn hot_swap_replaces_a_tenant_while_the_other_keeps_streaming() {
    let server = server(1, 8);
    let stay_set = patterns(&["needle"]);
    let out_set = patterns(&["haystack"]);
    let stay = server.register("stay", &stay_set).expect("admits");
    let out = server.register("legacy", &out_set).expect("admits");
    assert_eq!(stay.shard(), out.shard());

    stay.send(b"a needle here").expect("open");
    out.send(b"one haystack").expect("open");
    out.wait_idle();
    let pre_out = out.drain();
    assert_eq!(pre_out.len(), 1, "outgoing tenant matched pre-swap");

    let in_set = patterns(&["beacon"]);
    let (incoming, plan) = server
        .swap_tenant(&out, "modern", &in_set)
        .expect("certifies");
    assert_eq!(plan.outgoing, "legacy");
    assert_eq!(plan.incoming, "modern");
    assert!(plan.drain.cycles > 0);
    assert_eq!(incoming.shard(), stay.shard(), "swap stays on the shard");

    // The staying session never stopped: it scans across the swap.
    stay.send(b" and a needle there").expect("open");
    stay.wait_idle();
    // The replacement streams into the freed footprint.
    incoming.send(b"lit a beacon").expect("open");
    incoming.finish();
    assert_eq!(incoming.drain().len(), 1);
    stay.finish();
    assert_eq!(
        stay.drain().len(),
        2,
        "staying tenant delivers matches from before and after the swap"
    );

    let findings = server.findings();
    assert!(
        !findings.by_rule(rap_serve::Rule::SessionDrained).is_empty(),
        "the outgoing session must drain gracefully (R004)"
    );
    assert!(
        !findings.by_rule(rap_serve::Rule::TenantSwapped).is_empty(),
        "the swap must be recorded (R005)"
    );
    assert_eq!(server.metrics().swaps_completed.get(), 1);
    assert_eq!(server.metrics().swaps_rejected.get(), 0);
    // The outgoing session is closed; its name is free again.
    assert!(
        out.send(b"more").is_err(),
        "outgoing session must be closed"
    );
    drop(server.register("legacy", &out_set).expect("slot was freed"));
}

#[test]
fn rejected_swap_leaves_the_outgoing_session_streaming() {
    let server = server(1, 8);
    // Unbounded span: the drain bound cannot be certified (Q005).
    let out_set = patterns(&["begin.*end"]);
    let out = server.register("cyclic", &out_set).expect("admits");
    let in_set = patterns(&["safe"]);
    match server.swap_tenant(&out, "replacement", &in_set) {
        Err(ServeError::SwapRejected(analysis)) => {
            assert!(!analysis.certified());
            assert!(
                !analysis
                    .report
                    .by_rule(rap_swap::Rule::DrainUnbounded)
                    .is_empty(),
                "unbounded outgoing span must raise Q005"
            );
        }
        Err(other) => panic!("expected a swap rejection, got {other:?}"),
        Ok(_) => panic!("expected a swap rejection, got a certificate"),
    }
    assert_eq!(server.metrics().swaps_rejected.get(), 1);
    assert_eq!(server.metrics().swaps_completed.get(), 0);
    // The refusal left the outgoing session untouched and streaming.
    out.send(b"begin middle end").expect("still open");
    out.finish();
    assert_eq!(out.drain().len(), 1);
}

/// `count` sources, the `i`th rendered by `shape(i)`.
fn tagged(count: usize, shape: impl Fn(usize) -> String) -> PatternSet {
    let sources: Vec<String> = (0..count).map(shape).collect();
    PatternSet::parse(&sources).expect("parses")
}

#[test]
fn swap_failing_first_fit_recomposition_leaves_the_outgoing_session_streaming() {
    let server = server(1, 8);
    // First-fit in name order puts `a` in slot 0 and `c`'s three arrays
    // (NFA, NBVA, LNFA) in slots 1-3 of bank 0; `d` sits alone in bank 1.
    // The replacement `b` is one array of 40 literals: pinned at `c`'s
    // base, `a` and `b` share bank 0 and the swap certifies. First-fit in
    // name order packs `a`, `b` and `d` into bank 0, whose burst (1 + 40
    // + 40 records) overflows its output capacity, so the shard's
    // recomposition refuses (S002).
    let a = server
        .register("a", &patterns(&["needle"]))
        .expect("admits");
    let c_set = tagged(40, |i| match i % 3 {
        0 => format!("(a|bc)(d|ef)(g|hi)(j|kl){i:02}"),
        1 => format!("x{i:02}y{{20,40}}z"),
        _ => format!("lit{i:02}"),
    });
    let c = server.register("c", &c_set).expect("admits");
    let d = server
        .register("d", &tagged(40, |i| format!("dd{i:02}")))
        .expect("admits");
    match server.swap_tenant(&c, "b", &tagged(40, |i| format!("bb{i:02}"))) {
        Err(ServeError::Rejected(analysis)) => {
            assert!(
                !analysis
                    .report
                    .by_rule(rap_admit::Rule::BankOversubscribed)
                    .is_empty(),
                "{}",
                analysis.report
            );
        }
        Err(other) => panic!("expected a recomposition refusal, got {other:?}"),
        Ok(_) => panic!("expected a recomposition refusal, got a swap"),
    }
    assert_eq!(server.metrics().swaps_rejected.get(), 1);
    assert_eq!(server.metrics().swaps_completed.get(), 0);
    // The refusal drained nothing: every resident keeps streaming.
    c.send(b"a lit02 and an adgj00").expect("still open");
    c.finish();
    assert_eq!(c.drain().len(), 2);
    for (session, chunk) in [(&a, &b"one needle"[..]), (&d, &b"dd07"[..])] {
        session.send(chunk).expect("still open");
        session.finish();
        assert_eq!(session.drain().len(), 1);
    }
}

#[test]
fn unbuildable_swap_replacement_counts_as_rejected() {
    let server = server(1, 8);
    // The empty pattern parses but compiles to no states.
    let unbuildable = patterns(&[""]);
    assert!(matches!(
        server.register("probe", &unbuildable),
        Err(ServeError::Pipeline(_))
    ));
    let out = server
        .register("steady", &patterns(&["keep"]))
        .expect("admits");
    match server.swap_tenant(&out, "replacement", &unbuildable) {
        Err(ServeError::Pipeline(_)) => {}
        Err(other) => panic!("expected a pipeline failure, got {other:?}"),
        Ok(_) => panic!("expected a pipeline failure, got a certificate"),
    }
    assert_eq!(server.metrics().swaps_rejected.get(), 1);
    assert_eq!(server.metrics().swaps_completed.get(), 0);
    // The outgoing session never stopped streaming.
    out.send(b"keep going, keep").expect("still open");
    out.finish();
    assert_eq!(out.drain().len(), 2);
}

#[test]
fn mid_stream_disconnect_drains_within_budget_and_frees_the_slot() {
    let server = server(1, 8);
    let set = patterns(&["target"]);
    {
        let session = server.register("flaky", &set).expect("admits");
        session.send(b"a target mid-stream").expect("open");
        // Disconnect: the handle is dropped with bytes still in flight.
    }
    for _ in 0..200 {
        if server.active_sessions() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(server.active_sessions(), 0, "drop must release the slot");
    let findings = server.findings();
    assert!(
        !findings.by_rule(rap_serve::Rule::SessionDrained).is_empty(),
        "mid-stream disconnect must drain gracefully (R004)"
    );
    // The freed composition resources admit a re-registration under the
    // same name, and the recycled session scans normally.
    let revived = server.register("flaky", &set).expect("slot was freed");
    revived.send(b"second target").expect("open");
    revived.finish();
    assert_eq!(revived.drain().len(), 1);
}

#[test]
fn framed_swap_hands_the_connection_to_the_replacement() {
    let mut server = server(1, 8);
    let addr = server.listen("127.0.0.1:0").expect("binds");
    let mut client = Client::connect(addr).expect("connects");
    match client
        .register("legacy", &["oldsig".to_string()])
        .expect("io")
    {
        RegisterReply::Accepted(_) => {}
        RegisterReply::Rejected(body) => panic!("rejected: {body}"),
    }
    let (_, events) = client.send_chunk(b"nothing of note").expect("io");
    assert!(events.is_empty());
    let (_, events) = client.send_chunk(b" an oldsig though").expect("io");
    assert_eq!(events.len(), 1, "outgoing tenant matches pre-swap");

    let (reply, residual) = client.swap("modern", &["newsig".to_string()]).expect("io");
    match reply {
        RegisterReply::Accepted(text) => {
            assert!(text.starts_with("shard="), "{text}");
            assert!(text.contains("drain_cycles="), "{text}");
        }
        RegisterReply::Rejected(body) => panic!("swap rejected: {body}"),
    }
    assert!(
        residual.is_empty(),
        "already-delivered events must not replay at the swap"
    );
    // The connection now speaks for the replacement tenant.
    let (_, events) = client.send_chunk(b"a newsig lands").expect("io");
    assert_eq!(events, vec![MatchEvent { pattern: 0, end: 8 }]);
    let final_events = client.finish().expect("io");
    assert!(final_events.is_empty());
    server.shutdown();
}

#[test]
fn framed_swap_rejection_keeps_the_old_session_usable() {
    let mut server = server(1, 8);
    let addr = server.listen("127.0.0.1:0").expect("binds");
    let mut client = Client::connect(addr).expect("connects");
    match client
        .register("cyclic", &["begin.*end".to_string()])
        .expect("io")
    {
        RegisterReply::Accepted(_) => {}
        RegisterReply::Rejected(body) => panic!("rejected: {body}"),
    }
    let (reply, residual) = client
        .swap("replacement", &["safe".to_string()])
        .expect("io");
    match reply {
        RegisterReply::Rejected(body) => {
            assert!(body.contains("Q005"), "Q findings must travel: {body}")
        }
        RegisterReply::Accepted(text) => panic!("unbounded swap certified: {text}"),
    }
    assert!(residual.is_empty());
    let (_, events) = client.send_chunk(b"begin middle end").expect("io");
    assert_eq!(events.len(), 1, "old session must keep streaming");
    server.shutdown();
}

#[test]
fn framed_tcp_protocol_round_trips() {
    let mut server = server(2, 8);
    let addr = server.listen("127.0.0.1:0").expect("binds");
    let mut client = Client::connect(addr).expect("connects");
    let sources = vec!["ping".to_string(), "pong$".to_string()];
    match client.register("remote", &sources).expect("io") {
        RegisterReply::Accepted(reply) => assert!(reply.starts_with("shard=")),
        RegisterReply::Rejected(body) => panic!("rejected: {body}"),
    }
    let (outcome, events) = client.send_chunk(b"a ping b").expect("io");
    assert_ne!(outcome, SendOutcome::Shed);
    assert_eq!(events, vec![MatchEvent { pattern: 0, end: 6 }]);
    let (_, events) = client.send_chunk(b" pong").expect("io");
    assert!(events.is_empty(), "$-anchored match must wait for FINISH");
    let final_events = client.finish().expect("io");
    assert_eq!(
        final_events,
        vec![MatchEvent {
            pattern: 1,
            end: 13
        }]
    );
    // A second connection with a clashing name is refused at the
    // protocol level once the first is still... the first finished, so
    // the name is free again and re-registration succeeds.
    let mut second = Client::connect(addr).expect("connects");
    match second.register("remote", &sources).expect("io") {
        RegisterReply::Accepted(_) => {}
        RegisterReply::Rejected(body) => panic!("name should be free after drain: {body}"),
    }
    server.shutdown();
}
