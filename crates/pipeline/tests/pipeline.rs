//! End-to-end properties of the staged pipeline: cache hits are
//! bit-identical to cold compiles, the parallel grid driver computes
//! exactly what the serial path computes, the verify gate rejects
//! corrupted placements (the only road to simulation is a verified plan),
//! a plan's simulator images and per-array bounds are built once and
//! never persisted, and admission over those bounds equals admission over
//! the full bound analysis.

use proptest::prelude::*;
use rap_admit::{admit, AdmitOptions, Tenant};
use rap_bound::{analyze_bounds, BoundOptions};
use rap_circuit::Machine;
use rap_compiler::Mode;
use rap_mapper::{ArrayKind, Mapping};
use rap_pipeline::{
    build_plan, ArtifactTier, BenchConfig, CacheKey, DiskTier, EvalError, MappedPlan, PatternSet,
    Persist, Pipeline, RunSummary, StoreConfig, TierLoad, VerifiedPlan,
};
use rap_sim::{RunResult, Simulator};
use rap_workloads::Suite;
use serde::Serialize as _;
use std::sync::Arc;

fn tiny() -> BenchConfig {
    BenchConfig {
        patterns_per_suite: 10,
        input_len: 2_000,
        match_rate: 0.02,
        seed: 1234,
    }
}

/// A cache hit must be indistinguishable from the cold compile it reuses:
/// same shared artifact, and bit-identical images, placement, and
/// simulation summary compared with an independent cold build.
#[test]
fn cache_hit_is_bit_identical_to_cold_compile() {
    let pipe = Pipeline::new(tiny());
    let corpus = pipe.corpus(Suite::Snort);
    let sim = pipe.simulator_for(Machine::Rap, Suite::Snort);

    let cold = pipe.plan(&sim, corpus.patterns(), None).expect("cold plan");
    let hit = pipe
        .plan(&sim, corpus.patterns(), None)
        .expect("cached plan");
    assert!(Arc::ptr_eq(&cold, &hit), "hit must reuse the artifact");
    let stats = pipe.report().plan_cache;
    assert_eq!((stats.misses, stats.hits), (1, 1));

    // An independent cold build outside the cache must agree bit for bit.
    let fresh = build_plan(&sim, corpus.patterns(), None).expect("fresh plan");
    assert_eq!(
        format!("{:?}", fresh.compiled().images()),
        format!("{:?}", hit.compiled().images()),
        "hardware images must be identical"
    );
    assert_eq!(
        fresh.mapping(),
        hit.mapping(),
        "array placement must be identical"
    );
    let a = RunSummary::of(
        &fresh.simulate(corpus.input()),
        fresh.compiled().state_count(),
    );
    let b = RunSummary::of(&hit.simulate(corpus.input()), hit.compiled().state_count());
    assert_eq!(a, b, "simulation results must be identical");
}

/// The parallel (machine × suite) fan-out must produce exactly the
/// summaries the serial driver produces, in the same order.
#[test]
fn parallel_grid_equals_serial() {
    let cells: Vec<(Machine, Suite)> = [Suite::Snort, Suite::Yara]
        .into_iter()
        .flat_map(|s| Machine::all().into_iter().map(move |m| (m, s)))
        .collect();

    let serial = Pipeline::new(tiny()).with_workers(1);
    let parallel = Pipeline::new(tiny()).with_workers(4);
    let eval = |pipe: &Pipeline, (machine, suite): (Machine, Suite)| -> RunSummary {
        let corpus = pipe.corpus(suite);
        pipe.eval(machine, suite, corpus.patterns(), corpus.input(), None)
            .expect("cell evaluates")
    };
    let a = serial.grid(cells.clone(), |cell| eval(&serial, cell));
    let b = parallel.grid(cells.clone(), |cell| eval(&parallel, cell));
    assert_eq!(a, b, "parallel grid must match serial results");
    assert_eq!(a.len(), cells.len());
    assert!(
        parallel.report().max_workers >= 2,
        "grid must actually fan out"
    );
}

/// Random compilable NFA-mode patterns (loops over distinct literals).
fn arb_sources() -> impl Strategy<Value = Vec<String>> {
    let pat = (0u8..4, 0u8..4).prop_map(|(a, b)| {
        format!(
            "{}.*{}",
            (b'a' + a) as char,
            (b'w' + b) as char // distinct tail alphabet
        )
    });
    prop::collection::vec(pat, 1..5)
}

/// Random NBVA-mode sources: bounded repetitions of a character class
/// whose bounds survive unfolding (threshold 4), so the bit-vector IR is
/// genuinely exercised.
fn arb_nbva_sources() -> impl Strategy<Value = Vec<String>> {
    let pat = (0u8..4, 5u32..9, 0u32..6)
        .prop_map(|(a, lo, extra)| format!("{}[xy]{{{lo},{}}}z", (b'a' + a) as char, lo + extra));
    prop::collection::vec(pat, 1..4)
}

/// Random LNFA-mode sources: plain literal runs, which the sequence
/// rewriting always accepts.
fn arb_lnfa_sources() -> impl Strategy<Value = Vec<String>> {
    let pat = prop::collection::vec(0u8..26, 4..12).prop_map(|chars| {
        chars
            .into_iter()
            .map(|c| (b'a' + c) as char)
            .collect::<String>()
    });
    prop::collection::vec(pat, 1..4)
}

/// Sets one placement tile index to a value no array has, returning
/// whether anything was mutated.
fn corrupt_one_tile(mapping: &mut Mapping, victim: usize) -> bool {
    for array in &mut mapping.arrays {
        if let ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } = &mut array.kind
        {
            for p in placements.iter_mut() {
                let slot = victim % p.state_tile.len().max(1);
                if let Some(t) = p.state_tile.get_mut(slot) {
                    *t = 99;
                    return true;
                }
            }
        }
    }
    false
}

/// A payload whose framing and checksum are valid but whose mapping is
/// semantically illegal must be rejected by the disk tier *through the
/// verify gate* — counted as corrupt and discarded, never a panic and
/// never a trusted plan.
#[test]
fn semantically_tampered_payload_is_rejected_through_verify() {
    let dir = std::env::temp_dir().join(format!(
        "rap-pipeline-tamper-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let sim = Simulator::new(Machine::Rap);
    let pats = PatternSet::parse(&["a.*z".to_string()]).expect("parses");
    let compiled = pats.compile(&sim, None).expect("compiles");
    let mut mapping = sim.map(compiled.images());
    assert!(corrupt_one_tile(&mut mapping, 0), "plan has a placement");
    assert!(
        MappedPlan::from_parts(compiled.clone(), mapping.clone())
            .verify()
            .is_err(),
        "the tampered mapping must be illegal"
    );

    // Encode exactly the way `Persist` does, so the header, framing, and
    // checksum the store writes are all valid — only the *meaning* is bad.
    let mut e = serde::bin::Encoder::new();
    compiled.serialize(&mut e);
    mapping.serialize(&mut e);
    let payload = e.into_bytes();

    let tier = DiskTier::<VerifiedPlan>::open(StoreConfig::at(&dir)).expect("store opens");
    let key = CacheKey(0xDEAD_BEEF);
    tier.disk().store(key, &payload);
    assert!(
        tier.disk().load(key).is_some(),
        "the raw bytes pass the integrity check"
    );

    assert!(
        matches!(tier.load(key), TierLoad::Corrupt),
        "the typed load must reject the plan through Verify"
    );
    assert_eq!(tier.disk().stats().corrupt, 1, "counted as corrupt");
    assert!(
        !tier.disk().path_for(key).exists(),
        "the poisoned entry is discarded"
    );
    assert!(
        matches!(tier.load(key), TierLoad::Miss),
        "subsequent loads are plain misses"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything a run models: cycles, stalls, matches, every energy
/// category's bits, and the quiescent-cycle work counter.
fn fingerprint(r: &RunResult) -> String {
    let energy: Vec<(String, u64)> = r
        .energy
        .iter()
        .map(|(category, pj)| (category.to_string(), pj.to_bits()))
        .collect();
    format!(
        "{} {} {} {:?} {:?}",
        r.metrics.cycles, r.stall_cycles, r.quiescent_cycles, r.matches, energy
    )
}

/// A verified plan's simulator images are built by its first simulation,
/// never by `verify()`; a second simulation and the plan's clones reuse
/// them; they are not persisted. A plan simulated twice, cloned, traced,
/// streamed, or reloaded from the disk store returns identical results.
#[test]
fn lowered_images_are_built_once_and_never_persisted() {
    let dir = std::env::temp_dir().join(format!(
        "rap-pipeline-lowered-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = DiskTier::<VerifiedPlan>::open(StoreConfig::at(&dir)).expect("store opens");
    let pipe = Pipeline::new(tiny());
    for (i, (suite, machine)) in [
        (Suite::Snort, Machine::Rap),
        (Suite::ClamAv, Machine::Rap),
        (Suite::Yara, Machine::Ca),
    ]
    .into_iter()
    .enumerate()
    {
        let corpus = pipe.corpus(suite);
        let input = corpus.input();
        let sim = pipe.simulator_for(machine, suite);
        let plan = build_plan(&sim, corpus.patterns(), None).expect("plan builds");
        assert!(plan.lowered().is_none(), "verify() lowers nothing");
        let unlowered = plan.clone();

        let first = plan.simulate(input);
        let image = Arc::clone(plan.lowered().expect("the first simulate lowers"));
        let second = plan.simulate(input);
        assert_eq!(fingerprint(&second), fingerprint(&first));
        let reused = plan.lowered().expect("still lowered");
        assert!(
            Arc::ptr_eq(reused, &image),
            "a second simulate reuses the image"
        );

        let clone = plan.clone();
        assert!(Arc::ptr_eq(clone.lowered().expect("shared"), &image));
        assert_eq!(fingerprint(&clone.simulate(input)), fingerprint(&first));
        assert!(
            unlowered.lowered().is_none(),
            "a clone taken earlier lowers its own"
        );
        assert_eq!(fingerprint(&unlowered.simulate(input)), fingerprint(&first));

        let telemetry = rap_telemetry::Telemetry::new(rap_telemetry::TelemetryConfig::default());
        let traced = plan.simulate_traced(input, &telemetry, "lifetime");
        assert_eq!(fingerprint(&traced), fingerprint(&first));

        let plan = Arc::new(plan);
        let (whole, _) = plan.simulate_streaming(input);
        assert_eq!(whole.matches, first.matches);
        let mut stream = plan.stream();
        let mut fed = stream.feed(&input[..input.len() / 3]);
        fed.extend(stream.feed(&input[input.len() / 3..]));
        let (tail, streamed, _) = stream.finish();
        fed.extend(tail);
        assert_eq!(fed, first.matches);
        assert_eq!(streamed.quiescent_cycles, first.quiescent_cycles);
        assert!(Arc::ptr_eq(plan.lowered().expect("shared"), &image));

        let key = CacheKey(i as u128 + 1);
        tier.store(key, &plan);
        let TierLoad::Hit(reloaded) = tier.load(key) else {
            panic!("the stored plan reloads");
        };
        assert!(reloaded.lowered().is_none(), "images are never persisted");
        assert_eq!(fingerprint(&reloaded.simulate(input)), fingerprint(&first));
        assert_eq!(reloaded.to_payload(), plan.to_payload());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A verified plan's per-array bounds are derived by the first
/// `array_bounds()` call, never by `verify()`; later calls and the plan's
/// clones reuse them. They equal the full bound analysis's arrays, the
/// Bound stage's arrays are returned as they are when it ran, and a plan
/// reloaded from the disk store derives equal bounds again.
#[test]
fn array_bounds_are_built_once_and_never_persisted() {
    let dir = std::env::temp_dir().join(format!(
        "rap-pipeline-array-bounds-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let tier = DiskTier::<VerifiedPlan>::open(StoreConfig::at(&dir)).expect("store opens");
    let pipe = Pipeline::new(tiny());
    for (i, (suite, machine)) in [
        (Suite::Snort, Machine::Rap),
        (Suite::ClamAv, Machine::Rap),
        (Suite::Yara, Machine::Ca),
    ]
    .into_iter()
    .enumerate()
    {
        let corpus = pipe.corpus(suite);
        let sim = pipe.simulator_for(machine, suite);
        let plan = build_plan(&sim, corpus.patterns(), None).expect("plan builds");
        assert!(
            plan.cached_array_bounds().is_none(),
            "verify() derives no bounds"
        );
        let unbounded = plan.clone();

        let full = analyze_bounds(
            plan.compiled().images(),
            corpus.patterns().parsed(),
            plan.mapping(),
            &BoundOptions::bounds_only(),
        );
        assert_eq!(plan.array_bounds(), full.arrays.as_slice());
        let cached = Arc::clone(plan.cached_array_bounds().expect("the first call builds"));
        assert_eq!(plan.array_bounds(), &*cached);
        assert!(
            Arc::ptr_eq(plan.cached_array_bounds().expect("kept"), &cached),
            "a second call reuses the bounds"
        );
        let clone = plan.clone();
        assert!(Arc::ptr_eq(
            clone.cached_array_bounds().expect("shared"),
            &cached
        ));
        assert!(
            unbounded.cached_array_bounds().is_none(),
            "a clone taken earlier derives its own"
        );

        let staged = unbounded.bound(corpus.patterns().parsed(), &BoundOptions::bounds_only());
        let stage_arrays = staged
            .bounds()
            .expect("the Bound stage ran")
            .arrays
            .as_slice();
        assert!(
            std::ptr::eq(staged.array_bounds(), stage_arrays),
            "the Bound stage's arrays are returned as they are"
        );
        assert!(staged.cached_array_bounds().is_none());
        assert_eq!(stage_arrays, full.arrays.as_slice());

        let key = CacheKey(i as u128 + 1);
        tier.store(key, &Arc::new(plan));
        let TierLoad::Hit(reloaded) = tier.load(key) else {
            panic!("the stored plan reloads");
        };
        assert!(
            reloaded.cached_array_bounds().is_none(),
            "bounds are never persisted"
        );
        assert_eq!(reloaded.array_bounds(), full.arrays.as_slice());
        assert!(reloaded.cached_array_bounds().is_some());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Pipeline::admit` sums the per-array bounds its plans keep. Its
/// analysis (findings, sizing, loads, summaries) and certificate equal
/// those of `rap_admit::admit` fed the full bound analysis's arrays for
/// independently built plans, and those of `Pipeline::certify` over the
/// tenants' plans; its composed plan places exactly the certificate.
#[test]
fn pipeline_admission_equals_admission_over_full_analysis_bounds() {
    let pipe = Pipeline::new(tiny());
    let suites = [Suite::Snort, Suite::ClamAv, Suite::Yara, Suite::Prosite];
    for machine in [Machine::Rap, Machine::Ca] {
        let corpora: Vec<_> = suites.iter().map(|&s| pipe.corpus(s)).collect();
        let sims: Vec<Simulator> = suites
            .iter()
            .map(|&s| pipe.simulator_for(machine, s))
            .collect();
        let tenants: Vec<(&str, &Simulator, &PatternSet)> = suites
            .iter()
            .zip(&sims)
            .zip(&corpora)
            .map(|((s, sim), c)| (s.name(), sim, c.patterns()))
            .collect();
        let admission = pipe
            .admit(&tenants, &AdmitOptions::default())
            .expect("tenants plan");
        let solo: Vec<_> = tenants
            .iter()
            .map(|(_, sim, patterns)| pipe.plan(sim, patterns, None).expect("cached"))
            .collect();
        let named: Vec<(&str, &VerifiedPlan)> = tenants
            .iter()
            .zip(&solo)
            .map(|((name, _, _), plan)| (*name, &**plan))
            .collect();
        let certified = pipe.certify(&named, &AdmitOptions::default());
        assert_eq!(
            format!("{:?}", admission.analysis),
            format!("{certified:?}"),
            "{machine:?}"
        );

        let plans: Vec<VerifiedPlan> = tenants
            .iter()
            .map(|(_, sim, patterns)| build_plan(sim, patterns, None).expect("plan builds"))
            .collect();
        let full: Vec<_> = plans
            .iter()
            .zip(&tenants)
            .map(|(plan, (_, _, patterns))| {
                analyze_bounds(
                    plan.compiled().images(),
                    patterns.parsed(),
                    plan.mapping(),
                    &BoundOptions::bounds_only(),
                )
            })
            .collect();
        let views: Vec<Tenant<'_>> = plans
            .iter()
            .zip(&full)
            .zip(&tenants)
            .map(|((plan, bounds), (name, _, _))| Tenant {
                name,
                images: plan.compiled().images(),
                mapping: plan.mapping(),
                bounds: &bounds.arrays,
                match_base: None,
                slot: None,
            })
            .collect();
        let reference = admit(&views, &sims[0].mapper.arch, &AdmitOptions::default());
        assert!(
            machine != Machine::Rap || reference.admitted(),
            "{}",
            reference.report
        );
        assert_eq!(
            format!("{:?}", admission.analysis),
            format!("{reference:?}"),
            "{machine:?}"
        );
        if let Some(composed) = &reference.composed {
            let plan = admission
                .plan
                .as_ref()
                .expect("certified admissions carry a plan");
            assert_eq!(plan.mapping(), &composed.mapping);
            assert_eq!(
                format!("{:?}", plan.compiled().images()),
                format!("{:?}", composed.images)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Persistence round-trip across all three compiled IRs: a verified
    /// plan's payload must decode back (through the untrusted
    /// `from_parts` → Verify door) to a plan whose re-serialization is
    /// bit-identical, with equal placements and hardware images.
    #[test]
    fn persisted_plans_round_trip_bit_identically(
        nfa in arb_sources(),
        nbva in arb_nbva_sources(),
        lnfa in arb_lnfa_sources(),
    ) {
        let sim = Simulator::new(Machine::Rap);
        let cases: [(&Vec<String>, Option<Mode>); 3] =
            [(&nfa, None), (&nbva, Some(Mode::Nbva)), (&lnfa, Some(Mode::Lnfa))];
        for (sources, forced) in cases {
            let pats = PatternSet::parse(sources).expect("sources parse");
            let plan = build_plan(&sim, &pats, forced).expect("plan builds");
            let payload = plan.to_payload();
            let restored = VerifiedPlan::from_payload(&payload)
                .expect("a faithful payload re-verifies");
            prop_assert_eq!(
                restored.to_payload(),
                payload,
                "re-serialization must be bit-identical ({:?})",
                forced
            );
            prop_assert_eq!(restored.mapping(), plan.mapping());
            prop_assert_eq!(
                format!("{:?}", restored.compiled().images()),
                format!("{:?}", plan.compiled().images())
            );
        }
    }

    /// Corrupting any placement tile index must trip the verify gate:
    /// `MappedPlan::verify` refuses the plan, so no `VerifiedPlan` (and
    /// therefore no simulation) can exist for it. The uncorrupted twin of
    /// the same plan must verify.
    #[test]
    fn corrupted_placements_never_verify(
        sources in arb_sources(),
        victim in 0usize..64,
    ) {
        let sim = Simulator::new(Machine::Rap);
        let pats = PatternSet::parse(&sources).expect("sources parse");
        let compiled = pats.compile(&sim, None).expect("sources compile");
        let mut mapping = sim.map(compiled.images());

        // The pristine placement passes the gate.
        let pristine = MappedPlan::from_parts(compiled.clone(), mapping.clone());
        prop_assert!(pristine.verify().is_ok(), "mapper output must verify");

        // Corrupt one placement's tile index to a value no array has.
        let mut corrupted = false;
        'outer: for array in &mut mapping.arrays {
            if let ArrayKind::Nfa { placements } | ArrayKind::Nbva { placements, .. } =
                &mut array.kind
            {
                for p in placements.iter_mut() {
                    let slot = victim % p.state_tile.len().max(1);
                    if let Some(t) = p.state_tile.get_mut(slot) {
                        *t = 99;
                        corrupted = true;
                        break 'outer;
                    }
                }
            }
        }
        prop_assume!(corrupted);

        match MappedPlan::from_parts(compiled, mapping).verify() {
            Err(EvalError::IllegalMapping { machine, report }) => {
                prop_assert_eq!(machine, Machine::Rap);
                prop_assert!(!report.is_legal());
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
            Ok(_) => prop_assert!(false, "corrupted plan must not verify"),
        }
    }
}
