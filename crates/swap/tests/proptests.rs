//! Property tests for the hot-swap certificate, checked end to end
//! against the cycle-accurate simulator:
//!
//! * **Staying tenants are untouched** — for random tenancies and
//!   random swap points, every staying tenant's demultiplexed match
//!   stream across the executed swap is bit-identical to an unswapped
//!   run of the resident composition.
//! * **The replacement behaves as if cold-admitted** — the swapped-in
//!   tenant's post-swap matches are bit-identical to a cold re-admitted
//!   composition scanned over the post-swap suffix.
//! * **Rejections are diagnosed** — every rejected swap carries at
//!   least one Q finding.

use proptest::prelude::*;
use rap_admit::{admit, AdmitOptions, Tenant};
use rap_arch::config::ArchConfig;
use rap_bound::{analyze_bounds, ArrayBound, BoundOptions};
use rap_circuit::Machine;
use rap_compiler::{Compiled, Compiler, CompilerConfig};
use rap_mapper::{map_workload, MapperConfig, Mapping};
use rap_regex::Pattern;
use rap_swap::{analyze_swap, execute, SwapOptions};

/// One tenant's owned plan parts.
struct Owned {
    name: String,
    images: Vec<Compiled>,
    mapping: Mapping,
    bounds: Vec<ArrayBound>,
}

/// Bounds come from the full `analyze_bounds` pass, the independent
/// reference for what a plan caches through `array_bounds`.
fn owned(name: String, sources: &[&str]) -> Owned {
    let compiler = Compiler::new(CompilerConfig::default());
    let patterns: Vec<Pattern> = sources
        .iter()
        .map(|s| rap_regex::parse_pattern(s).expect("pool patterns parse"))
        .collect();
    let images: Vec<Compiled> = patterns
        .iter()
        .map(|p| compiler.compile_anchored(p).expect("pool patterns compile"))
        .collect();
    let mapping = map_workload(&images, &MapperConfig::default());
    let bounds = analyze_bounds(&images, &patterns, &mapping, &BoundOptions::bounds_only());
    Owned {
        name,
        images,
        mapping,
        bounds: bounds.arrays,
    }
}

fn view(o: &Owned) -> Tenant<'_> {
    Tenant {
        name: &o.name,
        images: &o.images,
        mapping: &o.mapping,
        bounds: &o.bounds,
        match_base: None,
        slot: None,
    }
}

/// Compile-safe bounded-span sources covering all three array modes.
const POOL: [&str; 8] = [
    "abc", "a[ab]c", "ab", "ba+c", "c{3,9}a", "a.{2,6}b", "cab", "b[abc]a",
];

fn arb_sources() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..POOL.len(), 1..4)
}

/// 2–4 resident tenants, a replacement, which resident leaves, and a
/// swap-point selector.
fn arb_swap() -> impl Strategy<Value = (Vec<Vec<usize>>, Vec<usize>, usize, usize)> {
    (
        prop::collection::vec(arb_sources(), 2..5),
        arb_sources(),
        0..4usize,
        0..121usize,
    )
}

fn build(tenancies: &[Vec<usize>]) -> Vec<Owned> {
    tenancies
        .iter()
        .enumerate()
        .map(|(i, picks)| {
            let sources: Vec<&str> = picks.iter().map(|&p| POOL[p]).collect();
            owned(format!("tenant-{}", (b'z' - i as u8) as char), &sources)
        })
        .collect()
}

fn arb_input() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        prop_oneof![4 => Just(b'a'), 4 => Just(b'b'), 4 => Just(b'c'), 1 => Just(b'x')],
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Certified swaps keep every staying tenant's match stream
    /// bit-identical to an unswapped run, and make the replacement
    /// bit-identical to a cold re-admitted composition over the suffix.
    #[test]
    fn executed_swaps_preserve_staying_and_cold_equivalence(
        scenario in arb_swap(),
        input in arb_input(),
    ) {
        let (tenancies, replacement, leave, at) = scenario;
        let arch = ArchConfig::default();
        let solos = build(&tenancies);
        let views: Vec<Tenant<'_>> = solos.iter().map(view).collect();
        let analysis = admit(&views, &arch, &AdmitOptions::default());
        let resident = analysis.composed.as_ref().expect("auto fabric admits");

        let sources: Vec<&str> = replacement.iter().map(|&p| POOL[p]).collect();
        let incoming = owned("tenant-incoming".to_string(), &sources);
        let outgoing = resident.tenants[leave % resident.tenants.len()].name.clone();
        let swap = analyze_swap(resident, &outgoing, &view(&incoming), &arch, &SwapOptions::default());

        let Some(plan) = &swap.plan else {
            // Every rejection carries at least one Q finding.
            prop_assert!(!swap.report.is_empty(), "rejected swap with no finding");
            return Ok(());
        };
        // Staying tenants keep their slots and match-ID ranges; the
        // replacement inherits the outgoing tenant's match-ID base.
        let summary = |name: &str| {
            plan.composed
                .tenants
                .iter()
                .find(|t| t.name == name)
                .expect("tenant is in the certificate")
        };
        for before in resident.tenants.iter().filter(|t| t.name != outgoing) {
            let after = summary(&before.name);
            prop_assert_eq!(&after.slots, &before.slots, "{} moved", &before.name);
            prop_assert_eq!(after.match_ids, before.match_ids, "{} renumbered", &before.name);
        }
        let leaving = resident
            .tenants
            .iter()
            .find(|t| t.name == outgoing)
            .expect("outgoing tenant is resident");
        prop_assert_eq!(summary("tenant-incoming").match_ids.0, leaving.match_ids.0);
        // One first-slot pin per tenant suffices: admission and swap
        // both hand every tenant a contiguous run of slots.
        for t in resident.tenants.iter().chain(&plan.composed.tenants) {
            prop_assert!(
                t.slots.windows(2).all(|w| w[1] == w[0] + 1),
                "{} holds non-contiguous slots {:?}", &t.name, &t.slots
            );
        }

        let swap_at = at % (input.len() + 1);
        let exec = execute(plan, resident, &input, swap_at, Machine::Rap);

        // Staying tenants: bit-identical to the unswapped resident run.
        let unswapped = rap_sim::simulate(
            &resident.images, &resident.mapping, &input, Machine::Rap,
        );
        for (name, got) in &exec.staying {
            let idx = resident
                .tenants
                .iter()
                .position(|t| &t.name == name)
                .expect("staying tenant is resident");
            let want = resident.tenant_matches(idx, &unswapped.matches);
            prop_assert_eq!(
                got, &want,
                "staying tenant {} observed the swap", name
            );
        }

        // Replacement: bit-identical to a cold re-admitted composition
        // over the post-swap suffix.
        let mut cold_views: Vec<Tenant<'_>> = solos
            .iter()
            .filter(|o| o.name != outgoing)
            .map(view)
            .collect();
        cold_views.push(view(&incoming));
        let cold_analysis = admit(&cold_views, &arch, &AdmitOptions::default());
        let cold = cold_analysis.composed.as_ref().expect("cold fabric admits");
        let cold_run = rap_sim::simulate(
            &cold.images, &cold.mapping, &input[swap_at..], Machine::Rap,
        );
        let cold_idx = cold
            .tenants
            .iter()
            .position(|t| t.name == "tenant-incoming")
            .expect("replacement admitted cold");
        let mut want = cold.tenant_matches(cold_idx, &cold_run.matches);
        for m in &mut want {
            m.end += swap_at;
        }
        prop_assert_eq!(&exec.incoming, &want, "replacement diverges from cold admission");

        // The outgoing tenant never reports past the swap point.
        prop_assert!(exec.outgoing.iter().all(|m| m.end <= swap_at));
    }

    /// Unboundable or unplaceable swaps are rejected with Q findings,
    /// never silently certified.
    #[test]
    fn rejections_always_carry_findings(
        picks in arb_sources(),
        input_len in 0..64usize,
    ) {
        let _ = input_len;
        let arch = ArchConfig::default();
        let a = owned("tenant-a".to_string(), &["abc"]);
        // Unbounded span: no drain certificate can exist.
        let b = owned("tenant-b".to_string(), &["a.*b"]);
        let views = [view(&a), view(&b)];
        let analysis = admit(&views, &arch, &AdmitOptions::default());
        let resident = analysis.composed.as_ref().expect("admits");
        let sources: Vec<&str> = picks.iter().map(|&p| POOL[p]).collect();
        let incoming = owned("tenant-incoming".to_string(), &sources);
        let swap = analyze_swap(
            resident, "tenant-b", &view(&incoming), &arch, &SwapOptions::default(),
        );
        prop_assert!(!swap.certified());
        prop_assert!(
            !swap.report.by_rule(rap_swap::Rule::DrainUnbounded).is_empty(),
            "unbounded outgoing span must raise Q005"
        );
    }
}
