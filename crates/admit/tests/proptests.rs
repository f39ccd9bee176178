//! Property tests for the admission analyzer's two central contracts:
//!
//! * **Order-insensitivity** — the verdict, the findings, the fabric
//!   sizing, and the per-tenant decisions depend on the *set* of
//!   tenants, never on the order they were submitted in (the pipeline
//!   relies on this for its order-insensitive composition cache key).
//! * **Behaviour preservation** — whenever a composition is certified,
//!   simulating the composed plan and demultiplexing each tenant's
//!   matches yields exactly that tenant's solo-run matches over the
//!   same input. The certificate is checked here against the
//!   cycle-accurate simulator on random workloads and streams.

use proptest::prelude::*;
use rap_admit::{admit, AdmitOptions, Rule, Tenant};
use rap_arch::config::ArchConfig;
use rap_bound::{analyze_bounds, ArrayBound, BoundOptions};
use rap_circuit::Machine;
use rap_compiler::{Compiled, Compiler, CompilerConfig};
use rap_mapper::{map_workload, MapperConfig, Mapping};
use rap_regex::Pattern;

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

/// A small pool of compile-safe sources covering all three modes.
const POOL: [&str; 8] = [
    "abc", "a[ab]c", "ab", "ba+c", "c{3,9}a", "a.{2,6}b", "cab", "b[abc]a",
];

/// A tenant is 1–3 patterns drawn from the pool.
fn arb_sources() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..POOL.len(), 1..4)
}

/// 2–4 tenants plus a rotation/reversal describing a resubmission order.
fn arb_tenancy() -> impl Strategy<Value = (Vec<Vec<usize>>, usize, bool)> {
    (
        prop::collection::vec(arb_sources(), 2..5),
        0..4usize,
        any::<bool>(),
    )
}

fn build(tenancies: &[Vec<usize>]) -> Vec<Owned> {
    tenancies
        .iter()
        .enumerate()
        .map(|(i, picks)| {
            let sources: Vec<&str> = picks.iter().map(|&p| POOL[p]).collect();
            // Names deliberately sort differently from insertion order.
            owned(format!("tenant-{}", (b'z' - i as u8) as char), &sources)
        })
        .collect()
}

fn finding_counts(report: &rap_admit::Report) -> Vec<usize> {
    Rule::all()
        .iter()
        .map(|&r| report.by_rule(r).len())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Admission verdicts, findings, fabric sizing, and tenant summaries
    /// are invariant under resubmission order.
    #[test]
    fn admission_is_order_insensitive(
        tenancy in arb_tenancy(),
        fixed_banks in prop_oneof![Just(None), (1u32..4).prop_map(Some)],
    ) {
        let (tenancies, rot, rev) = tenancy;
        let arch = ArchConfig::default();
        let options = AdmitOptions {
            banks: fixed_banks,
            ..AdmitOptions::default()
        };
        let solos = build(&tenancies);
        let mut views: Vec<Tenant<'_>> = solos.iter().map(view).collect();
        let reference = admit(&views, &arch, &options);

        let turns = rot % views.len();
        views.rotate_left(turns);
        if rev {
            views.reverse();
        }
        let permuted = admit(&views, &arch, &options);

        prop_assert_eq!(reference.admitted(), permuted.admitted());
        prop_assert_eq!(&reference.tenants, &permuted.tenants);
        prop_assert_eq!(reference.banks, permuted.banks);
        prop_assert_eq!(reference.slots, permuted.slots);
        prop_assert_eq!(reference.total_arrays, permuted.total_arrays);
        prop_assert_eq!(reference.bv_columns, permuted.bv_columns);
        prop_assert_eq!(&reference.bank_loads, &permuted.bank_loads);
        prop_assert_eq!(
            finding_counts(&reference.report),
            finding_counts(&permuted.report)
        );
    }

    /// Every certified composition preserves per-tenant behaviour: the
    /// composed run's demultiplexed matches equal the solo runs' matches
    /// over the same random stream.
    #[test]
    fn certified_compositions_match_solo_runs(
        tenancy in arb_tenancy(),
        input in prop::collection::vec(
            prop_oneof![4 => Just(b'a'), 4 => Just(b'b'), 4 => Just(b'c'), 1 => Just(b'x')],
            0..120,
        ),
    ) {
        let (tenancies, _, _) = tenancy;
        let arch = ArchConfig::default();
        let solos = build(&tenancies);
        let views: Vec<Tenant<'_>> = solos.iter().map(view).collect();
        let analysis = admit(&views, &arch, &AdmitOptions::default());
        // Auto-sized fabrics always admit disjoint-by-construction
        // tenants drawn from the compile-safe pool.
        let composed = analysis.composed.as_ref().expect("auto fabric admits");
        let merged = rap_sim::simulate(&composed.images, &composed.mapping, &input, Machine::Rap);
        for (idx, summary) in composed.tenants.iter().enumerate() {
            let tenant = solos
                .iter()
                .find(|o| o.name == summary.name)
                .expect("summary names a tenant");
            let solo = rap_sim::simulate(&tenant.images, &tenant.mapping, &input, Machine::Rap);
            prop_assert_eq!(
                composed.tenant_matches(idx, &merged.matches),
                solo.matches,
                "tenant {} diverges from its solo run",
                summary.name
            );
        }
    }
}
