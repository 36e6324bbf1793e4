//! Differential test harness for the exact state-collapse machinery.
//!
//! The active-clock reduction (`SearchOptions::active_clock_reduction`, on by
//! default) resets clocks that the static inactivity analysis proves dead to
//! a canonical value before states are stored.  It is *claimed* to be exact —
//! verdict-, supremum- and WCRT-preserving — and this harness is the proof
//! obligation: for a corpus of pseudo-randomly generated architectures plus
//! the Fischer, TDMA and burst fixtures, every analysis is run twice, with
//! the reduction on and off, and the results must be identical.  The state
//! counts, on the other hand, must show the reduction actually firing (fewer
//! or equally many stored states, a non-zero elimination count) — a reduction
//! that never fires would pass any differential check vacuously.
//!
//! The answers are compared under the default store and so are the
//! elimination counts, but the stored-state comparisons run under
//! [`StorageKind::Flat`]: there pinning dead clocks is the only dead-clock
//! abstraction.  The default store subsumes by aLU simulation, under which a
//! dead clock never decides a subsumption anyway, so pinning no longer
//! shrinks it (it keeps exact merging effective instead) and its counts on
//! and off are incomparable, e.g. 2,784 vs 2,522 on the burst fixture.
//!
//! Since PR 4 the same obligation covers the state-*storage* subsystem
//! (`SearchOptions::storage`): the plain flat antichain store (the reference
//! oracle), the default federation store with eviction and exact convex
//! merging, and the sharded concurrent store of the parallel
//! checker must agree on every WCRT, lower bound, deadline verdict and clock
//! supremum across the whole corpus and all fixtures (see
//! `storage_backends_agree_*` below).

mod common;

use common::{burst_model, random_model, tdma_model};
use tempo::arch::prelude::*;
use tempo::check::{Explorer, SearchOptions, TargetSpec};

fn cfg(reduction: bool) -> AnalysisConfig {
    reduction_cfg(StorageKind::default(), reduction)
}

fn reduction_cfg(storage: StorageKind, reduction: bool) -> AnalysisConfig {
    AnalysisConfig {
        search: SearchOptions {
            storage,
            active_clock_reduction: reduction,
            ..SearchOptions::default()
        },
        ..AnalysisConfig::default()
    }
}

/// Analysis configuration for one of the three storage backends: flat
/// sequential, federation sequential, or sharded (parallel checker, with the
/// per-shard backend following `storage`).
fn storage_cfg(storage: StorageKind, sharded: bool) -> AnalysisConfig {
    AnalysisConfig {
        search: SearchOptions {
            storage,
            ..SearchOptions::default()
        },
        parallel: sharded.then(|| ParallelOptions::with_workers(4)),
        ..AnalysisConfig::default()
    }
}

/// Every storage backend the differential harness compares.
fn storage_matrix() -> Vec<(&'static str, AnalysisConfig)> {
    vec![
        ("flat", storage_cfg(StorageKind::Flat, false)),
        ("federation", storage_cfg(StorageKind::Federation, false)),
        ("sharded-flat", storage_cfg(StorageKind::Flat, true)),
        ("sharded-federation", storage_cfg(StorageKind::Federation, true)),
    ]
}

/// Asserts that all storage backends agree with the flat baseline on
/// everything a user can observe for `requirement`, and returns the flat and
/// federation stored-state counts and the federation's merged-zone count.
fn assert_storage_backends_match(
    model: &ArchitectureModel,
    requirement: &str,
) -> (usize, usize, usize) {
    let mut baseline: Option<WcrtReport> = None;
    let mut counts = (0usize, 0usize, 0usize);
    for (label, cfg) in storage_matrix() {
        let report = Session::new(model, cfg)
            .and_then(|s| s.wcrt(requirement))
            .unwrap_or_else(|e| panic!("{}/{requirement} with {label}: {e}", model.name));
        match label {
            "flat" => counts.0 = report.stats.stored_cumulative,
            "federation" => {
                counts.1 = report.stats.stored_cumulative;
                counts.2 = report.stats.zones_merged;
            }
            _ => {}
        }
        match &baseline {
            None => baseline = Some(report),
            Some(base) => {
                assert_eq!(
                    base.wcrt, report.wcrt,
                    "{}/{requirement}: WCRT differs between flat and {label}",
                    model.name
                );
                assert_eq!(
                    base.lower_bound, report.lower_bound,
                    "{}/{requirement}: lower bound differs between flat and {label}",
                    model.name
                );
                assert_eq!(
                    base.meets_deadline, report.meets_deadline,
                    "{}/{requirement}: deadline verdict differs between flat and {label}",
                    model.name
                );
            }
        }
    }
    counts
}

/// Asserts that the two analyses of `requirement` agree on everything a user
/// can observe, and returns the (reduced, unreduced) stored-state counts of
/// the flat store.
fn assert_requirement_matches(model: &ArchitectureModel, requirement: &str) -> (usize, usize) {
    let on = Session::new(model, cfg(true))
        .and_then(|s| s.wcrt(requirement))
        .unwrap_or_else(|e| panic!("{}/{requirement} with reduction: {e}", model.name));
    let off = Session::new(model, cfg(false))
        .and_then(|s| s.wcrt(requirement))
        .unwrap_or_else(|e| panic!("{}/{requirement} without reduction: {e}", model.name));
    assert_eq!(
        on.wcrt, off.wcrt,
        "{}/{requirement}: WCRT differs with reduction on vs off",
        model.name
    );
    assert_eq!(
        on.lower_bound, off.lower_bound,
        "{}/{requirement}: lower bound differs",
        model.name
    );
    assert_eq!(
        on.meets_deadline, off.meets_deadline,
        "{}/{requirement}: deadline verdict differs",
        model.name
    );
    assert_eq!(off.stats.clocks_eliminated, 0);
    let stored = |reduction: bool| {
        Session::new(model, reduction_cfg(StorageKind::Flat, reduction))
            .and_then(|s| s.wcrt(requirement))
            .unwrap_or_else(|e| panic!("{}/{requirement} with flat storage: {e}", model.name))
    };
    let (on, off) = (stored(true), stored(false));
    assert!(
        on.stats.stored_cumulative <= off.stats.stored_cumulative,
        "{}/{requirement}: reduction stored more states ({} vs {})",
        model.name,
        on.stats.stored_cumulative,
        off.stats.stored_cumulative
    );
    (on.stats.stored_cumulative, off.stats.stored_cumulative)
}

#[test]
fn generated_architecture_corpus_verdicts_match() {
    let mut reduced_ever_smaller = false;
    for seed in 0..8u64 {
        let model = random_model(seed);
        for req in ["r0", "r1"] {
            let (on, off) = assert_requirement_matches(&model, req);
            if on < off {
                reduced_ever_smaller = true;
            }
        }
    }
    assert!(
        reduced_ever_smaller,
        "the reduction never shrank any corpus state space — it is not firing"
    );
}

#[test]
fn fischer_verdicts_and_state_space_match() {
    // Fischer's mutual exclusion (shared fixture from `tempo_bench`): safety
    // verdict and full state-space size, built directly at the TA level.
    let sys = tempo_bench::fischer(3, true);
    let in_cs = |i: usize| TargetSpec::location(&sys, &format!("P{}", i + 1), "cs").unwrap();
    let mut sizes = Vec::new();
    let mut verdicts = Vec::new();
    for reduction in [true, false] {
        let ex = Explorer::new(
            &sys,
            SearchOptions {
                active_clock_reduction: reduction,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        // Mutual exclusion: no two processes in the critical section.
        let mut violation_reachable = false;
        for a in 0..3 {
            for b in (a + 1)..3 {
                let both = TargetSpec::location(&sys, &format!("P{}", a + 1), "cs")
                    .unwrap()
                    .and_location(&sys, &format!("P{}", b + 1), "cs")
                    .unwrap();
                violation_reachable |= ex.check_reachable(&both).unwrap().reachable;
            }
        }
        // Each process can individually enter the critical section.
        let single = ex.check_reachable(&in_cs(0)).unwrap().reachable;
        verdicts.push((violation_reachable, single));
        let stats = ex.explore(|_| {}).unwrap();
        if reduction {
            assert!(stats.clocks_eliminated > 0, "reduction did not fire on Fischer");
        }
        let flat = Explorer::new(
            &sys,
            SearchOptions {
                storage: StorageKind::Flat,
                active_clock_reduction: reduction,
                ..SearchOptions::default()
            },
        )
        .unwrap();
        sizes.push(flat.explore(|_| {}).unwrap().stored_cumulative);
    }
    assert_eq!(verdicts[0], verdicts[1]);
    assert_eq!(verdicts[0], (false, true));
    assert!(
        sizes[0] <= sizes[1],
        "reduction stored more states: {} vs {}",
        sizes[0],
        sizes[1]
    );
}

#[test]
fn tdma_fixture_matches() {
    let m = tdma_model();
    for req in ["r0", "r1"] {
        assert_requirement_matches(&m, req);
    }
}

#[test]
fn burst_fixture_matches() {
    let m = burst_model();
    let (on, off) = assert_requirement_matches(&m, "lo-e2e");
    assert!(
        on < off,
        "the burst environment should leave dead clocks to eliminate ({on} vs {off})"
    );
}

/// The storage differential over the pseudo-random corpus: flat, federation
/// and sharded (parallel, both per-shard backends) stores must produce
/// identical WCRTs, lower bounds and deadline verdicts — and the federation
/// store's exact convex merging and stale-state skipping must each
/// actually fire somewhere (fewer stored states than flat at least once, a
/// merged zone at least once), or the differential is vacuous.  The plain
/// flat store never merges, so agreement with it is the exactness proof of
/// merging too.
#[test]
fn storage_backends_agree_on_generated_corpus() {
    let mut federation_ever_smaller = false;
    let mut merges_seen = false;
    for seed in 0..8u64 {
        let model = random_model(seed);
        for req in ["r0", "r1"] {
            let (flat, federation, merged) = assert_storage_backends_match(&model, req);
            if federation < flat {
                federation_ever_smaller = true;
            }
            merges_seen |= merged > 0;
        }
    }
    assert!(
        federation_ever_smaller,
        "federation storage never stored fewer states than flat on the corpus"
    );
    assert!(merges_seen, "exact zone merging never fired on the corpus");
}

/// The storage differential over the TDMA and burst fixtures.  The burst
/// fixture is the paper's intractable corner scaled down: the federation
/// store must beat flat storage there, strictly.
#[test]
fn storage_backends_agree_on_tdma_and_burst_fixtures() {
    let tdma = tdma_model();
    for req in ["r0", "r1"] {
        assert_storage_backends_match(&tdma, req);
    }
    let burst = burst_model();
    let (flat, federation, _) = assert_storage_backends_match(&burst, "lo-e2e");
    assert!(
        federation < flat,
        "union-coverage subsumption should shrink the burst fixture ({federation} vs {flat})"
    );
}

/// The storage differential on Fischer, at the TA level: safety verdicts,
/// per-process reachability and clock suprema across all three stores, both
/// sequential and parallel.
#[test]
fn storage_backends_agree_on_fischer() {
    let sys = tempo_bench::fischer(3, true);
    let x0 = sys.clock_by_name("x0").unwrap();
    let req = TargetSpec::location(&sys, "P1", "req").unwrap();
    let cs = TargetSpec::location(&sys, "P1", "cs").unwrap();
    let violation = TargetSpec::location(&sys, "P1", "cs")
        .unwrap()
        .and_location(&sys, "P2", "cs")
        .unwrap();
    let mut verdicts = Vec::new();
    for storage in [StorageKind::Flat, StorageKind::Federation] {
        let ex = Explorer::new(&sys, SearchOptions::with_storage(storage)).unwrap();
        let seq_sup = ex.sup_clock_at(&req, x0, 1_000).unwrap().exact_value();
        let par = ParallelOptions::with_workers(4);
        let par_sup = ex
            .par_sup_clock_at(&req, x0, 1_000, &par)
            .unwrap()
            .exact_value();
        assert_eq!(seq_sup, par_sup, "{storage:?}: parallel sup differs");
        verdicts.push((
            seq_sup,
            ex.check_reachable(&cs).unwrap().reachable,
            ex.check_reachable(&violation).unwrap().reachable,
            ex.par_check_reachable(&violation, &par).unwrap().reachable,
        ));
    }
    assert_eq!(verdicts[0], verdicts[1], "flat and federation disagree");
    assert_eq!(verdicts[0].0, Some(2)); // sup x0 at req = K
    assert!(verdicts[0].1);
    assert!(!verdicts[0].2 && !verdicts[0].3);
}

/// One quick-workload case-study column end to end: the sp column of the
/// AddressLookup row, exact on both sides and strictly smaller when reduced.
#[test]
fn case_study_sp_column_matches() {
    let mut params = CaseStudyParams::default();
    params.volume_period = params.volume_period * 8;
    params.lookup_period = params.lookup_period * 8;
    let model = radio_navigation(
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Sporadic,
        &params,
    );
    let (on, off) = assert_requirement_matches(&model, "AddressLookup (+ HandleTMC)");
    assert!(
        on < off,
        "reduction should shrink the sp column ({on} vs {off})"
    );
}
