//! Property-based tests for the federation operations behind the checker's
//! federation state store (`Federation::{add_merging, absorb_convex}`).
//!
//! Both must be *exact*: a rejected newcomer lies inside a single member,
//! and eviction and merging compact the stored representation without
//! adding or losing a valuation — an unsound step would silently drop
//! reachable states from the exploration or explore unreachable ones.

mod common;

use common::{random_zone, valuation, Space};
use proptest::prelude::*;
use tempo_dbm::{Federation, Relation};

/// Smaller constants than `proptests.rs`, so that federations of a few zones
/// overlap, include and merge with each other often.
const SPACE: Space = Space { clocks: 2, bound: 12, diff: 8, reset: 8, ops: 10 };

fn random_federation() -> impl Strategy<Value = Federation> {
    proptest::collection::vec(random_zone(SPACE), 0..5).prop_map(|zones| {
        let mut f = Federation::empty(SPACE.clocks);
        for z in zones {
            f.add(z);
        }
        f
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `add_merging` rejects exactly the zones a single member includes
    /// (changing nothing), and otherwise stores the (possibly grown) zone
    /// with every count accounted for, preserving federation ∪ candidate at
    /// every sampled point and keeping the members an inclusion antichain.
    #[test]
    fn add_merging_is_exact_member_inclusion(f in random_federation(), z in random_zone(SPACE),
                                             budget in 0usize..4, v in valuation(SPACE, 15)) {
        let before = f.contains_point(&v) || z.contains_point(&v);
        let included = z.is_empty() || f.iter().any(|m| m.includes(&z));
        let mut g = f.clone();
        let mut zone = z.clone();
        // Unbounded LU bounds: subsumption is plain inclusion.
        let mut removed = Vec::new();
        match g.add_merging(&mut zone, 7, (&[], &[]), budget, &mut removed) {
            None => {
                prop_assert!(included);
                prop_assert_eq!(&g, &f);
                prop_assert!(removed.is_empty());
            }
            Some((evicted, absorbed)) => {
                prop_assert!(!included);
                prop_assert_eq!(g.size() + evicted + absorbed, f.size() + 1);
                prop_assert_eq!(removed.len(), evicted + absorbed);
                prop_assert!(g.iter().any(|m| m == &zone));
                prop_assert!(zone.includes(&z));
                if budget == 0 {
                    prop_assert_eq!(absorbed, 0);
                    prop_assert_eq!(zone.relation(&z), Relation::Equal);
                }
            }
        }
        prop_assert_eq!(g.contains_point(&v), before);
        if budget == 0 {
            for (i, a) in g.iter().enumerate() {
                for (j, b) in g.iter().enumerate() {
                    prop_assert!(i == j || !a.includes(b), "member {} includes member {}", i, j);
                }
            }
        }
    }

    /// `absorb_convex` preserves the denoted set of federation ∪ candidate.
    #[test]
    fn absorb_convex_preserves_the_union(f in random_federation(), z in random_zone(SPACE),
                                         v in valuation(SPACE, 15)) {
        let before = f.contains_point(&v) || z.contains_point(&v);
        let mut g = f.clone();
        let mut zone = z.clone();
        let absorbed = g.absorb_convex(&mut zone, 16, &mut Vec::new());
        prop_assert_eq!(g.size() + absorbed, f.size());
        let after = g.contains_point(&v) || zone.contains_point(&v);
        prop_assert_eq!(after, before);
        // The grown zone still includes the original candidate.
        if !z.is_empty() {
            prop_assert!(zone.includes(&z));
        }
    }
}
