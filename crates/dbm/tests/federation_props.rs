//! Property-based tests for the federation operations behind the checker's
//! federation state store (`Federation::{add_merging, absorb_convex}`).
//!
//! Both must be *exact*: a rejected newcomer lies inside a single member,
//! and eviction and merging compact the stored representation without
//! adding or losing a valuation — an unsound step would silently drop
//! reachable states from the exploration or explore unreachable ones.

use proptest::prelude::*;
use tempo_dbm::{Bound, Clock, Dbm, Federation, Relation};

const NUM_CLOCKS: usize = 2;

/// One symbolic operation applied while generating a random zone (same
/// op-sequence generator as `proptests.rs`, with smaller constants so that
/// federations of a few zones overlap, include and merge with each other
/// often).
#[derive(Clone, Debug)]
enum Op {
    Up,
    UpperBound { clock: u32, value: i64, strict: bool },
    LowerBound { clock: u32, value: i64, strict: bool },
    Diff { a: u32, b: u32, value: i64, strict: bool },
    Reset { clock: u32, value: i64 },
    Free { clock: u32 },
}

fn clock_idx() -> impl Strategy<Value = u32> {
    1..=(NUM_CLOCKS as u32)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Up),
        (clock_idx(), 0i64..12, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::UpperBound { clock, value, strict }),
        (clock_idx(), 0i64..12, any::<bool>())
            .prop_map(|(clock, value, strict)| Op::LowerBound { clock, value, strict }),
        (clock_idx(), clock_idx(), -8i64..8, any::<bool>())
            .prop_map(|(a, b, value, strict)| Op::Diff { a, b, value, strict }),
        (clock_idx(), 0i64..8).prop_map(|(clock, value)| Op::Reset { clock, value }),
        clock_idx().prop_map(|clock| Op::Free { clock }),
    ]
}

fn apply(z: &mut Dbm, op: &Op) {
    match *op {
        Op::Up => {
            z.up();
        }
        Op::UpperBound { clock, value, strict } => {
            z.constrain(Clock(clock), Clock::REF, Bound::new(value, strict));
        }
        Op::LowerBound { clock, value, strict } => {
            z.constrain(Clock::REF, Clock(clock), Bound::new(-value, strict));
        }
        Op::Diff { a, b, value, strict } => {
            if a != b {
                z.constrain(Clock(a), Clock(b), Bound::new(value, strict));
            }
        }
        Op::Reset { clock, value } => {
            z.reset(Clock(clock), value);
        }
        Op::Free { clock } => {
            z.free(Clock(clock));
        }
    }
}

fn random_zone() -> impl Strategy<Value = Dbm> {
    proptest::collection::vec(op_strategy(), 0..10).prop_map(|ops| {
        let mut z = Dbm::zero(NUM_CLOCKS);
        for op in &ops {
            apply(&mut z, op);
        }
        z
    })
}

fn random_federation() -> impl Strategy<Value = Federation> {
    proptest::collection::vec(random_zone(), 0..5).prop_map(|zones| {
        let mut f = Federation::empty(NUM_CLOCKS);
        for z in zones {
            f.add(z);
        }
        f
    })
}

fn valuation() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(0i64..15, NUM_CLOCKS).prop_map(|mut v| {
        v.insert(0, 0);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `add_merging` rejects exactly the zones a single member includes
    /// (changing nothing), and otherwise stores the (possibly grown) zone
    /// with every count accounted for, preserving federation ∪ candidate at
    /// every sampled point and keeping the members an inclusion antichain.
    #[test]
    fn add_merging_is_exact_member_inclusion(f in random_federation(), z in random_zone(),
                                             budget in 0usize..4, v in valuation()) {
        let before = f.contains_point(&v) || z.contains_point(&v);
        let included = z.is_empty() || f.iter().any(|m| m.includes(&z));
        let mut g = f.clone();
        let mut zone = z.clone();
        match g.add_merging(&mut zone, budget) {
            None => {
                prop_assert!(included);
                prop_assert_eq!(&g, &f);
            }
            Some((evicted, absorbed)) => {
                prop_assert!(!included);
                prop_assert_eq!(g.size() + evicted + absorbed, f.size() + 1);
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
    fn absorb_convex_preserves_the_union(f in random_federation(), z in random_zone(),
                                         v in valuation()) {
        let before = f.contains_point(&v) || z.contains_point(&v);
        let mut g = f.clone();
        let mut zone = z.clone();
        let absorbed = g.absorb_convex(&mut zone, 16);
        prop_assert_eq!(g.size() + absorbed, f.size());
        let after = g.contains_point(&v) || zone.contains_point(&v);
        prop_assert_eq!(after, before);
        // The grown zone still includes the original candidate.
        if !z.is_empty() {
            prop_assert!(zone.includes(&z));
        }
    }
}
