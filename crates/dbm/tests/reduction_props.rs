//! Property-based tests for the dead-clock projection operations backing the
//! checker's active-clock reduction (`free_clock`, `reset_to_canonical`,
//! `restrict_to_active`): they must preserve the canonical form, be
//! idempotent, and be monotone with respect to zone inclusion — the three
//! laws the passed-list subsumption of the explorer relies on.

mod common;

use common::{apply, clock_idx, op_strategy, random_zone, Space};
use proptest::prelude::*;
use tempo_dbm::{Bound, Clock, Dbm, Relation};

/// The same zones as `proptests.rs`.
const SPACE: Space = Space { clocks: 3, bound: 50, diff: 30, reset: 20, ops: 12 };

/// `a` with its facet `xi − xj ≺ c` moved outward by `push`, then cut back
/// to `xi − xj ≻ c + shift` (`≻` strict or not): when the two overlap or
/// touch across the old facet, their union is exactly the moved zone —
/// convex, and `try_merge` must accept the pair.  Otherwise a gap, possibly
/// a single hyperplane, may open.  The flag is `true` when the pair must
/// merge.
fn facet_moved(
    a: Dbm,
    (i, j): (u32, u32),
    push: i64,
    shift: i64,
    strict_cut: bool,
) -> (Dbm, Dbm, bool) {
    let facet = a.get(Clock(i), Clock(j));
    if a.is_empty() || i == j || facet.is_infinity() {
        return (a.clone(), a, true);
    }
    let c = facet.constant();
    let mut moved_facet = Bound::new(c + push, facet.is_strict());
    if i == 0 {
        // A lower bound: keep the clock non-negative.
        moved_facet = moved_facet.min(Bound::LE_ZERO);
    }
    let mut b = a.clone();
    b.set_raw(Clock(i), Clock(j), moved_facet);
    b.close();
    b.constrain(Clock(j), Clock(i), Bound::new(-(c + shift), strict_cut));
    let covers_the_facet = shift < 0 || (shift == 0 && !(facet.is_strict() && strict_cut));
    (a, b, covers_the_facet)
}

/// A full-dimensional zone: a box with random bounds and strictness, then
/// one random operation (often a diagonal cut) — unlike most op-sequence
/// zones, every facet of it bounds something.
fn random_box() -> impl Strategy<Value = Dbm> {
    let side = (0i64..20, 1i64..20, any::<bool>());
    (proptest::collection::vec(side, SPACE.clocks), op_strategy(SPACE)).prop_map(|(sides, op)| {
        let mut z = Dbm::universe(SPACE.clocks);
        for (k, &(lo, width, strict)) in sides.iter().enumerate() {
            let x = Clock(k as u32 + 1);
            z.constrain(Clock::REF, x, Bound::new(-lo, strict));
            z.constrain(x, Clock::REF, Bound::new(lo + width, strict));
        }
        apply(&mut z, &op);
        z
    })
}

/// Operand pairs for `try_merge`: independent random zones, which almost
/// never merge, and [`facet_moved`] boxes, which mostly do.
fn merge_pair() -> impl Strategy<Value = (Dbm, Dbm, bool)> {
    let index = 0..=(SPACE.clocks as u32);
    prop_oneof![
        1 => (random_zone(SPACE), random_zone(SPACE)).prop_map(|(a, b)| (a, b, false)),
        3 => (random_box(), (index.clone(), index), (1i64..6, -2i64..2, any::<bool>())).prop_map(
            |(a, facet, (push, shift, strict))| facet_moved(a, facet, push, shift, strict),
        ),
    ]
}

/// An activity mask over the reference clock + SPACE.clocks real clocks.
fn active_mask() -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), SPACE.clocks + 1)
}

fn is_canonical(z: &Dbm) -> bool {
    let mut closed = z.clone();
    closed.close();
    closed.relation(z) == Relation::Equal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// All three projection ops keep the matrix canonical (re-closing is a
    /// no-op afterwards).
    #[test]
    fn projection_ops_preserve_canonical_form(z in random_zone(SPACE),
                                              clock in clock_idx(SPACE),
                                              mask in active_mask()) {
        let mut r = z.clone();
        r.reset_to_canonical(Clock(clock));
        prop_assert!(is_canonical(&r));
        let mut f = z.clone();
        f.free_clock(Clock(clock));
        prop_assert!(is_canonical(&f));
        let mut m = z.clone();
        m.restrict_to_active(&mask);
        prop_assert!(is_canonical(&m));
    }

    /// The ops are idempotent: applying them twice equals applying them once.
    #[test]
    fn projection_ops_are_idempotent(z in random_zone(SPACE),
                                     clock in clock_idx(SPACE),
                                     mask in active_mask()) {
        let mut once = z.clone();
        once.reset_to_canonical(Clock(clock));
        let mut twice = once.clone();
        twice.reset_to_canonical(Clock(clock));
        prop_assert_eq!(&once, &twice);

        let mut fonce = z.clone();
        fonce.free_clock(Clock(clock));
        let mut ftwice = fonce.clone();
        ftwice.free_clock(Clock(clock));
        prop_assert_eq!(&fonce, &ftwice);

        let mut monce = z.clone();
        monce.restrict_to_active(&mask);
        let mut mtwice = monce.clone();
        mtwice.restrict_to_active(&mask);
        prop_assert_eq!(&monce, &mtwice);
    }

    /// Monotonicity w.r.t. zone inclusion: if `a ⊆ b` then `op(a) ⊆ op(b)`.
    /// This is what makes the reduction compatible with the passed list's
    /// inclusion subsumption.
    #[test]
    fn projection_ops_are_monotone(a in random_zone(SPACE), b in random_zone(SPACE),
                                   clock in clock_idx(SPACE), mask in active_mask()) {
        if b.includes(&a) {
            let (mut ra, mut rb) = (a.clone(), b.clone());
            ra.reset_to_canonical(Clock(clock));
            rb.reset_to_canonical(Clock(clock));
            prop_assert!(rb.includes(&ra));

            let (mut fa, mut fb) = (a.clone(), b.clone());
            fa.free_clock(Clock(clock));
            fb.free_clock(Clock(clock));
            prop_assert!(fb.includes(&fa));

            let (mut ma, mut mb) = (a.clone(), b.clone());
            ma.restrict_to_active(&mask);
            mb.restrict_to_active(&mask);
            prop_assert!(mb.includes(&ma));
        }
    }

    /// `restrict_to_active` is exactly the sequential canonicalization of
    /// every dead clock, and it reports their number.
    #[test]
    fn restrict_matches_per_clock_resets(z in random_zone(SPACE), mask in active_mask()) {
        let mut restricted = z.clone();
        let eliminated = restricted.restrict_to_active(&mask);
        let mut manual = z.clone();
        let mut expected = 0;
        for (i, active) in mask.iter().enumerate().take(SPACE.clocks + 1).skip(1) {
            if !active {
                manual.reset_to_canonical(Clock(i as u32));
                expected += 1;
            }
        }
        prop_assert_eq!(&restricted, &manual);
        if z.is_empty() {
            prop_assert_eq!(eliminated, 0);
        } else {
            prop_assert_eq!(eliminated, expected);
        }
    }

    /// `reset_to_canonical` equals projecting the clock away and pinning it:
    /// `free_clock(x); x ≤ 0` — the two formulations of "the dead value does
    /// not matter".
    #[test]
    fn reset_to_canonical_is_free_then_pin(z in random_zone(SPACE), clock in clock_idx(SPACE)) {
        let mut direct = z.clone();
        direct.reset_to_canonical(Clock(clock));
        let mut via_free = z.clone();
        via_free.free_clock(Clock(clock));
        via_free.constrain(Clock(clock), Clock::REF, Bound::weak(0));
        prop_assert_eq!(direct.relation(&via_free), Relation::Equal);
    }

    /// `subtract` computes the exact set difference (up to the integer grid
    /// probed here): a point lies in some piece iff it lies in the minuend
    /// but not the subtrahend.
    #[test]
    fn subtract_is_set_difference(a in random_zone(SPACE), b in random_zone(SPACE),
                                  v in proptest::collection::vec(0i64..60, SPACE.clocks)) {
        let pieces = a.subtract(&b);
        let mut point = v.clone();
        point.insert(0, 0);
        let in_pieces = pieces.iter().any(|p| p.contains_point(&point));
        let expected = a.contains_point(&point) && !b.contains_point(&point);
        prop_assert_eq!(in_pieces, expected);
        // Every piece stays canonical.
        for p in &pieces {
            let mut closed = p.clone();
            closed.close();
            prop_assert_eq!(closed.relation(p), Relation::Equal);
        }
    }

    /// `try_merge` is exact: when it succeeds the hull contains precisely the
    /// union of the operands; when it fails the hull genuinely adds points
    /// (soundness of the convexity check is what the checker's exact zone
    /// merging relies on), and pairs built to merge always do.
    #[test]
    fn try_merge_is_exact_union(pair in merge_pair(),
                                v in proptest::collection::vec(0i64..60, SPACE.clocks)) {
        let (a, b, must_merge) = pair;
        let mut point = v.clone();
        point.insert(0, 0);
        prop_assert!(!must_merge || a.try_merge(&b).is_some(), "{} and {} must merge", a, b);
        let hull = a.convex_hull(&b);
        prop_assert!(hull.includes(&a) && hull.includes(&b));
        match a.try_merge(&b) {
            Some(merged) => {
                prop_assert_eq!(merged.relation(&hull), Relation::Equal);
                prop_assert_eq!(
                    merged.contains_point(&point),
                    a.contains_point(&point) || b.contains_point(&point)
                );
            }
            None => {
                // The union is not convex: the hull strictly exceeds it, so
                // the merged zone would have over-approximated.  (No point
                // witness is guaranteed to lie on the integer grid, so only
                // the implication hull ⊋ a ∪ b is checked via subtraction.)
                let beyond_a = hull.subtract(&a);
                prop_assert!(beyond_a.iter().any(|p| !b.includes(p)));
            }
        }
    }

    /// Canonicalizing a dead clock never changes emptiness, and the result
    /// depends only on the projection onto the other clocks: every member
    /// valuation has the dead clock at 0, and any member of the original
    /// zone stays a member after zeroing that coordinate.
    #[test]
    fn reset_to_canonical_projects(z in random_zone(SPACE), clock in clock_idx(SPACE),
                                   v in proptest::collection::vec(0i64..60, SPACE.clocks)) {
        let mut r = z.clone();
        r.reset_to_canonical(Clock(clock));
        prop_assert_eq!(r.is_empty(), z.is_empty());
        let mut point = v.clone();
        point.insert(0, 0);
        if r.contains_point(&point) {
            prop_assert_eq!(point[clock as usize], 0);
        }
        if z.contains_point(&point) {
            let mut zeroed = point.clone();
            zeroed[clock as usize] = 0;
            prop_assert!(r.contains_point(&zeroed));
        }
    }
}
