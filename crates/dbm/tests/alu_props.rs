//! Property-based tests for aLU subsumption (`Dbm::alu_included_in`), the
//! finiteness abstraction of the checker's default store.
//!
//! `Z ⊑ a≼LU(Z′)` holds iff every valuation of `Z` is LU-simulated by one of
//! `Z′`.  The store rejects a newcomer on a "yes" and evicts a member on a
//! "yes" the other way round, so a wrong "yes" would silently drop reachable
//! behaviour; a wrong "no" only costs states.  Both directions are checked
//! here against the definition, on a half-integer grid of `Z`'s valuations:
//! for each such `v` the valuations simulating it form a box, and whether
//! `Z′` meets that box is decided exactly on a DBM with doubled constants.

mod common;

use common::{apply, ops, Space};
use proptest::prelude::*;
use tempo_dbm::{Bound, Clock, Dbm};

/// A clock constant: `−∞` (`i64::MIN`, never compared), `+∞` (`i64::MAX`,
/// every value observable) or a finite constant.
fn constant() -> BoxedStrategy<i64> {
    prop_oneof![1 => Just(i64::MIN), 1 => Just(i64::MAX), 6 => 0i64..8].boxed()
}

/// `(lower, upper)` tables over `n` clocks, entry 0 (the reference clock,
/// ignored) set to 0; `finite` draws constants as ExtraLU takes them.
fn lu_bounds(n: usize, finite: bool) -> impl Strategy<Value = (Vec<i64>, Vec<i64>)> {
    let table = move || {
        let c = if finite {
            (0i64..8).boxed()
        } else {
            constant()
        };
        proptest::collection::vec(c, n).prop_map(|mut v| {
            v.insert(0, 0);
            v
        })
    };
    (table(), table())
}

/// Small constants, close to those of the LU tables, so that subsumption
/// answers often hinge on them.
fn space(clocks: usize) -> Space {
    Space {
        clocks,
        bound: 10,
        diff: 6,
        reset: 6,
        ops: 8,
    }
}

/// A pair of zones sharing a random prefix of operations, so that one often
/// includes, or LU-simulates, the other.
fn zone_pair(clocks: usize) -> impl Strategy<Value = (Dbm, Dbm)> {
    let space = space(clocks);
    (ops(space), ops(space), ops(space)).prop_map(move |(base, a, b)| {
        let mut z = Dbm::zero(clocks);
        z.up();
        base.iter().for_each(|op| apply(&mut z, op));
        let mut zp = z.clone();
        a.iter().for_each(|op| apply(&mut z, op));
        b.iter().for_each(|op| apply(&mut zp, op));
        (z, zp)
    })
}

/// `z` with every constant doubled, so half-integer valuations of `z` are
/// the integer valuations of the result.
fn doubled(z: &Dbm) -> Dbm {
    let n = z.num_clocks();
    if z.is_empty() {
        return Dbm::empty(n);
    }
    let mut d = Dbm::universe(n);
    for i in 0..=n as u32 {
        for j in 0..=n as u32 {
            let b = z.get(Clock(i), Clock(j));
            if i != j && !b.is_infinity() {
                let twice = Bound::new(2 * b.constant(), b.is_strict());
                d.set_raw(Clock(i), Clock(j), twice);
            }
        }
    }
    d.close();
    d
}

/// Is the (doubled, integer) valuation `v` of a zone LU-simulated by some
/// valuation of `zp2` (`Z′` doubled)?  The simulating valuations `v′` form a
/// box: per clock, `v′(x) < v(x)` needs `v′(x) > L_x`, and `v′(x) > v(x)`
/// needs `v(x) > U_x`.
fn simulated(zp2: &Dbm, v: &[i64], (lower, upper): (&[i64], &[i64])) -> bool {
    let mut meet = zp2.clone();
    for x in 1..v.len() {
        let c = Clock(x as u32);
        let (l, u) = (lower[x], upper[x]);
        // v(x) > U_x: any larger value simulates; otherwise none does.
        let above_u = u == i64::MIN || (u != i64::MAX && v[x] > 2 * u);
        if !above_u {
            meet.constrain(c, Clock::REF, Bound::weak(v[x]));
        }
        // Smaller values simulate iff they are above L_x.
        if l == i64::MAX || (l != i64::MIN && 2 * l >= v[x]) {
            meet.constrain(Clock::REF, c, Bound::weak(-v[x]));
        } else if l != i64::MIN {
            meet.constrain(Clock::REF, c, Bound::strict(-2 * l));
        }
    }
    !meet.is_empty()
}

/// The first half-integer valuation of `z` (doubled, up to `2·limit` per
/// clock) that no valuation of `zp` LU-simulates, if any.
fn unsimulated_point(z: &Dbm, zp: &Dbm, lu: (&[i64], &[i64]), limit: i64) -> Option<Vec<i64>> {
    let (z2, zp2) = (doubled(z), doubled(zp));
    let n = z.num_clocks();
    let mut v = vec![0i64; n + 1];
    loop {
        if z2.contains_point(&v) && !simulated(&zp2, &v, lu) {
            return Some(v);
        }
        // Next grid point, odometer-style.
        let mut k = 1;
        while k <= n {
            v[k] += 1;
            if v[k] <= 2 * limit {
                break;
            }
            v[k] = 0;
            k += 1;
        }
        if k > n {
            return None;
        }
    }
}

/// Larger than every constant of the generated zones and bounds.
const GRID_LIMIT: i64 = 24;

/// After a "yes" every grid valuation of `Z` is simulated by `Z′`, and every
/// "no" has a grid witness that no valuation of `Z′` simulates.
fn assert_agrees_on_grid(z: &Dbm, zp: &Dbm, lu: (&[i64], &[i64])) {
    let witness = unsimulated_point(z, zp, lu, GRID_LIMIT);
    let included = z.alu_included_in(zp, lu.0, lu.1);
    let context = format!("witness {witness:?}\nZ = {z}\nZ' = {zp}\nLU = {lu:?}");
    assert_eq!(included, witness.is_none(), "{context}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Plain inclusion implies aLU inclusion, and with unbounded constants
    /// aLU inclusion is plain inclusion.
    #[test]
    fn inclusion_implies_alu_inclusion(pair in zone_pair(3), lu in lu_bounds(3, false)) {
        let ((z, zp), (l, u)) = (pair, lu);
        if zp.includes(&z) {
            prop_assert!(z.alu_included_in(&zp, &l, &u));
        }
        prop_assert_eq!(z.alu_included_in(&zp, &[], &[]), zp.includes(&z));
        let unbounded = vec![i64::MAX; 4];
        prop_assert_eq!(z.alu_included_in(&zp, &unbounded, &unbounded), zp.includes(&z));
    }

    /// aLU subsumption is coarser than inclusion in the ExtraLU-extrapolated
    /// zone.
    #[test]
    fn extra_lu_inclusion_implies_alu_inclusion(pair in zone_pair(3), lu in lu_bounds(3, true)) {
        let ((z, zp), (l, u)) = (pair, lu);
        let mut extrapolated = zp.clone();
        extrapolated.extrapolate_lu(&l, &u);
        if extrapolated.includes(&z) {
            prop_assert!(z.alu_included_in(&zp, &l, &u));
        }
    }

    /// On one clock both answers agree with the definition on the
    /// half-integer grid (see [`assert_agrees_on_grid`]).
    #[test]
    fn agrees_with_simulation_on_one_clock(pair in zone_pair(1), lu in lu_bounds(1, false)) {
        assert_agrees_on_grid(&pair.0, &pair.1, (&lu.0, &lu.1));
    }

    /// The same on two clocks, where diagonal constraints take part.
    #[test]
    fn agrees_with_simulation_on_two_clocks(pair in zone_pair(2), lu in lu_bounds(2, false)) {
        assert_agrees_on_grid(&pair.0, &pair.1, (&lu.0, &lu.1));
    }

    /// A clock with `−∞` bounds never decides: freeing it in either zone
    /// changes no answer.
    #[test]
    fn dead_clocks_never_decide(pair in zone_pair(3), lu in lu_bounds(3, false), dead in 1u32..=3) {
        let ((z, zp), (mut l, mut u)) = (pair, lu);
        l[dead as usize] = i64::MIN;
        u[dead as usize] = i64::MIN;
        let answer = z.alu_included_in(&zp, &l, &u);
        let mut z_free = z.clone();
        z_free.free_clock(Clock(dead));
        let mut zp_free = zp.clone();
        zp_free.free_clock(Clock(dead));
        prop_assert_eq!(z_free.alu_included_in(&zp, &l, &u), answer);
        prop_assert_eq!(z.alu_included_in(&zp_free, &l, &u), answer);
        prop_assert_eq!(z_free.alu_included_in(&zp_free, &l, &u), answer);
    }

    /// The empty zone is subsumed by every zone and subsumes only empty
    /// zones.
    #[test]
    fn empty_zones(pair in zone_pair(3), lu in lu_bounds(3, false)) {
        let ((z, _), (l, u)) = (pair, lu);
        let empty = Dbm::empty(3);
        prop_assert!(empty.alu_included_in(&z, &l, &u));
        prop_assert_eq!(z.alu_included_in(&empty, &l, &u), z.is_empty());
        prop_assert!(empty.alu_included_in(&empty, &l, &u));
    }
}
