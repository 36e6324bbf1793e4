//! Federations: finite unions of DBM zones over the same clocks.
//!
//! Members form an antichain under single-zone inclusion: adding a zone that
//! some member includes changes nothing, and adding any other zone evicts
//! the members it strictly includes — one [`Dbm::relation`] per member
//! decides both.  [`Federation::add_merging`] also folds the newcomer and
//! the members it forms an exact convex union with into their hull
//! ([`Federation::absorb_convex`]), which is the passed-list discipline of
//! the checker's default federation store.  Every operation preserves the
//! denoted set of valuations exactly.

use crate::{Clock, Constraint, Dbm, Relation};
use std::fmt;

/// A finite union of zones (possibly empty) over the same set of clocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Federation {
    num_clocks: usize,
    zones: Vec<Dbm>,
}

impl Federation {
    /// The empty federation (no valuations).
    pub fn empty(num_clocks: usize) -> Federation {
        Federation {
            num_clocks,
            zones: Vec::new(),
        }
    }

    /// A federation containing a single zone.
    pub fn from_zone(zone: Dbm) -> Federation {
        let num_clocks = zone.num_clocks();
        let mut f = Federation::empty(num_clocks);
        f.add(zone);
        f
    }

    /// The federation of all non-negative valuations.
    pub fn universe(num_clocks: usize) -> Federation {
        Federation::from_zone(Dbm::universe(num_clocks))
    }

    /// Number of real clocks.
    pub fn num_clocks(&self) -> usize {
        self.num_clocks
    }

    /// Number of zones currently stored (after inclusion reduction).
    pub fn size(&self) -> usize {
        self.zones.len()
    }

    /// `true` iff the federation contains no valuation.
    pub fn is_empty(&self) -> bool {
        self.zones.is_empty()
    }

    /// Iterates over the member zones.
    pub fn iter(&self) -> impl Iterator<Item = &Dbm> {
        self.zones.iter()
    }

    /// Adds a zone, discarding it if it is empty or already included in a
    /// stored zone, and removing stored zones that it subsumes.
    ///
    /// Returns `true` if the federation grew (the zone was not subsumed).
    pub fn add(&mut self, mut zone: Dbm) -> bool {
        self.add_merging(&mut zone, 0).is_some()
    }

    /// [`Federation::add`] with exact merging: after the inclusion scan, the
    /// members `zone` forms an exact convex union with are absorbed into it
    /// ([`Federation::absorb_convex`] with `failure_budget`; `0` disables
    /// merging), so `zone` may grow in place before it is stored.
    ///
    /// Returns `None` (and changes nothing) if `zone` is empty or some member
    /// includes it, and otherwise `Some((evicted, absorbed))`: the members
    /// dropped because `zone` strictly includes them, and the members merged
    /// into it.
    pub fn add_merging(&mut self, zone: &mut Dbm, failure_budget: usize) -> Option<(usize, usize)> {
        if zone.is_empty() {
            return None;
        }
        assert_eq!(zone.num_clocks(), self.num_clocks, "dimension mismatch");
        // One relation per member decides both directions: reject the
        // newcomer if some member includes it, evict the members it
        // strictly includes.
        let mut evict = Vec::new();
        for (i, existing) in self.zones.iter().enumerate() {
            match zone.relation(existing) {
                Relation::Equal | Relation::Subset => return None,
                Relation::Superset => evict.push(i),
                Relation::Incomparable => {}
            }
        }
        for &i in evict.iter().rev() {
            self.zones.remove(i);
        }
        let absorbed = self.absorb_convex(zone, failure_budget);
        self.zones.push(zone.clone());
        Some((evict.len(), absorbed))
    }

    /// `true` iff the valuation is contained in some member zone.
    pub fn contains_point(&self, valuation: &[i64]) -> bool {
        self.zones.iter().any(|z| z.contains_point(valuation))
    }

    /// Merges `zone` with every member it forms an *exact* convex union with
    /// ([`Dbm::try_merge`], newest-first, with a budget of `failure_budget`
    /// failed attempts refreshed on every success so cascades complete),
    /// removing the absorbed members and growing `zone` to the common hull.
    /// A member inside the grown `zone` merges trivially, so members only the
    /// grown zone includes are absorbed too, within the budget.  Returns the
    /// number of members absorbed; `zone` itself is not stored (see
    /// [`Federation::add_merging`]).
    pub fn absorb_convex(&mut self, zone: &mut Dbm, failure_budget: usize) -> usize {
        let mut absorbed = 0;
        let mut budget = failure_budget;
        let mut i = self.zones.len();
        while i > 0 && budget > 0 {
            i -= 1;
            if let Some(hull) = zone.try_merge(&self.zones[i]) {
                *zone = hull;
                self.zones.swap_remove(i);
                absorbed += 1;
                budget = failure_budget;
                i = self.zones.len();
            } else {
                budget -= 1;
            }
        }
        absorbed
    }

    /// Intersects every member zone with a constraint, dropping emptied zones.
    pub fn constrain(&mut self, c: &Constraint) -> &mut Self {
        for z in &mut self.zones {
            z.and(c);
        }
        self.zones.retain(|z| !z.is_empty());
        self
    }

    /// Applies the delay operator to every member zone.
    pub fn up(&mut self) -> &mut Self {
        for z in &mut self.zones {
            z.up();
        }
        self
    }

    /// Resets a clock in every member zone.
    pub fn reset(&mut self, x: Clock, value: i64) -> &mut Self {
        for z in &mut self.zones {
            z.reset(x, value);
        }
        self
    }

    /// Union with another federation.
    pub fn union(&mut self, other: &Federation) -> &mut Self {
        for z in &other.zones {
            self.add(z.clone());
        }
        self
    }

    /// The tightest upper bound of a clock across all member zones
    /// (`∞`-aware); `None` if the federation is empty.
    pub fn sup(&self, x: Clock) -> Option<crate::Bound> {
        self.zones
            .iter()
            .map(|z| z.sup(x))
            .max_by(|a, b| a.cmp(b))
    }
}

impl fmt::Display for Federation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.zones.is_empty() {
            return write!(f, "false");
        }
        for (i, z) in self.zones.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "({z})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bound;

    fn zone_between(lo: i64, hi: i64) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(hi));
        z.constrain(Clock::REF, Clock(1), Bound::weak(-lo));
        z
    }

    #[test]
    fn empty_federation() {
        let f = Federation::empty(1);
        assert!(f.is_empty());
        assert_eq!(f.size(), 0);
        assert!(!f.contains_point(&[0, 0]));
        assert_eq!(f.sup(Clock(1)), None);
    }

    #[test]
    fn add_subsumed_zone_is_rejected() {
        let mut f = Federation::from_zone(zone_between(0, 10));
        assert!(!f.add(zone_between(2, 5)));
        assert_eq!(f.size(), 1);
        // But a zone subsuming the existing one replaces it.
        assert!(f.add(zone_between(0, 20)));
        assert_eq!(f.size(), 1);
        assert!(f.contains_point(&[0, 15]));
    }

    #[test]
    fn disjoint_zones_coexist() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        assert_eq!(f.size(), 2);
        assert!(f.contains_point(&[0, 1]));
        assert!(!f.contains_point(&[0, 3]));
        assert!(f.contains_point(&[0, 6]));
        assert_eq!(f.sup(Clock(1)), Some(Bound::weak(7)));
    }

    #[test]
    fn absorb_convex_cascades_and_respects_exactness() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 1));
        f.add(zone_between(1, 2));
        f.add(zone_between(5, 7));
        let mut zone = zone_between(2, 3);
        // [2,3] bridges [0,1]+[1,2] into [0,3]; [5,7] stays (gap).
        let absorbed = f.absorb_convex(&mut zone, 8);
        assert_eq!(absorbed, 2);
        assert_eq!(f.size(), 1);
        assert_eq!(zone.relation(&zone_between(0, 3)), Relation::Equal);
    }

    #[test]
    fn constrain_drops_emptied_members() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        f.constrain(&Constraint::upper(Clock(1), Bound::weak(3)));
        assert_eq!(f.size(), 1);
        assert!(f.contains_point(&[0, 1]));
        assert!(!f.contains_point(&[0, 6]));
    }

    #[test]
    fn union_and_up() {
        let mut f = Federation::from_zone(zone_between(0, 1));
        let g = Federation::from_zone(zone_between(10, 11));
        f.union(&g);
        assert_eq!(f.size(), 2);
        f.up();
        assert!(f.contains_point(&[0, 100]));
    }

    #[test]
    fn reset_applies_to_all_members() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 2));
        f.add(zone_between(5, 7));
        f.reset(Clock(1), 0);
        assert!(f.contains_point(&[0, 0]));
        assert!(!f.contains_point(&[0, 6]));
    }

    #[test]
    fn empty_zone_not_added() {
        let mut f = Federation::empty(1);
        assert!(!f.add(Dbm::empty(1)));
        assert!(f.is_empty());
    }
}
