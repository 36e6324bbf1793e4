//! Federations: finite unions of DBM zones over the same clocks.
//!
//! Members form an antichain under a subsumption preorder: adding a zone
//! that some member subsumes changes nothing, and adding any other zone
//! evicts the members it subsumes.  [`Federation::add_merging`] takes the
//! preorder's LU bounds: aLU subsumption ([`Dbm::alu_included_in`]) with
//! finite bounds, plain inclusion with unbounded ones — one scan over the
//! members decides both directions.  It also folds the newcomer and the
//! members it forms an exact convex union with into their hull
//! ([`Federation::absorb_convex`]), which is the passed-list discipline of
//! the checker's default federation store.  Merging never changes the
//! denoted set of valuations, and neither does anything else under plain
//! inclusion.
//!
//! Every member carries the caller's `u32` tag, and `add_merging` reports
//! the tags of the members it removed, so a caller can tell in O(1) whether
//! a zone it stored earlier is still a member.

use crate::Dbm;

/// A finite union of zones (possibly empty) over the same set of clocks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Federation {
    num_clocks: usize,
    zones: Vec<Dbm>,
    /// The caller's tag of each member, parallel to `zones`.
    tags: Vec<u32>,
}

impl Federation {
    /// The empty federation (no valuations).
    pub fn empty(num_clocks: usize) -> Federation {
        Federation {
            num_clocks,
            zones: Vec::new(),
            tags: Vec::new(),
        }
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
        self.add_merging(&mut zone, 0, (&[], &[]), 0, &mut Vec::new())
            .is_some()
    }

    /// Adds `zone` under the member tag `tag`, with subsumption by the LU
    /// bounds `lu = (lower, upper)` (see [`Dbm::alu_included_in`]; empty
    /// slices give plain inclusion) and exact merging: after the subsumption
    /// scan, the members `zone` forms an exact convex union with are absorbed
    /// into it ([`Federation::absorb_convex`] with `failure_budget`; `0`
    /// disables merging), so `zone` may grow in place before it is stored.
    ///
    /// Returns `None` (and changes nothing) if `zone` is empty or some member
    /// subsumes it, and otherwise `Some((evicted, absorbed))`: the numbers of
    /// members dropped because `zone` subsumes them and of members merged
    /// into it.  The tags of both are appended to `removed`.
    pub fn add_merging(
        &mut self,
        zone: &mut Dbm,
        tag: u32,
        lu: (&[i64], &[i64]),
        failure_budget: usize,
        removed: &mut Vec<u32>,
    ) -> Option<(usize, usize)> {
        if zone.is_empty() {
            return None;
        }
        assert_eq!(zone.num_clocks(), self.num_clocks, "dimension mismatch");
        let (lower, upper) = lu;
        // One pass over the members decides both directions: reject the
        // newcomer if some member subsumes it, evict the members it
        // subsumes.
        let mut evict = Vec::new();
        for (i, existing) in self.zones.iter().enumerate() {
            if zone.alu_included_in(existing, lower, upper) {
                return None;
            }
            if existing.alu_included_in(zone, lower, upper) {
                evict.push(i);
            }
        }
        for &i in evict.iter().rev() {
            self.zones.remove(i);
            removed.push(self.tags.remove(i));
        }
        let absorbed = self.absorb_convex(zone, failure_budget, removed);
        self.zones.push(zone.clone());
        self.tags.push(tag);
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
    /// number of members absorbed and appends their tags to `removed`;
    /// `zone` itself is not stored (see [`Federation::add_merging`]).
    pub fn absorb_convex(
        &mut self,
        zone: &mut Dbm,
        failure_budget: usize,
        removed: &mut Vec<u32>,
    ) -> usize {
        let mut absorbed = 0;
        let mut budget = failure_budget;
        let mut i = self.zones.len();
        while i > 0 && budget > 0 {
            i -= 1;
            if let Some(hull) = zone.try_merge(&self.zones[i]) {
                *zone = hull;
                self.zones.swap_remove(i);
                removed.push(self.tags.swap_remove(i));
                absorbed += 1;
                budget = failure_budget;
                i = self.zones.len();
            } else {
                budget -= 1;
            }
        }
        absorbed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bound, Clock, Relation};

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
    }

    #[test]
    fn add_subsumed_zone_is_rejected() {
        let mut f = Federation::empty(1);
        assert!(f.add(zone_between(0, 10)));
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
    }

    #[test]
    fn absorb_convex_cascades_and_respects_exactness() {
        let mut f = Federation::empty(1);
        f.add(zone_between(0, 1));
        f.add(zone_between(1, 2));
        f.add(zone_between(5, 7));
        let mut zone = zone_between(2, 3);
        // [2,3] bridges [0,1]+[1,2] into [0,3]; [5,7] stays (gap).
        let absorbed = f.absorb_convex(&mut zone, 8, &mut Vec::new());
        assert_eq!(absorbed, 2);
        assert_eq!(f.size(), 1);
        assert_eq!(zone.relation(&zone_between(0, 3)), Relation::Equal);
    }

    #[test]
    fn empty_zone_not_added() {
        let mut f = Federation::empty(1);
        assert!(!f.add(Dbm::empty(1)));
        assert!(f.is_empty());
    }
}
