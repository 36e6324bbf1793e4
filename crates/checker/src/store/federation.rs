//! The federation store: one [`Federation`] per discrete state, with
//! single-member inclusion, eviction and exact merging.
//!
//! A newcomer zone is rejected when one stored zone includes it, and stored
//! zones strictly included in the newcomer are evicted — one relation scan
//! over the members decides both ([`Federation::add_merging`]).  Untargeted
//! searches also merge: a newcomer and the stored zones whose union with it
//! is exactly convex are replaced by their hull
//! ([`Federation::absorb_convex`]), and queued states whose zone was evicted
//! or absorbed are never expanded ([`StateStore::is_current`]).  All of it is
//! exact — no valuation is ever lost or added — so verdicts, suprema and
//! WCRTs are preserved.  Coverage by the union of several stored zones is
//! deliberately not tested: it needs zone subtraction on every insert, yet
//! on the case study it rejected under 2% of the newcomers.  This is the
//! default store.

use super::{Insert, StateStore};
use crate::state::DiscreteState;
use std::collections::HashMap;
use tempo_dbm::{Dbm, Federation};

/// Budget of *failed* exact-merge attempts per insertion.  Breadth-first
/// exploration produces mergeable neighbours close together in time, and an
/// unbounded scan would make every insertion linear in the federation size.
const MERGE_ATTEMPT_BUDGET: usize = 64;

/// See the [module documentation](self).
///
/// Discrete states are interned: the intern table maps each distinct state to
/// a dense `u32` id indexing the federation arena, so the hot insert path
/// clones the (location vector + valuation) key only the first time a
/// discrete state is seen, not on every insert.
pub(crate) struct FederationStore {
    ids: HashMap<DiscreteState, u32>,
    feds: Vec<Federation>,
    num_clocks: usize,
    live: usize,
}

impl FederationStore {
    pub(crate) fn new(num_clocks: usize) -> FederationStore {
        FederationStore {
            ids: HashMap::new(),
            feds: Vec::new(),
            num_clocks,
            live: 0,
        }
    }
}

impl StateStore for FederationStore {
    fn insert(&mut self, discrete: &DiscreteState, zone: &mut Dbm, merge: bool) -> Insert {
        let id = match self.ids.get(discrete) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.feds.len()).expect("more than u32::MAX states");
                self.ids.insert(discrete.clone(), id);
                self.feds.push(Federation::empty(self.num_clocks));
                id
            }
        };
        let budget = if merge { MERGE_ATTEMPT_BUDGET } else { 0 };
        let Some((evicted, merged)) = self.feds[id as usize].add_merging(zone, budget) else {
            tempo_obs::counter("store.subsumed", 1);
            return Insert::Subsumed;
        };
        self.live = self.live + 1 - evicted - merged;
        if evicted > 0 {
            tempo_obs::counter("store.evicted", evicted as u64);
        }
        if merged > 0 {
            tempo_obs::counter("store.merged", merged as u64);
        }
        Insert::Inserted { evicted, merged }
    }

    fn is_current(&self, discrete: &DiscreteState, zone: &Dbm) -> bool {
        // A zone that is no longer a member was evicted or absorbed into a
        // hull: some stored zone covers it, so its expansion is redundant.
        self.ids
            .get(discrete)
            .is_some_and(|&id| self.feds[id as usize].iter().any(|z| z == zone))
    }

    fn live_zones(&self) -> usize {
        self.live
    }
}
