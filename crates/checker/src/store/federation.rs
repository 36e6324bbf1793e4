//! The federation store: one [`Federation`] per discrete state, with
//! single-member aLU subsumption, eviction and exact merging.
//!
//! Zones arrive unextrapolated.  A newcomer is rejected when one stored zone
//! LU-simulates it (`Z ⊑ a≼LU(Z′)` against the discrete state's LU bounds,
//! [`Dbm::alu_included_in`]), and stored zones the newcomer LU-simulates are
//! evicted — one scan over the members decides both
//! ([`Federation::add_merging`]).  Untargeted searches also merge: a newcomer
//! and the stored zones whose union with it is exactly convex are replaced by
//! their hull ([`Federation::absorb_convex`]), and queued states whose zone
//! was evicted or absorbed are never expanded ([`StateStore::is_current`], an
//! O(1) look-up of the member handle).  Subsumption only discards a zone
//! whose every valuation is simulated by a stored one, and merging adds no
//! valuation, so verdicts, suprema and WCRTs are preserved.  Coverage by the
//! union of several stored zones is deliberately not tested: it needs zone
//! subtraction on every insert, yet on the case study it rejected under 2% of
//! the newcomers.  This is the default store.

use super::{Insert, Member, StateStore};
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
///
/// Every stored zone is tagged with its [`Member`] handle, an index into
/// `alive`, so staleness is one look-up rather than a scan over the
/// members.
pub(crate) struct FederationStore {
    ids: HashMap<DiscreteState, u32>,
    feds: Vec<Federation>,
    num_clocks: usize,
    live: usize,
    /// Per member handle ever issued: is the zone still stored?
    alive: Vec<bool>,
    /// Scratch buffer for the handles an insertion removes.
    removed: Vec<Member>,
}

impl FederationStore {
    pub(crate) fn new(num_clocks: usize) -> FederationStore {
        FederationStore {
            ids: HashMap::new(),
            feds: Vec::new(),
            num_clocks,
            live: 0,
            alive: Vec::new(),
            removed: Vec::new(),
        }
    }
}

impl StateStore for FederationStore {
    fn insert(
        &mut self,
        discrete: &DiscreteState,
        zone: &mut Dbm,
        lu: (&[i64], &[i64]),
        merge: bool,
    ) -> Insert {
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
        let member = Member::try_from(self.alive.len()).expect("more than u32::MAX zones");
        let fed = &mut self.feds[id as usize];
        let Some((evicted, merged)) = fed.add_merging(zone, member, lu, budget, &mut self.removed)
        else {
            tempo_obs::counter("store.subsumed", 1);
            return Insert::Subsumed;
        };
        self.alive.push(true);
        for gone in self.removed.drain(..) {
            self.alive[gone as usize] = false;
        }
        self.live = self.live + 1 - evicted - merged;
        if evicted > 0 {
            tempo_obs::counter("store.evicted", evicted as u64);
        }
        if merged > 0 {
            tempo_obs::counter("store.merged", merged as u64);
        }
        Insert::Inserted {
            member,
            evicted,
            merged,
        }
    }

    fn is_current(&self, member: Member) -> bool {
        // A zone that is no longer a member was evicted or absorbed into a
        // hull: some stored zone covers it, so its expansion is redundant.
        self.alive[member as usize]
    }

    fn live_zones(&self) -> usize {
        self.live
    }
}
