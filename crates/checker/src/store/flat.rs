//! The flat hash store: per-discrete-state antichains of ExtraLU-extrapolated
//! zones with single-zone inclusion subsumption — the classic UPPAAL
//! passed-list discipline.  It never merges and never skips a queued state,
//! which makes it the plain reference oracle the differential harnesses hold
//! the default [`StorageKind::Federation`](super::StorageKind::Federation)
//! store (aLU subsumption on unextrapolated zones) against.

use super::{Insert, Member, StateStore};
use crate::state::DiscreteState;
use std::collections::HashMap;
use tempo_dbm::Dbm;

/// See the [module documentation](self).
///
/// Discrete states are interned: the intern table maps each distinct state to
/// a dense `u32` id indexing the antichain arena, so the hot insert path
/// clones the (location vector + valuation) key only the first time a
/// discrete state is seen, not on every insert.
pub(crate) struct FlatStore {
    ids: HashMap<DiscreteState, u32>,
    zones: Vec<Vec<Dbm>>,
    live: usize,
}

impl FlatStore {
    pub(crate) fn new() -> FlatStore {
        FlatStore {
            ids: HashMap::new(),
            zones: Vec::new(),
            live: 0,
        }
    }
}

impl StateStore for FlatStore {
    fn insert(
        &mut self,
        discrete: &DiscreteState,
        zone: &mut Dbm,
        _lu: (&[i64], &[i64]),
        _merge: bool,
    ) -> Insert {
        let id = match self.ids.get(discrete) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.zones.len()).expect("more than u32::MAX states");
                self.ids.insert(discrete.clone(), id);
                self.zones.push(Vec::new());
                id
            }
        };
        let zones = &mut self.zones[id as usize];
        if zones.iter().any(|z| z.includes(zone)) {
            tempo_obs::counter("store.subsumed", 1);
            return Insert::Subsumed;
        }
        // Drop stored zones now subsumed by the new one.
        let before = zones.len();
        zones.retain(|z| !zone.includes(z));
        let evicted = before - zones.len();
        zones.push(zone.clone());
        self.live = self.live + 1 - evicted;
        if evicted > 0 {
            tempo_obs::counter("store.evicted", evicted as u64);
        }
        // Every queued state stays current (see `is_current`), so one handle
        // serves for all.
        Insert::Inserted {
            member: 0,
            evicted,
            merged: 0,
        }
    }

    fn is_current(&self, _member: Member) -> bool {
        // The oracle expands every queued state, even if its zone was later
        // evicted.
        true
    }

    fn live_zones(&self) -> usize {
        self.live
    }
}
