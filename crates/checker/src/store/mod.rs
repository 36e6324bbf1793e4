//! Pluggable passed/waiting state storage.
//!
//! The exploration loops keep, for every *discrete* state, the set of zones
//! already seen; a freshly computed symbolic state is only expanded when its
//! zone is not yet covered.  How that per-discrete-state set is represented
//! and what "covered" means is the storage discipline, and it decides whether
//! the big case-study columns are tractable:
//!
//! * [`FederationStore`] — the default.  It stores a
//!   [`tempo_dbm::Federation`] per discrete state: a newcomer is rejected
//!   when a single stored zone includes it, stored zones strictly included
//!   in a newcomer are evicted, and untargeted searches fold a newcomer and
//!   the stored zones it forms an exact convex union with into their hull
//!   ([`tempo_dbm::Federation::absorb_convex`]).  Queued states whose zone
//!   was evicted or absorbed are skipped ([`StateStore::is_current`]).
//! * [`FlatStore`] — the classic antichain of zones with *single-zone*
//!   inclusion subsumption and nothing else.  It is the reference oracle the
//!   differential harnesses compare the federation store against.
//! * [`ShardedStore`] — a lock-striped concurrent wrapper around either of
//!   the above, giving the parallel checker per-shard critical sections
//!   instead of one global passed-list mutex.
//!
//! All disciplines are *exact*: a zone is only discarded when every one of
//! its valuations is already covered, so verdicts, suprema and WCRTs are
//! preserved (proven by `tests/reduction_differential.rs`).  The
//! [`StateStore`] trait is also the seam for future disk-backed or
//! distributed passed lists.

mod federation;
mod flat;
mod sharded;

pub(crate) use federation::FederationStore;
pub(crate) use flat::FlatStore;
pub(crate) use sharded::ShardedStore;

use crate::state::DiscreteState;
use tempo_dbm::Dbm;

/// Which passed/waiting storage discipline the explorer uses, see
/// [`SearchOptions::storage`](crate::SearchOptions::storage).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StorageKind {
    /// Plain per-discrete-state zone antichains with single-zone inclusion
    /// subsumption and no merging: the reference oracle of the differential
    /// harnesses, not a production configuration.
    Flat,
    /// Per-discrete-state federations with single-zone inclusion
    /// subsumption, eviction, exact convex merging in untargeted searches and
    /// skipping of replaced queued states (the default).
    #[default]
    Federation,
}

/// Outcome of a [`StateStore::insert`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Insert {
    /// A stored zone includes the zone; the state must not be expanded.
    Subsumed,
    /// The zone was stored and must be expanded.  The caller's zone may have
    /// been grown in place to an exact convex hull when merging absorbed
    /// stored zones (federation storage only).
    Inserted {
        /// Stored zones dropped because the newcomer strictly includes them.
        evicted: usize,
        /// Stored zones absorbed into the newcomer by exact convex merging.
        merged: usize,
    },
}

/// A passed/waiting storage backend for one sequential exploration.
///
/// `insert` is the single hot-path operation: decide whether `zone` (for
/// `discrete`) is already covered, and if not, store it — evicting covered
/// peers and, when `merge` is set and the store supports it, absorbing
/// stored zones whose union with the newcomer is exactly convex (the
/// newcomer is grown in place).
pub(crate) trait StateStore: Send {
    /// Attempts to insert the zone; see the trait documentation.
    fn insert(&mut self, discrete: &DiscreteState, zone: &mut Dbm, merge: bool) -> Insert;

    /// `true` iff `zone` is still a stored member for `discrete` — i.e. it
    /// has not been evicted or absorbed into a hull since it was inserted.
    ///
    /// The explorers call this when they pop a state from the waiting
    /// structure: a state whose zone was replaced by a covering zone need not
    /// be expanded, because the covering zone's own (pending or past)
    /// expansion yields a superset of its successors.  The flat store always
    /// answers `true` (the classic exploration, kept as the oracle); the
    /// federation store answers from membership, which is what collapses
    /// the burst columns — merging keeps absorbing queued-but-unexpanded
    /// fragments into hulls before they are ever expanded.
    fn is_current(&self, discrete: &DiscreteState, zone: &Dbm) -> bool;

    /// Net number of zones currently stored (after evictions and merges).
    fn live_zones(&self) -> usize;
}

/// Creates a sequential store of the requested kind for zones over
/// `num_clocks` clocks.
pub(crate) fn new_store(kind: StorageKind, num_clocks: usize) -> Box<dyn StateStore> {
    match kind {
        StorageKind::Flat => Box::new(FlatStore::new()),
        StorageKind::Federation => Box::new(FederationStore::new(num_clocks)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_dbm::{Bound, Clock};
    use tempo_ta::{SystemBuilder, System};

    fn interval(lo: i64, hi: i64) -> Dbm {
        let mut z = Dbm::zero(1);
        z.up();
        z.constrain(Clock(1), Clock::REF, Bound::weak(hi));
        z.constrain(Clock::REF, Clock(1), Bound::weak(-lo));
        z
    }

    fn sys() -> System {
        let mut sb = SystemBuilder::new("s");
        let _x = sb.add_clock("x");
        let mut a = sb.automaton("A");
        let l0 = a.location("l0").add();
        a.set_initial(l0);
        a.build();
        sb.build()
    }

    fn d(sys: &System) -> DiscreteState {
        DiscreteState::initial(sys)
    }

    #[test]
    fn flat_store_is_single_zone_subsumption() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Flat, 1);
        assert_eq!(
            store.insert(&s, &mut interval(0, 4), false),
            Insert::Inserted { evicted: 0, merged: 0 }
        );
        assert_eq!(
            store.insert(&s, &mut interval(3, 7), false),
            Insert::Inserted { evicted: 0, merged: 0 }
        );
        // Covered by the union of the two, but flat storage cannot see it.
        assert_eq!(
            store.insert(&s, &mut interval(1, 6), false),
            Insert::Inserted { evicted: 0, merged: 0 }
        );
        // Covered by a single zone: rejected, and a superset evicts.
        assert_eq!(
            store.insert(&s, &mut interval(1, 2), false),
            Insert::Subsumed
        );
        assert_eq!(
            store.insert(&s, &mut interval(0, 10), false),
            Insert::Inserted { evicted: 3, merged: 0 }
        );
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn federation_store_subsumes_by_member_and_evicts() {
        let system = sys();
        let s = d(&system);
        for merge in [false, true] {
            let mut store = new_store(StorageKind::Federation, 1);
            store.insert(&s, &mut interval(0, 4), false);
            store.insert(&s, &mut interval(3, 7), false);
            // [1,6] ⊆ [0,4] ∪ [3,7] but in neither alone: it is stored, and
            // merging folds all three into their exact hull [0,7].
            let mut straddler = interval(1, 6);
            if merge {
                assert_eq!(
                    store.insert(&s, &mut straddler, merge),
                    Insert::Inserted { evicted: 0, merged: 2 }
                );
                assert!(straddler.includes(&interval(0, 7)));
            } else {
                assert_eq!(
                    store.insert(&s, &mut straddler, merge),
                    Insert::Inserted { evicted: 0, merged: 0 }
                );
            }
            assert_eq!(store.insert(&s, &mut interval(2, 3), merge), Insert::Subsumed);
            // A newcomer strictly including stored zones evicts them.
            let evicted = if merge { 1 } else { 3 };
            assert_eq!(
                store.insert(&s, &mut interval(0, 9), merge),
                Insert::Inserted { evicted, merged: 0 }
            );
            assert_eq!(store.live_zones(), 1);
        }
    }

    #[test]
    fn federation_store_merges_exact_convex_unions() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Federation, 1);
        store.insert(&s, &mut interval(0, 3), true);
        let mut bridge = interval(2, 6);
        assert_eq!(
            store.insert(&s, &mut bridge, true),
            Insert::Inserted { evicted: 0, merged: 1 }
        );
        // The caller's zone was grown to the exact hull in place.
        assert!(bridge.includes(&interval(0, 6)));
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn sharded_store_aggregates_across_shards() {
        let system = sys();
        let s = d(&system);
        let store = ShardedStore::new(StorageKind::Federation, 4, 1);
        store.insert(&s, &mut interval(0, 4), true);
        store.insert(&s, &mut interval(6, 9), true);
        assert_eq!(store.insert(&s, &mut interval(1, 2), true), Insert::Subsumed);
        assert_eq!(
            store.insert(&s, &mut interval(5, 10), true),
            Insert::Inserted { evicted: 1, merged: 0 }
        );
        assert_eq!(
            store.insert(&s, &mut interval(3, 5), true),
            Insert::Inserted { evicted: 0, merged: 2 }
        );
        assert_eq!(store.live_zones(), 1);
        assert_eq!(store.zones_evicted(), 1);
        assert_eq!(store.zones_merged(), 2);
    }
}
