//! Pluggable passed/waiting state storage.
//!
//! The exploration loops keep, for every *discrete* state, the set of zones
//! already seen; a freshly computed symbolic state is only expanded when its
//! zone is not yet covered.  How that per-discrete-state set is represented
//! and what "covered" means is the storage discipline, and it decides whether
//! the big case-study columns are tractable:
//!
//! * [`FederationStore`] — the default.  It stores a
//!   [`tempo_dbm::Federation`] per discrete state and subsumes by aLU
//!   simulation ([`tempo_dbm::Dbm::alu_included_in`]) against the discrete
//!   state's LU bounds on zones that are never extrapolated: a newcomer is
//!   rejected when a single stored zone simulates it, stored zones the
//!   newcomer simulates are evicted, and untargeted searches fold a newcomer
//!   and the stored zones it forms an exact convex union with into their
//!   hull ([`tempo_dbm::Federation::absorb_convex`]).  Queued states whose
//!   zone was evicted or absorbed are skipped ([`StateStore::is_current`]).
//! * [`FlatStore`] — the classic antichain of ExtraLU-extrapolated zones
//!   with *single-zone* inclusion subsumption and nothing else.  It is the
//!   reference oracle the differential harnesses compare the federation
//!   store against: two independent finiteness abstractions.
//! * [`ShardedStore`] — a lock-striped concurrent wrapper around either of
//!   the above, giving the parallel checker per-shard critical sections
//!   instead of one global passed-list mutex.
//!
//! All disciplines are *exact*: a zone is only discarded when every one of
//! its valuations is covered by (the abstraction of) a stored zone, so
//! verdicts, suprema and WCRTs are preserved (proven by
//! `tests/reduction_differential.rs`).  The [`StateStore`] trait is also the
//! seam for future disk-backed or distributed passed lists.

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
    /// Plain per-discrete-state antichains of ExtraLU-extrapolated zones with
    /// single-zone inclusion subsumption and no merging: the reference oracle
    /// of the differential harnesses, not a production configuration.
    Flat,
    /// Per-discrete-state federations of unextrapolated zones with
    /// single-zone aLU subsumption, eviction, exact convex merging in
    /// untargeted searches and skipping of replaced queued states (the
    /// default).
    #[default]
    Federation,
}

/// Handle of a stored zone, valid for the store that issued it; see
/// [`StateStore::is_current`].
pub(crate) type Member = u32;

/// Outcome of a [`StateStore::insert`] attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Insert {
    /// A stored zone subsumes the zone; the state must not be expanded.
    Subsumed,
    /// The zone was stored and must be expanded.  The caller's zone may have
    /// been grown in place to an exact convex hull when merging absorbed
    /// stored zones (federation storage only).
    Inserted {
        /// The stored zone's handle.
        member: Member,
        /// Stored zones dropped because the newcomer subsumes them.
        evicted: usize,
        /// Stored zones absorbed into the newcomer by exact convex merging.
        merged: usize,
    },
}

/// A passed/waiting storage backend for one sequential exploration.
///
/// `insert` is the single hot-path operation: decide whether `zone` (for
/// `discrete`, whose LU bounds are `lu`) is already covered, and if not,
/// store it — evicting covered peers and, when `merge` is set and the store
/// supports it, absorbing stored zones whose union with the newcomer is
/// exactly convex (the newcomer is grown in place).
pub(crate) trait StateStore: Send {
    /// Attempts to insert the zone; see the trait documentation.
    fn insert(
        &mut self,
        discrete: &DiscreteState,
        zone: &mut Dbm,
        lu: (&[i64], &[i64]),
        merge: bool,
    ) -> Insert;

    /// `true` iff the zone `member` names is still stored — i.e. it has not
    /// been evicted or absorbed into a hull since it was inserted.  O(1).
    ///
    /// The explorers call this when they pop a state from the waiting
    /// structure: a state whose zone was replaced by a covering zone need not
    /// be expanded, because the covering zone's own (pending or past)
    /// expansion simulates its successors.  The flat store always answers
    /// `true` (the classic exploration, kept as the oracle); the federation
    /// store answers from membership, which is what collapses the burst
    /// columns — merging keeps absorbing queued-but-unexpanded fragments into
    /// hulls before they are ever expanded.
    fn is_current(&self, member: Member) -> bool;

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

    /// Unbounded LU bounds: subsumption is plain inclusion.
    const PLAIN: (&[i64], &[i64]) = (&[], &[]);

    /// The `(evicted, merged)` counts of an insertion, `None` if subsumed.
    fn counts(outcome: Insert) -> Option<(usize, usize)> {
        match outcome {
            Insert::Subsumed => None,
            Insert::Inserted { evicted, merged, .. } => Some((evicted, merged)),
        }
    }

    #[test]
    fn flat_store_is_single_zone_subsumption() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Flat, 1);
        assert_eq!(counts(store.insert(&s, &mut interval(0, 4), PLAIN, false)), Some((0, 0)));
        assert_eq!(counts(store.insert(&s, &mut interval(3, 7), PLAIN, false)), Some((0, 0)));
        // Covered by the union of the two, but flat storage cannot see it.
        assert_eq!(counts(store.insert(&s, &mut interval(1, 6), PLAIN, false)), Some((0, 0)));
        // Covered by a single zone: rejected, and a superset evicts.
        assert_eq!(counts(store.insert(&s, &mut interval(1, 2), PLAIN, false)), None);
        assert_eq!(counts(store.insert(&s, &mut interval(0, 10), PLAIN, false)), Some((3, 0)));
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn federation_store_subsumes_by_member_and_evicts() {
        let system = sys();
        let s = d(&system);
        for merge in [false, true] {
            let mut store = new_store(StorageKind::Federation, 1);
            store.insert(&s, &mut interval(0, 4), PLAIN, false);
            store.insert(&s, &mut interval(3, 7), PLAIN, false);
            // [1,6] ⊆ [0,4] ∪ [3,7] but in neither alone: it is stored, and
            // merging folds all three into their exact hull [0,7].
            let mut straddler = interval(1, 6);
            if merge {
                assert_eq!(counts(store.insert(&s, &mut straddler, PLAIN, merge)), Some((0, 2)));
                assert!(straddler.includes(&interval(0, 7)));
            } else {
                assert_eq!(counts(store.insert(&s, &mut straddler, PLAIN, merge)), Some((0, 0)));
            }
            assert_eq!(counts(store.insert(&s, &mut interval(2, 3), PLAIN, merge)), None);
            // A newcomer strictly including stored zones evicts them.
            let evicted = if merge { 1 } else { 3 };
            assert_eq!(
                counts(store.insert(&s, &mut interval(0, 9), PLAIN, merge)),
                Some((evicted, 0))
            );
            assert_eq!(store.live_zones(), 1);
        }
    }

    /// With finite LU bounds the federation store subsumes by LU-simulation:
    /// above `L = U = 2` every value of the clock behaves alike, so `[5,6]`
    /// is simulated by a stored `[3,4]` that does not include it.  A dead
    /// clock (`−∞`) never decides, and an evicted zone's handle goes stale.
    #[test]
    fn federation_store_subsumes_by_lu_simulation() {
        let system = sys();
        let s = d(&system);
        let lu: (&[i64], &[i64]) = (&[0, 2], &[0, 2]);
        let mut store = new_store(StorageKind::Federation, 1);
        let first = store.insert(&s, &mut interval(3, 4), lu, false);
        let Insert::Inserted { member: first, .. } = first else { panic!("stored") };
        assert_eq!(counts(store.insert(&s, &mut interval(5, 6), lu, false)), None);
        assert_eq!(counts(store.insert(&s, &mut interval(5, 6), PLAIN, false)), Some((0, 0)));
        assert!(store.is_current(first));
        // [1,8] simulates [3,4] and [5,6] (it includes both) and evicts them.
        let wide = store.insert(&s, &mut interval(1, 8), lu, false);
        let Insert::Inserted { member: wide, evicted: 2, .. } = wide else { panic!("{wide:?}") };
        assert!(!store.is_current(first));
        assert!(store.is_current(wide));
        // Under dead-clock bounds any zone simulates any other.
        let dead: (&[i64], &[i64]) = (&[0, i64::MIN], &[0, i64::MIN]);
        assert_eq!(counts(store.insert(&s, &mut interval(0, 0), dead, false)), None);
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn federation_store_merges_exact_convex_unions() {
        let system = sys();
        let s = d(&system);
        let mut store = new_store(StorageKind::Federation, 1);
        store.insert(&s, &mut interval(0, 3), PLAIN, true);
        let mut bridge = interval(2, 6);
        assert_eq!(counts(store.insert(&s, &mut bridge, PLAIN, true)), Some((0, 1)));
        // The caller's zone was grown to the exact hull in place.
        assert!(bridge.includes(&interval(0, 6)));
        assert_eq!(store.live_zones(), 1);
    }

    #[test]
    fn sharded_store_aggregates_across_shards() {
        let system = sys();
        let s = d(&system);
        let store = ShardedStore::new(StorageKind::Federation, 4, 1);
        store.insert(&s, &mut interval(0, 4), PLAIN, true);
        store.insert(&s, &mut interval(6, 9), PLAIN, true);
        assert_eq!(counts(store.insert(&s, &mut interval(1, 2), PLAIN, true)), None);
        assert_eq!(counts(store.insert(&s, &mut interval(5, 10), PLAIN, true)), Some((1, 0)));
        assert_eq!(counts(store.insert(&s, &mut interval(3, 5), PLAIN, true)), Some((0, 2)));
        assert_eq!(store.live_zones(), 1);
        assert_eq!(store.zones_evicted(), 1);
        assert_eq!(store.zones_merged(), 2);
    }
}
