//! The sharded store: a lock-striped concurrent wrapper around a sequential
//! [`StateStore`] per shard, keyed by the hash of the discrete state.
//!
//! Inclusion subsumption stays a per-discrete-state critical section (a
//! discrete state always hashes to the same shard), but different discrete
//! states contend only when they collide on a shard — the parallel checker
//! gets lock-striped access instead of one global passed-list mutex.

use super::{new_store, Insert, Member, StateStore, StorageKind};
use crate::state::DiscreteState;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use tempo_dbm::Dbm;

/// See the [module documentation](self).
pub(crate) struct ShardedStore {
    shards: Vec<Mutex<Box<dyn StateStore>>>,
    kind: StorageKind,
    live: AtomicUsize,
    merged: AtomicUsize,
    evicted: AtomicUsize,
}

impl ShardedStore {
    /// A store with `shards` lock stripes, each of the given kind.
    pub(crate) fn new(kind: StorageKind, shards: usize, num_clocks: usize) -> ShardedStore {
        ShardedStore {
            shards: (0..shards.max(1)).map(|_| Mutex::new(new_store(kind, num_clocks))).collect(),
            kind,
            live: AtomicUsize::new(0),
            merged: AtomicUsize::new(0),
            evicted: AtomicUsize::new(0),
        }
    }

    fn shard_of(&self, discrete: &DiscreteState) -> usize {
        // The discrete state caches its hash at construction; re-hashing the
        // location vector here (twice per insert, once per is_current) was
        // pure overhead.
        (discrete.cached_hash() as usize) % self.shards.len()
    }

    /// Concurrent insert: locks only the shard owning the discrete state.
    /// Semantics and outcome are those of the wrapped [`StateStore::insert`];
    /// the aggregate counters are updated on the way out.
    pub(crate) fn insert(
        &self,
        discrete: &DiscreteState,
        zone: &mut Dbm,
        lu: (&[i64], &[i64]),
        merge: bool,
    ) -> Insert {
        let outcome = self.shards[self.shard_of(discrete)]
            .lock()
            .insert(discrete, zone, lu, merge);
        if let Insert::Inserted { evicted, merged, .. } = outcome {
            // `evicted + merged` zones leave the store, one enters.
            let removed = evicted + merged;
            if removed > 0 {
                self.live.fetch_sub(removed - 1, Ordering::Relaxed);
            } else {
                self.live.fetch_add(1, Ordering::Relaxed);
            }
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
            self.merged.fetch_add(merged, Ordering::Relaxed);
        }
        outcome
    }

    /// Concurrent [`StateStore::is_current`]: the handle look-up under the
    /// lock of the shard owning `discrete` (which issued `member`).  Flat
    /// shards answer `true` unconditionally, so the oracle discipline skips
    /// the lock (and its contention) entirely.
    pub(crate) fn is_current(&self, discrete: &DiscreteState, member: Member) -> bool {
        match self.kind {
            StorageKind::Flat => true,
            StorageKind::Federation => self.shards[self.shard_of(discrete)]
                .lock()
                .is_current(member),
        }
    }

    /// Net number of zones currently stored across all shards.
    pub(crate) fn live_zones(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Total zones absorbed by exact convex merging.
    pub(crate) fn zones_merged(&self) -> usize {
        self.merged.load(Ordering::Relaxed)
    }

    /// Total stored zones evicted by newcomers.
    pub(crate) fn zones_evicted(&self) -> usize {
        self.evicted.load(Ordering::Relaxed)
    }
}
