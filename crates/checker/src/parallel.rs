//! Multi-threaded exploration of the zone graph.
//!
//! The sequential [`Explorer`](crate::Explorer) is sufficient for the paper's
//! case study, but the combination of a 31.25 ms user period with a 3 s radio
//! station period produces zone graphs with millions of symbolic states (the
//! paper's `pj`/`bur` columns).  This module parallelises the forward
//! reachability loop over a pool of worker threads:
//!
//! * the *passed* list is a lock-striped [`crate::store::ShardedStore`]
//!   whose per-shard backend follows
//!   [`SearchOptions::storage`](crate::SearchOptions::storage) (flat
//!   antichains or merging federations), so inclusion subsumption
//!   remains a per-discrete-state critical section without a global mutex,
//! * the *waiting* work is distributed over per-worker
//!   [`crossbeam::deque::Worker`] deques: each worker expands states from
//!   its own deque and steals from its peers (or the seed
//!   [`crossbeam::deque::Injector`]) only when it runs dry,
//! * termination uses an in-flight counter: every state pushed to a deque
//!   increments it and it is decremented only after the state's successors
//!   have been pushed, so the counter reaching zero implies both empty
//!   deques and idle workers.
//!
//! The parallel variants return the same verdicts and the same suprema as the
//! sequential ones (checked by the tests below and by
//! `tests/parallel_consistency.rs`); the exact number of *stored* states may
//! differ slightly because subsumption depends on the order in which zones
//! are discovered.  Diagnostic traces are not reconstructed in parallel mode.

use crate::error::CheckError;
use crate::explorer::{ExplorationStats, Explorer, ReachReport, SearchProgress};
use crate::fault::{panic_message, FaultSite};
use crate::state::SymState;
use crate::store::{Insert, Member, ShardedStore};
use crate::successor::{QuerySeed, SuccessorGen};
use crate::target::TargetSpec;
use crate::wcrt::{SupQuery, SupReport};
use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;
use tempo_dbm::Bound;
use tempo_ta::ClockId;

/// Options controlling a parallel exploration.
#[derive(Clone, Debug)]
#[derive(Default)]
pub struct ParallelOptions {
    /// Number of worker threads.  `0` selects the available parallelism of
    /// the machine.
    pub workers: usize,
    /// Number of shards of the passed list.  More shards reduce lock
    /// contention at the cost of memory; the default (16× the worker count,
    /// minimum 64) keeps the expected shard occupancy well below one worker
    /// even on the case-study columns, where a handful of hot discrete
    /// states attract most insertions.
    pub shards: usize,
}


impl ParallelOptions {
    /// Convenience constructor fixing the worker count.
    pub fn with_workers(workers: usize) -> ParallelOptions {
        ParallelOptions {
            workers,
            shards: 0,
        }
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    fn resolved_shards(&self, workers: usize) -> usize {
        if self.shards > 0 {
            self.shards
        } else {
            (workers * 16).max(64)
        }
    }
}

struct WorkerOutcome {
    explored: usize,
    transitions: usize,
    eliminated: usize,
    /// Successful store insertions by this worker (the worker's share of
    /// [`ExplorationStats::stored_cumulative`]).
    stored: usize,
    error: Option<CheckError>,
}

/// How many caught expansion panics a single worker *self-heals* (requeueing
/// the in-flight state for a retry) before concluding the panic is
/// deterministic, giving up and failing the whole exploration with
/// [`CheckError::WorkerPanicked`].
const MAX_WORKER_PANICS: usize = 8;

impl<'s> Explorer<'s> {
    /// Runs the parallel exploration loop.
    ///
    /// * `target`: when given, the exploration stops as soon as any worker
    ///   pops a state matching it;
    /// * `visit`: called (from worker threads) on every state popped for
    ///   expansion;
    /// * returns whether the target was found plus the aggregated statistics.
    fn par_run(
        &self,
        target: Option<&TargetSpec>,
        queries: &[QuerySeed],
        visit: &(dyn Fn(&SymState) + Sync),
        par: &ParallelOptions,
    ) -> Result<(bool, ExplorationStats), CheckError> {
        let start = Instant::now();
        let opts = self.options();
        let sys = self.system();
        let workers = par.resolved_workers();
        let shards = par.resolved_shards(workers);
        let hook = &opts.hook;
        let deadline = hook.wall_clock_budget.map(|b| start + b);
        let progress_every = hook.effective_progress_every();

        // Validate once up front so worker threads can assume a well-formed
        // system (their own `SuccessorGen` construction is then cheap).
        let gen0 = SuccessorGen::for_queries(sys, opts, queries)?;
        let init = gen0.initial_state()?;

        let mut stats = ExplorationStats {
            clocks_eliminated: gen0.clocks_eliminated(),
            ..ExplorationStats::default()
        };
        if init.zone.is_empty() || !gen0.can_reach_query(&init.discrete) {
            stats.duration = start.elapsed();
            return Ok((false, stats));
        }

        let passed = ShardedStore::new(opts.storage, shards, init.zone.num_clocks());
        // The injector only seeds the exploration; successors go to the
        // per-worker deques and travel between workers by stealing.
        // Queued states travel with the store's handle of their zone.
        let queue: Injector<(SymState, Member)> = Injector::new();
        let locals: Vec<Worker<(SymState, Member)>> =
            (0..workers).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<(SymState, Member)>> =
            locals.iter().map(|w| w.stealer()).collect();
        let pending = AtomicUsize::new(0);
        let peak_pending = AtomicUsize::new(1);
        // Shared progress stride: `explored_total` counts expansions across
        // all workers and `next_progress` is the threshold the next report
        // fires at.  A per-worker stride (each worker counting its own
        // expansions against its own last-report mark) fired the callback up
        // to `workers`× more often than `progress_every` promises.
        let explored_total = AtomicUsize::new(0);
        let next_progress = AtomicUsize::new(progress_every);
        let stop = AtomicBool::new(false);
        let found = AtomicBool::new(false);
        let truncated = AtomicBool::new(false);
        let limit_exceeded = AtomicBool::new(false);
        let cancelled = AtomicBool::new(false);
        // Workers currently spinning in the termination backoff; progress
        // callbacks report `workers - idle` as `workers_active`.
        let idle_workers = AtomicUsize::new(0);

        let mut init = init;
        let lu = gen0.state_consts(&init.discrete);
        let outcome = passed.insert(&init.discrete, &mut init.zone, lu.alu_bounds(), false);
        let Insert::Inserted { member, .. } = outcome else {
            unreachable!("an empty store subsumes nothing");
        };
        pending.fetch_add(1, Ordering::SeqCst);
        queue.push((init, member));

        let max_states = opts.max_states;
        let truncate_on_limit = opts.truncate_on_limit;
        // Like the sequential explorer: exact merging only for untargeted
        // explorations (targeted parallel searches return no trace either,
        // but keeping the gate identical makes the stats comparable).
        let merging = target.is_none();

        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (index, local) in locals.into_iter().enumerate() {
                let queue = &queue;
                let stealers = &stealers;
                let passed = &passed;
                let pending = &pending;
                let peak_pending = &peak_pending;
                let stop = &stop;
                let found = &found;
                let truncated = &truncated;
                let limit_exceeded = &limit_exceeded;
                let cancelled = &cancelled;
                let explored_total = &explored_total;
                let next_progress = &next_progress;
                let idle_workers = &idle_workers;
                handles.push(scope.spawn(move || {
                    let mut outcome = WorkerOutcome {
                        explored: 0,
                        transitions: 0,
                        eliminated: 0,
                        stored: 0,
                        error: None,
                    };
                    let _worker_span = tempo_obs::span!("par.worker", index);
                    // Worker-local observability accumulators, flushed as
                    // counters when the worker exits so the disabled fast
                    // path costs nothing and the enabled path stays off the
                    // subscriber lock per steal/spin.
                    let mut obs_steals = 0u64;
                    let mut obs_steal_batch = 0u64;
                    let mut obs_idle_spins = 0u64;
                    let mut obs_idle_nanos = 0u64;
                    let mut obs_requeues = 0u64;
                    // Outer unwind barrier: a panic escaping the
                    // per-expansion barrier below (e.g. thrown by a progress
                    // callback) must not kill the thread silently — its
                    // in-flight state would keep the counter above zero and
                    // every peer would spin forever.  It stops the
                    // exploration and is reported as `WorkerPanicked`.
                    let guarded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let gen = match SuccessorGen::for_queries(sys, opts, queries) {
                            Ok(g) => g,
                            Err(e) => {
                                outcome.error = Some(e);
                                stop.store(true, Ordering::SeqCst);
                                return;
                            }
                        };
                        let mut panics = 0usize;
                        let mut is_idle = false;
                        loop {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            // Cooperative cancellation is observed on *every*
                            // pop — the flag is one relaxed atomic load, and
                            // bounded cancellation latency matters more; the
                            // wall-clock deadline (an `Instant::now` syscall)
                            // keeps the sequential explorer's coarse stride.
                            if let Some(cancel) = &hook.cancel {
                                if cancel.load(Ordering::Relaxed) {
                                    cancelled.store(true, Ordering::SeqCst);
                                    stop.store(true, Ordering::SeqCst);
                                    break;
                                }
                            }
                            if outcome.explored & 0x3f == 0 {
                                if let Some(d) = deadline {
                                    if Instant::now() >= d {
                                        truncated.store(true, Ordering::SeqCst);
                                        stop.store(true, Ordering::SeqCst);
                                        break;
                                    }
                                }
                                // Sample the deque depth on the same coarse
                                // stride as the deadline check.
                                tempo_obs::histogram("par.deque_depth", local.len() as u64);
                            }
                            if let Some(progress) = &hook.progress {
                                // Fire when the *global* expansion counter
                                // crossed the next threshold; a single CAS on
                                // the threshold elects exactly one reporting
                                // worker per stride, so the callback runs
                                // ~once per `progress_every` expansions
                                // overall instead of once per worker.
                                let total = explored_total.load(Ordering::Relaxed);
                                let threshold = next_progress.load(Ordering::Relaxed);
                                if total >= threshold
                                    && next_progress
                                        .compare_exchange(
                                            threshold,
                                            total + progress_every,
                                            Ordering::Relaxed,
                                            Ordering::Relaxed,
                                        )
                                        .is_ok()
                                {
                                    if let Some(plan) = &hook.faults {
                                        match plan.poll(FaultSite::Progress) {
                                            Ok(false) => {}
                                            Ok(true) => {
                                                truncated.store(true, Ordering::SeqCst);
                                                stop.store(true, Ordering::SeqCst);
                                                break;
                                            }
                                            Err(CheckError::Cancelled) => {
                                                cancelled.store(true, Ordering::SeqCst);
                                                stop.store(true, Ordering::SeqCst);
                                                break;
                                            }
                                            Err(e) => {
                                                outcome.error = Some(e);
                                                stop.store(true, Ordering::SeqCst);
                                                break;
                                            }
                                        }
                                    }
                                    progress(&SearchProgress {
                                        states_explored: total,
                                        states_stored: passed.live_zones(),
                                        waiting: pending.load(Ordering::SeqCst),
                                        // The reporting worker is busy by
                                        // definition, so at least one.
                                        workers_active: workers
                                            .saturating_sub(idle_workers.load(Ordering::Relaxed))
                                            .max(1),
                                        elapsed: start.elapsed(),
                                    });
                                }
                            }
                            // Own deque first, then the seed injector, then
                            // steal from peers (round-robin, starting past
                            // ourselves).  Steals move a whole batch onto
                            // our deque and pop one task, so a dry worker
                            // pays the victim's lock once per batch instead
                            // of once per state.
                            let next = local.pop().or_else(|| {
                                let mut contended = false;
                                let stolen = 'steal: {
                                    match queue.steal_batch_and_pop(&local) {
                                        Steal::Success(s) => break 'steal Some(s),
                                        Steal::Retry => contended = true,
                                        Steal::Empty => {}
                                    }
                                    for k in 1..stealers.len() {
                                        match stealers[(index + k) % stealers.len()]
                                            .steal_batch_and_pop(&local)
                                        {
                                            Steal::Success(s) => break 'steal Some(s),
                                            Steal::Retry => contended = true,
                                            Steal::Empty => {}
                                        }
                                    }
                                    None
                                };
                                if stolen.is_some() {
                                    // A successful steal moved a batch onto
                                    // our (previously dry) deque and popped
                                    // one state off it.
                                    obs_steals += 1;
                                    obs_steal_batch += local.len() as u64 + 1;
                                    return stolen;
                                }
                                if contended {
                                    // Lost a race; pretend the deques were
                                    // busy so the caller retries instead of
                                    // terminating.
                                    std::thread::yield_now();
                                }
                                None
                            });
                            let (state, member) = match next {
                                Some(s) => {
                                    if is_idle {
                                        is_idle = false;
                                        idle_workers.fetch_sub(1, Ordering::Relaxed);
                                    }
                                    s
                                }
                                None => {
                                    if pending.load(Ordering::SeqCst) == 0 {
                                        break;
                                    }
                                    if !is_idle {
                                        is_idle = true;
                                        idle_workers.fetch_add(1, Ordering::Relaxed);
                                    }
                                    obs_idle_spins += 1;
                                    if tempo_obs::enabled() {
                                        let spin = Instant::now();
                                        std::thread::yield_now();
                                        obs_idle_nanos += spin.elapsed().as_nanos() as u64;
                                    } else {
                                        std::thread::yield_now();
                                    }
                                    continue;
                                }
                            };
                            // Skip states whose zone was evicted or absorbed
                            // since they were queued: a stored zone covers
                            // them, and its own expansion subsumes theirs.
                            if !passed.is_current(&state.discrete, member) {
                                pending.fetch_sub(1, Ordering::SeqCst);
                                continue;
                            }
                            // The expansion proper — the visit callback,
                            // target matching, successor computation and the
                            // store insertions — runs behind an unwind
                            // barrier.  `Ok(true)` means "stop after the usual
                            // bookkeeping" (target found or injected budget
                            // exhaustion).
                            let expansion = std::panic::catch_unwind(
                                std::panic::AssertUnwindSafe(|| -> Result<bool, CheckError> {
                                    outcome.explored += 1;
                                    explored_total.fetch_add(1, Ordering::Relaxed);
                                    visit(&state);
                                    if let Some(t) = target {
                                        if t.matches(&state)? {
                                            found.store(true, Ordering::SeqCst);
                                            stop.store(true, Ordering::SeqCst);
                                            return Ok(true);
                                        }
                                    }
                                    if let Some(plan) = &hook.faults {
                                        if plan.poll(FaultSite::SuccessorGen)? {
                                            truncated.store(true, Ordering::SeqCst);
                                            stop.store(true, Ordering::SeqCst);
                                            return Ok(true);
                                        }
                                    }
                                    let succs = {
                                        let _span = tempo_obs::span!("explore.successor_gen");
                                        gen.successors(&state)?
                                    };
                                    outcome.transitions += succs.len();
                                    let _insert_span = tempo_obs::span!("explore.store_insert");
                                    for (mut succ, _action) in succs {
                                        if succ.zone.is_empty() {
                                            continue;
                                        }
                                        // Prune states that can no longer
                                        // satisfy the query's location atoms.
                                        if !gen.can_reach_query(&succ.discrete) {
                                            continue;
                                        }
                                        if let Some(plan) = &hook.faults {
                                            if plan.poll(FaultSite::StoreInsert)? {
                                                truncated.store(true, Ordering::SeqCst);
                                                stop.store(true, Ordering::SeqCst);
                                                return Ok(true);
                                            }
                                        }
                                        let lu = gen.state_consts(&succ.discrete);
                                        let member = match passed.insert(
                                            &succ.discrete,
                                            &mut succ.zone,
                                            lu.alu_bounds(),
                                            merging,
                                        ) {
                                            // Aggregate counters live in the store.
                                            Insert::Subsumed => continue,
                                            Insert::Inserted { member, .. } => {
                                                outcome.stored += 1;
                                                member
                                            }
                                        };
                                        if let Some(limit) = max_states {
                                            if passed.live_zones() > limit {
                                                if truncate_on_limit {
                                                    truncated.store(true, Ordering::SeqCst);
                                                } else {
                                                    limit_exceeded.store(true, Ordering::SeqCst);
                                                }
                                                stop.store(true, Ordering::SeqCst);
                                            }
                                        }
                                        let now = pending.fetch_add(1, Ordering::SeqCst) + 1;
                                        peak_pending.fetch_max(now, Ordering::Relaxed);
                                        local.push((succ, member));
                                    }
                                    Ok(false)
                                }),
                            );
                            match expansion {
                                Ok(Ok(stop_now)) => {
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                    if stop_now {
                                        break;
                                    }
                                }
                                Ok(Err(CheckError::Cancelled)) => {
                                    cancelled.store(true, Ordering::SeqCst);
                                    stop.store(true, Ordering::SeqCst);
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                    break;
                                }
                                Ok(Err(e)) => {
                                    outcome.error = Some(e);
                                    stop.store(true, Ordering::SeqCst);
                                    pending.fetch_sub(1, Ordering::SeqCst);
                                    break;
                                }
                                Err(payload) => {
                                    // Self-heal: the panicked expansion's
                                    // state is still accounted in-flight, so
                                    // hand it back through the injector (any
                                    // worker may retry it — re-inserted
                                    // successors of a partial expansion are
                                    // absorbed by subsumption).  Deterministic
                                    // panics exhaust the retry budget and fail
                                    // the exploration cleanly instead.
                                    panics += 1;
                                    if panics > MAX_WORKER_PANICS {
                                        outcome.error = Some(CheckError::WorkerPanicked {
                                            payload: panic_message(payload),
                                        });
                                        stop.store(true, Ordering::SeqCst);
                                        pending.fetch_sub(1, Ordering::SeqCst);
                                        // Reassign the rest of our deque so
                                        // nothing is stranded with this
                                        // worker.
                                        while let Some(s) = local.pop() {
                                            queue.push(s);
                                        }
                                        break;
                                    }
                                    obs_requeues += 1;
                                    queue.push((state, member));
                                }
                            }
                        }
                        if is_idle {
                            idle_workers.fetch_sub(1, Ordering::Relaxed);
                        }
                        outcome.eliminated = gen.clocks_eliminated();
                    }));
                    if let Err(payload) = guarded {
                        stop.store(true, Ordering::SeqCst);
                        if outcome.error.is_none() {
                            outcome.error = Some(CheckError::WorkerPanicked {
                                payload: panic_message(payload),
                            });
                        }
                    }
                    // Flush the worker-local observability accumulators (a
                    // handful of atomic loads when disabled, one subscriber
                    // round-trip each when enabled).
                    if obs_steals > 0 {
                        tempo_obs::counter("par.steals", obs_steals);
                        tempo_obs::counter("par.steal_batch_states", obs_steal_batch);
                    }
                    if obs_idle_spins > 0 {
                        tempo_obs::counter("par.idle_spins", obs_idle_spins);
                        tempo_obs::counter("par.idle_nanos", obs_idle_nanos);
                    }
                    if obs_requeues > 0 {
                        tempo_obs::counter("par.requeues_after_panic", obs_requeues);
                    }
                    outcome
                }));
            }
            handles
                .into_iter()
                .map(|h| {
                    // The outer barrier makes a panicking join unreachable;
                    // map it defensively instead of aborting the process.
                    h.join().unwrap_or_else(|payload| WorkerOutcome {
                        explored: 0,
                        transitions: 0,
                        eliminated: 0,
                        stored: 0,
                        error: Some(CheckError::WorkerPanicked {
                            payload: panic_message(payload),
                        }),
                    })
                })
                .collect()
        });

        for outcome in &outcomes {
            stats.states_explored += outcome.explored;
            stats.transitions += outcome.transitions;
            stats.clocks_eliminated += outcome.eliminated;
            stats.stored_cumulative += outcome.stored;
        }
        // The seed insert before the workers started counts too, mirroring
        // the sequential explorer.
        stats.stored_cumulative += 1;
        stats.zones_live = passed.live_zones();
        stats.stored_live = stats.zones_live;
        stats.truncated = truncated.load(Ordering::SeqCst);
        stats.zones_merged = passed.zones_merged();
        stats.zones_evicted = passed.zones_evicted();
        stats.peak_waiting = peak_pending.load(Ordering::Relaxed);
        stats.duration = start.elapsed();

        if let Some(outcome) = outcomes.into_iter().find(|o| o.error.is_some()) {
            return Err(outcome.error.expect("filtered on is_some"));
        }
        if cancelled.load(Ordering::SeqCst) {
            return Err(CheckError::Cancelled);
        }
        if limit_exceeded.load(Ordering::SeqCst) {
            return Err(CheckError::StateLimitExceeded {
                limit: max_states.unwrap_or(0),
            });
        }
        Ok((found.load(Ordering::SeqCst), stats))
    }

    /// Parallel variant of [`Explorer::check_reachable`].
    ///
    /// The verdict and statistics are equivalent to the sequential query;
    /// diagnostic traces are not produced (`trace` is always `None`).
    pub fn par_check_reachable(
        &self,
        target: &TargetSpec,
        par: &ParallelOptions,
    ) -> Result<ReachReport, CheckError> {
        let seed = QuerySeed {
            target: target.clone(),
            consts: target.clock_constants(self.system()),
        };
        let (reachable, stats) =
            self.par_run(Some(target), std::slice::from_ref(&seed), &|_| {}, par)?;
        Ok(ReachReport {
            reachable,
            trace: None,
            stats,
        })
    }

    /// Parallel variant of [`Explorer::check_safety`]: the property `AG ¬bad`
    /// holds iff the returned report's `reachable` field is `false`.
    pub fn par_check_safety(
        &self,
        bad: &TargetSpec,
        par: &ParallelOptions,
    ) -> Result<ReachReport, CheckError> {
        self.par_check_reachable(bad, par)
    }

    /// Parallel variant of [`Explorer::explore`]: expands the full reachable
    /// zone graph, invoking `visit` (from worker threads) on every expanded
    /// state.
    pub fn par_explore(
        &self,
        visit: &(dyn Fn(&SymState) + Sync),
        par: &ParallelOptions,
    ) -> Result<ExplorationStats, CheckError> {
        let (_, stats) = self.par_run(None, &[], visit, par)?;
        Ok(stats)
    }

    /// Parallel variant of [`Explorer::state_space_size`].
    pub fn par_state_space_size(&self, par: &ParallelOptions) -> Result<usize, CheckError> {
        Ok(self.par_explore(&|_| {}, par)?.stored_cumulative)
    }

    /// Parallel variant of [`Explorer::sup_clock_at`]: computes
    /// `sup { clock | reachable state matching target }` using all workers.
    pub fn par_sup_clock_at(
        &self,
        target: &TargetSpec,
        clock: ClockId,
        cap: i64,
        par: &ParallelOptions,
    ) -> Result<SupReport, CheckError> {
        let query = SupQuery {
            target: target.clone(),
            clock,
            initial_cap: cap,
            max_cap: cap,
        };
        let mut reports = self.par_sup_clocks_attempt(std::slice::from_ref(&query), &[cap], par)?;
        Ok(reports.pop().expect("one report per query"))
    }

    /// Parallel variant of [`Explorer::sup_clock_at_auto`]: doubles the cap
    /// (up to `max_cap`, same policy as the sequential query) until the
    /// supremum no longer touches it.
    pub fn par_sup_clock_at_auto(
        &self,
        target: &TargetSpec,
        clock: ClockId,
        initial_cap: i64,
        max_cap: i64,
        par: &ParallelOptions,
    ) -> Result<SupReport, CheckError> {
        crate::wcrt::auto_cap(initial_cap, max_cap, |cap| {
            self.par_sup_clock_at(target, clock, cap, par)
        })
    }

    /// Parallel variant of [`Explorer::sup_clocks_at_auto`]: computes every
    /// query's clock supremum in one parallel exploration per cap round,
    /// doubling the cap of any query whose supremum touched it.
    pub fn par_sup_clocks_at_auto(
        &self,
        queries: &[SupQuery],
        par: &ParallelOptions,
    ) -> Result<Vec<SupReport>, CheckError> {
        crate::wcrt::batched_auto_cap(queries, |caps| {
            self.par_sup_clocks_attempt(queries, caps, par)
        })
    }

    fn par_sup_clocks_attempt(
        &self,
        queries: &[SupQuery],
        caps: &[i64],
        par: &ParallelOptions,
    ) -> Result<Vec<SupReport>, CheckError> {
        let seeds = crate::wcrt::sup_query_seeds(self.system(), queries, caps);
        type Acc = (Vec<(Option<Bound>, bool)>, Option<CheckError>);
        let acc: Mutex<Acc> = Mutex::new((vec![(None, false); queries.len()], None));
        let visit = |state: &SymState| {
            // Matching runs outside the lock: observer `seen` states are rare
            // and every worker calls this for every expanded state, so the
            // common no-match path must stay lock-free.
            let mut guard = None;
            for (i, query) in queries.iter().enumerate() {
                match query.target.matches(state) {
                    Ok(true) => {
                        let b = state.zone.sup(query.clock.dbm_clock());
                        let g = guard.get_or_insert_with(|| acc.lock());
                        let slot = &mut g.0[i];
                        slot.0 = Some(match slot.0 {
                            Some(s) => s.max(b),
                            None => b,
                        });
                        slot.1 = true;
                    }
                    Ok(false) => {}
                    Err(e) => {
                        let g = guard.get_or_insert_with(|| acc.lock());
                        if g.1.is_none() {
                            g.1 = Some(e.into());
                        }
                        return;
                    }
                }
            }
        };
        let (_, stats) = self.par_run(None, &seeds, &visit, par)?;
        let (accs, error) = acc.into_inner();
        if let Some(e) = error {
            return Err(e);
        }
        Ok(crate::wcrt::assemble_sup_reports(accs, caps, &stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{SearchOptions, SearchOrder};
    use std::collections::HashSet;
    use tempo_ta::{ChannelKind, ClockRef, Sync as TaSync, System, SystemBuilder, Update, VarExprExt};

    /// A network with genuine interleaving: N workers that each cycle through
    /// three timed phases and a shared counter bounded by a semaphore-style
    /// guard.  Small enough to explore exhaustively, large enough that the
    /// parallel explorer actually distributes work.
    fn worker_pool(n: usize) -> System {
        let mut sb = SystemBuilder::new("pool");
        let busy = sb.add_var("busy", 0, 8, 0);
        let mut clocks = Vec::new();
        for i in 0..n {
            clocks.push(sb.add_clock(format!("x{i}")));
        }
        for (i, &x) in clocks.iter().enumerate() {
            let mut a = sb.automaton(format!("w{i}"));
            let idle = a.location("idle").add();
            let run = a.location("run").invariant(x.le(3 + i as i64)).add();
            let cool = a.location("cool").invariant(x.le(2)).add();
            a.edge(idle, run)
                .guard(busy.lt_(2))
                .update(Update::add(busy, 1))
                .reset(x)
                .add();
            a.edge(run, cool)
                .guard_clock(x.ge(1))
                .update(Update::add(busy, -1))
                .reset(x)
                .add();
            a.edge(cool, idle).guard_clock(x.eq_(2)).add();
            a.set_initial(idle);
            a.build();
        }
        sb.build()
    }

    /// A job pipeline with an observer clock captured in a committed location,
    /// mirroring the WCRT measurement pattern.
    fn observed_pipeline() -> System {
        let mut sb = SystemBuilder::new("obs");
        let x = sb.add_clock("x");
        let y = sb.add_clock("y");
        let done_ch = sb.add_channel("done", ChannelKind::Binary);
        let mut job = sb.automaton("job");
        let s0 = job.location("s0").invariant(x.le(4)).add();
        let s1 = job.location("s1").invariant(x.le(9)).add();
        let fin = job.location("fin").add();
        job.edge(s0, s1).guard_clock(x.ge(2)).reset(x).add();
        job.edge(s1, fin)
            .guard_clock(x.ge(3))
            .sync(TaSync::send(done_ch))
            .add();
        job.set_initial(s0);
        job.build();
        let mut obs = sb.automaton("obs");
        let wait = obs.location("wait").add();
        let seen = obs.location("seen").committed(true).add();
        let end = obs.location("end").add();
        obs.edge(wait, seen).sync(TaSync::recv(done_ch)).add();
        obs.edge(seen, end).add();
        obs.set_initial(wait);
        obs.build();
        let _ = y;
        sb.build()
    }

    #[test]
    fn parallel_reachability_matches_sequential() {
        let sys = worker_pool(3);
        let seq = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let busy = sys.var_by_name("busy").unwrap();
        // busy == 2 is reachable, busy == 3 is not (semaphore guard).
        let two = TargetSpec::any().with_int_guard(busy.ge_(2));
        let three = TargetSpec::any().with_int_guard(busy.ge_(3));
        let seq_two = seq.check_reachable(&two).unwrap().reachable;
        let seq_three = seq.check_reachable(&three).unwrap().reachable;
        assert!(seq_two);
        assert!(!seq_three);
        for workers in [1, 2, 4] {
            let par = ParallelOptions::with_workers(workers);
            assert_eq!(
                seq.par_check_reachable(&two, &par).unwrap().reachable,
                seq_two,
                "workers={workers}"
            );
            assert_eq!(
                seq.par_check_reachable(&three, &par).unwrap().reachable,
                seq_three,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_explore_covers_the_same_discrete_states() {
        let sys = worker_pool(3);
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let mut seq_states: HashSet<String> = HashSet::new();
        ex.explore(|s| {
            seq_states.insert(s.discrete.pretty(&sys));
        })
        .unwrap();
        let par_states: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let stats = ex
            .par_explore(
                &|s| {
                    par_states.lock().insert(s.discrete.pretty(&sys));
                },
                &ParallelOptions::with_workers(4),
            )
            .unwrap();
        let par_states = par_states.into_inner();
        assert_eq!(seq_states, par_states);
        assert!(stats.states_explored >= par_states.len());
        assert!(!stats.truncated);
    }

    #[test]
    fn parallel_sup_matches_sequential_sup() {
        let sys = observed_pipeline();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let seen = TargetSpec::location(&sys, "obs", "seen").unwrap();
        let seq = ex.sup_clock_at(&seen, y, 1_000).unwrap();
        assert_eq!(seq.exact_value(), Some(13)); // 4 + 9
        for workers in [1, 2, 4] {
            let par = ex
                .par_sup_clock_at(&seen, y, 1_000, &ParallelOptions::with_workers(workers))
                .unwrap();
            assert_eq!(par.exact_value(), seq.exact_value(), "workers={workers}");
            assert!(!par.cap_hit);
        }
    }

    #[test]
    fn parallel_sup_reports_cap_hits_like_sequential() {
        let sys = observed_pipeline();
        let y = sys.clock_by_name("y").unwrap();
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let seen = TargetSpec::location(&sys, "obs", "seen").unwrap();
        let par = ex
            .par_sup_clock_at(&seen, y, 5, &ParallelOptions::with_workers(2))
            .unwrap();
        assert!(par.cap_hit);
        assert_eq!(par.exact_value(), None);
    }

    #[test]
    fn parallel_state_limit_is_enforced() {
        let sys = worker_pool(3);
        let opts = SearchOptions {
            max_states: Some(5),
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let err = ex
            .par_state_space_size(&ParallelOptions::with_workers(2))
            .unwrap_err();
        assert!(matches!(err, CheckError::StateLimitExceeded { .. }));
    }

    #[test]
    fn parallel_truncation_is_graceful() {
        let sys = worker_pool(3);
        let opts = SearchOptions {
            max_states: Some(5),
            truncate_on_limit: true,
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let stats = ex
            .par_explore(&|_| {}, &ParallelOptions::with_workers(2))
            .unwrap();
        assert!(stats.truncated);
    }

    #[test]
    fn parallel_cancellation_latency_is_bounded() {
        use std::sync::Arc;
        let sys = worker_pool(3);
        let workers = 4usize;
        let trigger = 5usize;
        let cancel = Arc::new(AtomicBool::new(false));
        let opts = SearchOptions {
            hook: crate::SearchHook {
                cancel: Some(cancel.clone()),
                ..crate::SearchHook::default()
            },
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let visits = AtomicUsize::new(0);
        let err = ex
            .par_explore(
                &|_| {
                    if visits.fetch_add(1, Ordering::SeqCst) + 1 == trigger {
                        cancel.store(true, Ordering::SeqCst);
                    }
                },
                &ParallelOptions::with_workers(workers),
            )
            .unwrap_err();
        assert_eq!(err, CheckError::Cancelled);
        // The flag is polled before every pop, so after it is raised each
        // worker can complete at most the one expansion it had already
        // started.
        let total = visits.load(Ordering::SeqCst);
        assert!(
            total <= trigger + workers,
            "cancellation latency unbounded: {total} expansions for a flag raised at {trigger}"
        );
    }

    #[test]
    fn progress_callbacks_respect_the_global_stride() {
        use std::sync::Arc;
        let sys = worker_pool(3);
        let stride = 32usize;
        let fired = Arc::new(AtomicUsize::new(0));
        let reported_max = Arc::new(AtomicUsize::new(0));
        let opts = SearchOptions {
            hook: crate::SearchHook {
                progress: Some(Arc::new({
                    let fired = fired.clone();
                    let reported_max = reported_max.clone();
                    move |p: &SearchProgress| {
                        fired.fetch_add(1, Ordering::SeqCst);
                        reported_max.fetch_max(p.states_explored, Ordering::SeqCst);
                    }
                })),
                progress_every: stride,
                ..crate::SearchHook::default()
            },
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let stats = ex
            .par_explore(&|_| {}, &ParallelOptions::with_workers(4))
            .unwrap();
        let fired = fired.load(Ordering::SeqCst);
        // The k-th report requires the *global* expansion counter to reach
        // k·stride, so the callback count is bounded by total/stride — a
        // per-worker stride admitted up to `workers` reports per crossing.
        assert!(
            fired <= stats.states_explored / stride,
            "{fired} progress reports for {} expansions at stride {stride}",
            stats.states_explored
        );
        assert!(
            fired >= 1,
            "no progress report despite {} expansions at stride {stride}",
            stats.states_explored
        );
        // Reports carry the global counter, not one worker's share.
        assert!(reported_max.load(Ordering::SeqCst) >= stride);
    }

    #[test]
    fn injected_worker_panic_self_heals() {
        use crate::fault::{quiet_injected_panics, FaultKind, FaultPlan, FaultSite};
        use std::sync::Arc;
        quiet_injected_panics();
        let sys = worker_pool(3);
        // Fault-free sequential baseline.
        let baseline = Explorer::new(&sys, SearchOptions::default()).unwrap();
        let mut seq_states: HashSet<String> = HashSet::new();
        baseline
            .explore(|s| {
                seq_states.insert(s.discrete.pretty(&sys));
            })
            .unwrap();
        // One injected panic mid-exploration: the worker catches it, requeues
        // the state, and the exploration still covers everything.
        let plan = Arc::new(FaultPlan::single(FaultSite::SuccessorGen, FaultKind::Panic, 5));
        let opts = SearchOptions {
            hook: crate::SearchHook {
                faults: Some(plan.clone()),
                ..crate::SearchHook::default()
            },
            ..SearchOptions::default()
        };
        let ex = Explorer::new(&sys, opts).unwrap();
        let par_states: Mutex<HashSet<String>> = Mutex::new(HashSet::new());
        let stats = ex
            .par_explore(
                &|s| {
                    par_states.lock().insert(s.discrete.pretty(&sys));
                },
                &ParallelOptions::with_workers(4),
            )
            .unwrap();
        assert_eq!(plan.injected(), 1, "the panic rule must have fired");
        assert!(!stats.truncated);
        assert_eq!(par_states.into_inner(), seq_states);
    }

    #[test]
    fn deterministic_panics_fail_cleanly_after_the_retry_budget() {
        use crate::fault::quiet_injected_panics;
        quiet_injected_panics();
        let sys = worker_pool(2);
        let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
        // A visit callback that *always* panics exhausts some worker's
        // self-heal budget; the exploration must come back with a typed
        // error — no deadlock, no process abort.
        let err = ex
            .par_explore(
                &|_| panic!("chaos-mock: deterministic visit panic"),
                &ParallelOptions::with_workers(4),
            )
            .unwrap_err();
        assert!(
            matches!(&err, CheckError::WorkerPanicked { payload } if payload.contains("chaos-mock")),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn parallel_options_default_resolution() {
        let par = ParallelOptions::default();
        assert!(par.resolved_workers() >= 1);
        assert!(par.resolved_shards(par.resolved_workers()) >= 64);
        assert_eq!(ParallelOptions::with_workers(8).resolved_shards(8), 128);
        let fixed = ParallelOptions::with_workers(3);
        assert_eq!(fixed.resolved_workers(), 3);
    }

    #[test]
    fn parallel_agrees_with_all_sequential_search_orders() {
        let sys = worker_pool(2);
        let busy = sys.var_by_name("busy").unwrap();
        let target = TargetSpec::any().with_int_guard(busy.ge_(2));
        let par_verdict = {
            let ex = Explorer::new(&sys, SearchOptions::default()).unwrap();
            ex.par_check_reachable(&target, &ParallelOptions::with_workers(4))
                .unwrap()
                .reachable
        };
        for order in [SearchOrder::Bfs, SearchOrder::Dfs, SearchOrder::RandomDfs] {
            let ex = Explorer::new(&sys, SearchOptions::with_order(order)).unwrap();
            assert_eq!(
                ex.check_reachable(&target).unwrap().reachable,
                par_verdict,
                "{order:?}"
            );
        }
    }
}
