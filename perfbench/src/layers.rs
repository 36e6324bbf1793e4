//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run measures one pass twice: untraced, as the untraced run does, and
//! traced, with a `tempo_obs::MetricsRegistry` installed and the benchmark's
//! own spans around each call into a layer.  The untraced side is the base of
//! `obs.overhead_ratio` and of the exact-repeat check.  The table workloads
//! run each cell and row both ways back to back, alternating which goes
//! first; `design-sweep` runs an untraced warm-up pass, the traced pass, and
//! the untraced base pass.  Either way both sides of the ratio run warm.  In
//! the traced pass:
//!
//! * a cell is decomposed into `model.build` (`radio_navigation`),
//!   `model.validate` (`ArchitectureModel::validate`), `gen` (`generate`) and
//!   `explore` with one `explore.round` per auto-cap attempt
//!   (`Explorer::sup_clock_at`, the calls `Session::wcrt` makes); its answer
//!   and counts must equal the untraced `Session::wcrt`;
//! * the registry's existing explorer spans and store counters give the
//!   phase times and store counts of those explorations.
//!
//! `table1-quick` then decomposes the bur HandleTMC (+ AddressLookup) cell,
//! which its pass leaves out.  Probes that follow run with tracing off: DBM
//! operation costs on zones sampled from the slowest cell, each comparator
//! engine through `Engine::run`, and the cache (`AnalysisDb::run`) and wire
//! (`tempo_serve`) layers.  Spans and one row per cell and request are
//! written to `perfbench/out/trace-<workload>-<seed>.json`.

use crate::reference::{Checker, Reference};
use crate::repeat::{first_difference, Records};
use crate::sweep::{self, Cone, SweepPass, WalkStep};
use crate::tables::{self, CellSpec, TableWorkload};
use crate::trace::Tracer;
use crate::util::{median, quantile, Metric};
use crate::{Args, Outcome};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tempo_arch::engine::{Engine, EngineStatus, Estimate, Query, RunContext};
use tempo_arch::generator::{generate, GeneratedModel};
use tempo_arch::incremental::{AnalysisDb, DbStats};
use tempo_arch::model::{ArchitectureModel, Requirement};
use tempo_arch::{AnalysisConfig, ArchError, TimeValue};
use tempo_check::{ExplorationStats, Explorer, SearchOptions, TargetSpec};
use tempo_dbm::{Bound, Clock, Dbm};
use tempo_obs::{MetricsRegistry, MetricsSnapshot};
use tempo_serve::json::{self, JsonValue};
use tempo_serve::{protocol, wire, QueryOpts};

/// Cache hits asked per probed cell in the table workloads' cache probe.
const HIT_REPEATS: usize = 20;
/// Stored-state budget of the exploration that samples zones for the DBM probe.
const DBM_SAMPLE_STATES: usize = 50_000;
const DBM_MAX_ZONES: usize = 4_096;

/// Totals of the existing `tempo_obs` explorer spans and store counters.
#[derive(Clone, Copy, Default)]
struct ObsTotals {
    successor_gen_ns: u64,
    close_extrapolate_ns: u64,
    store_insert_ns: u64,
    subsumed: u64,
    subsumed_by_union: u64,
    merged: u64,
    evicted: u64,
    hull_short_circuit: u64,
    reduce_passes: u64,
}

impl ObsTotals {
    fn of(s: &MetricsSnapshot) -> ObsTotals {
        ObsTotals {
            successor_gen_ns: s.span_total_nanos("explore.successor_gen"),
            close_extrapolate_ns: s.span_total_nanos("explore.close_extrapolate"),
            store_insert_ns: s.span_total_nanos("explore.store_insert"),
            subsumed: s.counter("store.subsumed"),
            subsumed_by_union: s.counter("store.subsumed_by_union"),
            merged: s.counter("store.merged"),
            evicted: s.counter("store.evicted"),
            hull_short_circuit: s.counter("store.hull_short_circuit"),
            reduce_passes: s.counter("store.reduce_passes"),
        }
    }

    fn minus(self, o: ObsTotals) -> ObsTotals {
        ObsTotals {
            successor_gen_ns: self.successor_gen_ns - o.successor_gen_ns,
            close_extrapolate_ns: self.close_extrapolate_ns - o.close_extrapolate_ns,
            store_insert_ns: self.store_insert_ns - o.store_insert_ns,
            subsumed: self.subsumed - o.subsumed,
            subsumed_by_union: self.subsumed_by_union - o.subsumed_by_union,
            merged: self.merged - o.merged,
            evicted: self.evicted - o.evicted,
            hull_short_circuit: self.hull_short_circuit - o.hull_short_circuit,
            reduce_passes: self.reduce_passes - o.reduce_passes,
        }
    }

    fn add(&mut self, o: ObsTotals) {
        self.successor_gen_ns += o.successor_gen_ns;
        self.close_extrapolate_ns += o.close_extrapolate_ns;
        self.store_insert_ns += o.store_insert_ns;
        self.subsumed += o.subsumed;
        self.subsumed_by_union += o.subsumed_by_union;
        self.merged += o.merged;
        self.evicted += o.evicted;
        self.hull_short_circuit += o.hull_short_circuit;
        self.reduce_passes += o.reduce_passes;
    }
}

/// Per-layer accumulators of one traced run, with its spans and registry.
#[derive(Default)]
struct Layers {
    tracer: Tracer,
    registry: Arc<MetricsRegistry>,
    build_s: f64,
    validate_s: f64,
    gen_s: f64,
    gen_clocks: usize,
    gen_locations: usize,
    gen_edges: usize,
    gen_max_constant: i64,
    explore_s: f64,
    explored: usize,
    stored_cumulative: usize,
    stored_live: usize,
    transitions: usize,
    peak_waiting: usize,
    truncated: usize,
    cap_rounds: usize,
    last_round_explored: usize,
    obs: ObsTotals,
    dbm_ns: [f64; 6],
    sim_s: f64,
    symta_s: f64,
    rtc_s: f64,
    portfolio_overhead_s: f64,
    declined: usize,
    db_hit_us: Vec<f64>,
    db_miss_ms: Vec<f64>,
    db_stats: DbStats,
    rtt_overhead_us: Vec<f64>,
    codec_us: Vec<f64>,
    refused: usize,
    overhead_ratio: f64,
    /// One row per cell and request.
    rows: Vec<JsonValue>,
}

/// A decomposed cell: the answer and the counts of its last round, as
/// `Session::wcrt` reports them.
struct Decomposed {
    result: Result<(Estimate, ExplorationStats), String>,
    explore_s: f64,
}

fn arch_err(e: impl Into<ArchError>) -> String {
    e.into().to_string()
}

/// The rounds `analyze_generated` runs: `sup_clock_at` with the cap doubled
/// until the supremum stays below it, the search truncates or the cap
/// reaches its maximum.
fn explore_rounds(
    tracer: &mut Tracer,
    op: u64,
    generated: &GeneratedModel,
    req: &Requirement,
    cfg: &AnalysisConfig,
    rounds: &mut Vec<ExplorationStats>,
) -> Result<(Estimate, ExplorationStats), String> {
    let observer = generated
        .observer
        .as_ref()
        .ok_or_else(|| "generated network has no observer".to_string())?;
    let explorer = Explorer::new(&generated.system, cfg.search.clone()).map_err(arch_err)?;
    let target = TargetSpec::location(
        &generated.system,
        &observer.automaton,
        &observer.seen_location,
    )
    .map_err(arch_err)?;
    let q = &generated.quantizer;
    let deadline_ticks = q.to_ticks(req.deadline).max(1);
    let initial_cap = deadline_ticks.saturating_mul(cfg.initial_cap_factor.max(1));
    let max_cap = deadline_ticks.saturating_mul(cfg.max_cap_factor.max(cfg.initial_cap_factor));
    let mut cap = initial_cap.max(1);
    loop {
        let (report, _) = tracer.span("explore.round", op, |_| {
            explorer.sup_clock_at(&target, observer.clock, cap)
        });
        let report = report.map_err(arch_err)?;
        rounds.push(report.stats.clone());
        if !report.cap_hit || report.stats.truncated || cap >= max_cap {
            let sup = report
                .sup
                .and_then(Bound::finite_constant)
                .map(|t| q.from_ticks(t));
            let estimate = if report.stats.truncated {
                Estimate::LowerBound(sup.unwrap_or(TimeValue::ZERO))
            } else if report.cap_hit {
                Estimate::LowerBound(q.from_ticks(report.cap))
            } else {
                sup.map_or(Estimate::LowerBound(TimeValue::ZERO), Estimate::Exact)
            };
            return Ok((estimate, report.stats));
        }
        cap = (cap * 2).min(max_cap);
    }
}

impl Layers {
    /// Answers one WCRT query layer by layer, recording spans and sizes.
    fn decompose(
        &mut self,
        op: u64,
        id: &str,
        build: impl FnOnce() -> ArchitectureModel,
        requirement: &str,
        cfg: &AnalysisConfig,
    ) -> Decomposed {
        let obs_before = ObsTotals::of(&self.registry.snapshot());
        let tracer = &mut self.tracer;
        let cell = tracer.enter("cell", op);
        let (model, build_s) = tracer.span("model.build", op, |_| build());
        self.build_s += build_s;
        let (valid, validate_s) = tracer.span("model.validate", op, |_| model.validate());
        self.validate_s += validate_s;
        let mut rounds = Vec::new();
        let mut explore_s = 0.0;
        let mut gen_s = 0.0;
        let mut sizes = (0, 0, 0, 0);
        let result = valid.map_err(arch_err).and_then(|()| {
            let req = model
                .requirement_by_name(requirement)
                .cloned()
                .ok_or_else(|| format!("unknown requirement `{requirement}`"))?;
            let (generated, secs) =
                tracer.span("gen", op, |_| generate(&model, Some(&req), &cfg.generator));
            gen_s = secs;
            let generated = generated.map_err(arch_err)?;
            let sys = &generated.system;
            sizes = (
                sys.num_clocks(),
                sys.automata
                    .iter()
                    .map(|a| a.locations.len())
                    .sum::<usize>(),
                sys.automata.iter().map(|a| a.edges.len()).sum::<usize>(),
                sys.max_clock_constants().into_iter().max().unwrap_or(0),
            );
            let (answer, secs) = tracer.span("explore", op, |t| {
                explore_rounds(t, op, &generated, &req, cfg, &mut rounds)
            });
            explore_s = secs;
            answer
        });
        tracer.exit(cell);
        self.gen_s += gen_s;
        self.gen_clocks += sizes.0;
        self.gen_locations += sizes.1;
        self.gen_edges += sizes.2;
        self.gen_max_constant = self.gen_max_constant.max(sizes.3);
        let obs = ObsTotals::of(&self.registry.snapshot()).minus(obs_before);
        self.obs.add(obs);
        self.explore_s += explore_s;
        self.cap_rounds += rounds.len();
        for r in &rounds {
            self.explored += r.states_explored;
            self.stored_cumulative += r.stored_cumulative;
            self.transitions += r.transitions;
            self.peak_waiting = self.peak_waiting.max(r.peak_waiting);
        }
        if let Some(last) = rounds.last() {
            self.last_round_explored += last.states_explored;
            self.stored_live += last.stored_live;
            self.truncated += usize::from(last.truncated);
        }
        self.rows.push(JsonValue::obj([
            ("kind", "cell".into()),
            ("id", id.into()),
            ("op", op.into()),
            (
                "verdict",
                match &result {
                    Ok((e, _)) => e.to_string().into(),
                    Err(e) => format!("error: {e}").into(),
                },
            ),
            ("explore_s", JsonValue::Float(explore_s)),
            (
                "rounds_states_explored",
                JsonValue::Array(rounds.iter().map(|r| r.states_explored.into()).collect()),
            ),
            (
                "successor_gen_s",
                JsonValue::Float(obs.successor_gen_ns as f64 / 1e9),
            ),
            (
                "close_extrapolate_s",
                JsonValue::Float(obs.close_extrapolate_ns as f64 / 1e9),
            ),
            (
                "store_insert_s",
                JsonValue::Float(obs.store_insert_ns as f64 / 1e9),
            ),
        ]));
        Decomposed { result, explore_s }
    }

    /// DBM operation costs (ns/op) on zones sampled through the public
    /// `Explorer::explore` visitor from the given network.
    fn dbm_probe(&mut self, model: &ArchitectureModel, requirement: &str, cfg: &AnalysisConfig) {
        let Some(req) = model.requirement_by_name(requirement).cloned() else {
            return;
        };
        let Ok(generated) = generate(model, Some(&req), &cfg.generator) else {
            return;
        };
        let opts = SearchOptions {
            max_states: Some(DBM_SAMPLE_STATES),
            truncate_on_limit: true,
            ..cfg.search.clone()
        };
        let Ok(explorer) = Explorer::new(&generated.system, opts) else {
            return;
        };
        let mut seen = 0usize;
        let mut zones: Vec<Dbm> = Vec::new();
        let _ = explorer.explore(|s| {
            seen += 1;
            if seen.is_multiple_of(8) && zones.len() < DBM_MAX_ZONES {
                zones.push(s.zone.clone());
            }
        });
        if zones.len() < 2 {
            return;
        }
        let k = generated.system.max_clock_constants();
        let reps = 5;
        // ns per call of `op` over the sampled zones; the mutated copies are
        // made before the clock starts.
        let per_op = |op: &mut dyn FnMut(&mut Dbm, &Dbm)| -> f64 {
            let mut total_ns = 0u128;
            for _ in 0..reps {
                let mut work = zones.clone();
                let started = Instant::now();
                for (z, other) in work.iter_mut().zip(&zones[1..]) {
                    op(z, other);
                }
                total_ns += started.elapsed().as_nanos();
                black_box(&work);
            }
            total_ns as f64 / (reps * (zones.len() - 1)) as f64
        };
        let close = per_op(&mut |z, _| z.close());
        let up = per_op(&mut |z, _| {
            z.up();
        });
        let constrain = per_op(&mut |z, _| {
            let half = match z.get(Clock(1), Clock::REF).finite_constant() {
                Some(c) => c / 2,
                None => k.get(1).copied().unwrap_or(0) / 2,
            };
            z.constrain(Clock(1), Clock::REF, Bound::weak(half));
        });
        let extrapolate = per_op(&mut |z, _| {
            z.extrapolate_max_bounds(&k);
        });
        let includes = per_op(&mut |z, other| {
            black_box(z.includes(other));
        });
        let subtract = per_op(&mut |z, other| {
            black_box(z.subtract(other));
        });
        self.dbm_ns = [close, up, constrain, extrapolate, includes, subtract];
    }

    /// Each comparator engine through `Engine::run`, and the portfolio's own
    /// share of `Portfolio::compare`: its wall time minus the wall times its
    /// member engines report for that same call.
    fn engine_probe(&mut self, models: &[(ArchitectureModel, &str)], seed: u64) {
        let ctx = RunContext::default();
        let tracer = &mut self.tracer;
        for (i, (model, requirement)) in models.iter().enumerate() {
            let op = 1_000_000 + i as u64;
            let query = Query::wcrt(*requirement);
            let (comparison, compare_s) = tracer.span("portfolio.compare", op, |_| {
                tables::portfolio(seed).compare(model, &query, &ctx)
            });
            if let Ok(c) = &comparison {
                let members_s: f64 = c
                    .rows
                    .iter()
                    .filter_map(|r| r.outcome.as_ref().ok())
                    .map(|r| r.wall_time.as_secs_f64())
                    .sum();
                self.portfolio_overhead_s += compare_s - members_s;
                self.declined += c
                    .rows
                    .iter()
                    .filter(|r| !matches!(r.status, EngineStatus::Ok | EngineStatus::Truncated))
                    .count();
            }
            let engines: [(&'static str, Box<dyn Engine>, &mut f64); 3] = [
                (
                    "engine.simulation",
                    Box::new(tempo_sim::SimEngine::with_config(tables::sim_config(seed))),
                    &mut self.sim_s,
                ),
                (
                    "engine.symta",
                    Box::new(tempo_symta::SymtaEngine),
                    &mut self.symta_s,
                ),
                (
                    "engine.mpa",
                    Box::new(tempo_rtc::RtcEngine),
                    &mut self.rtc_s,
                ),
            ];
            for (name, engine, total) in engines {
                let (_, secs) =
                    tracer.span(name, op, |_| black_box(engine.run(model, &query, &ctx)));
                *total += secs;
            }
        }
    }

    fn db_stats(&mut self, s: DbStats) {
        self.db_stats.hits += s.hits;
        self.db_stats.misses += s.misses;
        self.db_stats.invalidations += s.invalidations;
        self.db_stats.generations += s.generations;
    }

    fn metrics(&self) -> Vec<Metric> {
        let o = &self.obs;
        let s = |ns: u64| ns as f64 / 1e9;
        let attempts =
            self.stored_cumulative as f64 + o.subsumed as f64 + o.subsumed_by_union as f64;
        let attributed = s(o.successor_gen_ns) + s(o.store_insert_ns);
        let db_queries = (self.db_stats.hits + self.db_stats.misses) as f64;
        let n_hit = self.db_hit_us.len();
        let n_rtt = self.rtt_overhead_us.len();
        vec![
            Metric::new("model.build_s", self.build_s, "s", 1),
            Metric::new("model.validate_s", self.validate_s, "s", 1),
            Metric::new("gen.s", self.gen_s, "s", 1),
            Metric::new("gen.clocks", self.gen_clocks as f64, "count", 1),
            Metric::new("gen.locations", self.gen_locations as f64, "count", 1),
            Metric::new("gen.edges", self.gen_edges as f64, "count", 1),
            Metric::new("gen.max_constant", self.gen_max_constant as f64, "ticks", 1),
            Metric::new("explore.s", self.explore_s, "s", 1),
            Metric::new("explore.states_explored", self.explored as f64, "count", 1),
            Metric::new(
                "explore.stored_cumulative",
                self.stored_cumulative as f64,
                "count",
                1,
            ),
            Metric::new("explore.stored_live", self.stored_live as f64, "count", 1),
            Metric::new("explore.transitions", self.transitions as f64, "count", 1),
            Metric::new("explore.peak_waiting", self.peak_waiting as f64, "count", 1),
            Metric::new(
                "explore.states_per_s",
                self.explored as f64 / self.explore_s.max(1e-12),
                "1/s",
                1,
            ),
            Metric::new("explore.truncated", self.truncated as f64, "count", 1),
            Metric::new("explore.cap_rounds", self.cap_rounds as f64, "count", 1),
            Metric::new(
                "explore.useful_ratio",
                self.last_round_explored as f64 / (self.explored as f64).max(1.0),
                "ratio",
                self.cap_rounds,
            ),
            Metric::new(
                "explore.successor_gen_self_s",
                s(o.successor_gen_ns.saturating_sub(o.close_extrapolate_ns)),
                "s",
                1,
            ),
            Metric::new(
                "explore.close_extrapolate_s",
                s(o.close_extrapolate_ns),
                "s",
                1,
            ),
            Metric::new("explore.store_insert_s", s(o.store_insert_ns), "s", 1),
            Metric::new(
                "explore.unattributed_s",
                (self.explore_s - attributed).max(0.0),
                "s",
                1,
            ),
            Metric::new("store.subsumed", o.subsumed as f64, "count", 1),
            Metric::new(
                "store.subsumed_by_union",
                o.subsumed_by_union as f64,
                "count",
                1,
            ),
            Metric::new("store.merged", o.merged as f64, "count", 1),
            Metric::new("store.evicted", o.evicted as f64, "count", 1),
            Metric::new(
                "store.hull_short_circuit",
                o.hull_short_circuit as f64,
                "count",
                1,
            ),
            Metric::new("store.reduce_passes", o.reduce_passes as f64, "count", 1),
            Metric::new(
                "store.useful_ratio",
                self.stored_cumulative as f64 / attempts.max(1.0),
                "ratio",
                1,
            ),
            Metric::new("dbm.close_ns", self.dbm_ns[0], "ns", 1),
            Metric::new("dbm.up_ns", self.dbm_ns[1], "ns", 1),
            Metric::new("dbm.constrain_ns", self.dbm_ns[2], "ns", 1),
            Metric::new("dbm.extrapolate_ns", self.dbm_ns[3], "ns", 1),
            Metric::new("dbm.includes_ns", self.dbm_ns[4], "ns", 1),
            Metric::new("dbm.subtract_ns", self.dbm_ns[5], "ns", 1),
            Metric::new("sim.s", self.sim_s, "s", 1),
            Metric::new("symta.s", self.symta_s, "s", 1),
            Metric::new("rtc.s", self.rtc_s, "s", 1),
            Metric::new("portfolio.overhead_s", self.portfolio_overhead_s, "s", 1),
            Metric::new("engine.declined", self.declined as f64, "count", 1),
            Metric::new("db.hit_us_p50", median(&self.db_hit_us), "us", n_hit),
            Metric::new(
                "db.hit_us_p99",
                quantile(&self.db_hit_us, 0.99),
                "us",
                n_hit,
            ),
            Metric::new(
                "db.miss_ms",
                median(&self.db_miss_ms),
                "ms",
                self.db_miss_ms.len(),
            ),
            Metric::new("db.hits", self.db_stats.hits as f64, "count", 1),
            Metric::new("db.misses", self.db_stats.misses as f64, "count", 1),
            Metric::new(
                "db.invalidations",
                self.db_stats.invalidations as f64,
                "count",
                1,
            ),
            Metric::new(
                "db.generations",
                self.db_stats.generations as f64,
                "count",
                1,
            ),
            Metric::new(
                "db.hit_ratio",
                self.db_stats.hits as f64 / db_queries.max(1.0),
                "ratio",
                db_queries as usize,
            ),
            Metric::new(
                "serve.rtt_overhead_us_p50",
                median(&self.rtt_overhead_us),
                "us",
                n_rtt,
            ),
            Metric::new(
                "serve.rtt_overhead_us_p99",
                quantile(&self.rtt_overhead_us, 0.99),
                "us",
                n_rtt,
            ),
            Metric::new(
                "serve.codec_us",
                median(&self.codec_us),
                "us",
                self.codec_us.len(),
            ),
            Metric::new("serve.refused", self.refused as f64, "count", 1),
            Metric::new("obs.overhead_ratio", self.overhead_ratio, "ratio", 1),
            Metric::new(
                "obs.phase_coverage",
                attributed / self.explore_s.max(1e-12),
                "ratio",
                1,
            ),
        ]
    }
}

/// Client-side wire encode/decode time of one step: the `edit_model` and read
/// request lines are encoded and the read's response line decoded.
fn codec_us(name: &str, model: &ArchitectureModel, queries: &[Query], response: &str) -> f64 {
    let opts = QueryOpts::default();
    let started = Instant::now();
    black_box(protocol::request_edit_model(1, model));
    black_box(if queries.len() == 1 {
        protocol::request_query(2, name, &queries[0], &opts)
    } else {
        protocol::request_query_batch(2, name, queries, &opts)
    });
    let parsed = json::parse(response).expect("response line parses");
    black_box(sweep::parse_answers(
        parsed.get("result").unwrap_or(&JsonValue::Null),
    ));
    started.elapsed().as_secs_f64() * 1e6
}

/// The response line the server writes for a read answered by `report`.
fn response_line(report: &tempo_arch::engine::EngineReport, batch: bool) -> String {
    let result = if batch {
        let rows: Vec<JsonValue> = report
            .estimates
            .iter()
            .map(|e| {
                let mut split = report.clone();
                split.estimates = vec![e.clone()];
                JsonValue::obj([
                    ("ok", true.into()),
                    ("report", wire::report_to_json(&split)),
                ])
            })
            .collect();
        JsonValue::obj([("batched", true.into()), ("results", rows.into())])
    } else {
        wire::report_to_json(report)
    };
    protocol::response_ok(2, result)
}

impl Layers {
    /// Writes the spans, self times, rows and registry snapshot, then
    /// returns the outcome.
    fn finish(&self, args: &Args, checker: Checker, ops: (usize, usize)) -> Outcome {
        let self_times = JsonValue::Object(
            self.tracer
                .self_times()
                .into_iter()
                .map(|(name, (count, secs))| {
                    (
                        name.to_string(),
                        JsonValue::obj([
                            ("count", count.into()),
                            ("self_s", JsonValue::Float(secs)),
                        ]),
                    )
                })
                .collect(),
        );
        let doc = JsonValue::obj([
            ("workload", args.workload.as_str().into()),
            ("seed", args.seed.into()),
            ("spans", self.tracer.to_json()),
            ("self_time", self_times),
            ("rows", JsonValue::Array(self.rows.clone())),
            (
                "tempo_obs",
                json::parse(&self.registry.snapshot().to_json()).unwrap_or(JsonValue::Null),
            ),
        ]);
        let path =
            crate::repeat::out_dir().join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, doc.print()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        Outcome {
            checker,
            attempted: ops.0,
            failed: ops.1,
            metrics: self.metrics(),
            extra: Vec::new(),
        }
    }

    /// Cache and wire probe of the table workloads: each po cell is loaded
    /// once, asked once (a miss) and [`HIT_REPEATS`] more times (hits), in
    /// process through `AnalysisDb::run` and over the wire.
    fn table_cache_probe(&mut self, cells: &[CellSpec]) {
        let db = AnalysisDb::new(AnalysisConfig::default());
        let ctx = RunContext::default();
        let name = "probe";
        let mut inproc: Vec<Vec<f64>> = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            let mut model = cell.model();
            model.name = name.to_string();
            let query = Query::wcrt(cell.requirement);
            let mut times = Vec::new();
            for k in 0..=HIT_REPEATS {
                let op = 2_000_000 + (i * 100 + k) as u64;
                let (report, secs) = self
                    .tracer
                    .span("db.run", op, |_| db.run(&model, &query, &ctx));
                times.push(secs);
                if k == 0 {
                    self.db_miss_ms.push(secs * 1e3);
                } else {
                    self.db_hit_us.push(secs * 1e6);
                }
                if let Ok(report) = report {
                    let line = response_line(&report, false);
                    self.codec_us
                        .push(codec_us(name, &model, std::slice::from_ref(&query), &line));
                }
            }
            inproc.push(times);
        }
        self.db_stats(db.stats());

        let mut served = sweep::start(&[name.to_string()], &[cells[0].model()]);
        let opts = QueryOpts::default();
        for (i, cell) in cells.iter().enumerate() {
            let mut model = cell.model();
            model.name = name.to_string();
            let client = &mut served.clients[0];
            let _ = client.edit_model(&model);
            let query = Query::wcrt(cell.requirement);
            for (k, local_s) in inproc[i].iter().enumerate() {
                let op = 3_000_000 + (i * 100 + k) as u64;
                let (response, rtt) = self
                    .tracer
                    .span("serve.read", op, |_| client.query(name, &query, &opts));
                if let Ok(Err(e)) = &response {
                    self.refused += usize::from(e.kind == "overloaded");
                }
                if k > 0 {
                    self.rtt_overhead_us.push((rtt - local_s) * 1e6);
                }
            }
        }
        served.shutdown();
    }

    /// In-process replay of the walks through `AnalysisDb::run`, round robin
    /// over the clients.  Returns the call time per `(client, step)`.
    fn sweep_replay(
        &mut self,
        walks: &[Vec<WalkStep>],
        checker: &mut Checker,
    ) -> HashMap<(usize, usize), f64> {
        let db = AnalysisDb::new(AnalysisConfig::default());
        let ctx = RunContext::default();
        let misses: Vec<Vec<bool>> = walks.iter().map(|w| sweep::classify(w)).collect();
        let longest = walks.iter().map(Vec::len).max().unwrap_or(0);
        let order = (0..longest).flat_map(|i| (0..walks.len()).map(move |c| (c, i)));
        let mut times = HashMap::new();
        for (c, i) in order {
            let Some(step) = walks[c].get(i) else {
                continue;
            };
            let name = sweep::client_name(c);
            let model = step.model(&name);
            let query = Query::WcrtAll;
            let before = db.stats().misses;
            let (report, secs) = self.tracer.span("db.run", sweep::request_op(c, i), |_| {
                db.run(&model, &query, &ctx)
            });
            let miss = db.stats().misses > before;
            if miss != misses[c][i] {
                checker.fail(format!(
                    "client {c} step {i}: in-process cache {} where the walk implies the opposite",
                    if miss { "missed" } else { "hit" }
                ));
            }
            if miss {
                self.db_miss_ms.push(secs * 1e3);
            } else {
                self.db_hit_us.push(secs * 1e6);
            }
            times.insert((c, i), secs);
            if let Ok(report) = report {
                let line = response_line(&report, true);
                let queries = sweep::REQUIREMENTS.map(Query::wcrt);
                self.codec_us.push(codec_us(&name, &model, &queries, &line));
            }
        }
        self.db_stats(db.stats());
        times
    }

    /// One row per read of `pass`, and the wire overhead of its cached reads.
    fn request_rows(
        &mut self,
        pass: &SweepPass,
        walks: &[Vec<WalkStep>],
        inproc: &HashMap<(usize, usize), f64>,
    ) {
        for r in &pass.reads {
            let step = &walks[r.client][r.step];
            let local = inproc.get(&(r.client, r.step)).copied().unwrap_or(0.0);
            if !r.miss {
                self.rtt_overhead_us.push((r.rtt_s - local) * 1e6);
            }
            let answers = r
                .answers
                .iter()
                .map(|(req, e, states)| format!("{req} {e} states={states:?}").into())
                .collect();
            self.rows.push(JsonValue::obj([
                ("kind", "request".into()),
                ("op", sweep::request_op(r.client, r.step).into()),
                ("tick_moved", step.tick_moved.into()),
                ("miss", r.miss.into()),
                ("rtt_us", JsonValue::Float(r.rtt_s * 1e6)),
                ("db_us", JsonValue::Float(local * 1e6)),
                ("answers", JsonValue::Array(answers)),
            ]));
        }
        self.refused += pass.reads.iter().filter(|r| r.refused).count();
    }
}

/// One operation of a table pass.
enum Op<'a> {
    Cell(&'a CellSpec),
    Row(&'a tables::Table2Row),
}

/// The traced run of `table1-quick` and `paper-params`.
pub fn run_table(workload: TableWorkload, args: &Args) -> Outcome {
    use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn};
    let reference = Reference::load();
    let (cells, rows) = tables::pass_ops(workload);
    let mut checker = Checker::default();

    // Each cell and row runs untraced (as the untraced run does) and traced,
    // back to back, alternating which goes first.  Both sides of
    // `obs.overhead_ratio` thus run in the same warm state, and the first
    // pass of the process, which is the slowest, is split between them.
    let mut layers = Layers::default();
    let cfg = tables::cell_config();
    let params = CaseStudyParams::default();
    let mut untraced = tables::Pass {
        cells: Vec::new(),
        rows: Vec::new(),
        wall_s: 0.0,
    };
    let mut traced_wall = 0.0;
    let mut traced_records: Records = Vec::new();
    let mut slowest: Option<(f64, &CellSpec)> = None;
    let ops: Vec<Op> = cells
        .iter()
        .map(Op::Cell)
        .chain(rows.iter().map(Op::Row))
        .collect();
    for (i, op) in ops.iter().enumerate() {
        for traced in [i % 2 == 1, i % 2 == 0] {
            if !traced {
                let started = Instant::now();
                match op {
                    Op::Cell(spec) => untraced.cells.push(tables::run_cell(spec, &cfg)),
                    Op::Row(row) => untraced.rows.push(tables::run_row(row, &params, args.seed)),
                }
                untraced.wall_s += started.elapsed().as_secs_f64();
                continue;
            }
            tempo_obs::install(layers.registry.clone());
            let started = Instant::now();
            match op {
                Op::Cell(spec) => {
                    let d = layers.decompose(
                        i as u64,
                        &spec.id,
                        || spec.model(),
                        spec.requirement,
                        &cfg,
                    );
                    if slowest.is_none_or(|(s, _)| d.explore_s > s) {
                        slowest = Some((d.explore_s, spec));
                    }
                    let record = match &d.result {
                        Ok((estimate, stats)) => {
                            tables::check_cell(
                                &reference,
                                &mut checker,
                                spec,
                                *estimate,
                                args.seed,
                            );
                            tables::record_of(*estimate, stats)
                        }
                        Err(e) => format!("error: {e}"),
                    };
                    traced_records.push((spec.id.clone(), record));
                }
                Op::Row(row) => {
                    let (outcome, _) = layers.tracer.span("table2.row", i as u64, |_| {
                        tables::run_row(row, &params, args.seed)
                    });
                    traced_records.extend(outcome.records(args.seed));
                }
            }
            traced_wall += started.elapsed().as_secs_f64();
            tempo_obs::uninstall();
        }
    }
    layers.overhead_ratio = traced_wall / untraced.wall_s;
    untraced.check(&cells, &reference, &mut checker, args.seed);
    let untraced_records = untraced.records(args.seed);
    if let Some(diff) = first_difference(&untraced_records, &traced_records) {
        checker.fail(format!(
            "exact-repeat: the traced run differs from the untraced run at {diff}"
        ));
    }
    crate::check_repeats(&mut checker, &args.workload, &[untraced_records]);

    // table1-quick's pass leaves out the bur column; its slowest cell is
    // decomposed here so the layers see the flat store's truncation.
    let bur = tables::bur_cell();
    if workload == TableWorkload::Quick {
        tempo_obs::install(layers.registry.clone());
        let d = layers.decompose(
            cells.len() as u64,
            &bur.id,
            || bur.model(),
            bur.requirement,
            &cfg,
        );
        tempo_obs::uninstall();
        match &d.result {
            Ok((estimate, stats)) => {
                tables::check_cell(&reference, &mut checker, &bur, *estimate, args.seed);
                let record = vec![(bur.id.clone(), tables::record_of(*estimate, stats))];
                crate::check_repeats(&mut checker, &args.workload, &[record]);
            }
            Err(e) => checker.fail(format!("{}: {e}", bur.id)),
        }
        if slowest.is_none_or(|(s, _)| d.explore_s > s) {
            slowest = Some((d.explore_s, &bur));
        }
    }
    if let Some((_, spec)) = slowest {
        layers.dbm_probe(&spec.model(), spec.requirement, &cfg);
    }
    let cell_params = cells[0].params.clone();
    let pno: Vec<(ArchitectureModel, &str)> = tables::table2_rows()
        .into_iter()
        .map(|row| {
            let model = radio_navigation(
                row.combo,
                EventModelColumn::PeriodicUnknownOffset,
                &cell_params,
            );
            (model, row.requirement)
        })
        .collect();
    layers.engine_probe(&pno, args.seed);
    let po_cells: Vec<CellSpec> = cells
        .iter()
        .filter(|c| c.column == EventModelColumn::PeriodicOffsetZero)
        .cloned()
        .collect();
    layers.table_cache_probe(&po_cells);
    layers.finish(args, checker, untraced.ops())
}

/// The traced run of `design-sweep`.
pub fn run_sweep(args: &Args) -> Outcome {
    let walks = sweep::walks(args.seed);
    let references = sweep::reference_answers(&walks);
    let mut checker = Checker::default();

    // Warm-up, traced pass, then the untraced base pass (see `run_table`).
    let warm_up = sweep::run_pass(&walks, None);
    let mut layers = Layers::default();
    tempo_obs::install(layers.registry.clone());
    let traced = sweep::run_pass(&walks, Some(&mut layers.tracer));
    tempo_obs::uninstall();
    let base = sweep::run_pass(&walks, None);
    layers.overhead_ratio = traced.wall_s / base.wall_s;
    for pass in [&warm_up, &traced, &base] {
        sweep::check_pass(pass, &walks, &references, &mut checker);
    }
    let untraced_records = warm_up.records(&walks, args.seed);
    if let Some(diff) = first_difference(&untraced_records, &traced.records(&walks, args.seed)) {
        checker.fail(format!(
            "exact-repeat: the traced run differs from the untraced run at {diff}"
        ));
    }
    crate::check_repeats(
        &mut checker,
        &args.workload,
        &[untraced_records, base.records(&walks, args.seed)],
    );

    let inproc = layers.sweep_replay(&walks, &mut checker);
    layers.request_rows(&base, &walks, &inproc);

    // Layer by layer over every distinct cone the walks explore.
    let mut cones: Vec<Cone> = references.keys().copied().collect();
    cones.sort();
    tempo_obs::install(layers.registry.clone());
    let cfg = AnalysisConfig::default();
    let mut slowest: Option<(f64, Cone)> = None;
    for (i, cone) in cones.iter().enumerate() {
        let requirement = format!("r{}", cone.requirement);
        let d = layers.decompose(
            4_000_000 + i as u64,
            &cone.id(),
            || cone.model(),
            &requirement,
            &cfg,
        );
        let wanted = references[cone];
        if !matches!(&d.result, Ok((estimate, _)) if *estimate == wanted) {
            checker.fail(format!(
                "{}: layer-by-layer answer {:?} differs from Session::wcrt's {wanted}",
                cone.id(),
                d.result.as_ref().map(|(e, _)| e.to_string()),
            ));
        }
        if slowest.is_none_or(|(s, _)| d.explore_s > s) {
            slowest = Some((d.explore_s, *cone));
        }
    }
    tempo_obs::uninstall();
    if let Some((_, cone)) = slowest {
        layers.dbm_probe(&cone.model(), &format!("r{}", cone.requirement), &cfg);
    }
    let point = walks[0][0].model("probe");
    layers.engine_probe(&[(point, "rA")], args.seed);
    layers.finish(args, checker, base.ops())
}
