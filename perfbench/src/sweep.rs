//! The `design-sweep` workload: a served what-if sweep.
//!
//! An in-process `tempo_serve::Server` (default two workers, no metrics
//! registry) on loopback, driven by two closed-loop clients over the
//! two-subsystem jittered model of the `serve_throughput` binary.  Each step
//! is one `edit_model` write, then a full-cover `query_batch` read.
//!
//! Client `c` owns the periods of parity `c` in 20..=51 ms on both axes and
//! sweeps the 16 × 16 design points they span.  The two clients together
//! cover the 32 periods of each axis and the 64 distinct cones, and each
//! client's cache hits and misses follow from its own walk alone.
//!
//! The proportions are those of the repository's two sweep binaries, not
//! chosen here.  A pass is [`SWEEPS`] sweeps of a client's points:
//!
//! * one cold sweep, which explores every cone once (`serve_throughput`'s
//!   cold phase, with a full-cover batch per design point);
//! * [`WARM_SWEEPS`] warm sweeps in seeded orders, all cache hits:
//!   `serve_throughput` replays its warm sweep eight times (the warm phase,
//!   then one, two and four concurrent clients);
//! * one sweep at a jitter of 16.5 ms, at a seeded position among the warm
//!   sweeps, the same for both clients.  The jitter moves the quantizer tick from 1 ms to 0.5 ms, so the
//!   client's cones all re-explore once at the new tick; this is
//!   `sweep_incremental`'s edited sweep, with the tick as the edit.  Only the
//!   edits into and out of this sweep move the tick.
//!
//! A cone's exploration covers the whole network, so its size depends on the
//! design point that first asks it.  The two sweeps that explore therefore
//! start on the diagonal: every cone is first asked at the point (p, p), for
//! every seed.  The seed picks the order of the diagonal and of the rest of
//! each sweep, and the position of the tick sweep.

use crate::reference::Checker;
use crate::repeat::Records;
use crate::trace::Tracer;
use crate::util::{median, quantile, Metric, Rng};
use crate::{Args, Outcome};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};
use std::thread::JoinHandle;
use std::time::Instant;
use tempo_arch::engine::{Estimate, Query, Session};
use tempo_arch::model::{
    ArchitectureModel, EventModel, MeasurePoint, Requirement, Scenario, SchedulingPolicy, Step,
};
use tempo_arch::{AnalysisConfig, TimeValue};
use tempo_serve::json::JsonValue;
use tempo_serve::{Client, QueryOpts, Server, ServerConfig};

pub const CLIENTS: usize = 2;
/// Warm sweeps per client and pass (`serve_throughput`'s warm replays).
pub const WARM_SWEEPS: usize = 8;
/// Sweeps per client and pass: the cold one, the warm ones and the one at
/// the moved tick.
pub const SWEEPS: usize = WARM_SWEEPS + 2;
const JITTER_US: i128 = 16_000;
/// A jitter off the 1 ms grid: the quantizer tick drops to 0.5 ms.
const TICK_JITTER_US: i128 = 16_500;

/// The `serve_throughput` design point: two independent subsystems, so `rA`'s
/// cone covers only `CPU_A`/`sA` and `rB`'s only `CPU_B`/`sB`.
pub fn design_point(
    name: &str,
    period_a: i128,
    period_b: i128,
    jitter_us: i128,
) -> ArchitectureModel {
    let mut m = ArchitectureModel::new(name);
    for (i, (label, period)) in [("A", period_a), ("B", period_b)].into_iter().enumerate() {
        let cpu = m.add_processor(
            format!("CPU_{label}"),
            1,
            SchedulingPolicy::FixedPriorityPreemptive,
        );
        let sid = m.add_scenario(Scenario {
            name: format!("s{label}"),
            stimulus: EventModel::PeriodicJitter {
                period: TimeValue::millis(period),
                jitter: TimeValue::micros(jitter_us),
            },
            priority: i as u32,
            steps: [(1, 1_000), (2, 3_000), (3, 2_000)]
                .into_iter()
                .map(|(stage, instructions)| Step::Execute {
                    operation: format!("stage{stage}{label}"),
                    instructions,
                    on: cpu,
                })
                .collect(),
        });
        m.add_requirement(Requirement {
            name: format!("r{label}"),
            scenario: sid,
            from: MeasurePoint::Stimulus,
            to: MeasurePoint::AfterStep(2),
            deadline: TimeValue::millis(80),
        });
    }
    m
}

/// The requirements every read asks: a full-cover batch, which the server
/// collapses to one `WcrtAll`.
pub const REQUIREMENTS: [&str; 2] = ["rA", "rB"];

/// One step of a client's walk.
#[derive(Clone, Debug)]
pub struct WalkStep {
    pub period_a: i128,
    pub period_b: i128,
    pub tick_moved: bool,
}

impl WalkStep {
    pub fn model(&self, name: &str) -> ArchitectureModel {
        let jitter = if self.tick_moved {
            TICK_JITTER_US
        } else {
            JITTER_US
        };
        design_point(name, self.period_a, self.period_b, jitter)
    }

    /// The cone of requirement `r` at this step.
    pub fn cone(&self, requirement: &str) -> Cone {
        Cone {
            tick_moved: self.tick_moved,
            requirement: if requirement == "rA" { 'A' } else { 'B' },
            period: if requirement == "rA" {
                self.period_a
            } else {
                self.period_b
            },
        }
    }
}

/// A WCRT input cone of the sweep model: one subsystem at one period and tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cone {
    pub tick_moved: bool,
    pub requirement: char,
    pub period: i128,
}

impl Cone {
    pub fn id(&self) -> String {
        format!(
            "sweep/r{}/{}ms{}",
            self.requirement,
            self.period,
            if self.tick_moved { "/tick0.5" } else { "" }
        )
    }

    /// A model in which this cone can be asked (the other axis is arbitrary).
    pub fn model(&self) -> ArchitectureModel {
        let step = WalkStep {
            period_a: self.period,
            period_b: self.period,
            tick_moved: self.tick_moved,
        };
        step.model("reference")
    }
}

pub fn client_name(client: usize) -> String {
    format!("sweep-{client}")
}

fn periods(client: usize) -> Vec<i128> {
    (20..=51).filter(|p| (p % 2) as usize == client).collect()
}

/// The seeded walk of one client (see the module docs).
pub fn walk(seed: u64, client: usize) -> Vec<WalkStep> {
    let mut rng = Rng::new(
        seed.wrapping_mul(0x100_0000_01b3)
            .wrapping_add(client as u64),
    );
    let ps = periods(client);
    let points: Vec<(i128, i128)> = ps
        .iter()
        .flat_map(|&a| ps.iter().map(move |&b| (a, b)))
        .collect();
    // Shared by the clients, so that their exploring sweeps coincide.
    let tick_sweep = 1 + Rng::new(seed).below(WARM_SWEEPS + 1);
    let mut steps = Vec::with_capacity(SWEEPS * points.len());
    for sweep in 0..SWEEPS {
        let mut order = points.clone();
        rng.shuffle(&mut order);
        if sweep == 0 || sweep == tick_sweep {
            // The diagonal first: every cone is explored at (p, p).
            order.sort_by_key(|(a, b)| a != b);
        }
        steps.extend(order.into_iter().map(|(period_a, period_b)| WalkStep {
            period_a,
            period_b,
            tick_moved: sweep == tick_sweep,
        }));
    }
    steps
}

pub fn walks(seed: u64) -> Vec<Vec<WalkStep>> {
    (0..CLIENTS).map(|c| walk(seed, c)).collect()
}

/// Marks each step a miss when one of its cones is new to the client.
pub fn classify(walk: &[WalkStep]) -> Vec<bool> {
    let mut seen: HashSet<Cone> = HashSet::new();
    walk.iter()
        .map(|step| {
            let mut miss = false;
            for r in REQUIREMENTS {
                miss |= seen.insert(step.cone(r));
            }
            miss
        })
        .collect()
}

/// One answered read.
pub struct ReadSample {
    pub client: usize,
    pub step: usize,
    pub miss: bool,
    /// Round trip of the read (request written to response parsed).
    pub rtt_s: f64,
    /// `(requirement, estimate, stored states)` per answered requirement.
    pub answers: Vec<(String, Estimate, Option<usize>)>,
    pub ok: bool,
    pub refused: bool,
}

/// One pass: a fresh server, both walks, shutdown.
pub struct SweepPass {
    pub wall_s: f64,
    pub reads: Vec<ReadSample>,
    pub edits_failed: usize,
    /// Server-side `(hits, misses)` of the pass.
    pub server_counts: (i128, i128),
}

impl SweepPass {
    pub fn ops(&self) -> (usize, usize) {
        let attempted = 2 * self.reads.len();
        let failed = self.edits_failed + self.reads.iter().filter(|r| !r.ok).count();
        (attempted, failed)
    }

    pub fn cells_exact(&self) -> usize {
        self.reads
            .iter()
            .flat_map(|r| &r.answers)
            .filter(|(_, e, _)| e.is_exact())
            .count()
    }

    pub fn rtts_ms(&self, miss: Option<bool>) -> Vec<f64> {
        self.reads
            .iter()
            .filter(|r| miss.is_none_or(|m| r.miss == m))
            .map(|r| r.rtt_s * 1e3)
            .collect()
    }

    /// Share of the clients' time spent in reads answered from the cache
    /// (`miss` false) or by an exploration (`miss` true).
    pub fn time_share(&self, miss: bool) -> f64 {
        let secs: f64 = self
            .reads
            .iter()
            .filter(|r| r.miss == miss)
            .map(|r| r.rtt_s)
            .sum();
        secs / (CLIENTS as f64 * self.wall_s)
    }

    /// Per-cone answers and counts, for the exact-repeat self-check.  A
    /// cone's stored-state count depends on the design point that first
    /// explored it (the network holds both subsystems), so counts are keyed
    /// by seed.
    pub fn records(&self, walks: &[Vec<WalkStep>], seed: u64) -> Records {
        let mut by_cone: HashMap<String, String> = HashMap::new();
        for r in &self.reads {
            let step = &walks[r.client][r.step];
            for (req, estimate, states) in &r.answers {
                let id = step.cone(req).id();
                by_cone
                    .entry(format!("seed{seed}/{id}"))
                    .or_insert_with(|| format!("{estimate} states={states:?}"));
                by_cone.entry(id).or_insert_with(|| estimate.to_string());
            }
        }
        let mut out: Records = by_cone.into_iter().collect();
        out.sort();
        out.push(("pass/cells_exact".into(), self.cells_exact().to_string()));
        out.push(("pass/ops".into(), format!("{:?}", self.ops())));
        out.push((
            "pass/server_counts".into(),
            format!("{:?}", self.server_counts),
        ));
        out
    }
}

/// A running server with one connected client per walk.
pub struct Served {
    accept: JoinHandle<()>,
    pub clients: Vec<Client<std::io::BufReader<std::net::TcpStream>, std::net::TcpStream>>,
}

/// Set-up: server start, one connection per client and `load_model`.
pub fn start(names: &[String], first: &[ArchitectureModel]) -> Served {
    let server = Server::new(ServerConfig {
        install_metrics: false,
        ..ServerConfig::default()
    });
    let (addr, accept) = server.spawn_local().expect("loopback listener");
    let clients = names
        .iter()
        .zip(first)
        .map(|(name, model)| {
            let mut client = Client::connect(addr).expect("connect");
            let mut model = model.clone();
            model.name = name.clone();
            client
                .load_model(&model)
                .expect("wire")
                .expect("load_model accepted");
            client
        })
        .collect();
    Served { accept, clients }
}

impl Served {
    /// Server-side `(hits, misses)` summed over the shared databases.
    pub fn counts(&mut self) -> (i128, i128) {
        let stats = self.clients[0].stats().expect("wire").expect("stats");
        let dbs = stats
            .get("dbs")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        let sum = |key: &str| {
            dbs.iter()
                .filter_map(|d| d.get("stats")?.get(key)?.as_i128())
                .sum::<i128>()
        };
        (sum("hits"), sum("misses"))
    }

    pub fn shutdown(mut self) {
        self.clients[0]
            .shutdown()
            .expect("wire")
            .expect("shutdown accepted");
        drop(self.clients);
        self.accept.join().expect("server thread");
    }
}

/// Answers of one read response: `query` returns a report, `query_batch`
/// a `results` array of `{ok, report}`.
pub fn parse_answers(result: &JsonValue) -> Option<Vec<(String, Estimate, Option<usize>)>> {
    let reports: Vec<&JsonValue> = match result.get("results").and_then(JsonValue::as_array) {
        Some(rows) => rows
            .iter()
            .map(|row| {
                (row.get("ok").and_then(JsonValue::as_bool) == Some(true))
                    .then(|| row.get("report"))
                    .flatten()
            })
            .collect::<Option<_>>()?,
        None => vec![result],
    };
    let mut out = Vec::new();
    for report in reports {
        let states = report.get("states_stored").and_then(JsonValue::as_usize);
        for e in report.get("estimates")?.as_array()? {
            let requirement = e.get("requirement")?.as_str()?.to_string();
            let estimate = tempo_serve::wire::estimate_from_json(e.get("estimate")?).ok()?;
            out.push((requirement, estimate, states));
        }
    }
    Some(out)
}

/// Sends one step (edit, then read) and returns whether the edit was
/// accepted and the read sample.  A traced pass records one span per client
/// call under a `request` span carrying the step's operation id.
pub fn send_step<R: BufRead, W: Write>(
    client: &mut Client<R, W>,
    name: &str,
    index: usize,
    step: &WalkStep,
    miss: bool,
    mut tracer: Option<&mut Tracer>,
    op: u64,
) -> (bool, ReadSample) {
    let request = tracer.as_mut().map(|t| t.enter("request", op));
    let model = step.model(name);
    let edit = tracer.as_mut().map(|t| t.enter("serve.edit_model", op));
    let edit_ok = matches!(client.edit_model(&model), Ok(Ok(_)));
    if let (Some(t), Some(idx)) = (tracer.as_mut(), edit) {
        t.exit(idx);
    }
    let opts = QueryOpts::default();
    let read = tracer.as_mut().map(|t| t.enter("serve.read", op));
    let sent = Instant::now();
    let response = client.query_batch(name, &REQUIREMENTS.map(Query::wcrt), &opts);
    let rtt_s = sent.elapsed().as_secs_f64();
    for idx in [read, request].into_iter().flatten() {
        if let Some(t) = tracer.as_mut() {
            t.exit(idx);
        }
    }
    let (answers, ok, refused) = match response {
        Ok(Ok(result)) => match parse_answers(&result) {
            Some(answers) => (answers, true, false),
            None => (Vec::new(), false, false),
        },
        Ok(Err(e)) => (Vec::new(), false, e.kind == "overloaded"),
        Err(_) => (Vec::new(), false, false),
    };
    let sample = ReadSample {
        client: 0,
        step: index,
        miss,
        rtt_s,
        answers,
        ok,
        refused,
    };
    (edit_ok, sample)
}

/// The operation id of a request: client in the high half, step below.
pub fn request_op(client: usize, step: usize) -> u64 {
    ((client as u64) << 32) | step as u64
}

/// Runs both walks against a fresh server; with `tracer` set, every client
/// call gets a span.
pub fn run_pass(walks: &[Vec<WalkStep>], tracer: Option<&mut Tracer>) -> SweepPass {
    let names: Vec<String> = (0..walks.len()).map(client_name).collect();
    let first: Vec<ArchitectureModel> = walks.iter().map(|w| w[0].model("first")).collect();
    let mut served = start(&names, &first);
    let clients = std::mem::take(&mut served.clients);
    let traced = tracer.is_some();
    let epoch = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let walk = &walks[c];
                let name = &names[c];
                s.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(epoch));
                    let misses = classify(walk);
                    let mut edits_failed = 0;
                    let mut reads = Vec::with_capacity(walk.len());
                    for (i, step) in walk.iter().enumerate() {
                        let (edit_ok, mut sample) = send_step(
                            &mut client,
                            name,
                            i,
                            step,
                            misses[i],
                            tracer.as_mut(),
                            request_op(c, i),
                        );
                        sample.client = c;
                        edits_failed += usize::from(!edit_ok);
                        reads.push(sample);
                    }
                    (client, reads, edits_failed, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut reads = Vec::new();
    let mut edits_failed = 0;
    let mut tracer = tracer;
    for (client, r, e, spans) in results {
        served.clients.push(client);
        reads.extend(r);
        edits_failed += e;
        if let (Some(t), Some(spans)) = (tracer.as_mut(), spans) {
            t.absorb(spans);
        }
    }
    let server_counts = served.counts();
    served.shutdown();
    SweepPass {
        wall_s,
        reads,
        edits_failed,
        server_counts,
    }
}

/// The cache counts the walks imply: one lookup per requirement read.
pub fn expected_counts(walks: &[Vec<WalkStep>]) -> (i128, i128) {
    let (mut hits, mut misses) = (0, 0);
    for walk in walks {
        let mut seen: HashSet<Cone> = HashSet::new();
        for step in walk {
            for r in REQUIREMENTS {
                if seen.insert(step.cone(r)) {
                    misses += 1;
                } else {
                    hits += 1;
                }
            }
        }
    }
    (hits, misses)
}

/// Reference answers: a fresh `Session` per distinct cone, computed outside
/// the timed loop.
pub fn reference_answers(walks: &[Vec<WalkStep>]) -> HashMap<Cone, Estimate> {
    let mut cones: Vec<Cone> = walks
        .iter()
        .flatten()
        .flat_map(|s| REQUIREMENTS.map(|r| s.cone(r)))
        .collect();
    cones.sort();
    cones.dedup();
    cones
        .into_iter()
        .map(|cone| {
            let model = cone.model();
            let req = format!("r{}", cone.requirement);
            let report = Session::new(&model, AnalysisConfig::default())
                .and_then(|s| s.wcrt(&req))
                .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", cone.id()));
            (cone, report.estimate())
        })
        .collect()
}

/// Checks every answer of `pass` against the references and the server's
/// cache counts against the walks.
pub fn check_pass(
    pass: &SweepPass,
    walks: &[Vec<WalkStep>],
    references: &HashMap<Cone, Estimate>,
    checker: &mut Checker,
) {
    for r in pass.reads.iter().filter(|r| r.ok) {
        let step = &walks[r.client][r.step];
        if r.answers.len() != REQUIREMENTS.len() {
            checker.fail(format!(
                "client {} step {}: {} answers for {REQUIREMENTS:?}",
                r.client,
                r.step,
                r.answers.len()
            ));
        }
        for (req, estimate, _) in &r.answers {
            let cone = step.cone(req);
            let exact = references[&cone];
            match exact.exact() {
                Some(v) => checker.check_against(&cone.id(), *estimate, v),
                None => checker.fail(format!("{}: reference is not exact", cone.id())),
            }
        }
    }
    let expected = expected_counts(walks);
    if pass.server_counts != expected {
        checker.fail(format!(
            "server cache counts (hits, misses) {:?} differ from the walk's {expected:?}",
            pass.server_counts
        ));
    }
}

/// Set-up repetitions: start a server, connect both clients, load, shut down.
pub fn setup_once(walks: &[Vec<WalkStep>]) -> f64 {
    let names: Vec<String> = (0..walks.len()).map(client_name).collect();
    let first: Vec<ArchitectureModel> = walks.iter().map(|w| w[0].model("first")).collect();
    let started = Instant::now();
    let served = start(&names, &first);
    let secs = started.elapsed().as_secs_f64();
    served.shutdown();
    secs
}

pub fn run(args: &Args) -> Outcome {
    let walks = walks(args.seed);
    let references = reference_answers(&walks);
    let before = tempo_obs::dispatch_count();
    let crate::Measured {
        passes,
        peak_rss_mb,
        setup,
    } = crate::measure(
        args.seconds,
        || setup_once(&walks),
        || run_pass(&walks, None),
        |p| p.wall_s,
    );
    let mut checker = Checker::default();
    crate::check_untraced(&mut checker, before);
    for pass in &passes {
        check_pass(pass, &walks, &references, &mut checker);
    }
    let records: Vec<Records> = passes
        .iter()
        .map(|p| p.records(&walks, args.seed))
        .collect();
    crate::check_repeats(&mut checker, &args.workload, &records);
    summarize(&setup, &passes, peak_rss_mb, checker)
}

pub fn summarize(
    setup: &[f64],
    passes: &[SweepPass],
    peak_rss_mb: f64,
    checker: Checker,
) -> Outcome {
    let n = passes.len();
    let per_pass =
        |f: &dyn Fn(&SweepPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = &passes[0];
    let (attempted, failed) = first.ops();
    let all_hits: Vec<f64> = passes.iter().flat_map(|p| p.rtts_ms(Some(false))).collect();
    let all_misses: Vec<f64> = passes.iter().flat_map(|p| p.rtts_ms(Some(true))).collect();
    let metrics = crate::end_to_end(setup, per_pass(&|p| p.wall_s), n, first.cells_exact());
    let refused = first.reads.iter().filter(|r| r.refused).count();
    let extra = vec![
        Metric::new("ops_failed", failed as f64, "count", attempted),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric::new(
            "slowest_cell_s",
            per_pass(&|p| p.rtts_ms(None).into_iter().fold(0.0, f64::max) / 1e3),
            "s",
            n,
        ),
        Metric::new("hit_p50_us", median(&all_hits) * 1e3, "us", all_hits.len()),
        Metric::new(
            "hit_p99_us",
            quantile(&all_hits, 0.99) * 1e3,
            "us",
            all_hits.len(),
        ),
        Metric::new("miss_p50_ms", median(&all_misses), "ms", all_misses.len()),
        Metric::new(
            "hit_time_share",
            per_pass(&|p| p.time_share(false)),
            "ratio",
            n,
        ),
        Metric::new(
            "miss_time_share",
            per_pass(&|p| p.time_share(true)),
            "ratio",
            n,
        ),
        Metric::new("refused", refused as f64, "count", first.reads.len()),
    ];
    Outcome {
        checker,
        attempted,
        failed,
        metrics,
        extra,
    }
}
