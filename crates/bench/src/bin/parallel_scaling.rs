//! Parallel-scaling smoke: analyses every event-model column of the paper's
//! Table 1 sequentially and at 1/2/4/8 workers, with the flat and the
//! federation passed-list stores, and writes per-run wall time and state
//! counts to a machine-readable `BENCH_parallel.json`.
//!
//! Two guard families run in-binary so CI fails loudly instead of silently
//! drifting:
//!
//! * **Scaling sanity** — parallel runs must stay within a loose envelope of
//!   the sequential baseline, both in wall time and in stored states.  The
//!   envelope is deliberately wide: CI machines may expose a single core, in
//!   which case extra workers only add coordination overhead, and parallel
//!   insert races legitimately store a few extra states before subsumption
//!   catches up.  The guard is against pathology (quadratic blow-ups,
//!   livelocked stealing), not an assertion of speedup.
//! * **Sequential regression** — the `bur` column with federation storage is
//!   the workhorse of the incremental-canonicalization work; its sequential
//!   wall time and stored-state count are pinned against regression.
//!
//! Run with `cargo run --release -p tempo_bench --bin parallel_scaling`;
//! `--quick` is the default workload (8× slowed user streams), `--full` uses
//! the paper's original workload (slow; not for CI), `--json <path>`
//! redirects the JSON output (default `BENCH_parallel.json`).

use tempo_arch::casestudy::{radio_navigation, CaseStudyParams, EventModelColumn, ScenarioCombo};
use tempo_arch::engine::Session;
use tempo_arch::{AnalysisConfig, StorageKind, WcrtReport};
use tempo_check::{ParallelOptions, SearchOptions, SearchOrder};

const REQUIREMENT: &str = "AddressLookup (+ HandleTMC)";

/// Worker counts exercised on top of the sequential baseline.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Sequential `bur`/federation regression guards (quick workload).  The
/// incremental-canonicalization work brought this column from ~4.5 s to
/// ~1.0 s on the reference machine; the wall guard leaves slack for slower
/// CI hardware while still catching a return to the seed's cost, and the
/// state guard pins the subsumption quality (measured: 39 805 stored).
const BUR_SEQ_WALL_LIMIT_SECS: f64 = 2.5;
const BUR_SEQ_STORED_LIMIT: usize = 45_000;

/// Parallel envelope relative to the sequential baseline of the same
/// column/storage combination (see the module docs for why it is loose).
const WALL_FACTOR: f64 = 4.0;
const WALL_SLACK_SECS: f64 = 1.0;
const STORED_FACTOR: usize = 2;

struct Row {
    column: &'static str,
    storage: &'static str,
    /// `0` encodes the sequential baseline (no parallel machinery at all);
    /// otherwise the worker count of the parallel explorer.
    workers: usize,
    report: WcrtReport,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders the rows as a JSON document (no serde in the offline build — the
/// structure is flat enough to emit by hand).
fn to_json(workload: &str, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", esc(workload)));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let s = &row.report.stats;
        let wcrt = match row.report.wcrt_ms() {
            Some(w) => format!("{w:.6}"),
            None => "null".into(),
        };
        out.push_str(&format!(
            "    {{\"column\": \"{}\", \"storage\": \"{}\", \"workers\": {}, \
             \"stored_cumulative\": {}, \"stored_live\": {}, \"explored\": {}, \"transitions\": {}, \
             \"wcrt_ms\": {}, \"wall_seconds\": {:.6}}}{}\n",
            esc(row.column),
            row.storage,
            row.workers,
            s.stored_cumulative,
            s.stored_live,
            s.states_explored,
            s.transitions,
            wcrt,
            s.duration.as_secs_f64(),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());
    let mut params = CaseStudyParams::default();
    if !full {
        params.volume_period = params.volume_period * 8;
        params.lookup_period = params.lookup_period * 8;
    }
    let workload = if full { "full" } else { "quick" };
    println!("parallel_scaling ({workload} workload), requirement: {REQUIREMENT}");
    println!(
        "{:<22} {:>10} {:>7} {:>10} {:>10} {:>10} {:>9}",
        "column", "storage", "workers", "stored", "explored", "wcrt_ms", "secs"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for column in EventModelColumn::all() {
        let model = radio_navigation(ScenarioCombo::AddressLookupWithTmc, column, &params);
        for storage in [StorageKind::Flat, StorageKind::Federation] {
            let storage_label = match storage {
                StorageKind::Flat => "flat",
                StorageKind::Federation => "federation",
            };
            // The bur/flat combination is the seed's old truncation-line
            // workload (718k stored states, ~1 min sequential): a full sweep
            // would dominate the CI job, so the quick workload probes only
            // the endpoints of the worker range, with the 1-worker run as
            // the envelope baseline.  `--full` sweeps everything.
            let trimmed =
                matches!(column, EventModelColumn::Burst) && storage == StorageKind::Flat && !full;
            let runs: Vec<usize> = if trimmed {
                println!(
                    "{:<22} {:>10}    (quick workload: sweeping workers 1 and 8 only)",
                    column.label(),
                    storage_label
                );
                vec![1, 8]
            } else {
                std::iter::once(0).chain(WORKER_COUNTS).collect()
            };
            let mut baseline: Option<(f64, usize)> = None;
            for workers in runs {
                let cfg = AnalysisConfig {
                    search: SearchOptions {
                        order: SearchOrder::Bfs,
                        active_clock_reduction: true,
                        storage,
                        ..SearchOptions::default()
                    },
                    parallel: (workers > 0).then(|| ParallelOptions::with_workers(workers)),
                    ..AnalysisConfig::default()
                };
                let report = match Session::new(&model, cfg).and_then(|s| s.wcrt(REQUIREMENT)) {
                    Ok(report) => report,
                    Err(e) => {
                        failures.push(format!(
                            "{} / {} / {} workers: analysis failed: {e}",
                            column.label(),
                            storage_label,
                            workers
                        ));
                        continue;
                    }
                };
                let wall = report.stats.duration.as_secs_f64();
                // The envelope keeps the pre-split quantities: the sequential
                // baseline bounds cumulative insertions, parallel rows are
                // judged on the store's net live footprint (what the workers
                // actually hold), as the guard always did.
                let stored = if workers == 0 {
                    report.stats.stored_cumulative
                } else {
                    report.stats.stored_live
                };
                rows.push(Row {
                    column: column.label(),
                    storage: storage_label,
                    workers,
                    report: report.clone(),
                });
                println!(
                    "{:<22} {:>10} {:>7} {:>10} {:>10} {:>10} {:>9.2}",
                    column.label(),
                    storage_label,
                    if workers == 0 {
                        "seq".to_string()
                    } else {
                        workers.to_string()
                    },
                    stored,
                    report.stats.states_explored,
                    report
                        .wcrt_ms()
                        .map(|w| format!("{w:.3}"))
                        .unwrap_or_else(|| "-".into()),
                    wall,
                );
                match baseline {
                    None => {
                        baseline = Some((wall, stored));
                        if matches!(column, EventModelColumn::Burst)
                            && storage == StorageKind::Federation
                            && !full
                        {
                            if wall > BUR_SEQ_WALL_LIMIT_SECS {
                                failures.push(format!(
                                    "bur/federation sequential took {wall:.2} s \
                                     (limit {BUR_SEQ_WALL_LIMIT_SECS} s)"
                                ));
                            }
                            if stored > BUR_SEQ_STORED_LIMIT {
                                failures.push(format!(
                                    "bur/federation sequential stored {stored} states \
                                     (limit {BUR_SEQ_STORED_LIMIT})"
                                ));
                            }
                        }
                    }
                    Some((seq_wall, seq_stored)) => {
                        if wall > seq_wall * WALL_FACTOR + WALL_SLACK_SECS {
                            failures.push(format!(
                                "{} / {} / {} workers: wall {wall:.2} s exceeds \
                                 {WALL_FACTOR}x sequential ({seq_wall:.2} s) + {WALL_SLACK_SECS} s",
                                column.label(),
                                storage_label,
                                workers
                            ));
                        }
                        if stored > seq_stored * STORED_FACTOR {
                            failures.push(format!(
                                "{} / {} / {} workers: stored {stored} exceeds \
                                 {STORED_FACTOR}x sequential ({seq_stored})",
                                column.label(),
                                storage_label,
                                workers
                            ));
                        }
                    }
                }
            }
        }
    }

    let json = to_json(workload, &rows);
    match std::fs::write(&json_path, &json) {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => {
            failures.push(format!("could not write {json_path}: {e}"));
        }
    }
    if !failures.is_empty() {
        eprintln!("parallel_scaling guards FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("all scaling guards passed");
}
