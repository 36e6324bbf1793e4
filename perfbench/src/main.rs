//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-quick|paper-params|design-sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is the traced run that reports the per-layer metrics.  The last line of
//! standard output is the JSON result.  See README.md for the workloads and
//! metrics.

mod layers;
mod reference;
mod repeat;
mod sweep;
mod tables;
mod trace;
mod util;

use reference::{Checker, Reference};
use std::time::{Duration, Instant};
use tables::TableWorkload;
use util::{median, Metric};

/// Set-up samples taken before the first pass, after one untimed warm-up.
const SETUP_BEFORE: usize = 15;
/// Set-up samples taken after each pass, so that `setup_s` is a median over
/// the whole run rather than over one moment of it.
const SETUP_PER_PASS: usize = 8;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-reference" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    }))
}

/// What a workload hands back to be printed.
pub struct Outcome {
    pub checker: Checker,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Informational rows of the readable table (not in the result line).
    pub extra: Vec<Metric>,
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            reference::print_reference();
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload.as_str(), args.trace) {
        ("table1-quick", false) => run_table(TableWorkload::Quick, &args),
        ("paper-params", false) => run_table(TableWorkload::Paper, &args),
        ("design-sweep", false) => sweep::run(&args),
        ("table1-quick", true) => layers::run_table(TableWorkload::Quick, &args),
        ("paper-params", true) => layers::run_table(TableWorkload::Paper, &args),
        ("design-sweep", true) => layers::run_sweep(&args),
        (other, _) => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    for failure in &outcome.checker.failures {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    let correct = outcome.checker.ok();
    util::print_result(
        &args.workload,
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        &outcome.metrics,
        &outcome.extra,
    );
    if !correct {
        std::process::exit(1);
    }
}

/// What one run measured.
pub struct Measured<P> {
    pub passes: Vec<P>,
    /// Peak resident memory after the first pass.
    pub peak_rss_mb: f64,
    /// Set-up times in seconds.
    pub setup: Vec<f64>,
}

/// Runs passes until the next one would overrun `seconds` (at least one),
/// sampling the set-up time before the first pass and after each pass.
pub fn measure<P>(
    seconds: f64,
    mut setup: impl FnMut() -> f64,
    mut pass: impl FnMut() -> P,
    wall: impl Fn(&P) -> f64,
) -> Measured<P> {
    setup();
    let mut samples: Vec<f64> = (0..SETUP_BEFORE).map(|_| setup()).collect();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let p = pass();
        if passes.is_empty() {
            peak_rss_mb = util::peak_rss_mb();
        }
        let last = Duration::from_secs_f64(wall(&p));
        passes.push(p);
        samples.extend((0..SETUP_PER_PASS).map(|_| setup()));
        if started.elapsed() + last > budget {
            return Measured {
                passes,
                peak_rss_mb,
                setup: samples,
            };
        }
    }
}

/// Asserts the untraced run dispatched nothing to a tracing subscriber.
pub fn check_untraced(checker: &mut Checker, before: u64) {
    let after = tempo_obs::dispatch_count();
    if after != before {
        checker.fail(format!(
            "tracing was on during the untraced run ({} records dispatched)",
            after - before
        ));
    }
}

/// The exact-repeat self-check over the passes of one run and across runs.
pub fn check_repeats(checker: &mut Checker, workload: &str, passes: &[repeat::Records]) {
    for (i, later) in passes.iter().enumerate().skip(1) {
        if let Some(diff) = repeat::first_difference(&passes[0], later) {
            checker.fail(format!(
                "exact-repeat: pass {i} differs from pass 0 at {diff}"
            ));
            return;
        }
    }
    if let Some(first) = passes.first() {
        if let Err(diff) = repeat::check_across_runs(workload, first) {
            checker.fail(format!("exact-repeat: {diff}"));
        }
    }
}

fn run_table(workload: TableWorkload, args: &Args) -> Outcome {
    let reference = Reference::load();
    let (cells, rows) = tables::pass_ops(workload);
    let before = tempo_obs::dispatch_count();
    let Measured {
        passes,
        peak_rss_mb,
        setup,
    } = measure(
        args.seconds,
        || tables::setup_once(&cells, &rows),
        || tables::run_pass(&cells, &rows, args.seed),
        |p| p.wall_s,
    );
    let mut checker = Checker::default();
    check_untraced(&mut checker, before);
    for pass in &passes {
        pass.check(&cells, &reference, &mut checker, args.seed);
    }
    let records: Vec<repeat::Records> = passes.iter().map(|p| p.records(args.seed)).collect();
    check_repeats(&mut checker, &args.workload, &records);

    let n = passes.len();
    let per_pass = |f: &dyn Fn(&tables::Pass) -> f64| -> f64 {
        median(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let first = &passes[0];
    let (attempted, failed) = first.ops();
    let metrics = end_to_end(&setup, per_pass(&|p| p.wall_s), n, first.cells_exact());
    let mut extra = vec![
        Metric::new("ops_failed", failed as f64, "count", attempted),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        Metric::new("slowest_cell_s", per_pass(&|p| p.slowest_cell_s()), "s", n),
        Metric::new(
            "cell_p50_ms",
            per_pass(&|p| median(&p.cells.iter().map(|c| c.secs * 1e3).collect::<Vec<_>>())),
            "ms",
            n * first.cells.len(),
        ),
    ];
    if workload.has_table2() {
        extra.push(Metric::new(
            "bracket_violations",
            first.bracket_violations() as f64,
            "count",
            first.rows.len(),
        ));
    }
    Outcome {
        checker,
        attempted,
        failed,
        metrics,
        extra,
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(setup: &[f64], wall_s: f64, passes: usize, cells_exact: usize) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", median(setup), "s", setup.len()),
        Metric::new("wall_s", wall_s, "s", passes),
        Metric::new("cells_exact", cells_exact as f64, "count", passes),
    ]
}
