//! The two table workloads: `table1-quick` and `paper-params`.
//!
//! A cell is one timed-automata verdict: one Table 1 requirement under one
//! event-model column, answered by a fresh `Session` under the library
//! default configuration plus the paper's 600k state budget.  `paper-params`
//! adds Table 2's five rows through `Portfolio::compare`.

use crate::reference::{Checker, RefValue, Reference};
use std::time::Instant;
use tempo_arch::casestudy::{
    radio_navigation, table1_rows, CaseStudyParams, EventModelColumn, ScenarioCombo,
};
use tempo_arch::engine::{
    ComparisonReport, Engine, EngineReport, Estimate, Portfolio, Query, RunContext, Session,
};
use tempo_arch::model::ArchitectureModel;
use tempo_arch::{AnalysisConfig, TaEngine, TimeValue, WcrtReport};
use tempo_check::{ExplorationStats, SearchOptions};
use tempo_sim::{SimConfig, SimEngine};

/// The paper's state budget: beyond it a search stops and yields a lower bound.
pub const STATE_BUDGET: usize = 600_000;

/// The configuration every cell runs under: the library defaults (flat
/// storage, sequential search) with the 600k truncating state budget.
pub fn cell_config() -> AnalysisConfig {
    AnalysisConfig {
        search: SearchOptions {
            max_states: Some(STATE_BUDGET),
            truncate_on_limit: true,
            ..SearchOptions::default()
        },
        ..AnalysisConfig::default()
    }
}

/// The quick parameters of the `table1 --quick` binary: user streams slowed
/// down eight times.
pub fn quick_params() -> CaseStudyParams {
    let mut p = CaseStudyParams::default();
    p.volume_period = p.volume_period * 8;
    p.lookup_period = p.lookup_period * 8;
    p
}

pub fn column_tag(column: EventModelColumn) -> &'static str {
    match column {
        EventModelColumn::PeriodicOffsetZero => "po",
        EventModelColumn::PeriodicUnknownOffset => "pno",
        EventModelColumn::Sporadic => "sp",
        EventModelColumn::PeriodicJitter => "pj",
        EventModelColumn::Burst => "bur",
    }
}

/// One Table 1 cell.
#[derive(Clone)]
pub struct CellSpec {
    /// `"<params>/<column>/<requirement>"`, the key into the reference file.
    pub id: String,
    pub requirement: &'static str,
    pub combo: ScenarioCombo,
    pub column: EventModelColumn,
    pub params: CaseStudyParams,
}

impl CellSpec {
    pub fn new(
        prefix: &str,
        requirement: &'static str,
        combo: ScenarioCombo,
        column: EventModelColumn,
        params: &CaseStudyParams,
    ) -> CellSpec {
        CellSpec {
            id: format!("{prefix}/{}/{requirement}", column_tag(column)),
            requirement,
            combo,
            column,
            params: params.clone(),
        }
    }

    pub fn model(&self) -> ArchitectureModel {
        radio_navigation(self.combo, self.column, &self.params)
    }
}

fn cells_of(prefix: &str, columns: &[EventModelColumn], params: &CaseStudyParams) -> Vec<CellSpec> {
    columns
        .iter()
        .flat_map(|&column| {
            table1_rows()
                .into_iter()
                .map(move |(req, combo)| CellSpec::new(prefix, req, combo, column, params))
        })
        .collect()
}

/// Every Table 1 cell at quick parameters (all five columns).
pub fn all_quick_cells() -> Vec<CellSpec> {
    cells_of("quick", &EventModelColumn::all(), &quick_params())
}

/// The `table1-quick` cells: the po, pno, sp and pj columns.  A pass has to
/// repeat within one run, so the bur column (16–32 s per cell) is left to
/// the traced run's [`bur_cell`] (see README.md).
pub fn table1_quick_cells() -> Vec<CellSpec> {
    use EventModelColumn::*;
    cells_of(
        "quick",
        &[
            PeriodicOffsetZero,
            PeriodicUnknownOffset,
            Sporadic,
            PeriodicJitter,
        ],
        &quick_params(),
    )
}

/// The slowest quick cell, which the default flat store truncates at 600k
/// states: bur HandleTMC (+ AddressLookup).
pub fn bur_cell() -> CellSpec {
    CellSpec::new(
        "quick",
        "HandleTMC (+ AddressLookup)",
        ScenarioCombo::AddressLookupWithTmc,
        EventModelColumn::Burst,
        &quick_params(),
    )
}

/// The `paper-params` cells: the po, pno and sp columns at the paper's
/// parameters.
pub fn paper_cells() -> Vec<CellSpec> {
    use EventModelColumn::*;
    cells_of(
        "paper",
        &[PeriodicOffsetZero, PeriodicUnknownOffset, Sporadic],
        &CaseStudyParams::default(),
    )
}

/// The answer of one cell, as `Session::wcrt` gives it.
pub struct CellOutcome {
    pub id: String,
    pub result: Result<WcrtReport, String>,
    /// Time to verdict: `Session::new` plus `Session::wcrt`.
    pub secs: f64,
}

impl CellOutcome {
    pub fn is_exact(&self) -> bool {
        matches!(&self.result, Ok(r) if r.wcrt.is_some())
    }

    /// The verdict and every state/transition count, for the exact-repeat
    /// self-check.
    pub fn record(&self) -> String {
        match &self.result {
            Ok(r) => record_of(r.estimate(), &r.stats),
            Err(e) => format!("error: {e}"),
        }
    }
}

/// A verdict with the counts of the exploration that produced it.
pub fn record_of(estimate: Estimate, stats: &ExplorationStats) -> String {
    format!(
        "{estimate} explored={} stored={} live={} transitions={} peak_waiting={} truncated={}",
        stats.states_explored,
        stats.stored_cumulative,
        stats.stored_live,
        stats.transitions,
        stats.peak_waiting,
        stats.truncated
    )
}

pub fn run_cell(spec: &CellSpec, cfg: &AnalysisConfig) -> CellOutcome {
    let model = spec.model();
    let started = Instant::now();
    let result = Session::new(&model, cfg.clone())
        .and_then(|session| session.wcrt(spec.requirement))
        .map_err(|e| e.to_string());
    CellOutcome {
        id: spec.id.clone(),
        result,
        secs: started.elapsed().as_secs_f64(),
    }
}

/// One Table 2 row: TA on the po model, then the portfolio on the pno model.
pub struct Table2Row {
    pub requirement: &'static str,
    pub combo: ScenarioCombo,
}

pub fn table2_rows() -> Vec<Table2Row> {
    table1_rows()
        .into_iter()
        .map(|(requirement, combo)| Table2Row { requirement, combo })
        .collect()
}

/// The simulation campaign of the `table2` binary, seeded from `--seed`.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        horizon: TimeValue::seconds(600),
        runs: 5,
        seed,
    }
}

/// The Table 2 portfolio: TA, simulation, SymTA/S and MPA.
pub fn portfolio(sim_seed: u64) -> Portfolio {
    Portfolio::new()
        .with_engine(Box::new(TaEngine::with_config(cell_config())))
        .with_engine(Box::new(SimEngine::with_config(sim_config(sim_seed))))
        .with_engine(Box::new(tempo_symta::SymtaEngine))
        .with_engine(Box::new(tempo_rtc::RtcEngine))
}

pub struct RowOutcome {
    pub requirement: &'static str,
    /// The po TA answer.
    pub po: Result<EngineReport, String>,
    pub comparison: Result<ComparisonReport, String>,
}

impl RowOutcome {
    /// Whether the reconciled row shows a bracket violation.
    pub fn violated(&self) -> bool {
        matches!(&self.comparison, Ok(c) if !c.bracket_ok())
    }

    /// Operations of the row (po TA run plus the comparison) and how many
    /// of them ended in an error.
    pub fn ops(&self) -> (usize, usize) {
        let failed = usize::from(self.po.is_err()) + usize::from(self.comparison.is_err());
        (2, failed)
    }

    /// Per-engine estimates of the pno comparison, `"engine=estimate"`.
    pub fn estimates(&self) -> Vec<(String, Estimate)> {
        match &self.comparison {
            Ok(c) => c
                .for_requirement(self.requirement)
                .map(|r| r.estimates.clone())
                .unwrap_or_default(),
            Err(_) => Vec::new(),
        }
    }

    /// The record for the exact-repeat self-check.  The simulation's value
    /// depends on the seed, so it is keyed by seed by the caller.
    pub fn records(&self, seed: u64) -> Vec<(String, String)> {
        let mut out = vec![(
            format!("table2/po/{}", self.requirement),
            match &self.po {
                Ok(r) => format!(
                    "{:?} states={:?}",
                    estimate_of(r, self.requirement),
                    r.states_stored
                ),
                Err(e) => format!("error: {e}"),
            },
        )];
        match &self.comparison {
            Ok(c) => {
                for row in &c.rows {
                    let key = if row.engine == "simulation" {
                        format!("table2/simulation@{seed}/{}", self.requirement)
                    } else {
                        format!("table2/{}/{}", row.engine, self.requirement)
                    };
                    let value = match &row.outcome {
                        Ok(r) => format!(
                            "{:?} {:?} states={:?}",
                            row.status,
                            estimate_of(r, self.requirement),
                            r.states_stored
                        ),
                        Err(e) => format!("{:?} {e}", row.status),
                    };
                    out.push((key, value));
                }
                out.push((
                    format!("table2/violations/{}", self.requirement),
                    c.violations().len().to_string(),
                ));
            }
            Err(e) => out.push((format!("table2/error/{}", self.requirement), e.clone())),
        }
        out
    }
}

fn estimate_of(report: &EngineReport, requirement: &str) -> Option<Estimate> {
    report.estimate_for(requirement).map(|r| r.estimate)
}

pub fn run_row(row: &Table2Row, params: &CaseStudyParams, sim_seed: u64) -> RowOutcome {
    let query = Query::wcrt(row.requirement);
    let ctx = RunContext::default();
    let po_model = radio_navigation(row.combo, EventModelColumn::PeriodicOffsetZero, params);
    let po = TaEngine::with_config(cell_config())
        .run(&po_model, &query, &ctx)
        .map_err(|e| e.to_string());
    let pno_model = radio_navigation(row.combo, EventModelColumn::PeriodicUnknownOffset, params);
    let comparison = portfolio(sim_seed)
        .compare(&pno_model, &query, &ctx)
        .map_err(|e| e.to_string());
    RowOutcome {
        requirement: row.requirement,
        po,
        comparison,
    }
}

/// One pass over a table workload.
pub struct Pass {
    pub cells: Vec<CellOutcome>,
    pub rows: Vec<RowOutcome>,
    pub wall_s: f64,
}

impl Pass {
    pub fn ops(&self) -> (usize, usize) {
        let mut attempted = self.cells.len();
        let mut failed = self.cells.iter().filter(|c| c.result.is_err()).count();
        for row in &self.rows {
            let (a, f) = row.ops();
            attempted += a;
            failed += f;
        }
        (attempted, failed)
    }

    pub fn cells_exact(&self) -> usize {
        self.cells.iter().filter(|c| c.is_exact()).count()
    }

    pub fn bracket_violations(&self) -> usize {
        self.rows.iter().filter(|r| r.violated()).count()
    }

    pub fn slowest_cell_s(&self) -> f64 {
        self.cells.iter().map(|c| c.secs).fold(0.0, f64::max)
    }

    /// Every verdict and count of the pass, keyed for the self-check.
    pub fn records(&self, seed: u64) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .cells
            .iter()
            .map(|c| (c.id.clone(), c.record()))
            .collect();
        for row in &self.rows {
            out.extend(row.records(seed));
        }
        out.push(("pass/cells_exact".into(), self.cells_exact().to_string()));
        out.push(("pass/ops".into(), format!("{:?}", self.ops())));
        out.push((
            "pass/bracket_violations".into(),
            self.bracket_violations().to_string(),
        ));
        out
    }

    /// Checks every answer of the pass (run over `specs`) against the
    /// reference.
    pub fn check(
        &self,
        specs: &[CellSpec],
        reference: &Reference,
        checker: &mut Checker,
        sim_seed: u64,
    ) {
        for (spec, cell) in specs.iter().zip(&self.cells) {
            if let Ok(r) = &cell.result {
                check_cell(reference, checker, spec, r.estimate(), sim_seed);
            }
        }
        for row in &self.rows {
            if let Ok(po) = &row.po {
                if let Some(e) = estimate_of(po, row.requirement) {
                    checker.check_estimate(reference, &format!("paper/po/{}", row.requirement), e);
                }
            }
            let estimates = row.estimates();
            let exact = estimates
                .iter()
                .find(|(engine, _)| engine == "timed-automata")
                .map(|(_, e)| *e);
            let pno_id = format!("paper/pno/{}", row.requirement);
            if let Some(e) = exact {
                checker.check_estimate(reference, &pno_id, e);
            }
            if let Some((_, sim)) = estimates.iter().find(|(engine, _)| engine == "simulation") {
                checker.check_estimate(reference, &pno_id, *sim);
                if let (Some(lo), Some(ta)) = (sim.lower(), exact.and_then(|e| e.exact())) {
                    if lo > ta {
                        checker.fail(format!(
                            "{pno_id}: simulation's lower bound {lo} exceeds the exact TA answer {ta}"
                        ));
                    }
                }
            }
        }
    }
}

/// Checks one cell's answer against the reference.  A cell with only a lower
/// bracket (a failing cell today) that answers exactly is also checked
/// against the simulation, outside the timed pass: a simulated response time
/// above the exact answer contradicts it.
pub fn check_cell(
    reference: &Reference,
    checker: &mut Checker,
    spec: &CellSpec,
    estimate: Estimate,
    sim_seed: u64,
) {
    checker.check_estimate(reference, &spec.id, estimate);
    let (Some(RefValue::AtLeast(_)), Some(exact)) = (reference.get(&spec.id), estimate.exact())
    else {
        return;
    };
    let simulated = SimEngine::with_config(sim_config(sim_seed))
        .run(
            &spec.model(),
            &Query::wcrt(spec.requirement),
            &RunContext::default(),
        )
        .ok()
        .and_then(|r| estimate_of(&r, spec.requirement))
        .and_then(Estimate::lower);
    if let Some(lo) = simulated.filter(|lo| *lo > exact) {
        checker.fail(format!(
            "{}: simulation's lower bound {lo} exceeds the exact TA answer {exact}",
            spec.id
        ));
    }
}

/// Which table workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TableWorkload {
    Quick,
    Paper,
}

impl TableWorkload {
    pub fn cells(self) -> Vec<CellSpec> {
        match self {
            TableWorkload::Quick => table1_quick_cells(),
            TableWorkload::Paper => paper_cells(),
        }
    }

    pub fn has_table2(self) -> bool {
        self == TableWorkload::Paper
    }
}

/// The operations of one pass, in table order.  The order is fixed because
/// it moves the timings through the heap the earlier cells leave behind: a
/// seeded order moved a pass by up to 30%.  The seed only seeds the
/// simulation.
pub fn pass_ops(workload: TableWorkload) -> (Vec<CellSpec>, Vec<Table2Row>) {
    let rows = if workload.has_table2() {
        table2_rows()
    } else {
        Vec::new()
    };
    (workload.cells(), rows)
}

pub fn run_pass(cells: &[CellSpec], rows: &[Table2Row], sim_seed: u64) -> Pass {
    let cfg = cell_config();
    let started = Instant::now();
    let cells = cells.iter().map(|spec| run_cell(spec, &cfg)).collect();
    let rows = rows
        .iter()
        .map(|row| run_row(row, &CaseStudyParams::default(), sim_seed))
        .collect();
    Pass {
        cells,
        rows,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Set-up of one table pass: building every cell's model and validating it
/// through `Session::new`.  Averaged over [`SETUP_BATCH`] set-ups, which take
/// microseconds each.
pub fn setup_once(cells: &[CellSpec], rows: &[Table2Row]) -> f64 {
    let started = Instant::now();
    for _ in 0..SETUP_BATCH {
        setup_pass(cells, rows);
    }
    started.elapsed().as_secs_f64() / SETUP_BATCH as f64
}

const SETUP_BATCH: usize = 200;

fn setup_pass(cells: &[CellSpec], rows: &[Table2Row]) {
    let cfg = cell_config();
    for spec in cells {
        let model = spec.model();
        let session = Session::new(&model, cfg.clone()).expect("case-study models validate");
        std::hint::black_box(&session);
    }
    for row in rows {
        for column in [
            EventModelColumn::PeriodicOffsetZero,
            EventModelColumn::PeriodicUnknownOffset,
        ] {
            let model = radio_navigation(row.combo, column, &CaseStudyParams::default());
            model.validate().expect("case-study models validate");
            std::hint::black_box(&model);
        }
    }
}
