//! Reference answers (`reference.json`) and the checks against them.
//!
//! Every `table1-quick` and `paper-params` cell and every Table 2 row has an
//! entry with its provenance.  A run is wrong when an exact answer differs
//! from the reference, when a lower bound exceeds it, or when the
//! simulation's lower bound exceeds the exact TA answer.  A typed error is
//! never wrong: it counts as a failed operation instead.
//!
//! A cell that fails today has no exact value to compare with.  Where a sound
//! bracket exists the entry holds it: an sp cell is at least the exact pno
//! value of the same requirement, because sporadic arrivals with the period
//! as minimum distance include every periodic arrival pattern with an unknown
//! offset.
//!
//! `perfbench --print-reference` recomputes the file (about four minutes).

use crate::tables::{self, CellSpec, STATE_BUDGET};
use std::collections::HashMap;
use tempo_arch::engine::Estimate;
use tempo_arch::TimeValue;
use tempo_check::StorageKind;
use tempo_serve::json::{self, JsonValue};

const REFERENCE: &str = include_str!("../reference.json");

/// What the reference knows about one answer.
#[derive(Clone, Copy, Debug)]
pub enum RefValue {
    /// The exact worst-case response time.
    Exact(TimeValue),
    /// An analytic engine's upper bound, recorded for information only.
    Upper(TimeValue),
    /// No exact value is established (the cell fails with a typed error
    /// today), but the answer is known to be at least this value.
    AtLeast(TimeValue),
    /// No value is established.
    Unknown,
}

pub struct Reference {
    entries: HashMap<String, RefValue>,
}

impl Reference {
    pub fn load() -> Reference {
        let root = json::parse(REFERENCE).expect("reference.json parses");
        let mut entries = HashMap::new();
        for e in root
            .get("entries")
            .and_then(JsonValue::as_array)
            .expect("reference.json has an `entries` array")
        {
            let id = e.get("id").and_then(JsonValue::as_str).expect("entry id");
            let time = || {
                TimeValue::ratio_us(
                    e.get("num").and_then(JsonValue::as_i128).expect("num"),
                    e.get("den").and_then(JsonValue::as_i128).expect("den"),
                )
            };
            let value = match e.get("kind").and_then(JsonValue::as_str) {
                Some("exact") => RefValue::Exact(time()),
                Some("upper") => RefValue::Upper(time()),
                Some("at_least") => RefValue::AtLeast(time()),
                Some("unknown") => RefValue::Unknown,
                other => panic!("reference entry {id}: unknown kind {other:?}"),
            };
            entries.insert(id.to_string(), value);
        }
        Reference { entries }
    }

    pub fn get(&self, id: &str) -> Option<RefValue> {
        self.entries.get(id).copied()
    }
}

/// Collects contradictions; the first one is what the run reports.
#[derive(Default)]
pub struct Checker {
    pub failures: Vec<String>,
}

impl Checker {
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Checks one estimate against the reference entry `id`.
    pub fn check_estimate(&mut self, reference: &Reference, id: &str, estimate: Estimate) {
        match reference.get(id) {
            None => self.fail(format!("{id}: no reference answer")),
            Some(RefValue::Unknown) | Some(RefValue::Upper(_)) => {}
            Some(RefValue::Exact(v)) => self.check_against(id, estimate, v),
            Some(RefValue::AtLeast(lo)) => {
                if estimate.upper().is_some_and(|hi| hi < lo) {
                    self.fail(format!(
                        "{id}: answer {estimate} lies below the reference's lower bracket {lo}"
                    ));
                }
            }
        }
    }

    /// Checks one estimate against a known exact value.
    pub fn check_against(&mut self, id: &str, estimate: Estimate, exact: TimeValue) {
        let wrong = match estimate {
            Estimate::Exact(x) => x != exact,
            Estimate::LowerBound(lo) => lo > exact,
            Estimate::UpperBound(hi) => hi < exact,
            Estimate::Interval { lo, hi } => lo > exact || hi < exact,
        };
        if wrong {
            self.fail(format!(
                "{id}: answer {estimate} contradicts the reference {exact}"
            ));
        }
    }
}

/// The paper's Table 1 (po, pno, sp, pj, bur) and Table 2 SymTA/S and MPA
/// values in ms, where the paper prints a number.
fn paper_value(id: &str) -> Option<f64> {
    let (column, requirement) = id.split_once('/').map(|(_, rest)| rest.split_once('/'))??;
    let row: [Option<f64>; 7] = match requirement {
        "HandleTMC (+ ChangeVolume)" => [
            Some(357.133),
            Some(381.632),
            Some(382.076),
            None,
            None,
            Some(382.086),
            Some(390.0862),
        ],
        "HandleTMC (+ AddressLookup)" => [
            Some(172.106),
            Some(239.080),
            Some(239.080),
            Some(329.989),
            Some(420.898),
            Some(253.304),
            Some(265.8491),
        ],
        "K2A (ChangeVolume + HandleTMC)" => [
            Some(27.716),
            Some(27.716),
            Some(27.716),
            None,
            None,
            Some(27.717),
            Some(28.1616),
        ],
        "A2V (ChangeVolume + HandleTMC)" => [
            Some(41.796),
            Some(41.796),
            Some(41.796),
            None,
            None,
            Some(41.798),
            Some(42.2424),
        ],
        "AddressLookup (+ HandleTMC)" => [
            Some(79.075),
            Some(79.075),
            Some(79.075),
            Some(79.075),
            Some(79.075),
            Some(79.076),
            Some(84.066),
        ],
        _ => return None,
    };
    let index = ["po", "pno", "sp", "pj", "bur", "symta", "mpa"]
        .iter()
        .position(|c| *c == column)?;
    row[index]
}

fn entry_line(id: &str, kind: &str, value: Option<TimeValue>, provenance: &str) -> String {
    let mut e = JsonValue::obj([
        ("id", id.into()),
        ("kind", kind.into()),
        ("provenance", provenance.into()),
    ]);
    if let Some(t) = value {
        e.set("num", t.numerator().into());
        e.set("den", t.denominator().into());
        e.set("ms", JsonValue::Float(t.as_millis_f64()));
    }
    e.print()
}

fn provenance_for(id: &str, value: TimeValue, otherwise: &str) -> String {
    match paper_value(id) {
        Some(p) if (p - value.as_millis_f64()).abs() < 5e-4 => {
            format!("paper: equals the published value {p} ms")
        }
        _ => otherwise.to_string(),
    }
}

/// One cell's entry; `exact` collects the exact values established so far,
/// so that a failing sp cell can take its pno neighbour as lower bracket.
fn cell_entry(spec: &CellSpec, exact: &mut HashMap<String, TimeValue>) -> String {
    let outcome = tables::run_cell(spec, &tables::cell_config());
    eprintln!(
        "  {} -> {} ({:.2}s)",
        spec.id,
        outcome.record(),
        outcome.secs
    );
    let flat = format!(
        "this tree: exact under the default configuration (flat storage, {STATE_BUDGET} state budget)"
    );
    match &outcome.result {
        Ok(r) if r.wcrt.is_some() => {
            let v = r.wcrt.expect("exact");
            exact.insert(spec.id.clone(), v);
            entry_line(
                &spec.id,
                "exact",
                Some(v),
                &provenance_for(&spec.id, v, &flat),
            )
        }
        Ok(_) => {
            // The flat store truncates: establish the exact value with the
            // federation store, which the storage differential harness proves
            // answer-equivalent.
            let mut cfg = tables::cell_config();
            cfg.search.storage = StorageKind::Federation;
            let fed = tables::run_cell(spec, &cfg);
            let v = fed
                .result
                .as_ref()
                .ok()
                .and_then(|r| r.wcrt)
                .unwrap_or_else(|| panic!("{}: federation run is not exact either", spec.id));
            exact.insert(spec.id.clone(), v);
            let note = format!(
                "this tree: federation-storage run ({:.1} s); the default flat store truncates at {STATE_BUDGET} states",
                fed.secs
            );
            entry_line(
                &spec.id,
                "exact",
                Some(v),
                &provenance_for(&spec.id, v, &note),
            )
        }
        Err(e) => {
            let failing = format!("no exact value established: the cell fails on this tree ({e})");
            let pno_id = spec.id.replace("/sp/", "/pno/");
            match exact.get(&pno_id) {
                Some(&lo) if pno_id != spec.id => entry_line(
                    &spec.id,
                    "at_least",
                    Some(lo),
                    &format!(
                        "{failing}; lower bracket: the exact {pno_id} value, since sporadic arrivals include every periodic arrival pattern with an unknown offset"
                    ),
                ),
                _ => entry_line(&spec.id, "unknown", None, &failing),
            }
        }
    }
}

/// Recomputes `reference.json` and prints it.
pub fn print_reference() {
    let mut lines = Vec::new();
    let mut exact = HashMap::new();
    for spec in tables::all_quick_cells()
        .iter()
        .chain(&tables::paper_cells())
    {
        lines.push(cell_entry(spec, &mut exact));
    }
    let params = tempo_arch::casestudy::CaseStudyParams::default();
    for row in tables::table2_rows() {
        let outcome = tables::run_row(&row, &params, 0);
        for engine in ["symta", "mpa"] {
            let id = format!("table2/{engine}/{}", row.requirement);
            let estimate = outcome
                .estimates()
                .into_iter()
                .find(|(name, _)| name == engine)
                .map(|(_, e)| e);
            let error = outcome.comparison.as_ref().ok().and_then(|c| {
                c.rows
                    .iter()
                    .find(|r| r.engine == engine)
                    .and_then(|r| r.outcome.as_ref().err())
                    .map(|e| e.to_string())
            });
            lines.push(match estimate {
                Some(Estimate::UpperBound(v)) => entry_line(
                    &id,
                    "upper",
                    Some(v),
                    &provenance_for(&id, v, "this tree: analytic upper bound (informational)"),
                ),
                _ => entry_line(
                    &id,
                    "unknown",
                    None,
                    &format!("this tree: no answer ({})", error.unwrap_or_default()),
                ),
            });
        }
    }
    println!("{{\"note\": \"Reference answers of the perfbench workloads; regenerate with `perfbench --print-reference`. Table 2's TA columns are the paper/po and paper/pno cells.\",");
    println!(" \"entries\": [");
    for (i, line) in lines.iter().enumerate() {
        println!("  {line}{}", if i + 1 == lines.len() { "" } else { "," });
    }
    println!(" ]}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(value: RefValue) -> Reference {
        Reference {
            entries: HashMap::from([("cell".to_string(), value)]),
        }
    }

    fn failures(value: RefValue, estimate: Estimate) -> usize {
        let mut checker = Checker::default();
        checker.check_estimate(&reference(value), "cell", estimate);
        checker.failures.len()
    }

    #[test]
    fn a_lower_bracket_rejects_answers_below_it() {
        let lo = TimeValue::millis(10);
        let at_least = RefValue::AtLeast(lo);
        assert_eq!(failures(at_least, Estimate::Exact(TimeValue::millis(9))), 1);
        assert_eq!(
            failures(at_least, Estimate::UpperBound(TimeValue::millis(9))),
            1
        );
        assert_eq!(failures(at_least, Estimate::Exact(lo)), 0);
        assert_eq!(
            failures(at_least, Estimate::Exact(TimeValue::millis(11))),
            0
        );
        assert_eq!(
            failures(at_least, Estimate::LowerBound(TimeValue::millis(5))),
            0
        );
    }

    #[test]
    fn an_exact_reference_rejects_other_exact_answers_and_higher_lower_bounds() {
        let exact = RefValue::Exact(TimeValue::millis(10));
        assert_eq!(failures(exact, Estimate::Exact(TimeValue::millis(10))), 0);
        assert_eq!(failures(exact, Estimate::Exact(TimeValue::millis(11))), 1);
        assert_eq!(
            failures(exact, Estimate::LowerBound(TimeValue::millis(11))),
            1
        );
        assert_eq!(
            failures(exact, Estimate::LowerBound(TimeValue::millis(9))),
            0
        );
    }
}
